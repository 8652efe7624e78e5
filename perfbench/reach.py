"""Degree reach of one operation: the largest n whose call finishes within
a per-call budget, trying n = 1, 2, ... in one fresh process.

    python3 perfbench/reach.py TARGET BUDGET_S CAP

Prints {"max_n": n} as its last line.  Run by ``run.py --trace 1`` with
``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import signal
import sys
import time


class Budget(BaseException):
    pass


def _on_alarm(signum, frame):
    raise Budget()


def probes():
    from planehopf import birkhoff, forests, hopf, ncsf

    return {
        "ncsf.embed_r": lambda n: ncsf.embed_r((2,) * (n // 2) + (1,) * (n % 2)),
        "hopf.x_to_c": lambda n: hopf.x_to_c(hopf.s_n(n)),
        "ncsf.gamma_qsym_m": lambda n: ncsf.gamma_qsym_m(forests.singletons(n)),
        "birkhoff.d_lambda_ribbon": lambda n: birkhoff.d_lambda_ribbon((n - 1,)),
    }


def main() -> int:
    target, budget, cap = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
    call = probes()[target]
    signal.signal(signal.SIGALRM, _on_alarm)
    best = 0
    for n in range(2, cap + 1):
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.perf_counter()
        try:
            call(n)
        except Budget:
            break
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps({"n": n, "seconds": time.perf_counter() - t0}),
              flush=True)
        best = n
    print(json.dumps({"max_n": best}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
