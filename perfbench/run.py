"""Request-level benchmark for planehopf.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``algebra_session``: one library session whose lru caches start empty
  and persist across requests (Hopf and NSym kernels).
* ``exact_series``: q-series and Birkhoff requests in one session
  (polynomial, rational-function and Laurent arithmetic).
* ``cli_cold``: ``python -m planehopf.cli --format json ...``, each
  request in a fresh process, one at a time.

Each workload is a seeded list of independent requests run closed-loop by
one client.  The list is fixed by the seed and the run length, and costs
about ``--seconds`` of requests on a 2-vCPU x86 VM.  Every result is
checked straight after its timed interval, untimed, against an
independent route or golden data, and then dropped; for the library
workloads the check runs in a separate checker process.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: per-function calls and self time on a third of
the request list, lru cache hits and misses, ``host.probe_s``,
``trace.overhead_ratio`` and the largest degree some operations finish
within a per-call budget.  The traced request list is run again, traced,
in a fresh process under another string-hash seed, and the run is marked
incorrect unless both traced passes make identical call counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details such as the percentile and sample count behind
``req_tail_s``.  ``correct`` is false when any request returned a wrong
result; failures of any kind (wrong result, exception or traceback,
unexpected exit code, deadline overrun) count in ``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import math
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("algebra_session", "exact_series", "cli_cold")
SETUP_REPEATS = 9
TAIL_BEYOND = 10
LIBRARY_DEADLINE_S = 10.0
RUN_CAP_S = 120.0          # requests not started by then count as failed
PROBE_EVERY = 10
REACH_BUDGET_S = 3.0
REACH_CAP = 12
REACH_TARGETS = ("ncsf.embed_r", "hopf.x_to_c", "ncsf.gamma_qsym_m",
                 "birkhoff.d_lambda_ribbon")


class Deadline(BaseException):
    """Raised in the main thread when a library request overruns."""


def _on_alarm(signum, frame):
    raise Deadline()


def host_probe() -> float:
    """Time a fixed pure-Python kernel that does not touch planehopf."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - t0


class Outcome:
    __slots__ = ("latency", "result", "error", "wrong", "rss_kb", "stats")

    def __init__(self, latency, result=None, error=None):
        self.latency = latency      # None when the request was not run
        self.result = result
        self.error = error          # failure description, or None
        self.wrong = False          # the failure is a wrong result
        self.rss_kb = 0             # peak RSS of a CLI child
        self.stats = None           # what a traced CLI child recorded


# ---------------------------------------------------------------------------
# In-process workloads


def import_package():
    """Fresh import of every planehopf module (lru caches start empty)."""
    for name in [m for m in sys.modules if m == "planehopf"
                 or m.startswith("planehopf.")]:
        del sys.modules[name]
    import tracer

    return argparse.Namespace(**tracer.load_modules())


def every(step: int, action):
    """A between-requests hook that runs ``action`` before every ``step``-th
    request and after the last one."""
    return lambda k, last: action() if k % step == 0 or last else None


def spread_over(total: int, action):
    """A between-requests hook that runs ``action`` SETUP_REPEATS times,
    before requests spread evenly over the pass, so that the set-up
    samples see the same host periods as the requests do."""
    marks = {j * total // SETUP_REPEATS for j in range(SETUP_REPEATS)}
    return lambda k, last: action() if k in marks and not last else None


def library_pass(pk, requests, tr=None, checker=None, hook=None) -> list:
    """Run the requests in order.  With a checker, each result is sent to
    it straight after its timed interval and then dropped.  With a tracer,
    spans are recorded inside the timed calls only.  ``hook(k, last)`` runs
    untimed before request k and once more after the last request."""
    import library

    out = []
    hook = hook or (lambda k, last: None)
    start = time.perf_counter()
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for k, (kind, n, args) in enumerate(requests):
            hook(k, False)
            if time.perf_counter() - start > RUN_CAP_S:
                out.append(Outcome(None, error="not started: run cap"))
                continue
            call, res, err = library.CALLS[kind], None, None
            signal.setitimer(signal.ITIMER_REAL, LIBRARY_DEADLINE_S)
            if tr:
                tr.active = True
            t0 = time.perf_counter()
            try:
                res = call(pk, *args)
            except Deadline:
                err = f"{kind}: deadline overrun"
            except Exception as exc:  # a crash is a counted failure
                err = f"{kind}: {exc!r}"
            finally:
                latency = time.perf_counter() - t0
                if tr:
                    tr.active = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            oc = Outcome(latency, error=err)
            if err is None and checker:
                msg = checker.check(k, kind, res)
                if msg is not None:
                    oc.error, oc.wrong = f"{kind}[n={n}]: {msg}", True
            out.append(oc)
            del res
    finally:
        signal.signal(signal.SIGALRM, old)
    hook(len(requests), True)
    return out


class Checker:
    """A child process that rebuilds this run's request list and checks
    each result sent to it against the reference routes.  The routes'
    tables then stay out of the measured process and its peak memory."""

    def __init__(self, args, src: Path):
        env = dict(os.environ, PYTHONPATH=str(src))
        cmd = [sys.executable, str(HERE / "lib_child.py"), "check",
               args.workload, str(args.seed), str(args.seconds)]
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._receive()  # ready: the child has built its request list

    def _receive(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError("checker process ended") from None

    def check(self, k: int, kind: str, result):
        """None if the result of request k is right, else a description."""
        buf = io.BytesIO()
        try:
            pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
            pickler.fast = True  # no memo: results hold no cycles
            pickler.dump((k, kind, result))
        except Exception as exc:  # an unpicklable result cannot be checked
            return f"result not sent to the checker: {exc!r}"
        self.proc.stdin.write(buf.getbuffer())
        self.proc.stdin.flush()
        return self._receive()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def library_setup(workload: str, seed: int, seconds: float):
    """Import planehopf afresh and build the request list; returns
    (package namespace, requests, seconds taken)."""
    import library

    t0 = time.perf_counter()
    pk = import_package()
    requests = library.build(pk, workload, seed, seconds)
    return pk, requests, time.perf_counter() - t0


def lib_child(mode: str, args, src: Path, hash_seed=None) -> dict:
    """Run ``lib_child.py MODE`` for this run's workload in a fresh
    process and return the JSON object it prints."""
    env = dict(os.environ, PYTHONPATH=str(src))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    cmd = [sys.executable, str(HERE / "lib_child.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_CAP_S + 30, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics


def harrell_davis(xs: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of the sorted samples: the
    order statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass of each
    interval ((i-1)/n, i/n].  It averages the neighbours of the plain order
    statistic, so one noisy sample moves it less."""
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t)
                        + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule on each interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if j % 2 else 2) * pdf(lo + j * h)
                    for j in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(outcomes, setup_samples, peak_rss_kb) -> tuple:
    lat = sorted(oc.latency for oc in outcomes if oc.latency is not None)
    failed = sum(1 for oc in outcomes if oc.error is not None)
    attempted = len(outcomes)
    beyond = min(TAIL_BEYOND, len(lat) - 1)
    tail_p = (len(lat) - beyond) / len(lat)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_s": (sum(lat), "s"),
        "req_p50_s": (harrell_davis(lat, 0.5), "s"),
        "req_tail_s": (harrell_davis(lat, tail_p), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "req_tail": {"percentile": round(100.0 * tail_p, 2),
                     "samples_beyond": beyond, "samples": len(lat)},
        "fail_share": failed / attempted,
    }
    return metrics, detail


def emit(detail: dict, outcomes, metrics: dict) -> int:
    failures = [oc.error for oc in outcomes if oc.error is not None]
    detail["attempted"] = len(outcomes)
    detail["failed"] = len(failures)
    detail["failures"] = failures[:20]
    print(json.dumps({"detail": detail}, sort_keys=True))
    wrong = any(oc.wrong for oc in outcomes) or \
        not detail.get("counts_repeat", True)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def reach(src: Path) -> dict:
    """Largest degree each probe finishes within the per-call budget,
    each in a fresh process so its caches start empty."""
    out = {}
    env = dict(os.environ, PYTHONPATH=str(src))
    for target in REACH_TARGETS:
        cmd = [sys.executable, str(HERE / "reach.py"), target,
               str(REACH_BUDGET_S), str(REACH_CAP)]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=REACH_BUDGET_S * 4 + 30)
            out[f"{target}.max_n"] = json.loads(
                proc.stdout.strip().splitlines()[-1])["max_n"]
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError):
            out[f"{target}.max_n"] = 0
    return out


def traced_subset(requests) -> list:
    return requests[: max(TAIL_BEYOND + 1, math.ceil(len(requests) / 3))]


def run_library(args, src: Path) -> int:
    import tracer

    if not args.trace:
        pk, requests, _ = library_setup(args.workload, args.seed, args.seconds)
        setup_samples: list = []
        hook = spread_over(len(requests), lambda: setup_samples.append(
            lib_child("setup", args, src)["setup_s"]))
        with Checker(args, src) as checker:
            outcomes = library_pass(pk, requests, checker=checker, hook=hook)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, detail = end_to_end(outcomes, setup_samples, peak)
        detail.update(workload=args.workload, seed=args.seed)
        return emit(detail, outcomes, metrics)

    pk, requests, _ = library_setup(args.workload, args.seed, args.seconds)
    subset = traced_subset(requests)
    modules = vars(pk)
    tables = tracer.cache_tables(modules)
    tracer.clear_caches(tables)
    plain = library_pass(pk, subset)
    plain_job = sum(oc.latency or 0.0 for oc in plain)
    tr = tracer.Tracer()
    tr.install(modules)
    tracer.clear_caches(tables)
    probes: list = []
    hook = every(PROBE_EVERY, lambda: probes.append(host_probe()))
    with Checker(args, src) as checker:
        outcomes = library_pass(pk, subset, tr, checker, hook)
    spans, caches = tr.snapshot(), tracer.cache_stats(tables)
    traced_job = sum(oc.latency or 0.0 for oc in outcomes)
    metrics = layer_metrics(spans, caches, probes, traced_job / plain_job,
                            reach(src), cli_times={})
    # The repeat runs in a fresh process under another string-hash seed, as
    # a separate run of the benchmark would.
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    repeat = lib_child("counts", args, src, hash_seed)["calls"]
    detail = {"workload": args.workload, "seed": args.seed,
              "traced_requests": len(subset),
              "counts_repeat": call_counts(spans) == repeat,
              "absent": tr.absent + absent_tables(caches),
              "cache_tables": sorted(t for t in tables)}
    return emit(detail, outcomes, metrics)


def call_counts(spans: dict) -> dict:
    return {k: v for k, v in spans.items() if k.endswith(".calls")}


def absent_tables(caches: dict) -> list:
    import tracer

    return [t for t in tracer.CACHE_TABLES if f"{t}.hits" not in caches]


def layer_metrics(spans, caches, probes, overhead, reach_n, cli_times) -> dict:
    import tracer

    metrics = {}
    for name in tracer.span_names():
        metrics[f"{name}.calls"] = (spans.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = (spans.get(f"{name}.self_s", 0.0), "s")
    for stage in ("import_s", "parse_s", "main_s"):
        samples = cli_times.get(stage)
        metrics[f"cli.{stage}"] = (statistics.median(samples) if samples
                                   else 0.0, "s")
    for table in tracer.CACHE_TABLES:
        for what in ("hits", "misses"):
            metrics[f"{table}.{what}"] = (caches.get(f"{table}.{what}", 0),
                                          "count")
    metrics["host.probe_s"] = (statistics.median(probes), "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    for name, value in reach_n.items():
        metrics[name] = (value, "n")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "planehopf" / "__init__.py").is_file():
        print(f"error: no planehopf sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    # Byte-compile once, as an installed package is, so that no timed
    # import, in set-up or in a CLI child, includes compiling.
    for tree in (src, HERE):
        compileall.compile_dir(str(tree), quiet=2)
    sys.path.insert(0, str(src))
    if args.workload == "cli_cold":
        import cli_cold

        return cli_cold.run(args, src)
    return run_library(args, src)


if __name__ == "__main__":
    sys.exit(main())
