"""Child process of the in-process workloads.

    python3 perfbench/lib_child.py setup WORKLOAD SEED SECONDS
    python3 perfbench/lib_child.py counts WORKLOAD SEED SECONDS
    python3 perfbench/lib_child.py check WORKLOAD SEED SECONDS

``setup`` times a fresh import of planehopf plus building the request list
and prints ``{"setup_s": ...}``.  ``counts`` runs the traced request subset
of that run and prints ``{"calls": {...}}``, the call count of every span.
``check`` builds the same request list, pickles ``None`` to stdout when
ready, then reads pickled ``(index, kind, result)`` triples from stdin
until it closes and answers each with the check's verdict: ``None`` or a
description of what is wrong.  Run with ``PYTHONPATH`` naming the ``src``
directory of the checkout.
"""

from __future__ import annotations

import json
import pickle
import sys
import traceback

import library  # the benchmark's own modules load before timing starts
import run
import tracer


def main() -> int:
    mode, workload, seed, seconds = sys.argv[1:]
    pk, requests, took = run.library_setup(workload, int(seed), float(seconds))
    if mode == "setup":
        print(json.dumps({"setup_s": took}))
        return 0
    if mode == "check":
        return serve_checks(requests)
    tr = tracer.Tracer()
    tr.install(vars(pk))
    run.library_pass(pk, run.traced_subset(requests), tr)
    print(json.dumps({"calls": run.call_counts(tr.snapshot())}))
    return 0


def serve_checks(requests) -> int:
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    pickle.dump(None, out)
    out.flush()
    while True:
        try:
            k, kind, result = pickle.load(inp)
        except EOFError:
            return 0
        want_kind, n, args = requests[k]
        if kind != want_kind:
            verdict = f"request {k} is {want_kind}, not {kind}"
        else:
            try:
                verdict = library.CHECKS[kind](result, *args)
            except Exception:
                verdict = f"check raised: {traceback.format_exc(limit=2)}"
        pickle.dump(verdict, out)
        out.flush()


if __name__ == "__main__":
    sys.exit(main())
