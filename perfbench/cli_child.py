"""Traced CLI child: ``python3 perfbench/cli_child.py STATS_PATH ARGS...``
behaves like ``python -m planehopf.cli ARGS...`` (same output and exit
code, tracebacks included) and writes to STATS_PATH the time to import
``planehopf.cli``, to build the parser and parse ARGS, and to run
``cli.main(ARGS)`` (which parses again), plus per-function spans and lru
cache counts for this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import planehopf.cli as cli

    times = {"import_s": time.perf_counter() - t0}

    import tracer

    modules = tracer.load_modules()
    tables = tracer.cache_tables(modules)
    tr = tracer.Tracer()
    tr.install(modules)
    code = None
    try:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.build_parser().parse_args(argv)
        except SystemExit:
            pass  # main below reports the usage error
        times["parse_s"] = time.perf_counter() - t0
        tr.active = True
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        times["main_s"] = time.perf_counter() - t0
    finally:
        tr.active = False
        sys.stdout.flush()
        with open(stats_path, "w") as out:
            json.dump({"times": times,
                       "spans": {k: v for k, v in tr.snapshot().items() if v},
                       "caches": tracer.cache_stats(tables),
                       "absent": tr.absent}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
