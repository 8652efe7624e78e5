"""The ``cli_cold`` workload: each request is a fresh
``python -m planehopf.cli --format json ...`` process, run one at a time.

About 15% of the requests are invalid or over budget and must exit with
2, 3 or 4 and no traceback.  Three requests that fail at the time this
benchmark was written stay in every run and count as failures until the
program is fixed:

* ``birkhoff sigma-plus`` with no ``--n`` (traceback, exit 1);
* ``ehrhart qcount --n -1`` (exit 0 instead of a domain error);
* ``nsym embed --I 9`` (runs past the per-request deadline instead of
  being refused with exit 4).

Outputs of valid requests are checked against :mod:`oracle`.  Polynomial
and rational-function outputs are parsed and compared by exact value at
sample points, never by text.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import oracle as o

HERE = Path(__file__).resolve().parent
DEADLINE_S = 5.0
UNIT_SECONDS = 9.0
INVALID_PER_UNIT = 11  # with the known defects, 15% of a 20 s run
TMP = Path(".perfbench_tmp")

# ---------------------------------------------------------------------------
# Checks of JSON payloads


def _codes_equal(got, want_forests):
    return sorted(got) == sorted(o.code(f) for f in want_forests)


def _key(k) -> str:
    """The CLI's printed form of a forest or composition key."""
    if not k or isinstance(k[0], tuple):
        return o.code(k) or "e"
    return ",".join(map(str, k))


def _terms_equal(got: dict, want: dict) -> bool:
    want = {_key(k): v for k, v in want.items() if v}
    return {k: Fraction(v) for k, v in got.items()} == want


def check_payload(req: dict, data: dict):
    kind, p = req["kind"], req["params"]
    if kind == "forest parse":
        f = o.parse(p["code"])
        ok = (data["code"], data["size"], data["trees"]) == \
            (o.code(f), o.size(f), len(f))
    elif kind == "forest list":
        want = [f for f in o.forests(p["n"]) if not p["trees"] or len(f) == 1]
        ok = _codes_equal(data["codes"], want)
    elif kind == "tamari upset":
        ok = _codes_equal(data["codes"], o.upset(o.parse(p["forest"])))
    elif kind == "tamari downset":
        ok = _codes_equal(data["codes"], o.downset(o.parse(p["forest"])))
    elif kind == "tamari leq":
        lo, hi = o.parse(p["lower"]), o.parse(p["upper"])
        ok = data["result"] is (hi in o.upset(lo))
    elif kind == "hopf product":
        f, g = o.parse(p["left"]), o.parse(p["right"])
        if p["basis"] == "X":
            want = o.x_product(f, g)
            ok = _terms_equal(data["terms"], want)
        elif p["basis"] == "Y":
            ok = _terms_equal(data["terms"], {f + g: 1})
        else:
            xf, xg = o.c_to_x({f: 1}), o.c_to_x({g: 1})
            want_x: dict = {}
            for a, ca in xf.items():
                for b, cb in xg.items():
                    for h, c in o.x_product(a, b).items():
                        want_x[h] = want_x.get(h, 0) + ca * cb * c
            got_c = {o.parse(k): Fraction(v) for k, v in data["terms"].items()}
            ok = o.c_to_x(got_c) == {h: c for h, c in want_x.items() if c}
    elif kind == "hopf coproduct":
        f = o.parse(p["forest"])
        if p["basis"] == "Y":
            want = o.y_coproduct(f)
        else:
            want = {(f[:k], f[k:]): 1 for k in range(len(f) + 1)}
        want = {f"{o.code(a) or 'e'} (x) {o.code(b) or 'e'}": c
                for (a, b), c in want.items()}
        ok = {k: Fraction(v) for k, v in data["terms"].items()} == want
    elif kind == "nsym embed":
        i = tuple(int(x) for x in p["I"].split(","))
        ok = _terms_equal(data["terms"], o.embed(p["basis"], i))
    elif kind in ("nsym psi", "nsym psibar"):
        want = (o.psi if kind == "nsym psi" else o.psi_bar)(p["n"])
        ok = _terms_equal(data["terms"], want)
    elif kind == "birkhoff sigma-plus":
        ok = _check_sigma_plus(data["terms"], p["n"], p["spec"])
    elif kind == "birkhoff d-lambda":
        lam = tuple(int(x) for x in p["lambda"].split(","))
        n = sum(lam) + 1
        c_form = {t: 1 for t in o.trees(n) if o.code_partition(t[0]) == lam}
        if p["basis"] == "C":
            ok = _terms_equal(data["terms"], c_form)
        elif p["basis"] == "X":
            ok = _terms_equal(data["terms"], o.c_to_x(c_form))
        else:
            coords = {tuple(int(x) for x in k.split(",")): Fraction(v)
                      for k, v in data["terms"].items()}
            ok = o.ribbon_to_x(coords, n) == o.c_to_x(c_form)
    elif kind == "birkhoff words":
        i = tuple(int(x) for x in p["I"].split(","))
        words = [tuple(int(c) for c in w) for w in data["words"]]
        member = o.in_w if p["model"] == "W" else o.in_s
        ok = (data["count"] == len(words) == len(set(words))
              == o.words_count(i, p["model"])
              and all(member(w, i) for w in words))
    elif kind == "idem eulerian":
        want = {f: o.order_poly_coeff(f, p["k"]) for f in o.forests(p["n"])}
        ok = _terms_equal(data["terms"], want)
    elif kind == "idem dynkin":
        psi, psib = o.psi(p["n"]), o.psi_bar(p["n"])
        if p["basis"] == "X":
            psi, psib = o.ribbon_to_x(psi, p["n"]), o.ribbon_to_x(psib, p["n"])
        ok = _terms_equal(data["psi"], psi) and _terms_equal(data["psi_bar"], psib)
    elif kind == "idem solomon":
        want = o.solomon_r(p["n"])
        if p["basis"] == "X":
            want = o.ribbon_to_x(want, p["n"])
        ok = _terms_equal(data["terms"], want)
    elif kind == "idem qsolomon":
        ok = _check_q_solomon(data["terms"], p["n"])
    elif kind == "idem verify":
        n = p["n"]
        if p["what"] == "primitive":
            want = {"psi": True, "psi_bar": True, "solomon": True}
        else:
            want = {"psi": f"ok, scalar {n}", "psi_bar": f"ok, scalar {n}",
                    "solomon": "ok, scalar 1"}
        ok = data["results"] == want and data["passed"] is True
    elif kind == "ehrhart poly":
        f = o.parse(p["forest"])
        ok = all(o.evaluate(data["poly"], {"x": x}) == o.ehrhart_at(f, x)
                 for x in (Fraction(1, 3), Fraction(-5, 2), Fraction(2)))
    elif kind == "ehrhart points":
        pts = o.lattice_points(o.parse(p["forest"]), p["n"], p["interior"])
        ok = (data["count"] == len(pts) and sorted(data["points"])
              == sorted(",".join(map(str, x)) for x in pts))
    elif kind == "ehrhart qcount":
        f = o.parse(p["forest"])
        sign = (-1) ** o.size(f) if p["interior"] else 1
        want: dict = {}
        for x in o.lattice_points(f, p["n"], p["interior"]):
            e = -sum(x) if p["interior"] else sum(x)
            want[e] = want.get(e, 0) + sign
        ok = ({int(e): Fraction(c) for e, c in data["q_terms"].items()}
              == {e: c for e, c in want.items() if c}
              and {int(e): Fraction(c) for e, c in data["q_terms_abs"].items()}
              == {e: abs(c) for e, c in want.items() if c})
    elif kind == "verify":
        ok = data["passed"] is True and data["counterexamples"] == []
    else:
        raise KeyError(kind)
    return None if ok else f"{kind}: output differs"


def _check_sigma_plus(terms: dict, n: int, spec: str) -> bool:
    values, letters = o.a_values(spec)
    if sorted(terms) != sorted(o.code(f) for f in o.forests(n)):
        return False
    for key, text in terms.items():
        want = o.phi_plus_at(o.parse(key), letters, o.Z_POINTS)
        got = [o.evaluate(text, dict(values, z=z)) for z in o.Z_POINTS]
        if got != want:
            return False
    return True


def _check_q_solomon(terms: dict, n: int) -> bool:
    if sorted(terms) != sorted(",".join(map(str, i)) for i in o.compositions(n)):
        return False
    for p in (Fraction(1, 3), Fraction(-2, 5)):
        want = o.q_solomon_at(n, p)
        for key, text in terms.items():
            i = tuple(int(x) for x in key.split(","))
            if o.evaluate(text, {"q": p}) != want[i]:
                return False
    return True


# ---------------------------------------------------------------------------
# Workload construction


def _req(kind, argv, params=None, expect=(0,)):
    return {"kind": kind, "argv": list(argv), "params": params or {},
            "expect": list(expect)}


def _valid(rng: random.Random) -> list:
    """One unit of valid requests covering every subcommand at degrees 3-7."""
    out = []
    forest = lambda n: o.code(rng.choice(o.forests(n)))
    comp = lambda n: ",".join(map(str, rng.choice(o.compositions(n))))
    for n in (3, 4, 5, 6, 7):
        c = forest(n)
        out.append(_req("forest parse", ["forest", "parse", "--code", c],
                        {"code": c}))
    for n, trees in ((4, False), (6, True), (7, False)):
        out.append(_req("forest list", ["forest", "list", "--n", str(n)]
                        + (["--trees"] if trees else []),
                        {"n": n, "trees": trees}))
    for n in (4, 5, 6, 7):
        for action in ("upset", "downset"):
            c = forest(n)
            out.append(_req(f"tamari {action}",
                            ["tamari", action, "--forest", c], {"forest": c}))
    for n in (5, 6):
        lo = rng.choice(o.forests(n))
        hi = rng.choice(sorted(o.upset(lo), key=o.code)) if rng.random() < 0.5 \
            else rng.choice(o.forests(n))
        out.append(_req("tamari leq", ["tamari", "leq", "--lower", o.code(lo),
                                       "--upper", o.code(hi)],
                        {"lower": o.code(lo), "upper": o.code(hi)}))
    for n, basis in ((4, "X"), (5, "X"), (6, "X"), (7, "X"), (5, "Y"),
                     (4, "C"), (5, "C"), (6, "C")):
        n1 = rng.randint(1, n - 1)
        left, right = forest(n1), forest(n - n1)
        out.append(_req("hopf product", ["hopf", "product", "--left", left,
                                         "--right", right, "--basis", basis],
                        {"left": left, "right": right, "basis": basis}))
    for n, basis in ((4, "Y"), (6, "Y"), (5, "X")):
        c = forest(n)
        out.append(_req("hopf coproduct", ["hopf", "coproduct", "--forest", c,
                                           "--basis", basis],
                        {"forest": c, "basis": basis}))
    for n, basis in ((3, "R"), (4, "S"), (5, "R"), (5, "L"), (6, "R"),
                     (6, "S"), (7, "R")):
        i = comp(n)
        out.append(_req("nsym embed", ["nsym", "embed", "--I", i, "--basis",
                                       basis], {"I": i, "basis": basis}))
    for action, n in (("psi", 5), ("psibar", 6)):
        out.append(_req(f"nsym {action}", ["nsym", action, "--n", str(n)],
                        {"n": n}))
    for n, spec in ((4, ""), (5, "ab"), (6, "")):
        out.append(_req("birkhoff sigma-plus",
                        ["birkhoff", "sigma-plus", "--n", str(n)]
                        + (["--spec", spec] if spec else []),
                        {"n": n, "spec": spec or "generic"}))
    for n, basis in ((4, "R"), (5, "X"), (6, "C"), (7, "X")):
        lam = rng.choice(sorted({o.code_partition(t[0]) for t in o.trees(n)}))
        text = ",".join(map(str, lam))
        out.append(_req("birkhoff d-lambda", ["birkhoff", "d-lambda",
                                              "--lambda", text, "--basis", basis],
                        {"lambda": text, "basis": basis}))
    for n, model in ((4, "W"), (5, "S"), (6, "W")):
        i = comp(n)
        out.append(_req("birkhoff words", ["birkhoff", "words", "--I", i,
                                           "--model", model],
                        {"I": i, "model": model}))
    for n in (3, 4, 5):
        k = rng.randint(1, n)
        out.append(_req("idem eulerian", ["idem", "eulerian", "--n", str(n),
                                          "--k", str(k)], {"n": n, "k": k}))
    for action, n, basis in (("dynkin", 5, "X"), ("dynkin", 6, "R"),
                             ("solomon", 5, "X"), ("solomon", 7, "R")):
        out.append(_req(f"idem {action}", ["idem", action, "--n", str(n),
                                           "--basis", basis],
                        {"n": n, "basis": basis}))
    for n in (4, 6, 7):
        out.append(_req("idem qsolomon", ["idem", "qsolomon", "--n", str(n)],
                        {"n": n}))
    for n, what in ((4, "primitive"), (5, "quasi")):
        out.append(_req("idem verify", ["idem", "verify", "--n", str(n),
                                        "--what", what], {"n": n, "what": what}))
    for n in (3, 5, 6):
        c = forest(n)
        out.append(_req("ehrhart poly", ["ehrhart", "poly", "--forest", c],
                        {"forest": c}))
    for action in ("points", "qcount"):
        for n, m, interior in ((3, 2, False), (4, 3, True)):
            c = forest(n)
            out.append(_req(f"ehrhart {action}",
                            ["ehrhart", action, "--forest", c, "--n", str(m)]
                            + (["--interior"] if interior else []),
                            {"forest": c, "n": m, "interior": interior}))
    for suite, n in (("tamari", 5), ("hopf", 4), ("words", 4),
                     ("dendriform", 4)):
        out.append(_req("verify", ["verify", "--suite", suite, "--n", str(n)]))
    return out


def _invalid(rng: random.Random, unit: int) -> list:
    """Requests the contract says to refuse: exit 2 (usage), 3 (domain) or
    4 (cost guard).  Each unit takes the next ``INVALID_PER_UNIT`` of the
    pool, whatever the seed, because usage errors end sooner than domain
    errors."""
    bad_code = rng.choice(["21", "2", "30", "x1"])
    pool = [
        _req("usage", ["bogus"], expect=(2,)),
        _req("usage", ["hopf", "product", "--left", "10", "--right", "0",
                       "--basis", "Z"], expect=(2,)),
        _req("usage", ["ehrhart", "poly"], expect=(2,)),
        _req("usage", ["forest", "list", "--n", "x"], expect=(2,)),
        _req("domain", ["forest", "parse", "--code", bad_code], expect=(3,)),
        _req("domain", ["nsym", "embed", "--I", "2,0"], expect=(3,)),
        _req("domain", ["birkhoff", "d-lambda", "--lambda", "1,2"], expect=(3,)),
        _req("domain", ["idem", "eulerian", "--n", "4"], expect=(3,)),
        _req("domain", ["idem", "eulerian", "--n", "4", "--k", "9"], expect=(3,)),
        _req("domain", ["tamari", "leq", "--lower", "10", "--upper", "100"],
             expect=(3,)),
        _req("domain", ["verify", "--suite", "nosuch"], expect=(3,)),
        _req("guard", ["idem", "verify", "--what", "quasi", "--n", "7"],
             expect=(4,)),
    ]
    return [pool[(INVALID_PER_UNIT * unit + j) % len(pool)]
            for j in range(INVALID_PER_UNIT)]


KNOWN_DEFECTS = [
    _req("defect", ["birkhoff", "sigma-plus"], expect=(2, 3)),
    _req("defect", ["ehrhart", "qcount", "--forest", "200", "--n", "-1"],
         expect=(2, 3)),
    _req("defect", ["nsym", "embed", "--I", "9"], expect=(4,)),
]


def build(seed: int, seconds: float) -> list:
    rng = random.Random(seed)
    units = max(1, round(seconds / UNIT_SECONDS))
    out = []
    for unit in range(units):
        out += _valid(rng) + _invalid(rng, unit)
    out += [dict(r) for r in KNOWN_DEFECTS]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Running children


def _spawn(cmd, env, k):
    """Run one child with stdout and stderr in files; returns (status,
    rusage, latency, killed, stdout, stderr)."""
    import subprocess

    out_path, err_path = TMP / f"{k}.out", TMP / f"{k}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(DEADLINE_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, usage, latency, killed.is_set(), stdout, stderr


def run_pass(requests, src: Path, traced: bool, hook=None) -> list:
    """Run the requests one child at a time; ``hook(k, last)`` runs before
    request k and once more after the last request."""
    import run as bench

    env = dict(os.environ, PYTHONPATH=str(src))
    outcomes = []
    for k, req in enumerate(requests):
        if hook:
            hook(k, False)
        stats_path = TMP / f"{k}.stats"
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(stats_path),
                   "--format", "json", *req["argv"]]
        else:
            cmd = [sys.executable, "-m", "planehopf.cli", "--format", "json",
                   *req["argv"]]
        code, usage, latency, killed, stdout, stderr = _spawn(cmd, env, k)
        oc = bench.Outcome(latency)
        if killed:
            oc.error = f"{' '.join(req['argv'])}: deadline overrun"
        else:
            oc.rss_kb = usage.ru_maxrss
            if code not in req["expect"]:
                oc.error = (f"{' '.join(req['argv'])}: exit {code}, "
                            f"expected {req['expect']}")
            elif "Traceback" in stderr:
                oc.error = f"{' '.join(req['argv'])}: traceback"
            elif code == 0:
                oc.result = stdout
        if stats_path.exists():
            oc.stats = json.loads(stats_path.read_text())
            stats_path.unlink()
        outcomes.append(oc)
    if hook:
        hook(len(requests), True)
    return outcomes


def check(requests, outcomes) -> None:
    for req, oc in zip(requests, outcomes):
        if oc.result is None:
            continue
        try:
            msg = check_payload(req, json.loads(oc.result))
        except Exception as exc:  # malformed output is a wrong result
            msg = f"{req['kind']}: unreadable output ({exc!r})"
        if msg is not None:
            oc.error, oc.wrong = msg, True
        oc.result = None


def setup(seed: int, seconds: float, src: Path):
    """A child interpreter importing planehopf.cli, plus request
    construction; returns (requests, seconds taken).  The child is reaped
    by a blocking wait, as requests are: a wait with a timeout polls with
    sleeps of up to 50 ms and would round the time up by as much."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code, _, took, killed, _, err = _spawn(
        [sys.executable, "-c", "import planehopf.cli"], env, "setup")
    if code != 0 or killed:
        raise RuntimeError(f"importing planehopf.cli failed: {err[-500:]}")
    t0 = time.perf_counter()
    requests = build(seed, seconds)
    return requests, took + time.perf_counter() - t0


def run(args, src: Path) -> int:
    import run as bench
    import tracer

    TMP.mkdir(exist_ok=True)
    try:
        requests = setup(args.seed, args.seconds, src)[0]
        if not args.trace:
            setup_samples: list = []
            hook = bench.spread_over(
                len(requests),
                lambda: setup_samples.append(setup(args.seed, args.seconds,
                                                   src)[1]))
            outcomes = run_pass(requests, src, traced=False, hook=hook)
            check(requests, outcomes)
            peak = max((oc.rss_kb for oc in outcomes), default=0)
            metrics, detail = bench.end_to_end(outcomes, setup_samples, peak)
            detail.update(workload=args.workload, seed=args.seed,
                          known_defects=len(KNOWN_DEFECTS))
            return bench.emit(detail, outcomes, metrics)

        subset = bench.traced_subset(requests)
        probes: list = []
        hook = bench.every(bench.PROBE_EVERY,
                           lambda: probes.append(bench.host_probe()))
        plain = run_pass(subset, src, traced=False)
        passes = [run_pass(subset, src, traced=True,
                           hook=hook if k == 0 else None) for k in range(2)]
        outcomes = passes[0]
        check(subset, outcomes)
        spans = [_sum_stats(p, "spans") for p in passes]
        caches = _sum_stats(outcomes, "caches")
        times = {s: [oc.stats["times"][s] for oc in outcomes
                     if oc.stats and s in oc.stats["times"]]
                 for s in ("import_s", "parse_s", "main_s")}
        overhead = sum(oc.latency for oc in outcomes) / \
            sum(oc.latency for oc in plain)
        metrics = bench.layer_metrics(spans[0], caches, probes, overhead,
                                      bench.reach(src), times)
        absent = sorted({a for oc in outcomes if oc.stats
                         for a in oc.stats["absent"]})
        detail = {"workload": args.workload, "seed": args.seed,
                  "traced_requests": len(subset),
                  "counts_repeat":
                      bench.call_counts(spans[0]) == bench.call_counts(spans[1]),
                  "absent": absent + bench.absent_tables(caches),
                  "cache_tables": list(tracer.CACHE_TABLES)}
        return bench.emit(detail, outcomes, metrics)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def _sum_stats(outcomes, key: str) -> dict:
    total: dict = {}
    for oc in outcomes:
        for name, value in (oc.stats or {}).get(key, {}).items():
            total[name] = total.get(name, 0) + value
    return total

