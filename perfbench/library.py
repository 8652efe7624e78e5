"""In-process workloads: ``algebra_session`` and ``exact_series``.

A request is ``(kind, n, args)``.  ``CALLS[kind](pk, *args)`` runs it
against the package namespace ``pk``; ``CHECKS[kind](result, *args)``
returns ``None`` when the result agrees with an independent route from
:mod:`oracle` (or with golden data), and a description otherwise.
Checks never compare the text of a polynomial or rational function: they
compare exact values at sample points, or integer coefficients.

Counts per unit are fixed, and so is every choice that sets a request's
cost (degree, split sizes, alphabet length, which idempotent); the seed
picks the rest (which composition, forest or partition of the given
degree) and the order, except in the strata named by ``_fixed``.  A unit
costs about ``UNIT_SECONDS`` of requests on a 2-vCPU x86 VM, so a run of
S seconds uses ``round(S / UNIT_SECONDS)`` units.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import oracle as o

POINTS = (Fraction(1, 3), Fraction(-2, 5))

# ---------------------------------------------------------------------------
# Calls


def _sn_in_c(pk, n):
    return pk.hopf.x_to_c(pk.hopf.s_n(n))


def _gamma_prime(pk, f):
    ncsf = pk.ncsf
    return ncsf.eval_xqt(ncsf.f_to_m(ncsf.gamma_qsym_f(f)))


CALLS = {
    "embed_r": lambda pk, i: pk.ncsf.embed_r(i),
    "embed_s": lambda pk, i: pk.ncsf.embed_s(i),
    "embed_lambda": lambda pk, i: pk.ncsf.embed_lambda(i),
    "x_product": lambda pk, f, g: pk.hopf.x_product(f, g),
    "x_prec": lambda pk, f, g: pk.hopf.x_prec(f, g),
    "x_succ": lambda pk, f, g: pk.hopf.x_succ(f, g),
    "x_to_c_sn": _sn_in_c,
    "c_expand": lambda pk, comb, _plain: pk.hopf.c_expand(comb),
    "upset": lambda pk, f: pk.tamari.upset(f),
    "downset": lambda pk, f: pk.tamari.downset(f),
    "gamma_qsym_m": lambda pk, f: pk.ncsf.gamma_qsym_m(f),
    "ehrhart_polynomial": lambda pk, f: pk.ehrhart.ehrhart_polynomial(f),
    "d_lambda_x": lambda pk, lam: pk.birkhoff.d_lambda_x(lam),
    "d_lambda_ribbon": lambda pk, lam: pk.birkhoff.d_lambda_ribbon(lam),
    "eulerian": lambda pk, n, k: pk.idempotents.eulerian(n, k),
    "quasi_idempotent_check":
        lambda pk, elem, n, _want: pk.idempotents.quasi_idempotent_check(elem, n),
    "suite": lambda pk, name, n: pk.checks.SUITES[name](n),
    "q_solomon": lambda pk, n: pk.idempotents.q_solomon(n),
    "transform_over_1mq":
        lambda pk, comb, _plain: pk.idempotents.transform_over_1mq(comb),
    "gamma_prime": _gamma_prime,
    "eval_geometric_inf":
        lambda pk, f: pk.ncsf.eval_geometric_inf(pk.ncsf.gamma_qsym_m(f)),
    "eval_geometric":
        lambda pk, f, m: pk.ncsf.eval_geometric(pk.ncsf.gamma_qsym_m(f), m),
    "sigma_plus": lambda pk, n, a, _spec: pk.birkhoff.sigma_plus(n, a),
    "phi_plus_closed":
        lambda pk, t, a, _spec: pk.birkhoff.phi_plus_closed(t[0], a),
    "series_c": lambda pk, n, a, _spec: pk.birkhoff.series_c(n, a),
    "series_d": lambda pk, n, a, _spec: pk.birkhoff.series_d(n, a),
}

# ---------------------------------------------------------------------------
# Checks


def _terms(comb) -> dict:
    return dict(comb.items())


def _same(got: dict, want: dict, what: str):
    if got == want:
        return None
    bad = sorted(set(got) ^ set(want), key=repr)[:3] or \
        sorted((k for k in got if got[k] != want[k]), key=repr)[:3]
    return f"{what}: differs at {bad}"


def _value(poly, values: dict) -> Fraction:
    """Exact value of a MultiPoly, RationalFn or LaurentPoly with every
    variable set, read from its structured ``to_json`` form."""
    return o.evaluate(poly.to_json(), values)


def _check_embed(kind):
    return lambda res, i: _same(_terms(res), o.embed(kind, i),
                                    f"embed {kind}{i}")


def _check_product(half):
    return lambda res, f, g: _same(_terms(res), o.x_product(f, g, half),
                                       f"x_product[{half}]")


def _check_sn_in_c(res, n):
    back = o.c_to_x(_terms(res))
    return _same(back, {f: 1 for f in o.forests(n)}, f"S_{n} in C")


def _check_ehrhart(res, f):
    pts = {Fraction(1, 3), Fraction(-5, 2), Fraction(2)}
    for x in pts:
        if _value(res, {"x": x}) != o.ehrhart_at(f, x):
            return f"E({x}) differs"
    if _value(res, {"x": Fraction(1)}) != len(o.lattice_points(f, 1)):
        return "E(1) differs from the point count"
    return None


def _d_lambda_x_want(lam):
    n = sum(lam) + 1
    return o.c_to_x({t: 1 for t in o.trees(n) if o.code_partition(t[0]) == lam})


def _check_d_lambda_ribbon(res, lam):
    n = sum(lam) + 1
    return _same(o.ribbon_to_x(_terms(res), n), _d_lambda_x_want(lam),
                 f"D_{lam} ribbon coordinates")


def _check_eulerian(res, n, k):
    want = {f: c for f in o.forests(n) if (c := o.order_poly_coeff(f, k))}
    return _same(_terms(res), want, f"e_{n}^({k})")


def _check_quasi(res, elem, n, want):
    ok, scalar = res
    return None if ok and scalar == want else f"quasi-idempotent {res}"


def _check_at_points(res, keys, want_at, what):
    got = _terms(res)
    if set(got) != set(keys):
        return f"{what}: support differs"
    for p in POINTS:
        want = want_at(p)
        for key, c in got.items():
            if _value(c, {"q": p}) != want[key]:
                return f"{what}: differs at {key} for q = {p}"
    return None


def _check_q_solomon(res, n):
    return _check_at_points(res, o.compositions(n),
                            lambda p: _q_solomon_want(n, p), f"phi_{n}(q)")


_q_solomon_want = lru_cache(maxsize=None)(o.q_solomon_at)


@lru_cache(maxsize=None)
def _phi_plus_want(f, spec: str) -> list:
    return o.phi_plus_at(f, o.a_values(spec)[1], o.Z_POINTS)


@lru_cache(maxsize=None)
def _transform_want(items: tuple, p: Fraction) -> dict:
    return o.transform_over_1mq_at(dict(items), p)


def _check_transform(res, comb, plain):
    want = {p: _transform_want(tuple(sorted(plain.items())), p) for p in POINTS}
    keys = {k for k, v in want[POINTS[0]].items() if v}
    return _check_at_points(res, keys, lambda p: want[p], "A/(1-q)")


# Gamma'_T on (1 - qt)/(1 - q), then t = 1 + (q - 1) x; copied from the
# golden table of the package's test suite.
GAMMA_PRIME = {
    "10": lambda q, x: (q**2*x + q + 1)*(q*x + 1) / (q + 1),
    "110": lambda q, x: (q**3*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1)
    / ((q**2 + q + 1)*(q + 1)),
    "200": lambda q, x: (q**3*x + q**2*x + q**2 + q + 1)*(q**2*x + q + 1)
    * (q*x + 1) / ((q**2 + q + 1)*(q + 1)),
    "1110": lambda q, x: (q**4*x + q**3 + q**2 + q + 1)
    * (q**3*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1)
    / ((q**2 + q + 1)*(q**2 + 1)*(q + 1)**2),
    "1200": lambda q, x: (q**3*x + q**2 + q + 1)*(q**3*x + q**2 + 1)
    * (q**2*x + q + 1)*(q*x + 1) / ((q**2 + q + 1)*(q**2 + 1)*(q + 1)),
    "2010": lambda q, x: (q**4*x + q**3*x + q**3 + q**2*x + q**2 + q + 1)
    * (q**3*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1)
    / ((q**2 + q + 1)*(q**2 + 1)*(q + 1)**2),
    "2100": lambda q, x: (q**4*x + q**3*x + q**3 + q**2*x + q**2 + q + 1)
    * (q**3*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1)
    / ((q**2 + q + 1)*(q**2 + 1)*(q + 1)**2),
    "3000": lambda q, x: (q**6*x**2 + q**5*x**2 + 2*q**5*x + q**4*x**2
                          + 2*q**4*x + q**4 + 3*q**3*x + q**3 + 2*q**2*x
                          + 2*q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1)
    / ((q**2 + q + 1)*(q**2 + 1)*(q + 1)),
}


def _check_gamma_prime(res, f):
    golden = GAMMA_PRIME[o.code(f)]
    for q, x in ((Fraction(1, 3), Fraction(2, 7)),
                 (Fraction(-2, 5), Fraction(3, 4))):
        if _value(res, {"q": q, "t": 1 + (q - 1) * x}) != golden(q, x):
            return f"Gamma' of {o.code(f)} differs at q = {q}, x = {x}"
    return None


def _check_geometric_inf(res, f):
    for p in POINTS:
        if _value(res, {"q": p}) != o.geometric_inf_at(f, p):
            return f"Gamma_{o.code(f)}(1, q, ...) differs at q = {p}"
    return None


def _check_geometric(res, f, m):
    for p in POINTS + (Fraction(3),):
        if _value(res, {"q": p}) != o.geometric_at(f, m, p):
            return f"Gamma_{o.code(f)}(1..q^{m - 1}) differs at q = {p}"
    return None


def _check_phi_plus(keys, res_terms, spec):
    values = o.a_values(spec)[0]
    if set(res_terms) != set(keys):
        return "support differs"
    for f, lp in res_terms.items():
        got = [_value(lp, dict(values, z=z)) for z in o.Z_POINTS]
        if got != _phi_plus_want(f, spec):
            return f"phi+ of {o.code(f)} differs"
    return None


def _check_sigma_plus(res, n, a, spec):
    return _check_phi_plus(o.forests(n), _terms(res), spec)


def _check_phi_plus_closed(res, t, a, spec):
    return _check_phi_plus([t], {t: res}, spec)


def _check_series(trees_only):
    def check(res, n, a, spec):
        values, letters = o.a_values(spec)
        keys = o.trees(n) if trees_only else o.forests(n)
        got = _terms(res)
        if set(got) != set(keys):
            return "support differs"
        for g, c in got.items():
            if _value(c, values) != o.letters_value(g, letters):
                return f"a_G of {o.code(g)} differs"
        return None
    return check


CHECKS = {
    "embed_r": _check_embed("R"),
    "embed_s": _check_embed("S"),
    "embed_lambda": _check_embed("L"),
    "x_product": _check_product("both"),
    "x_prec": _check_product("prec"),
    "x_succ": _check_product("succ"),
    "x_to_c_sn": _check_sn_in_c,
    "c_expand": lambda res, comb, plain: _same(_terms(res), o.c_to_x(plain),
                                                   "c_expand"),
    "upset": lambda res, f: None if set(res) == o.upset(f) else "upset",
    "downset": lambda res, f: None if set(res) == o.downset(f) else "downset",
    "gamma_qsym_m": lambda res, f: _same(_terms(res), o.alpha(f), "Gamma_F"),
    "ehrhart_polynomial": _check_ehrhart,
    "d_lambda_x": lambda res, lam: _same(_terms(res), _d_lambda_x_want(lam),
                                             f"D_{lam} in X"),
    "d_lambda_ribbon": _check_d_lambda_ribbon,
    "eulerian": _check_eulerian,
    "quasi_idempotent_check": _check_quasi,
    "suite": lambda res, name, n: None if res == [] else f"suite {res[:2]}",
    "q_solomon": _check_q_solomon,
    "transform_over_1mq": _check_transform,
    "gamma_prime": _check_gamma_prime,
    "eval_geometric_inf": _check_geometric_inf,
    "eval_geometric": _check_geometric,
    "sigma_plus": _check_sigma_plus,
    "phi_plus_closed": _check_phi_plus_closed,
    "series_c": _check_series(False),
    "series_d": _check_series(True),
}

# ---------------------------------------------------------------------------
# Workload construction

# kind -> {degree: requests per unit}; degrees weighted toward 5 and 6.
# The tail of algebra_session is set by a band of requests costing
# 0.1-0.2 s (eulerian at n = 5, d_lambda_ribbon at n = 4, the hopf suite
# at n = 4, the words suite at n = 5), about seven per unit.  Only
# eulerian at n = 6, embed_r at n = 7 and the first x_to_c(S_7) cost more,
# seven requests in a three-unit run, so the percentile with ten samples
# beyond it falls inside that band rather than on the gaps around requests
# whose cost depends on which of them warmed the caches first.
ALGEBRA_MIX = {
    "embed_r": {4: 8, 5: 6, 6: 5, 7: 1},
    "embed_s": {4: 3, 5: 5, 6: 4},
    "embed_lambda": {4: 3, 5: 5, 6: 4},
    "x_product": {4: 5, 5: 7, 6: 6, 7: 2},
    "x_prec": {4: 3, 5: 4, 6: 4, 7: 1},
    "x_succ": {4: 3, 5: 4, 6: 4, 7: 1},
    "x_to_c_sn": {4: 2, 5: 2, 6: 2, 7: 1},
    "c_expand": {4: 2, 5: 3, 6: 3, 7: 2},
    "upset": {4: 3, 5: 4, 6: 4, 7: 3},
    "downset": {4: 3, 5: 4, 6: 4, 7: 3},
    "gamma_qsym_m": {4: 2, 5: 8, 6: 4, 7: 2},
    "ehrhart_polynomial": {4: 2, 5: 4, 6: 4, 7: 2},
    "d_lambda_x": {4: 2, 5: 3, 6: 3, 7: 2},
    "d_lambda_ribbon": {3: 2, 4: 2},
    "eulerian": {4: 3, 5: 3, 6: 1},
    "quasi_idempotent_check": {3: 2, 4: 3, 5: 3},
    "suite": {3: 1, 4: 2, 5: 3, 6: 1},
}
SUITES_BY_DEGREE = {3: ("factorization",), 4: ("hopf", "quotient"),
                    5: ("tamari", "dendriform", "words"), 6: ("tamari",)}

# Few requests cheaper than 4 ms, so that the median of exact_series falls
# inside the band of q_solomon at n = 5, series_c at n = 6, eval_geometric
# at n = 6 and similar requests (7-12 ms each on a 2-vCPU x86 VM) rather
# than on the gap just above the sigma_plus requests at n = 4.
SERIES_MIX = {
    "q_solomon": {4: 2, 5: 3, 6: 3, 7: 2, 8: 1},
    "transform_over_1mq": {3: 2, 4: 5, 5: 4},
    "gamma_prime": {2: 2, 3: 2, 4: 1},
    "eval_geometric_inf": {3: 3, 4: 3, 5: 3, 6: 1},
    "eval_geometric": {3: 2, 4: 4, 5: 4, 6: 4},
    "sigma_plus": {4: 4, 5: 6, 6: 4, 7: 2},  # n = 7 sets the tail
    "phi_plus_closed": {5: 2, 6: 3, 7: 3},
    "series_c": {5: 2, 6: 2, 7: 2},
    "series_d": {5: 1, 6: 2, 7: 2},
}
# transform inputs: S^I for most requests, r_to_s(Psi_n) for these many
PSI_TRANSFORMS = {3: 1, 4: 2, 5: 1}

UNIT_SECONDS = {"algebra_session": 7.0, "exact_series": 6.5}


def _a(pk, n, spec):
    if spec == "ab":
        return pk.birkhoff.a_series_ab(n)
    return pk.birkhoff.a_series(n)


def _lincomb(pk, plain: dict):
    return pk.lincomb.LinComb({k: Fraction(v) for k, v in plain.items()})


def _algebra_args(pk, rng, kind, n, slot):
    pick_forest = lambda m: rng.choice(o.forests(m))
    if kind.startswith("embed_"):
        return (rng.choice(o.compositions(n)),)
    if kind.startswith("x_") and kind != "x_to_c_sn":
        n1 = 1 + slot % (n - 1)  # the split decides which table is built
        return (pick_forest(n1), pick_forest(n - n1))
    if kind == "x_to_c_sn":
        return (n,)
    if kind == "c_expand":
        plain = {pick_forest(n): rng.randint(-3, 3) or 1 for _ in range(4)}
        return (_lincomb(pk, plain), plain)
    if kind in ("upset", "downset", "gamma_qsym_m", "ehrhart_polynomial"):
        return (pick_forest(n),)
    if kind in ("d_lambda_x", "d_lambda_ribbon"):
        return (rng.choice(sorted({o.code_partition(t[0]) for t in o.trees(n)})),)
    if kind == "eulerian":
        return (n, 1 + slot % n)
    if kind == "quasi_idempotent_check":
        name = ("psi", "psi_bar", "solomon")[slot % 3]
        plain = {"psi": o.psi, "psi_bar": o.psi_bar, "solomon": o.solomon_r}[name](n)
        return (_lincomb(pk, plain), n, 1 if name == "solomon" else n)
    if kind == "suite":
        names = SUITES_BY_DEGREE[n]
        return (names[slot % len(names)], n)
    raise KeyError(kind)


def _series_args(pk, rng, kind, n, slot):
    if kind == "q_solomon":
        return (n,)
    if kind == "transform_over_1mq":
        if slot < PSI_TRANSFORMS.get(n, 0):
            plain = o.r_to_s(o.psi(n))
        else:
            plain = {rng.choice(o.compositions(n)): 1}
        return (_lincomb(pk, plain), plain)
    if kind == "gamma_prime":
        return (rng.choice(o.trees(n)),)
    if kind == "eval_geometric_inf":
        return (rng.choice(o.trees(n)),)
    if kind == "eval_geometric":
        return (rng.choice(o.trees(n)), 2 + slot % 4)
    spec = "ab" if slot % 2 else "generic"
    if kind == "phi_plus_closed":
        return (rng.choice(o.trees(n)), _a(pk, n, spec), spec)
    return (n, _a(pk, n, spec), spec)


def _fixed(workload: str, kind: str, n: int) -> bool:
    """Strata whose cost depends strongly on the parameter draw the same
    parameters on every seed, so the heaviest requests, which set the tail
    and much of the job time, are alike across seeds."""
    if workload == "algebra_session":
        return n >= 6 or kind == "eulerian"
    return kind in ("gamma_prime", "eval_geometric_inf") and n >= 3


def build(pk, workload: str, seed: int, seconds: float) -> list:
    """The seeded request list of a run: [(kind, n, args)]."""
    mix, make = {"algebra_session": (ALGEBRA_MIX, _algebra_args),
                 "exact_series": (SERIES_MIX, _series_args)}[workload]
    rng = random.Random(seed)
    units = max(1, round(seconds / UNIT_SECONDS[workload]))
    out = []
    for kind, degrees in mix.items():
        for n, count in degrees.items():
            draw = random.Random(f"{kind}/{n}") if _fixed(workload, kind, n) \
                else rng
            for slot in range(count * units):
                out.append((kind, n, make(pk, draw, kind, n, slot % count)))
    rng.shuffle(out)
    return out
