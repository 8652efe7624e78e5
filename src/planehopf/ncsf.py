"""Noncommutative symmetric functions, quasi-symmetric functions, and their
interaction with the plane-forest algebras.

Nsym elements are linear combinations over compositions in a named basis
(S, R, Lambda); QSym elements likewise (M, F).  Conversions are the usual
triangular sums over refinement, where "J coarser than I" means D(J) is a
subset of D(I).

The embedding of Sym spanned by the S_n = sum of all X_F (equivalently the
Lambda_n = X on a singleton forest) sends R_I, S^I and Lambda^I to explicit
X-expansions counted by labellings of forests.  Every count is read off
Gamma_F = sum of F_{Des s} over the linear extensions s of F, a P-partition
generating function (Stanley, EC1 3.15), so one memoized map per non-plane
shape, keyed by descent masks (bit d - 1 for descent d).  The root of B+(H)
adds 1 to the last part, which keeps the descent set, so a tree shares its
children's map; Gamma_{T.G} is the QSym product Gamma_T Gamma_G, each F_I F_J
counted by a DP over the shifted shuffles.  R_I reads one mask, S^I the
submasks of D(I), Lambda^I the masks above the complement of D(I).

Evaluations on the infinite alphabets {1, q, q^2, ...} and (q, t) return
canonical RationalFns: each M_I is a sum of terms q^e t^j / prod (1 - q^k),
and all the terms of one evaluation go to ``q_series_sum``, which puts
them over one cyclotomic denominator and reduces the sum once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, repeat
from operator import add
from types import MappingProxyType

from .compositions import (coarsenings, descent_mask, from_descent_mask,
                           refinements, submasks, weight)
from .forests import Forest, forest_size, non_plane_class, shapes
from .lincomb import LinComb
from .polynomials import MultiPoly, RationalFn, q_series_sum

Composition = tuple


# ---------------------------------------------------------------------------
# Nsym basis conversions

def s_to_r(a: LinComb) -> LinComb:
    """S^I = sum of R_J over J coarser than I."""
    return LinComb((j, c) for i, c in a.terms.items() for j in coarsenings(i))


def r_to_s(a: LinComb) -> LinComb:
    """R_I = sum over coarser J of (-1)^(l(I)-l(J)) S^J."""
    return LinComb((j, c * (-1) ** (len(i) - len(j)))
                   for i, c in a.terms.items() for j in coarsenings(i))


# ---------------------------------------------------------------------------
# QSym basis conversions

def f_to_m(a: LinComb) -> LinComb:
    """F_I = sum of M_J over J finer than I."""
    return LinComb((j, c) for i, c in a.terms.items() for j in refinements(i))


def m_to_f(a: LinComb) -> LinComb:
    """M_I = sum over finer J of (-1)^(l(J)-l(I)) F_J."""
    return LinComb((j, c * (-1) ** (len(j) - len(i)))
                   for i, c in a.terms.items() for j in refinements(i))


# ---------------------------------------------------------------------------
# Labelling counts and the embedding into the X basis

@lru_cache(maxsize=None)
def _f_product(a: int, x: int, b: int, y: int) -> tuple:
    """F_I F_J in QSym as (mask, count) pairs, for I of weight a with descent
    mask x and J of weight b with mask y: the descent masks of the shifted
    shuffles of any u and v with these descent sets (descent sets are
    shuffle-compatible), counted letter by letter over (letters of u used,
    source of the last letter).  A step inside u or inside v is a descent
    where u or v has one, a step u -> v never is, a step v -> u always is."""
    if not a or not b:
        return ((x | y, 1),)
    level = {(1, 0): {0: 1}, (0, 1): {0: 1}}
    for k in range(1, a + b):
        nxt, bit = {}, 1 << k - 1
        for (p, src), masks in level.items():
            q = k - p
            for more, key, down in ((p < a, (p + 1, 0), src or x >> p - 1 & 1),
                                    (q < b, (p, 1), src and y >> q - 1 & 1)):
                if more:
                    step, to = bit if down else 0, nxt.setdefault(key, {})
                    for m, c in masks.items():
                        to[m | step] = to.get(m | step, 0) + c
        level = nxt
    return tuple(sum(map(Counter, level.values()), Counter()).items())


@lru_cache(maxsize=None)
def _gamma(f: Forest) -> MappingProxyType:
    """Gamma_F as a read-only map, descent mask -> count of the linear
    extensions of F with that descent set, for F a shape, as are its parts.
    A tree is the tuple of its children, and the root of B+(H) comes last,
    adding 1 to each last part, which keeps the descents: B+(H) has H's map."""
    if not f:
        return MappingProxyType({0: 1})
    if len(f) == 1:
        return _gamma(f[0])
    out = {}
    a, b = forest_size(f[:1]), forest_size(f[1:])
    rest = _gamma(f[1:]).items()
    for x, c in _gamma(f[:1]).items():
        for y, d in rest:
            cd = c * d
            for z, e in _f_product(a, x, b, y):
                out[z] = out.get(z, 0) + cd * e
    return MappingProxyType(out)


def _strict_masks(i: Composition) -> list:
    """The descent masks of the compositions finer than the complement of I."""
    x = descent_mask(i)
    return list(submasks(x, (1 << max(weight(i) - 1, 0)) - 1 & ~x))


def _embed(n: int, masks: list) -> LinComb:
    """Each X_F, |F| = n, with Gamma_F summed over ``masks`` once per shape."""
    sums = {s: sum(map(_gamma(s).get, masks, repeat(0)))
            for s in dict.fromkeys(shapes(n).values())}
    return LinComb((f, sums[s]) for f, s in shapes(n).items())


def gamma_qsym_f(f: Forest) -> LinComb:
    """Gamma_F(X) in the F basis: the descent compositions of the linear
    extensions of F, read off the tree recursion."""
    n = forest_size(f)
    return LinComb((from_descent_mask(m, n), c)
                   for m, c in _gamma(non_plane_class(f)).items())


def nondecreasing_labellings(f: Forest, i: Composition) -> int:
    """Labellings u of the forest with evaluation I and u weakly increasing
    from the leaves toward the roots: the M_I coefficient of Gamma_F, i.e.
    its F_J coefficients summed over J coarser than I."""
    return sum(map(_gamma(non_plane_class(f)).get, submasks(descent_mask(i)),
                   repeat(0)))


def strict_labellings(f: Forest, i: Composition) -> int:
    """Labellings with evaluation I, strictly increasing toward the roots:
    the F_J of Gamma_F summed over J finer than the complement of I."""
    return sum(map(_gamma(non_plane_class(f)).get, _strict_masks(i),
                   repeat(0)))


def embed_r(i: Composition) -> LinComb:
    """R_I in the X basis: linear extensions of ribbon shape I."""
    return _embed(weight(i), [descent_mask(i)])


def embed_s(i: Composition) -> LinComb:
    """S^I in the X basis: nondecreasing labellings of evaluation I."""
    return _embed(weight(i), list(submasks(descent_mask(i))))


def embed_lambda(i: Composition) -> LinComb:
    """Lambda^I in the X basis: strict labellings of evaluation I."""
    return _embed(weight(i), _strict_masks(i))


def gamma_qsym_m(f: Forest) -> LinComb:
    """Gamma_F(X) in the M basis: nondecreasing labelling counts, each F_J
    pushed up to the compositions finer than J one descent at a time."""
    n = forest_size(f)
    sums = [0] * (1 << max(n - 1, 0))
    for m, c in _gamma(non_plane_class(f)).items():
        sums[m] = c
    for k in range(n - 1):
        step = 1 << k
        for lo in range(step, len(sums), 2 * step):
            sums[lo:lo + step] = map(add, sums[lo:lo + step], sums[lo - step:lo])
    return LinComb((from_descent_mask(m, n), c) for m, c in enumerate(sums))


# ---------------------------------------------------------------------------
# Power sums in Nsym

def psi_n(n: int) -> LinComb:
    """Power sum Psi_n in the R basis."""
    return LinComb({(1,) * k + (n - k,): (-1) ** k
                    for k in range(n)})


def psi_bar_n(n: int) -> LinComb:
    """The mirror power sum, with hooks growing on the other side."""
    return LinComb({(n - k,) + (1,) * k: (-1) ** k
                    for k in range(n)})


def hook_part_count(n: int, cap: int) -> int:
    """The number of parts of all the n hooks of Psi_n or Psi-bar_n,
    n(n+1)/2, or ``cap`` if it is at least ``cap``."""
    return min(max(n, 0) * (n + 1) // 2, cap)


# ---------------------------------------------------------------------------
# Alphabet evaluations in QSym (M basis in, polynomials out)

def eval_geometric(a: LinComb, m: int) -> "MultiPoly":
    """Evaluate on the alphabet {1, q, ..., q^(m-1)}."""
    return MultiPoly.sum(
        MultiPoly.sum(MultiPoly.var("q", sum(part * j for part, j in zip(i, js)))
                      for js in combinations(range(m), len(i)))
        * MultiPoly.coerce(c) for i, c in a.terms.items())


def eval_geometric_inf(a: LinComb) -> RationalFn:
    """Evaluate on the infinite alphabet {1, q, q^2, ...}:
    M_I -> q^(sum (k-1) i_k) / prod_k (1 - q^(i_k + ... + i_l))."""
    terms = ((c, _geometric(i)) for i, c in a.terms.items())
    return q_series_sum((c, e, (), ks) for c, (e, ks) in terms)


def eval_xqt(a: LinComb) -> RationalFn:
    """Evaluate on the (q, t) alphabet: even letters q^i (i >= 0) ascending,
    odd letters q^j t (j >= 1) descending.  Each M_I splits as an even
    prefix, valued as on {1, q, q^2, ...}, and an odd suffix J.  The odd
    letters come in blocks of equal letters, with strictly decreasing j;
    blocks with partial sums s_1 < ... < s_b of J give
    (-1)^l(J) t^|J| q^(s_1 + ... + s_b) / prod_k (1 - q^(s_k))."""
    def terms():
        for i, c in a.terms.items():
            for cut in range(len(i) + 1):
                e, ks = _geometric(i[:cut])
                odd = i[cut:]
                t = (("t", weight(odd)),) if odd else ()
                for blocks in coarsenings(odd):
                    sums = tuple(accumulate(blocks))
                    yield (c * (-1) ** len(odd), e + sum(sums), t, ks + sums)

    return q_series_sum(terms())


def _geometric(i: Composition) -> tuple:
    """(e, ks) with M_I(1, q, q^2, ...) = q^e / prod_{k in ks} (1 - q^k),
    ks the suffix sums of I."""
    ks = tuple(sum(i[k:]) for k in range(len(i)))
    return sum(ks) - weight(i), ks
