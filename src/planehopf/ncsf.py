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
generating function (Stanley, EC1 3.15): one memoized dense row per non-plane
shape over the descent masks (bit d - 1 for descent d), its fields as wide as
its total.  The root of B+(H) adds 1 to the last part, keeping the descent
set, so a tree shares its children's row; Gamma_{T.G} is the QSym product
Gamma_T Gamma_G, each F_I F_J counted by a DP over the shifted shuffles.
Gamma is the R row; its subset sums (the M basis: nondecreasing labellings)
and superset sums at the complement (strict labellings) are rows built on
first use, one memo per shape and count.  R_I, S^I and Lambda^I read one entry
of each shape's row, ``forests.shapes`` spreads them over the forests, and
Gamma_F in the M basis and the labelling counts read the same rows.

Evaluations on the infinite alphabets {1, q, q^2, ...} and (q, t) return
canonical RationalFns: each M_I is a sum of terms q^e t^j / prod (1 - q^k),
and all the terms of one evaluation go to ``q_series_sum``, which puts
them over one cyclotomic denominator and reduces the sum once.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb

from .compositions import (coarsenings, compositions_of, descent_mask,
                           from_descent_mask, refinements, weight)
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


def _zeros(total: int, fields: int):
    """``fields`` zeros in the narrowest array type that holds ``total``, or
    a list where none does or the host is big-endian."""
    from array import array  # a shared library, loaded on first use
    code = next((t for t in "BHIQ" if sys.byteorder == "little"
                 and not total >> 8 * array(t).itemsize), "")
    return array(code, bytes(array(code).itemsize * fields)) if code else [0] * fields


@lru_cache(maxsize=None)
def _gamma(f: Forest):
    """Gamma_F as one dense row, descent mask -> count of the linear
    extensions of F with that descent set, for F a shape, as are its parts.
    A tree is the tuple of its children, and the root of B+(H) comes last,
    adding 1 to each last part, which keeps the descents: B+(H) has H's row,
    shorter than 2^(|F| - 1); a mask past its end counts 0."""
    if len(f) == 1:
        return _gamma(f[0])
    if not f:
        out = _zeros(1, 1)
        out[0] = 1
        return out
    a, b = forest_size(f[:1]), forest_size(f[1:])
    left, right = _gamma(f[:1]), _gamma(f[1:])
    out = _zeros(sum(left) * sum(right) * comb(a + b, a), 1 << a + b - 1)
    rest = [(y, d) for y, d in enumerate(right) if d]
    for x, c in enumerate(left):
        for y, d in rest if c else ():
            cd = c * d
            for z, e in _f_product(a, x, b, y):
                out[z] += cd * e
    return out


def _subset_sums(gamma, n: int, strict: bool = False):
    """x -> sum of gamma[m] over the submasks m of x (if ``strict``, over the
    m that contain x's complement), for x of degree n: n - 1 shift-and-adds
    on one int packing the row in Gamma's fields, which hold its total and so
    every partial sum (the fast zeta transform); an array or a list, as Gamma."""
    from array import array  # a shared library, loaded on first use
    total, fields = sum(gamma), 1 << max(n - 1, 0)
    row = gamma + _zeros(total, fields - len(gamma))  # a copy, reversed for Lambda
    if strict:
        row.reverse()
    code = row.typecode if isinstance(row, array) else ""
    size = row.itemsize if code else total.bit_length() + 7 >> 3
    row = int.from_bytes(row if code else b"".join(
        c.to_bytes(size, "little") for c in row), "little")
    lows = _degree(n)[1].setdefault(size, [])
    for k in range(n - 1):
        step = span = 8 * size << k
        if len(lows) == k:  # the fields of the masks without bit k
            lows.append((1 << step) - 1)
            while (span := 2 * span) < 8 * size * fields:
                lows[k] |= lows[k] << span
        row += (row & lows[k]) << step
    data = row.to_bytes(size * fields, "little")
    return array(code, data) if code else [int.from_bytes(data[j:j + size], "little")
                                           for j in range(0, len(data), size)]


@lru_cache(maxsize=None)
def _row(f: Forest, strict: bool | None) -> tuple:
    """(|F|, the row of F's counts by D(I): Gamma itself if ``strict`` is
    None, else its nondecreasing or strict labellings); a plane forest shares
    the row of its shape, so ``_subset_sums`` runs once per shape and kind."""
    s, n = non_plane_class(f), forest_size(f)
    return _row(s, strict) if s != f else (n, _gamma(f) if strict is None
                                           else _subset_sums(_gamma(f), n, strict))


@lru_cache(maxsize=None)
def _degree(n: int) -> tuple:
    """Degree n's tables, filled on first use: the compositions by mask, the
    transform's masks by field size, and per count the ``_row`` arrays of
    shapes(n), in its order."""
    return [], {}, {}


def _embed(i: Composition, strict) -> LinComb:
    """Each X_F, |F| = |I|, with its shape's row (``strict`` None: Gamma,
    0 past its end) at D(I), read once per shape."""
    n, x = weight(i), descent_mask(i)
    index, columns = shapes(n), _degree(n)[2]
    if strict not in columns:
        columns[strict] = [_row(s, strict)[1] for s in index.shapes]
    return LinComb(index.spread([r[x] if x < len(r) else 0 for r in columns[strict]]))


def gamma_qsym_f(f: Forest) -> LinComb:
    """Gamma_F(X) in the F basis: the descent compositions of the linear
    extensions of F, read off the tree recursion."""
    n = forest_size(f)
    return LinComb((from_descent_mask(m, n), c)
                   for m, c in enumerate(_gamma(non_plane_class(f))) if c)


def nondecreasing_labellings(f: Forest, i: Composition) -> int:
    """Labellings u of the forest with evaluation I and u weakly increasing
    from the leaves toward the roots: the M_I coefficient of Gamma_F, i.e.
    its F_J coefficients summed over J coarser than I (0 unless |I| = |F|)."""
    n, row = _row(f, False)
    return row[descent_mask(i)] if weight(i) == n else 0


def strict_labellings(f: Forest, i: Composition) -> int:
    """Labellings with evaluation I, strictly increasing toward the roots:
    the F_J of Gamma_F summed over J finer than the complement of I."""
    n, row = _row(f, True)
    return row[descent_mask(i)] if weight(i) == n else 0


def embed_r(i: Composition) -> LinComb:
    """R_I in the X basis: linear extensions of ribbon shape I."""
    return _embed(i, None)


def embed_s(i: Composition) -> LinComb:
    """S^I in the X basis: nondecreasing labellings of evaluation I."""
    return _embed(i, False)


def embed_lambda(i: Composition) -> LinComb:
    """Lambda^I in the X basis: strict labellings of evaluation I."""
    return _embed(i, True)


def gamma_qsym_m(f: Forest) -> LinComb:
    """Gamma_F(X) in the M basis: its nondecreasing labelling counts."""
    n, row = _row(f, False)
    comps = _degree(n)[0]
    if not comps:
        comps += compositions_of(n)
    return LinComb(dict(zip(comps, row)))


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
