"""Noncommutative symmetric functions, quasi-symmetric functions, and their
interaction with the plane-forest algebras.

Nsym elements are linear combinations over compositions in a named basis
(S, R, Lambda); QSym elements likewise (M, F).  Conversions are the usual
triangular sums over refinement, where "J coarser than I" means D(J) is a
subset of D(I).

The embedding of Sym spanned by the S_n = sum of all X_F (equivalently the
Lambda_n = X on a singleton forest) sends R_I, S^I and Lambda^I to explicit
X-expansions counted by labellings of forests.  Every count is read off
Gamma_F = sum of F_{Des s} over the linear extensions s of F, built by a
memoized recursion over the forest in the F basis: the root of B+(H) adds 1
to the last part of each composition of Gamma_H, and Gamma_{T.G} is the
QSym product Gamma_T Gamma_G.  The tests compare it with the linear
extensions themselves, with X-basis products of the S_n and Lambda_n and
with packed-word counts.

Evaluations on the infinite alphabets {1, q, q^2, ...} and (q, t) return
canonical RationalFns: each M_I is a sum of terms q^e t^j / prod (1 - q^k),
and all the terms of one evaluation go to ``q_series_sum``, which puts
them over one cyclotomic denominator and reduces the sum once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from types import MappingProxyType

from .compositions import (coarsenings, complement, compositions_of,
                           refinements, weight)
from .forests import Forest, enumerate_forests, forest_size
from .lincomb import LinComb
from .perms import descent_composition, shifted_shuffle
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

def _descent_class(i: Composition) -> tuple[int, ...]:
    """A permutation with descent composition I: increasing runs of lengths
    I, each run above the next."""
    out, top = [], weight(i)
    for part in i:
        out.extend(range(top - part + 1, top + 1))
        top -= part
    return tuple(out)


@lru_cache(maxsize=None)
def _f_product(i: Composition, j: Composition) -> tuple:
    """F_I F_J in QSym as (K, count) pairs: the descent compositions of the
    shifted shuffles of any two permutations with descent compositions I
    and J, which do not depend on the choice (descent compositions are
    shuffle-compatible)."""
    return tuple(Counter(map(descent_composition, shifted_shuffle(
        _descent_class(i), _descent_class(j)))).items())


@lru_cache(maxsize=None)
def _gamma(f: Forest) -> MappingProxyType:
    """Gamma_F as a read-only map F_I -> count of the linear extensions of
    F with descent composition I.  A tree is the tuple of its children, so
    B+(H) is H."""
    if not f:
        return MappingProxyType({(): 1})
    if len(f) == 1:
        # the root carries the largest postorder label and comes last
        return MappingProxyType({i[:-1] + (i[-1] + 1,) if i else (1,): c
                                 for i, c in _gamma(f[0]).items()})
    out = {}
    rest = _gamma(f[1:]).items()
    for i, a in _gamma(f[:1]).items():
        for j, b in rest:
            ab = a * b
            for k, c in _f_product(i, j):
                out[k] = out.get(k, 0) + ab * c
    return MappingProxyType(out)


def gamma_qsym_f(f: Forest) -> LinComb:
    """Gamma_F(X) in the F basis: the descent compositions of the linear
    extensions of F, read off the tree recursion."""
    return LinComb(_gamma(f).items())


def nondecreasing_labellings(f: Forest, i: Composition) -> int:
    """Labellings u of the forest with evaluation I and u weakly increasing
    from the leaves toward the roots: the M_I coefficient of Gamma_F, i.e.
    its F_J coefficients summed over J coarser than I."""
    g = _gamma(f)
    return sum(g.get(j, 0) for j in coarsenings(i))


def strict_labellings(f: Forest, i: Composition) -> int:
    """Labellings with evaluation I, strictly increasing toward the roots:
    the F_J of Gamma_F summed over J finer than the complement of I."""
    g = _gamma(f)
    return sum(g.get(j, 0) for j in refinements(complement(i)))


def embed_r(i: Composition) -> LinComb:
    """R_I in the X basis: linear extensions of ribbon shape I."""
    return LinComb((f, _gamma(f).get(i, 0))
                   for f in enumerate_forests(weight(i)))


def embed_s(i: Composition) -> LinComb:
    """S^I in the X basis: nondecreasing labellings of evaluation I."""
    return LinComb((f, nondecreasing_labellings(f, i))
                   for f in enumerate_forests(weight(i)))


def embed_lambda(i: Composition) -> LinComb:
    """Lambda^I in the X basis: strict labellings of evaluation I."""
    return LinComb((f, strict_labellings(f, i))
                   for f in enumerate_forests(weight(i)))


def gamma_qsym_m(f: Forest) -> LinComb:
    """Gamma_F(X) in the M basis: nondecreasing labelling counts."""
    return LinComb((i, nondecreasing_labellings(f, i))
                   for i in compositions_of(forest_size(f)))


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
