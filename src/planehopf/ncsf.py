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
with packed-word counts in :mod:`planehopf.ehrhart`.

Evaluations on the infinite alphabets {1, q, q^2, ...} and (q, t) return
canonical RationalFns: each M_I has a denominator prod (1 - q^k), entered
as its cyclotomic factors, and every sum is kept in lowest terms.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from types import MappingProxyType

from . import compositions as comps
from .compositions import (coarsenings, complement, compositions_of,
                           refinements, reverse, weight)
from .forests import Forest, enumerate_forests, forest_size
from .lincomb import LinComb, bilinear
from .perms import descent_composition, shifted_shuffle
from .polynomials import MultiPoly, RationalFn, binomial_poly, over_one_minus_q

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


def lambda_n_in_s(n: int) -> LinComb:
    """Lambda_n = sum over |I| = n of (-1)^(n - l(I)) S^I."""
    return LinComb({i: Fraction((-1) ** (n - len(i)))
                    for i in compositions_of(n)})


def lambda_comp_in_s(i: Composition) -> LinComb:
    out = LinComb.monomial((), Fraction(1))
    for part in i:
        out = s_product(out, lambda_n_in_s(part))
    return out


def s_product(a: LinComb, b: LinComb) -> LinComb:
    """Product in the S basis: concatenation of compositions."""
    return bilinear(lambda i, j: LinComb.monomial(i + j), a, b)


def r_product(a: LinComb, b: LinComb) -> LinComb:
    """Product in the R basis: R_I R_J = R_{I.J} + R_{I|>J}."""

    def ribbons(i, j):
        if not i or not j:
            return LinComb.monomial(i + j)
        return LinComb(((i + j, 1), (i[:-1] + (i[-1] + j[0],) + j[1:], 1)))

    return bilinear(ribbons, a, b)


def s_coproduct_n(n: int) -> LinComb:
    """Delta S_n = sum of S_i tensor S_j over i + j = n, as composition pairs."""
    return LinComb((((i,) if i else (), (n - i,) if n - i else ()), 1)
                   for i in range(n + 1))


# ---------------------------------------------------------------------------
# QSym basis conversions and products

def f_to_m(a: LinComb) -> LinComb:
    """F_I = sum of M_J over J finer than I."""
    return LinComb((j, c) for i, c in a.terms.items() for j in refinements(i))


def m_to_f(a: LinComb) -> LinComb:
    """M_I = sum over finer J of (-1)^(l(J)-l(I)) F_J."""
    return LinComb((j, c * (-1) ** (len(j) - len(i)))
                   for i, c in a.terms.items() for j in refinements(i))


def _quasi_shuffles(i: Composition, j: Composition):
    if not i:
        yield j
        return
    if not j:
        yield i
        return
    for rest in _quasi_shuffles(i[1:], j):
        yield (i[0],) + rest
    for rest in _quasi_shuffles(i, j[1:]):
        yield (j[0],) + rest
    for rest in _quasi_shuffles(i[1:], j[1:]):
        yield (i[0] + j[0],) + rest


def m_product(a: LinComb, b: LinComb) -> LinComb:
    """Quasi-shuffle product in the M basis."""
    return bilinear(lambda i, j: LinComb((k, 1) for k in _quasi_shuffles(i, j)),
                    a, b)


def pair(s_elem: LinComb, m_elem: LinComb):
    """Duality pairing, S basis against M basis."""
    total = Fraction(0)
    for i, c in s_elem.terms.items():
        if i in m_elem.terms:
            total = total + c * m_elem.terms[i]
    return total


def minus_x_m(a: LinComb) -> LinComb:
    """The involution X -> -X in the M basis:
    M_I(-X) = (-1)^l(I) sum of M_J over J coarser than I."""
    return LinComb((j, c * (-1) ** len(i))
                   for i, c in a.terms.items() for j in coarsenings(i))


def minus_x_f(a: LinComb) -> LinComb:
    """The involution X -> -X in the F basis:
    F_I(-X) = (-1)^|I| F of the descent complement."""
    return LinComb((complement(i), c * (-1) ** weight(i))
                   for i, c in a.terms.items())


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
    return LinComb((i, Fraction(c)) for i, c in _gamma(f).items())


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
    return LinComb((f, Fraction(_gamma(f).get(i, 0)))
                   for f in enumerate_forests(weight(i)))


def embed_s(i: Composition) -> LinComb:
    """S^I in the X basis: nondecreasing labellings of evaluation I."""
    return LinComb((f, Fraction(nondecreasing_labellings(f, i)))
                   for f in enumerate_forests(weight(i)))


def embed_lambda(i: Composition) -> LinComb:
    """Lambda^I in the X basis: strict labellings of evaluation I."""
    return LinComb((f, Fraction(strict_labellings(f, i)))
                   for f in enumerate_forests(weight(i)))


def gamma_qsym_m(f: Forest) -> LinComb:
    """Gamma_F(X) in the M basis: nondecreasing labelling counts."""
    return LinComb((i, Fraction(nondecreasing_labellings(f, i)))
                   for i in compositions_of(forest_size(f)))


def chi_qsym_m(f: Forest) -> LinComb:
    """chi_F(X) = (-1)^|F| Gamma_F(-X), in the M basis."""
    return minus_x_m(gamma_qsym_m(f)).scale(Fraction((-1) ** forest_size(f)))


# ---------------------------------------------------------------------------
# Alphabet transforms in Nsym

def s_n_1mq(n: int) -> LinComb:
    """S_n((1-q)A) in the R basis, coefficients polynomials in q."""
    q = MultiPoly.var("q")
    if n == 0:
        return LinComb.monomial((), MultiPoly.const(1))
    return LinComb(((1,) * k + (n - k,), (1 - q) * (-q) ** k)
                   for k in range(n))


def transform_1mq(a: LinComb) -> LinComb:
    """A -> (1-q)A on an S-basis element, output in the R basis."""
    one = LinComb.monomial((), MultiPoly.const(1))
    return LinComb((j, MultiPoly.coerce(c) * cj) for i, c in a.terms.items()
                   for j, cj in reduce(r_product, map(s_n_1mq, i), one).items())


def psi_n(n: int) -> LinComb:
    """Power sum Psi_n in the R basis."""
    return LinComb({(1,) * k + (n - k,): Fraction((-1) ** k)
                    for k in range(n)})


def psi_n_via_limit(n: int) -> LinComb:
    """Psi_n as the limit of S_n((1-q)A)/(1-q) at q = 1 (exact division)."""
    q = MultiPoly.var("q")
    return LinComb((i, RationalFn(c, 1 - q).substitute({"q": Fraction(1)})
                    .num.as_constant())
                   for i, c in s_n_1mq(n).terms.items())


def psi_bar_n(n: int) -> LinComb:
    """The mirror power sum, with hooks growing on the other side."""
    return LinComb({(n - k,) + (1,) * k: Fraction((-1) ** k)
                    for k in range(n)})


# ---------------------------------------------------------------------------
# Alphabet evaluations in QSym (M basis in, polynomials out)

def eval_binomial(a: LinComb, var: str = "alpha") -> "MultiPoly":
    """Evaluate on an alphabet of ``var`` ones: M_I -> binomial(var, l(I))."""
    return MultiPoly.sum(binomial_poly(var, len(i)) * MultiPoly.coerce(c)
                         for i, c in a.terms.items())


def eval_geometric(a: LinComb, m: int) -> "MultiPoly":
    """Evaluate on the alphabet {1, q, ..., q^(m-1)}."""
    return MultiPoly.sum(
        MultiPoly.sum(MultiPoly.var("q", sum(part * j for part, j in zip(i, js)))
                      for js in combinations(range(m), len(i)))
        * MultiPoly.coerce(c) for i, c in a.terms.items())


def eval_geometric_inf(a: LinComb) -> RationalFn:
    """Evaluate on the infinite alphabet {1, q, q^2, ...}:
    M_I -> q^(sum (k-1) i_k) / prod_k (1 - q^(i_k + ... + i_l))."""
    return sum((_even_factor(i) * c for i, c in a.terms.items()),
               RationalFn(0))


def eval_xqt(a: LinComb) -> RationalFn:
    """Evaluate on the (q, t) alphabet: even letters q^i (i >= 0) ascending,
    odd letters q^j t (j >= 1) descending; each M_I splits as an even prefix
    and an odd suffix."""
    return sum((_even_factor(i[:cut]) * _odd_part_factor(i[cut:]) * c
                for i, c in a.terms.items() for cut in range(len(i) + 1)),
               RationalFn(0))


def _even_factor(i: Composition) -> RationalFn:
    q = MultiPoly.var("q")
    return over_one_minus_q(
        q ** sum((k - 1) * part for k, part in enumerate(i, start=1)),
        [sum(i[k:]) for k in range(len(i))])


def _odd_part_factor(i: Composition) -> RationalFn:
    """Contribution of the odd letters q^j t (j >= 1), taken with strictly
    decreasing j along the blocks; within a block the letters coincide."""
    q = MultiPoly.var("q")
    t = MultiPoly.var("t")

    def blockings(parts):
        if not parts:
            yield ()
            return
        for cut in range(1, len(parts) + 1):
            for rest in blockings(parts[cut:]):
                yield (parts[:cut],) + rest

    def term(blocks):
        sizes = [sum(block) for block in blocks]
        num_exp = sum((len(blocks) - m) * size for m, size in enumerate(sizes))
        return over_one_minus_q((-1) ** len(i) * q ** num_exp * t ** weight(i),
                                list(accumulate(sizes)))

    return sum(map(term, blockings(i)), RationalFn(0))


# ---------------------------------------------------------------------------
# omega involutions on QSym (F basis)

OMEGA_KINDS = ("conjugate", "reverse", "complement")


def omega_f(a: LinComb, kind: str = "conjugate") -> LinComb:
    """An involution on the F basis sending F_I to F of a transformed shape."""
    if kind not in OMEGA_KINDS:
        raise ValueError(f"unknown omega kind {kind!r}")
    fn = {"conjugate": comps.conjugate, "reverse": reverse,
          "complement": complement}[kind]
    return LinComb((fn(i), c) for i, c in a.terms.items())
