"""Lie idempotents of the descent algebra and their verification.

Dynkin (Psi_n and its mirror), Solomon (log sigma_1), the Eulerian family
e_n^(k), and the q-interpolating phi_n(q).  Under the embedding into the
dual Connes-Kreimer algebra, Psi_n lands on the chain tree and the mirror
Psi-bar_n on the sum of all trees; the Eulerian pieces expand with the
coefficient of X_F given by [alpha^k] of the order polynomial Gamma_F: one
integer row per call, dotted with Gamma_F(1..n), the point counts of the
order polytope's dilations, read off one table of the counts of the tree
shapes, once per forest shape.
phi_n(q) and the A/(1-q) transform have RationalFn coefficients in lowest
terms, so their identities are checked with ``==``.

The transform A -> A/(1-q) is read off one formula.  S_m(A/(1-q)) is the
sum of q^maj(J) R_J / (q)_m, and R_J R_J' = R_{J.J'} + R_{J|>J'}, so each
ribbon K of weight n comes from exactly one tuple of factors, J_k being the
descents of K inside the k-th block of I:

    coefficient of R_K in S^I(A/(1-q)) = q^e(I,K) / prod_k (q)_{i_k},

where e(I,K) sums, over the descents d of K, d minus the largest partial
sum of I at or below d.  The terms of one weight go over the least common
cyclotomic denominator of their prod (q)_{i_k}, and the numerator of each
ribbon is reduced to lowest terms once; a one-term input keeps
prod (q)_{i_k} over a monomial.  The product route, which reduces after
every product and sum, is kept in the tests as the oracle.

Certification is two-fold, inside the descent algebra: primitivity for the
coproduct of Sym, and quasi-idempotency e * e = c e for the internal
product.  Both read one table, the rows of N-matrices under given column
sums.  The rows of sum k under the parts of J list the S^J' (x) S^J'' of
Delta S^J in degrees (k, |J| - k), and since Delta is cocommutative
(Gelfand et al. 1995) the degrees k <= |J|/2 settle primitivity.  Solomon's
Mackey formula stacks the same rows into the matrices of the internal
product in the S basis.  Reading its matrices by columns instead of rows
gives the opposite product, so a square is the same either way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm, prod
from operator import mul

from .compositions import compositions_of, descent_set, maj, weight
from .forests import shapes
from .lincomb import LinComb, bilinear
from .ncsf import embed_r, psi_n, psi_bar_n, r_to_s, s_to_r
from .polynomials import (MultiPoly, RationalFn, _common_denominator,
                          _lowest_terms, interpolate)

# ---------------------------------------------------------------------------
# Dynkin

def dynkin(n: int) -> tuple[LinComb, LinComb]:
    """(Psi_n, Psi-bar_n) in the ribbon basis."""
    return psi_n(n), psi_bar_n(n)


def dynkin_x(n: int) -> tuple[LinComb, LinComb]:
    """(Psi_n, Psi-bar_n) embedded in the X basis: the chain tree and the
    sum of all trees."""
    return embed_x(psi_n(n)), embed_x(psi_bar_n(n))


def embed_x(a: LinComb) -> LinComb:
    """Embed a ribbon-basis element of Sym into the X basis."""
    return a.map_basis(embed_r)


# ---------------------------------------------------------------------------
# Eulerian and Solomon

def eulerian(n: int, k: int) -> LinComb:
    """e_n^(k) in the X basis: the coefficient of X_F is [alpha^k] of
    Gamma_F(alpha)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # [alpha^k] is linear in v_m = Gamma_F(m) = Omega_F(m - 1), and v_0 = 0
    row = [interpolate([int(i == m) for i in range(n + 1)])[k]
           for m in range(1, n + 1)]
    den = lcm(*(c.denominator for c in row))
    row = [int(c * den) for c in row]
    # Omega_T(0..n-1) once per tree shape, the prefix sums of the product of
    # its children's lists, and one dot product per forest shape
    counts, ones = {}, [1] * n
    for t in dict.fromkeys(s for m in range(n) for s in shapes(m).values()):
        children = zip(ones, *map(counts.get, t))
        counts[t] = list(accumulate(map(prod, children)))
    dots = {}
    for s in dict.fromkeys(shapes(n).values()):
        omega = map(prod, zip(*map(counts.get, s)))
        dots[s] = Fraction(sum(map(mul, row, omega)), den)
    return LinComb({f: dots[s] for f, s in shapes(n).items() if dots[s]})


def solomon(n: int) -> LinComb:
    """Degree-n part of log sigma_1 in the S basis:
    sum over I of (-1)^(l(I)-1)/l(I) S^I."""
    return LinComb({i: Fraction((-1) ** (len(i) - 1), len(i))
                    for i in compositions_of(n)})


def solomon_x(n: int) -> LinComb:
    return embed_x(s_to_r(solomon(n)))


# ---------------------------------------------------------------------------
# q-interpolation

def q_solomon(n: int) -> LinComb:
    """phi_n(q) in the ribbon basis, with RationalFn coefficients:
    (1/n) sum over I of (-1)^(l-1) q^(maj(I) - l(l-1)/2) / qbin(n-1, l-1) R_I,
    each Gaussian binomial entered as its cyclotomic factors: Phi_d occurs
    in qbin(n-1, l-1) [(n-1)/d] - [(l-1)/d] - [(n-l)/d] times.  A monomial
    over them is in lowest terms.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    out = {}
    for i in compositions_of(n):
        l = len(i)
        e = maj(i) - l * (l - 1) // 2
        num = MultiPoly({(("q", e),) if e else (): Fraction((-1) ** (l - 1), n)})
        out[i] = RationalFn._make(num, {
            ("q", d): m for d in range(2, n)
            if (m := (n - 1) // d - (l - 1) // d - (n - l) // d)})
    return LinComb(out)


def transform_over_1mq(a: LinComb) -> LinComb:
    """A -> A/(1-q) on an S-basis element with rational coefficients,
    output in the ribbon basis."""
    by_weight: dict = {}
    for i, c in a.terms.items():
        by_weight.setdefault(weight(i), []).append((i, c))
    return LinComb(kc for n, terms in by_weight.items()
                   for kc in _over_1mq_of_weight(n, terms))


def _over_1mq_of_weight(n: int, terms: list):
    """The ribbon terms of sum c_I S^I(A/(1-q)) over compositions I of n.
    The numerators are put over the least common denominator and scaled to
    integers; the numerator of each ribbon is reduced once."""
    # (q)_m = prod_{k <= m} (1 - q^k)
    den, cofactors = _common_denominator(
        [tuple(k for part in i for k in range(1, part + 1)) for i, _ in terms])
    scale = lcm(*(c.denominator for _, c in terms))
    rows = []
    for (i, c), cofactor in zip(terms, cofactors):
        c = int(c * scale)
        # offsets[d]: d minus the largest partial sum of I at or below d
        rows.append((tuple(j for part in i for j in range(part)),
                     [(j, x * c) for j, x in cofactor]))
    for k in compositions_of(n):
        descents = descent_set(k)
        num: dict = {}
        for offsets, cofactor in rows:
            e = sum(offsets[d] for d in descents)
            for j, x in cofactor:
                num[e + j] = num.get(e + j, 0) + x
        poly, den_k = _lowest_terms(
            MultiPoly({(("q", e),) if e else (): x for e, x in num.items()}), den)
        if poly:
            yield k, RationalFn._make(poly * Fraction(1, scale) if scale > 1
                                      else poly, den_k)


# ---------------------------------------------------------------------------
# Primitivity and the internal product, off one row table

@lru_cache(maxsize=None)
def _first_rows(total: int, caps: tuple[int, ...]) -> tuple:
    """Rows of sum ``total`` under column sums ``caps``, as (entries, sums
    left), zeros dropped, in lexicographic order.  Built column by column:
    a column takes at most what is left of ``total``, and at least what the
    columns after it cannot hold."""
    room = sum(caps)
    rows = [((), (), total)] if total <= room else []
    for c in caps:
        room -= c
        rows = [(entries + (v,) if v else entries,
                 left + (c - v,) if c > v else left, k - v)
                for entries, left, k in rows
                for v in range(max(k - room, 0), min(c, k) + 1)]
    return tuple((entries, left) for entries, left, _ in rows)


def is_primitive(a: LinComb) -> bool:
    """Whether Delta a = a (x) 1 + 1 (x) a, for an S-basis element a.  The
    part of Delta S^J in degrees (k, |J| - k) is the sum of S^J' (x) S^J''
    over the rows (J', J'') of sum k under J, and Delta is cocommutative, so
    the degrees k <= |J|/2 are enough."""
    return () not in a.terms and not LinComb(
        (pair, c) for j, c in a.terms.items()
        for k in range(1, weight(j) // 2 + 1) for pair in _first_rows(k, j))


@lru_cache(maxsize=None)
def _mackey(rows: tuple[int, ...], cols: tuple[int, ...]) -> LinComb:
    """S^rows * S^cols by Solomon's Mackey formula: the sum of S^(M read by rows,
    zeros dropped) over the N-matrices M with these row and column sums.
    Recurse on the first row; a column it uses up is zero below and dropped."""
    if not rows:
        return LinComb.monomial(()) if not cols else LinComb()
    return LinComb((head + tail, k)
                   for head, rest in _first_rows(rows[0], cols)
                   for tail, k in _mackey(rows[1:], rest).items())


def internal_product(a: LinComb, b: LinComb) -> LinComb:
    """The internal product of the descent algebra, S basis in and out."""
    return bilinear(_mackey, a, b)


def quasi_idempotent_check(a: LinComb, n: int) -> tuple[bool, int | Fraction]:
    """(ok, c): whether a * a = c a, for a ribbon-basis element a of degree n."""
    for i in a.terms:
        if weight(i) != n:
            raise ValueError(f"composition {i} is not of weight {n}")
    s = r_to_s(a)
    if not s:
        return True, 0
    # square den * s, with integer coefficients: its scalar is den * c
    den = lcm(*(c.denominator for c in s.terms.values()))
    s = LinComb((j, int(c * den)) for j, c in s.terms.items())
    square = internal_product(s, s)
    pivot = next(iter(s.terms))
    c = Fraction(square.coeff(pivot), s.terms[pivot])
    return square == s.scale(c), c / den
