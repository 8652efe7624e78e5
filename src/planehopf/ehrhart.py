"""Order polytopes of forest posets and their Ehrhart data.

The order polytope of the canonically labelled forest poset is cut out by
0 <= x_i <= 1 together with x_i <= x_j whenever i lies below j.  The
integral points of its dilations are the (P, omega)-partitions of the poset,
counted by Gamma_F (:func:`planehopf.ncsf.gamma_qsym_m`), and the interior
points are the strict ones, counted by chi_F.  The order polynomial
Gamma_F(alpha) (:func:`planehopf.idempotents.gamma_alpha`, built by the
tree recursion) is the Ehrhart polynomial at alpha - 1; Gamma_F and chi_F
on finite geometric alphabets give the q-counts.

The packed words of the points assemble into a word-indexed lift of Gamma_F.
The sign change of alphabet on packed words,
M_u(-A) = (-1)^max(u) sum of M_v over merges v of u, turns the weak words
into the strict ones and yields the interior points, hence an exact lift of
Ehrhart reciprocity.  The packed words and brute-force point enumeration are
the test oracles for the Gamma_F routes.
"""

from __future__ import annotations

from itertools import product as iter_product

from .forests import Forest, forest_size, strict_below_pairs
from .idempotents import gamma_alpha
from .lincomb import LinComb
from .ncsf import chi_qsym_m, eval_geometric, gamma_qsym_m
from .polynomials import MultiPoly

PackedWord = tuple[int, ...]


# ---------------------------------------------------------------------------
# Point enumeration

def lattice_points(f: Forest, n: int, interior: bool = False) -> list[tuple[int, ...]]:
    """Integral points of n times the order polytope of the forest poset:
    0 <= x_i <= n and x_i <= x_j for i below j; interior points satisfy all
    inequalities strictly."""
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    size = forest_size(f)
    below = strict_below_pairs(f)
    lo, hi = (1, n - 1) if interior else (0, n)
    out = []
    for x in iter_product(range(lo, hi + 1), repeat=size):
        if interior:
            if all(x[i - 1] < x[j - 1] for i, j in below):
                out.append(x)
        elif all(x[i - 1] <= x[j - 1] for i, j in below):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# Packed word generating functions

def packed_words(n: int) -> tuple[PackedWord, ...]:
    """All words on {1..m} of length n using every letter up to their max."""
    out = []
    for w in iter_product(range(1, n + 1), repeat=n):
        m = max(w) if w else 0
        if set(w) == set(range(1, m + 1)):
            out.append(w)
    return tuple(out)


def gamma_wqsym(f: Forest, signed: bool = False) -> LinComb:
    """Word generating function of the forest poset: all packed words with
    u_i <= u_j for i below j (strict inequalities for the signed variant,
    which equals (-1)^n times the function of the sign-changed alphabet)."""
    below = strict_below_pairs(f)
    out = {}
    for u in packed_words(forest_size(f)):
        if signed:
            ok = all(u[i - 1] < u[j - 1] for i, j in below)
        else:
            ok = all(u[i - 1] <= u[j - 1] for i, j in below)
        if ok:
            out[u] = 1
    return LinComb(out)


def word_merges(u: PackedWord) -> tuple[PackedWord, ...]:
    """All coarsenings of u: merge adjacent blocks (consecutive letter
    values) and repack."""
    m = max(u) if u else 0
    out = []
    # choose which of the m-1 boundaries between consecutive values survive
    for mask in iter_product((0, 1), repeat=max(m - 1, 0)):
        group = [1] * (m + 1)
        g = 1
        for k in range(2, m + 1):
            if mask[k - 2]:
                g += 1
            group[k] = g
        out.append(tuple(group[x] for x in u))
    return tuple(out)


def minus_alphabet(a: LinComb) -> LinComb:
    """Sign change of alphabet on a packed-word expansion:
    M_u(-A) = (-1)^max(u) sum of M_v over merges v of u."""
    return LinComb((v, (-1) ** (max(u) if u else 0) * c)
                   for u, c in a.terms.items() for v in word_merges(u))


def signed_gamma_by_transform(f: Forest) -> LinComb:
    """(-1)^n Gamma(-A) computed by the merge formula; must agree with the
    strict-word route of gamma_wqsym(f, signed=True)."""
    n = forest_size(f)
    return minus_alphabet(gamma_wqsym(f)).scale((-1) ** n)


def word_to_composition(u: PackedWord) -> tuple[int, ...]:
    """Commutative image: the composition counting each letter value."""
    m = max(u) if u else 0
    return tuple(sum(1 for x in u if x == k) for k in range(1, m + 1))


def wqsym_to_qsym(a: LinComb) -> LinComb:
    """Project a packed-word expansion to the monomial basis of QSym."""
    return LinComb((word_to_composition(u), c) for u, c in a.terms.items())


# ---------------------------------------------------------------------------
# Ehrhart polynomial and reciprocity

def ehrhart_polynomial(f: Forest, var: str = "x") -> MultiPoly:
    """E(x) with E(n) = number of integral points of the n-th dilation."""
    return gamma_alpha(f).substitute({"alpha": MultiPoly.var(var) + 1})


def interior_count_poly(f: Forest, n: int):
    """(-1)^|F| E(-n), the reciprocity prediction for interior points."""
    e = ehrhart_polynomial(f)
    val = e.substitute({"x": -n}).as_constant()
    return (-1) ** forest_size(f) * val

def reciprocity_check(f: Forest, n: int) -> bool:
    """Interior points of the n-th dilation against (-1)^|F| E(-n)."""
    return interior_count_poly(f, n) == len(lattice_points(f, n, interior=True))


# ---------------------------------------------------------------------------
# q-counting

def q_count(f: Forest, n: int, interior: bool = False) -> dict[int, int]:
    """q-count of the points of the n-th dilation by sum of coordinates,
    as a dict exponent -> coefficient.

    Boundary: Gamma_F on the alphabet {1, q, ..., q^n}, one letter per
    coordinate value 0..n.  Interior: chi_F on {1, q, ..., q^(n-2)}, with
    each exponent shifted by |F| (coordinate values 1..n-1), negated, and
    the global sign (-1)^|F| carried; the absolute value matches the
    interior points weighted by q^(-sum)."""
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    if not interior:
        return _q_exponents(eval_geometric(gamma_qsym_m(f), n + 1))
    size = forest_size(f)
    return {-(size + e): (-1) ** size * c for e, c in
            _q_exponents(eval_geometric(chi_qsym_m(f), n - 1)).items()}


def _q_exponents(p: MultiPoly) -> dict[int, int]:
    return {dict(m).get("q", 0): c for m, c in p.coeffs.items()}


def q_count_points(f: Forest, n: int, interior: bool = False) -> dict[int, int]:
    """The same q-count by direct point enumeration (oracle route)."""
    out: dict[int, int] = {}
    sign = (-1) ** forest_size(f) if interior else 1
    for x in lattice_points(f, n, interior=interior):
        e = sum(x)
        e = -e if interior else e
        out[e] = out.get(e, 0) + sign
    return {e: c for e, c in out.items() if c}
