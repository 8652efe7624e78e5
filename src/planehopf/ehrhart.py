"""Order polytopes of forest posets and their Ehrhart data.

The order polytope of the canonically labelled forest poset is cut out by
0 <= x_i <= 1 together with x_i <= x_j whenever i lies below j.  The
integral points of its dilations are the (P, omega)-partitions of the poset,
counted by Gamma_F (:func:`planehopf.ncsf.gamma_qsym_m`), and the interior
points are the strict ones, counted by chi_F.  The order polynomial
Gamma_F(alpha) (:func:`planehopf.idempotents.gamma_alpha`, built by the
tree recursion) is the Ehrhart polynomial at alpha - 1; Gamma_F and chi_F
on finite geometric alphabets give the q-counts.

Brute-force point enumeration lists the points themselves; the tests hold
the packed-word lift of Gamma_F and compare the Gamma_F routes with both.
"""

from __future__ import annotations

from itertools import product as iter_product

from .forests import Forest, forest_size, strict_below_pairs
from .idempotents import gamma_alpha
from .ncsf import chi_qsym_m, eval_geometric, gamma_qsym_m
from .polynomials import MultiPoly


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


def candidate_count(f: Forest, n: int, cap: int) -> int:
    """(n+1)^|F|, the number of points of {0..n}^|F| that ``lattice_points``
    tries (fewer for interior points), or ``cap`` if it is at least ``cap``.
    It also bounds the C(n+|F|, |F|) monomials that ``q_count`` lists.  The
    power is taken one factor at a time and stops at the cap."""
    count = 1
    for _ in range(forest_size(f)):
        if count >= cap:
            break
        count = min(count * (n + 1), cap)
    return count


# ---------------------------------------------------------------------------
# Ehrhart polynomial and reciprocity

def ehrhart_polynomial(f: Forest) -> MultiPoly:
    """E(x) with E(n) = number of integral points of the n-th dilation."""
    return gamma_alpha(f).substitute({"alpha": MultiPoly.var("x") + 1})


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
