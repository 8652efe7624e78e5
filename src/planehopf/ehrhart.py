"""Order polytopes of forest posets and their Ehrhart data.

The order polytope of the canonically labelled forest poset is cut out by
0 <= x_i <= 1 together with x_i <= x_j whenever i lies below j.  The
integral points of its dilations are the (P, omega)-partitions of the poset,
counted by Gamma_F (:func:`planehopf.ncsf.gamma_qsym_m`), and the interior
points are the strict ones, counted by chi_F.  The order polynomial
Gamma_F(alpha) is the Ehrhart polynomial at alpha - 1.

``lattice_points`` lists the points tree by tree, each root value bounding
its children's, ``q_count`` counts them by coordinate sum the same way, and
``_counts`` counts those of the dilations 0..m at once, node by node.  The
Ehrhart polynomial has degree |F| (Stanley, EC1 3.15), so
``ehrhart_polynomial`` interpolates |F| + 1 counts.  The tests check the
points against the scan of every candidate point, the q-counts against
Gamma_F and chi_F on geometric alphabets, and the polynomials against
Gamma_F in the M basis and by reciprocity through Bernoulli polynomials.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from operator import mul

from .forests import Forest, forest_size, reverse_polish_code
from .polynomials import MultiPoly, interpolate


# ---------------------------------------------------------------------------
# Point enumeration

def lattice_points(f: Forest, n: int, interior: bool = False) -> list[tuple[int, ...]]:
    """Integral points of n times the order polytope of the forest poset:
    0 <= x_i <= n and x_i <= x_j for i below j; interior points satisfy all
    inequalities strictly.  Sorted, as the scan of {0..n}^|F| lists them."""
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    lo, hi = (1, n - 1) if interior else (0, n)
    return sorted(_points(f, lo, hi, int(interior)))


def _points(f: Forest, lo: int, hi: int, gap: int) -> list[tuple[int, ...]]:
    """Points of a forest with values in [lo, hi]: each tree takes a root
    value v, and its children's forest values in [lo, v - gap]."""
    parts = []
    for t in f:
        parts.append([p + (v,) for v in range(lo, hi + 1)
                      for p in _points(t, lo, v - gap, gap)])
    # join neighbours pairwise: a point of a wide forest is copied log |F|
    # times, not once per tree
    while len(parts) > 1:
        parts = [[x + y for x in a for y in b] for a, b in
                 zip_longest(parts[::2], parts[1::2], fillvalue=[()])]
    return parts[0] if parts else [()]


def candidate_count(f: Forest, n: int, cap: int) -> int:
    """(n+1)^|F|, the size of {0..n}^|F| and an upper bound on the points
    that ``lattice_points`` lists, or ``cap`` if it is at least ``cap``.
    The power is taken one factor at a time and stops at the cap."""
    count = 1
    for _ in range(forest_size(f)):
        if count >= cap:
            break
        count = min(count * (n + 1), cap)
    return count


# ---------------------------------------------------------------------------
# Order polynomial, Ehrhart polynomial and reciprocity

def forest_counts(trees: list[list[int]], top: int) -> list[int]:
    """Omega_F(0..top), its trees' lists Omega_T(0..top) multiplied."""
    out = trees[0] if trees else [1] * (top + 1)
    for t in trees[1:]:
        out = list(map(mul, out, t))
    return out


def tree_counts(children: list[list[int]], top: int) -> list[int]:
    """Omega_T(0..top) of T = B+(H), the prefix sums of Omega_H."""
    return list(accumulate(forest_counts(children, top)))


def _counts(f: Forest, top: int) -> list[int]:
    """[Omega_F(m) for m in 0..top], the point counts of the dilations, node
    by node off the reverse Polish code: a deep tree needs no recursion stack."""
    stack = []
    for arity in reverse_polish_code(f):
        cut = len(stack) - arity
        stack[cut:] = [tree_counts(stack[cut:], top)]
    return forest_counts(stack, top)


def ehrhart_polynomial(f: Forest) -> MultiPoly:
    """E(x) with E(n) = number of integral points of the n-th dilation."""
    return MultiPoly({(("x", e),) if e else (): c for e, c in
                      enumerate(interpolate(_counts(f, forest_size(f))))})


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
    as a dict exponent -> coefficient.  Interior points are weighted by
    q^(-sum), and the global sign (-1)^|F| is carried."""
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    if not interior:
        return _sums(f, n, 0, {})
    sign = (-1) ** forest_size(f)
    return {-s: sign * c for s, c in _sums(f, n - 1, 1, {}).items()}


def _sums(f: Forest, hi: int, gap: int, memo: dict) -> dict[int, int]:
    """{sum: count} over ``_points(f, gap, hi, gap)``: a tree sums its root
    value v over its children's counts up to v - gap, and a forest
    convolves its trees.  ``memo`` holds one call's results."""
    if not f:
        return {0: 1}
    if (f, hi) not in memo:
        out = {0: 1}
        for t in f:
            tree = {}
            for v in range(gap, hi + 1):
                for s, c in _sums(t, v - gap, gap, memo).items():
                    tree[s + v] = tree.get(s + v, 0) + c
            out = _convolve(out, tree)
        memo[f, hi] = out
    return memo[f, hi]


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two {sum: count} series."""
    out = {}
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            out[s1 + s2] = out.get(s1 + s2, 0) + c1 * c2
    return out
