"""Order polytopes of forest posets and their Ehrhart data.

The order polytope of the canonically labelled forest poset is cut out by
0 <= x_i <= 1 together with x_i <= x_j whenever i lies below j.  The
integral points of its dilations are the (P, omega)-partitions of the poset,
counted by Gamma_F (:func:`planehopf.ncsf.gamma_qsym_m`), and the interior
points are the strict ones, counted by chi_F.  The order polynomial
Gamma_F(alpha) is the Ehrhart polynomial at alpha - 1.

Each count folds the forest children first, with no recursion
(:func:`planehopf.forests.fold`).  ``lattice_points`` and ``q_count`` are
one walk: a node maps each value w to the product of its children's prefix
sums at w (w - 1 for interior points), lists of points or series by
coordinate sum.  ``_counts`` counts the points of the dilations 0..m at
once.  The Ehrhart polynomial has degree |F| (Stanley, EC1 3.15), so
``ehrhart_polynomial`` interpolates |F| + 1 counts.  The tests check the
points against the scan of every candidate point, the q-counts against
Gamma_F and chi_F on geometric alphabets, and the polynomials against
Gamma_F in the M basis and by reciprocity through Bernoulli polynomials.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import iadd, mul

from .forests import Forest, fold, forest_size
from .polynomials import MultiPoly, interpolate


# ---------------------------------------------------------------------------
# Bounded labellings

def _labellings(f: Forest, hi: int, gap: int, one: list, grow, product):
    """The labellings of F by values in [gap, hi] that rise by at least
    ``gap`` from each node to its parent; ``product`` combines independent
    parts, and ``one`` is the empty labelling.

    A node maps each value w in [gap, hi] to the product of its children's
    prefix sums at w - gap, the labellings of its children's forest under a
    root labelled w.  A prefix sum starts as an empty list, and ``grow(sums,
    u, values)`` adds in place the labellings with root value u + i, the
    children's being ``values[i]``.  The forest is one more node, asked
    only at hi + gap."""

    def node(children, asked):
        if not children:  # the empty product at every value
            return [one] * len(asked)
        out, sums, u = [], [[] for _ in children], gap
        for w in asked:
            # the prefix sums take in the root values u..w - gap
            for s, child in zip(sums, children):
                grow(s, u, child[u - gap:w - 2 * gap + 1])
            u = w - gap + 1
            out.append(reduce(product, sums, one))
        return out

    # the fold gathers each node's children, and the node multiplies them
    return fold(f, lambda roots: node(roots, [hi + gap])[0], [],
                lambda children: [node(children, range(gap, hi + 1))], iadd)


def lattice_points(f: Forest, n: int, interior: bool = False) -> list[tuple[int, ...]]:
    """Integral points of n times the order polytope of the forest poset:
    0 <= x_i <= n and x_i <= x_j for i below j; interior points satisfy all
    inequalities strictly.  Sorted, as the scan of {0..n}^|F| lists them."""
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    gap = int(interior)
    return sorted(_labellings(
        f, n - gap, gap, [()],
        lambda pts, u, values: pts.extend(
            [p + (v,) for v, below in enumerate(values, u) for p in below]),
        lambda a, b: [x + y for x in a for y in b]))


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
# Order polynomial and Ehrhart polynomial

def _counts(f: Forest, top: int) -> list[int]:
    """[Omega_F(m) for m in 0..top], the point counts of the dilations: a
    tree's counts are the prefix sums of the product of its children's, and
    a lone child's pass up with no product."""
    return fold(f, list, [1] * (top + 1), lambda below: list(accumulate(below)),
                lambda a, b: list(map(mul, a, b)))


def ehrhart_polynomial(f: Forest) -> MultiPoly:
    """E(x) with E(n) = number of integral points of the n-th dilation."""
    return MultiPoly({(("x", e),) if e else (): c for e, c in
                      enumerate(interpolate(_counts(f, forest_size(f))))})


# ---------------------------------------------------------------------------
# q-counting

def q_count(f: Forest, n: int, interior: bool = False) -> dict[int, int]:
    """q-count of the points of the n-th dilation by sum of coordinates,
    as a dict exponent -> coefficient.  Interior points are weighted by
    q^(-sum), and the global sign (-1)^|F| is carried.  The counts are
    lists indexed by the sum."""
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    gap = int(interior)
    series = _labellings(f, n - gap, gap, [1], _grow, _convolve)
    sign, weight = ((-1) ** forest_size(f), -1) if interior else (1, 1)
    return {weight * s: sign * c for s, c in enumerate(series) if c}


def _grow(sums: list[int], u: int, values: list) -> None:
    """Add q^v times the series ``values[v - u]`` into ``sums`` in place."""
    for v, below in enumerate(values, u):
        sums.extend([0] * (v + len(below) - len(sums)))
        for s, c in enumerate(below, v):
            sums[s] += c


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two series."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for s, c in enumerate(a):
        if c:
            for t, d in enumerate(b, s):
                out[t] += c * d
    return out
