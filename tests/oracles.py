"""Reference routes kept for the tests only.

The A/(1-q) transform as a product: S^I(A/(1-q)) is the ribbon product of
the S_{i_k}(A/(1-q)), each the sum of q^maj(J) R_J / (q)_{i_k}, with every
product and sum reduced to lowest terms again.  The library reads each
ribbon's coefficient off one formula instead.

The symmetric group algebra: a ribbon element of degree n is sent to the
group algebra of S_n, R_I going to the sum of the permutations with descent
composition I, and squared by convolution.  That costs n!^2 steps, so it is
capped at ``MAX_GROUP_DEGREE``; the library squares inside the descent
algebra instead, and the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from planehopf import perms
from planehopf.compositions import compositions_of, descent_set, maj, weight
from planehopf.lincomb import LinComb
from planehopf.ncsf import r_product
from planehopf.polynomials import MultiPoly, RationalFn, over_one_minus_q

MAX_GROUP_DEGREE = 6


def product_s_n_over_1mq(n: int) -> LinComb:
    """S_n(A/(1-q)) in the ribbon basis:
    sum over I of q^maj(I) R_I / ((1-q)(1-q^2)...(1-q^n))."""
    q = MultiPoly.var("q")
    return LinComb({i: over_one_minus_q(q ** maj(i), range(1, n + 1))
                    for i in compositions_of(n)})


def product_transform_over_1mq(a: LinComb) -> LinComb:
    """A -> A/(1-q) on an S-basis element, as a product of the
    S_{i_k}(A/(1-q)) for each S^I; output in the ribbon basis."""
    one = LinComb.monomial((), RationalFn(1))
    return LinComb((j, RationalFn.coerce(c) * cj) for i, c in a.terms.items()
                   for j, cj in reduce(r_product, map(product_s_n_over_1mq, i),
                                       one).items())


class GroupDegreeGuard(ValueError):
    """Raised when a symmetric-group-algebra computation exceeds the cap."""


def beta(a, n: int) -> dict:
    """Send a ribbon element to the group algebra of S_n:
    R_I -> sum of the permutations with descent set D(I)."""
    out: dict = {}
    classes: dict = {}
    for sigma in perms.all_perms(n):
        classes.setdefault(perms.descents(sigma), []).append(sigma)
    for i, c in a.terms.items():
        if weight(i) != n:
            raise ValueError(f"composition {i} is not of weight {n}")
        for sigma in classes.get(descent_set(i), []):
            s = out.get(sigma, 0) + c
            if s:
                out[sigma] = s
            else:
                out.pop(sigma, None)
    return out


def group_product(x: dict, y: dict) -> dict:
    """Convolution product in the group algebra (left factor acts after)."""
    out: dict = {}
    for p, cp in x.items():
        for q, cq in y.items():
            r = tuple(p[q[k] - 1] for k in range(len(q)))
            s = out.get(r, 0) + cp * cq
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def group_quasi_idempotent_check(a, n: int) -> tuple[bool, int | Fraction]:
    """Whether beta(a)^2 = c beta(a) for some scalar c; returns (ok, c)."""
    if n > MAX_GROUP_DEGREE:
        raise GroupDegreeGuard(
            f"group algebra check needs degree {n} > {MAX_GROUP_DEGREE}")
    b = beta(a, n)
    if not b:
        return True, 0
    square = group_product(b, b)
    pivot = next(iter(b))
    c = Fraction(square.get(pivot, 0), b[pivot])
    scaled = {sigma: coeff * c for sigma, coeff in b.items() if coeff * c}
    return square == scaled, c
