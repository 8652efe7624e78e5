"""Lie idempotents of the descent algebra and their verification.

Dynkin (Psi_n and its mirror), Solomon (log sigma_1), the Eulerian family
e_n^(k), and the q-interpolating phi_n(q).  Under the embedding into the
dual Connes-Kreimer algebra, Psi_n lands on the chain tree and the mirror
Psi-bar_n on the sum of all trees; the Eulerian pieces expand with the
coefficient of X_F given by [alpha^k] of the order polynomial Gamma_F.
Gamma_F comes from the tree recursion for the strict order polynomials
chi_T (a discrete integral per node, memoized per tree) by reciprocity,
Gamma_F(alpha) = (-1)^|F| prod over trees of chi_T(-alpha); the tests
compare it with Gamma_F in the M basis evaluated on alpha ones.
phi_n(q) and the A/(1-q) transform have RationalFn coefficients in lowest
terms, so their identities are checked with ``==``.

Certification is two-fold: primitivity for the coproduct of Sym, and
quasi-idempotency beta(e)^2 = c beta(e) after sending each ribbon to its
descent class in the symmetric group algebra.  For a square the two
convolution orientations coincide, so the orientation choice is inert here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

from . import perms
from .compositions import compositions_of, descent_set, maj, weight
from .forests import Forest, Tree, enumerate_forests, forest_size
from .lincomb import LinComb, bilinear
from .ncsf import (embed_r, psi_n, psi_bar_n, r_product, s_coproduct_n,
                   s_to_r)
from .polynomials import (MultiPoly, RationalFn, discrete_integral,
                          over_one_minus_q)

MAX_GROUP_DEGREE = 6


class GroupDegreeGuard(ValueError):
    """Raised when a symmetric-group-algebra computation exceeds the cap."""


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
# Tree characteristic polynomials

@lru_cache(maxsize=None)
def chi_poly(t: Tree) -> MultiPoly:
    """chi_T(t): put t at each leaf, and at each internal node take the
    discrete integral (Delta g = f, g(0) = 0) of the product of the
    children.  A leaf is the integral of the empty product, which is t."""
    prod = MultiPoly.const(1)
    for child in t:
        prod = prod * chi_poly(child)
    return discrete_integral(prod, "t")


@lru_cache(maxsize=None)
def gamma_alpha(f: Forest) -> MultiPoly:
    """The order polynomial Gamma_F(alpha) of the forest poset, by
    reciprocity from the strict one: the product over the trees T of F of
    (-1)^|T| chi_T(-alpha)."""
    chi = MultiPoly.const(1)
    for t in f:
        chi = chi * chi_poly(t)
    return chi.substitute({"t": -MultiPoly.var("alpha")}) * (-1) ** forest_size(f)


# ---------------------------------------------------------------------------
# Eulerian and Solomon

def eulerian(n: int, k: int) -> LinComb:
    """e_n^(k) in the X basis: the coefficient of X_F is [alpha^k] of
    Gamma_F(alpha)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    out = {}
    for f in enumerate_forests(n):
        c = gamma_alpha(f).coefficient("alpha", k).as_constant()
        if c:
            out[f] = c
    return LinComb(out)


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
    each Gaussian binomial entered as its cyclotomic factors.
    """
    q = MultiPoly.var("q")
    out = {}
    for i in compositions_of(n):
        l = len(i)
        num = q ** (maj(i) - l * (l - 1) // 2) * Fraction((-1) ** (l - 1), n)
        # 1 / qbin(n-1, l-1) = prod_{k < l} (1 - q^k) / (1 - q^(n-k))
        out[i] = over_one_minus_q(num, range(n - l + 1, n), range(1, l))
    return LinComb(out)


def s_n_over_1mq(n: int) -> LinComb:
    """S_n(A/(1-q)) in the ribbon basis:
    sum over I of q^maj(I) R_I / ((1-q)(1-q^2)...(1-q^n)), the denominator
    entered as its cyclotomic factors."""
    q = MultiPoly.var("q")
    return LinComb({i: over_one_minus_q(q ** maj(i), range(1, n + 1))
                    for i in compositions_of(n)})


def transform_over_1mq(a: LinComb) -> LinComb:
    """A -> A/(1-q) on an S-basis element, output in the ribbon basis."""
    one = LinComb.monomial((), RationalFn(1))
    return LinComb((j, RationalFn.coerce(c) * cj) for i, c in a.terms.items()
                   for j, cj in reduce(r_product, map(s_n_over_1mq, i), one).items())


# ---------------------------------------------------------------------------
# Primitivity

def s_coproduct(a: LinComb) -> LinComb:
    """Coproduct of an S-basis element, as a combination of pairs (I, J):
    Delta S_n = sum of S_i (x) S_j, extended multiplicatively."""

    def concat(x, y):
        return LinComb.monomial((x[0] + y[0], x[1] + y[1]))

    def delta(i):
        pairs = LinComb.monomial(((), ()))
        for part in i:
            pairs = bilinear(concat, pairs, s_coproduct_n(part))
        return pairs

    return a.map_basis(delta)


def is_primitive(a: LinComb) -> bool:
    """Whether Delta a = a (x) 1 + 1 (x) a (S-basis input, nonzero degree)."""
    expected = LinComb((key, c) for i, c in a.terms.items()
                       for key in ((i, ()), ((), i)))
    return s_coproduct(a) == expected


# ---------------------------------------------------------------------------
# Group algebra

def beta(a: LinComb, n: int) -> dict:
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


def quasi_idempotent_check(a: LinComb, n: int) -> tuple[bool, int | Fraction]:
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
