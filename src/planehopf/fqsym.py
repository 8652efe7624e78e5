"""Free quasi-symmetric functions and the 132-pattern quotient.

Bases on permutations: F (shifted-shuffle product), G_sigma = F of the
inverse, S^sigma = sum of G_tau over tau below sigma in the left weak order,
and M_sigma, the dual basis of S^sigma.  Since F_rho = sum of M_sigma over
sigma above rho, ``f_to_m`` sums over up-sets, walked over covers, and
``m_to_f`` peels the F_rho off one by one, fewest inversions first.

The quotient by M_sigma = 0 whenever sigma contains the pattern 132
identifies the surviving M_sigma with the dual Connes-Kreimer basis X_F,
where sigma is the inverse of the maximal linear extension of F; one table
per degree lists these sigma with their forests.  This gives an
independent route to the X product, compared against the coproduct
transpose in the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from .forests import (Forest, enumerate_forests, forest_size,
                      linear_extensions, max_linear_extension)
from .lincomb import LinComb, bilinear, peel
from .perms import contains_132, inverse, inversions, shifted_shuffle

MAX_QUOTIENT_DEGREE = 6


class DegreeGuard(ValueError):
    """Raised when an n! sized computation is requested past the size cap."""


def f_product(a: LinComb, b: LinComb) -> LinComb:
    """Product in the F basis: shifted shuffles."""
    return bilinear(lambda u, v: LinComb((w, 1) for w in shifted_shuffle(u, v)),
                    a, b)


@lru_cache(maxsize=None)
def _left_weak_above(rho: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All sigma >= rho in the left weak order, sorted: F_rho in the M basis.
    A cover swaps the values v and v + 1 where v comes first."""
    seen, todo = {rho}, [rho]
    while todo:
        sigma = todo.pop()
        for v in range(1, len(sigma)):
            i, j = sigma.index(v), sigma.index(v + 1)
            if i > j:
                continue
            up = sigma[:i] + (v + 1,) + sigma[i + 1:j] + (v,) + sigma[j + 1:]
            if up not in seen:
                seen.add(up)
                todo.append(up)
    return tuple(sorted(seen))


def f_to_m(a: LinComb) -> LinComb:
    """Rewrite an F-expansion in the M basis: F_rho is the sum of M_sigma
    over sigma >= rho in the left weak order."""
    return a.map_basis(lambda rho: LinComb((sigma, 1)
                                           for sigma in _left_weak_above(rho)))


def m_to_f(a: LinComb) -> LinComb:
    """Rewrite an M-expansion in the F basis by peeling, fewest inversions
    first: every sigma > rho in F_rho has more inversions than rho."""
    return peel(a, lambda sigma: len(inversions(sigma)), _left_weak_above)


def m_product(a: LinComb, b: LinComb) -> LinComb:
    """Product of M-expansions, computed through the F basis."""
    return f_to_m(f_product(m_to_f(a), m_to_f(b)))


@lru_cache(maxsize=None)
def _quotient_table(n: int) -> dict[tuple[int, ...], Forest]:
    """inverse(max_linear_extension(F)) -> F over the forests of size n:
    the 132-avoiding permutations of length n, each with its forest."""
    return {inverse(max_linear_extension(f)): f for f in enumerate_forests(n)}


def m_quotient(a: LinComb) -> LinComb:
    """Image of an M-expansion in the 132-quotient, in the X basis: the
    132-avoiding sigma survive and are looked up in the table of their
    degree, so a survivor missing from it raises ``KeyError``."""
    return LinComb((_quotient_table(len(sigma))[sigma], c)
                   for sigma, c in a.terms.items() if not contains_132(sigma))


def x_to_m(f: Forest) -> LinComb:
    """The M-basis representative of X_F."""
    return LinComb.monomial(inverse(max_linear_extension(f)))


def quotient_product(f: Forest, g: Forest) -> LinComb:
    """X_F X_G computed through the FQSym quotient."""
    n = forest_size(f) + forest_size(g)
    if n > MAX_QUOTIENT_DEGREE:
        raise DegreeGuard(
            f"quotient product needs degree {n} > {MAX_QUOTIENT_DEGREE}; "
            "the factorial-size weak order tables would be too large")
    return m_quotient(m_product(x_to_m(f), x_to_m(g)))


def gamma_fqsym(f: Forest) -> LinComb:
    """Free generating function of the forest poset, in the F basis."""
    return LinComb({sigma: 1 for sigma in linear_extensions(f)})
