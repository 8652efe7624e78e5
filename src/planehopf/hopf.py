"""The noncommutative Connes-Kreimer Hopf algebra on plane forests and its dual.

Y basis: product is concatenation of forests, coproduct by admissible cuts.
A cut splits F into a lower part, a union of complete subtrees, which goes
to the left tensor factor, and the upper part that remains.  ``cuts`` lists
them by a recursion on the forest tuple: a tree is either all lower or keeps
its root upper over a cut of its children, and the cuts of a forest are
those of its first tree concatenated with those of the rest.

X basis (dual): coproduct is deconcatenation and the product is the transpose
of the Y coproduct.  The dendriform halves split each product term by whether
the root of its last tree comes from the left factor (the lower part of the
cut) or the right one.  The brace and preLie products of Chapoton and
Livernet are the single-tree part of this product: grafting the trees of F
on the nodes of T gives the trees H with a cut of lower part F and upper
part T.  The grafting enumerator is kept as a test oracle.

C basis: C_F = sum of X_G over G <= F in the Tamari order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from . import tamari
from .forests import (Forest, Tree, aut_order, enumerate_forests, forest_size,
                      plane_representatives, reverse_polish_code)
from .lincomb import LinComb, bilinear


# ---------------------------------------------------------------------------
# Admissible cuts

def cuts(f: Forest) -> tuple:
    """The (lower, upper, last) triples of the admissible cuts of F, where
    ``last`` says whether the root of F's last tree is in the lower part.

    A tree is the tuple of its children, so B+(H) is H: a tree T is either
    all lower, or its root stays upper over the upper part of a cut of H."""
    if not f:
        return (((), (), False),)
    if len(f) == 1:
        t = f[0]
        return (((t,), (), True),) + tuple((lo, (up,), False)
                                            for lo, up, _ in cuts(t))
    return tuple((lo1 + lo2, up1 + up2, last) for lo1, up1, _ in cuts(f[:1])
                 for lo2, up2, last in cuts(f[1:]))


def cut_count(f: Forest, cap: int) -> int:
    """The number of cuts of F, or ``cap`` if it is at least ``cap``.

    The count follows the recursion of ``cuts``: a tree has 1 + the count of
    its children's forest, and a forest the product over its trees.  The
    nodes are read off the reverse Polish code, each after its children, so
    neither the cuts nor a recursion stack are built."""
    counts = []
    for arity in reverse_polish_code(f):
        children = 1
        for _ in range(arity):
            children = min(children * counts.pop(), cap)
        counts.append(min(1 + children, cap))
    total = 1
    for c in counts:
        total = min(total * c, cap)
    return total


def y_coproduct(f: Forest) -> LinComb:
    """Coproduct of Y_F as a combination of (F1, F2) pairs."""
    return LinComb(((lo, up), 1) for lo, up, _ in cuts(f))


# ---------------------------------------------------------------------------
# X basis: product (transpose of the Y coproduct) and dendriform halves

@lru_cache(maxsize=None)
def _product_table(n: int):
    """The cut terms of every forest H of size n, classified by whether the
    root of H's last tree is in the lower part.

    Returns dict (F1, F2) -> {H: [count_last_root_lower, count_last_root_upper]}.
    """
    out: dict[tuple[Forest, Forest], dict[Forest, list[int]]] = {}
    for h in enumerate_forests(n):
        for lo, up, last in cuts(h):
            slot = out.setdefault((lo, up), {}).setdefault(h, [0, 0])
            slot[0 if last else 1] += 1
    return out


def x_product(f: Forest, g: Forest) -> LinComb:
    """Product X_F X_G in the X basis."""
    if not f:
        return LinComb.monomial(g)
    if not g:
        return LinComb.monomial(f)
    terms = _product_table(forest_size(f) + forest_size(g)).get((f, g), {})
    return LinComb({h: c[0] + c[1] for h, c in terms.items()})


def x_prec(f: Forest, g: Forest) -> LinComb:
    """Dendriform half-product X_F < X_G (root of the last tree from F)."""
    if not f or not g:
        raise ValueError("dendriform half-products exclude the unit")
    terms = _product_table(forest_size(f) + forest_size(g)).get((f, g), {})
    return LinComb({h: c[0] for h, c in terms.items() if c[0]})


def x_succ(f: Forest, g: Forest) -> LinComb:
    """Dendriform half-product X_F > X_G (root of the last tree from G)."""
    if not f or not g:
        raise ValueError("dendriform half-products exclude the unit")
    terms = _product_table(forest_size(f) + forest_size(g)).get((f, g), {})
    return LinComb({h: c[1] for h, c in terms.items() if c[1]})


def x_product_lin(a: LinComb, b: LinComb) -> LinComb:
    return bilinear(x_product, a, b)


def x_coproduct(f: Forest) -> LinComb:
    """Deconcatenation coproduct of X_F."""
    return LinComb(((f[:cut], f[cut:]), 1) for cut in range(len(f) + 1))


# ---------------------------------------------------------------------------
# Grafting: preLie and brace structures

def brace(forest: Forest, t: Tree) -> LinComb:
    """Brace product <X_{T1...Tr}, X_T>: graft T1..Tr on nodes of T, keeping
    their planar order.  These are the single-tree terms of X_F X_T: a cut
    of a tree H with upper part T has the grafted trees as its lower part."""
    return LinComb({h: c for h, c in x_product(tuple(forest), (t,)).items()
                    if len(h) == 1})


def prelie_graft(t1: Tree, t2: Tree) -> LinComb:
    """Right preLie product X_T1 |> X_T2: graft T1 on a node of T2."""
    return brace((t1,), t2)


def x_tau(tau, n: int) -> LinComb:
    """Chapoton-Livernet element: |Aut(tau)| times the sum of X_T over plane
    trees T whose underlying non-plane tree is tau."""
    coeff = aut_order(tau)
    return LinComb(((t,), coeff) for t in plane_representatives(tau, n))


# ---------------------------------------------------------------------------
# C basis

def c_to_x(f: Forest) -> LinComb:
    """C_F expanded in the X basis: X_G summed over the memoized down-set."""
    return LinComb({g: 1 for g in tamari.downset(f)})


@lru_cache(maxsize=None)
def _x_in_c(f: Forest) -> LinComb:
    return LinComb(chain(((f, 1),), ((h, -c) for g in tamari.downset(f) if g != f
                                     for h, c in _x_in_c(g).terms.items())))


def x_to_c(a: LinComb) -> LinComb:
    """Rewrite a combination of X_F as a combination of C_F."""
    return a.map_basis(_x_in_c)


def c_expand(a: LinComb) -> LinComb:
    """Rewrite a combination of C_F as a combination of X_F."""
    return a.map_basis(c_to_x)


# ---------------------------------------------------------------------------
# Divided powers

def lambda_n(n: int) -> LinComb:
    return LinComb.monomial(tuple(() for _ in range(n)))


def s_n(n: int) -> LinComb:
    return LinComb({f: 1 for f in enumerate_forests(n)})
