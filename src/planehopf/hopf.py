"""The noncommutative Connes-Kreimer Hopf algebra on plane forests and its dual.

Y basis: product is concatenation of forests, coproduct by admissible cuts.
A cut splits F into a lower part, a union of complete subtrees, which goes
to the left tensor factor, and the upper part that remains.  ``y_coproduct``
merges equal (lower, upper) pairs tree by tree: a tree is either all lower
or keeps its root upper over a cut of its children, and a forest convolves
the cuts of its trees.

X basis (dual): coproduct is deconcatenation and the product is the transpose
of the Y coproduct, which is grafting: X_F X_G places the trees of F, kept in
order, in the 2|G| + 1 slots of G, before, inside or after each tree of G.
The dendriform halves split each product term by whether the last tree of H
comes from the left factor (the lower part of the cut) or the right one.
The brace and preLie products of Chapoton and Livernet are the single-tree
part of this product: the slots inside a tree T are the slots of its
children's forest, so <X_F, X_T> grafts F into the children of T.

C basis: C_F = sum of X_G over G <= F in the Tamari order; ``x_to_c`` peels
the C_F off top down, the F of least subtree-size sum left first.
"""

from __future__ import annotations

from functools import lru_cache

from . import tamari
from .forests import Forest, Tree, enumerate_forests, fold
from .lincomb import LinComb, bilinear, peel


# ---------------------------------------------------------------------------
# Admissible cuts

def cut_count(f: Forest, cap: int) -> int:
    """The number of cuts of F, or ``cap`` if it is at least ``cap``: a tree
    has 1 + the count of its children's forest, a forest the product over
    its trees.  So it counts the cuts of ``y_coproduct`` before equal pairs
    merge, and bounds that work from above."""
    return fold(f, int, 1, lambda below: min(1 + below, cap),
                lambda a, b: min(a * b, cap))


def y_coproduct(f: Forest) -> LinComb:
    """Coproduct of Y_F as a combination of (F1, F2) pairs.

    A tree is the tuple of its children, so B+(H) is H: a tree T is either
    all lower, or its root stays upper over a cut of H.  The fold carries
    each forest with its cuts, a forest convolving the merged cuts of its
    trees; a lone tree's cuts are distinct and pass up unmerged."""
    def close(below):
        h, cuts = below
        return (h,), [(((h,), ()), 1)] + [((lo, (up,)), c)
                                          for (lo, up), c in cuts]

    def join(a, b):
        return a[0] + b[0], LinComb(
            ((lo1 + lo2, up1 + up2), c1 * c2)
            for (lo1, up1), c1 in a[1] for (lo2, up2), c2 in b[1])

    return fold(f, lambda forest: LinComb(forest[1]), ((), [(((), ()), 1)]),
                close, join)


# ---------------------------------------------------------------------------
# X basis: product (transpose of the Y coproduct) and dendriform halves

@lru_cache(maxsize=None)
def _graft(lower: Forest, upper: Forest) -> tuple:
    """The (H, last) pairs of the graftings of ``lower`` into ``upper``.

    The trees of ``lower`` keep their order and fill the slots of
    ``upper``: before a tree, inside it (grafted into its children's
    forest, by the same recursion) or after the last tree.  ``last`` says
    whether a lower tree goes after the last one, so that it is H's last
    tree.  Each pair is one cut of H with lower part ``lower``."""
    runs = [((), 0)]  # (the trees of H so far, how many lower trees placed)
    for t in upper:
        runs = [(h + lower[i:j] + (kids,), k) for h, i in runs
                for j in range(i, len(lower) + 1)
                for k in range(j, len(lower) + 1)
                for kids, _ in _graft(lower[j:k], t)]
    return tuple((h + lower[i:], i < len(lower)) for h, i in runs)


def x_product(f: Forest, g: Forest) -> LinComb:
    """Product X_F X_G in the X basis: the graftings of F into G."""
    return LinComb((h, 1) for h, _ in _graft(f, g))


def x_prec(f: Forest, g: Forest) -> LinComb:
    """Dendriform half-product X_F < X_G (root of the last tree from F)."""
    if not f or not g:
        raise ValueError("dendriform half-products exclude the unit")
    return LinComb((h, 1) for h, last in _graft(f, g) if last)


def x_succ(f: Forest, g: Forest) -> LinComb:
    """Dendriform half-product X_F > X_G (root of the last tree from G)."""
    if not f or not g:
        raise ValueError("dendriform half-products exclude the unit")
    return LinComb((h, 1) for h, last in _graft(f, g) if not last)


def x_product_lin(a: LinComb, b: LinComb) -> LinComb:
    return bilinear(x_product, a, b)


def x_coproduct(f: Forest) -> LinComb:
    """Deconcatenation coproduct of X_F."""
    return LinComb(((f[:cut], f[cut:]), 1) for cut in range(len(f) + 1))


# ---------------------------------------------------------------------------
# Grafting: preLie and brace structures

def brace(forest: Forest, t: Tree) -> LinComb:
    """Brace product <X_{T1...Tr}, X_T>: graft T1..Tr on nodes of T, keeping
    their planar order.  These are the single-tree terms of X_F X_T: the
    slots inside T are the slots of its children's forest."""
    return LinComb(((h,), 1) for h, _ in _graft(tuple(forest), t))


# ---------------------------------------------------------------------------
# C basis

def c_to_x(f: Forest) -> LinComb:
    """C_F expanded in the X basis: X_G summed over the memoized down-set."""
    return LinComb({g: 1 for g in tamari.downset(f)})


def x_to_c(a: LinComb) -> LinComb:
    """Rewrite a combination of X_F in the C basis, peeling top down: G < F
    has larger subtrees, so a larger sum of subtree sizes than F."""
    return peel(a, lambda f: sum(tamari.sizes(f)), tamari.downset)


def c_expand(a: LinComb) -> LinComb:
    """Rewrite a combination of C_F as a combination of X_F."""
    return a.map_basis(c_to_x)


# ---------------------------------------------------------------------------
# Divided powers

def lambda_n(n: int) -> LinComb:
    return LinComb.monomial(tuple(() for _ in range(n)))


def s_n(n: int) -> LinComb:
    return LinComb({f: 1 for f in enumerate_forests(n)})
