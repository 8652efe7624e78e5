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
from .forests import (Forest, Tree, aut_order, enumerate_forests,
                      enumerate_trees, reverse_polish_code, shapes)
from .lincomb import LinComb, bilinear, peel


# ---------------------------------------------------------------------------
# Admissible cuts

def cut_count(f: Forest, cap: int) -> int:
    """The number of cuts of F, or ``cap`` if it is at least ``cap``.

    The count follows the recursion of ``y_coproduct`` before equal pairs
    merge: a tree has 1 + the count of its children's forest, and a forest
    the product over its trees.  So it bounds the merged work from above.
    The nodes are read off the reverse Polish code, each after its
    children, so neither the cuts nor a recursion stack are built."""
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
    """Coproduct of Y_F as a combination of (F1, F2) pairs.

    A tree is the tuple of its children, so B+(H) is H: a tree T is either
    all lower, or its root stays upper over a cut of H.  A forest convolves
    the merged cuts of its trees, one tree at a time, each node read after
    its children off the reverse Polish code, with no recursion stack."""
    trees, cuts = [], []  # each tree not yet grafted, and its merged cuts
    for arity in reverse_polish_code(f):
        cut = len(trees) - arity
        t = tuple(reversed(trees[cut:]))
        below = _forest_cuts(cuts[cut:]) if arity else [(((), ()), 1)]
        trees[cut:] = [t]
        cuts[cut:] = [[(((t,), ()), 1)]
                      + [((lo, (up,)), c) for (lo, up), c in below]]
    # the unit before the first tree makes even a lone tree's cuts a LinComb
    return _forest_cuts(cuts + [LinComb.monomial(((), ()))])


def _forest_cuts(trees: list):
    """The merged cuts of a forest from those of its trees, listed last tree
    first.  A lone tree's cuts are distinct, so a chain merges none."""
    out = trees[-1]
    for tree in reversed(trees[:-1]):
        out = LinComb(((lo1 + lo2, up1 + up2), c1 * c2)
                      for (lo1, up1), c1 in out for (lo2, up2), c2 in tree)
    return out


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


def prelie_graft(t1: Tree, t2: Tree) -> LinComb:
    """Right preLie product X_T1 |> X_T2: graft T1 on a node of T2."""
    return brace((t1,), t2)


def x_tau(tau, n: int) -> LinComb:
    """Chapoton-Livernet element: |Aut(tau)| times the sum of X_T over plane
    trees T whose underlying non-plane tree is tau."""
    coeff = aut_order(tau)
    return LinComb(((t,), coeff) for t in enumerate_trees(n)
                   if shapes(n - 1)[t] == tau)


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
