"""The Tamari order on plane forests.

Covers go upward by a left rotation: detach the leftmost child subtree of a
non-leaf node and reinsert it as the sibling immediately to its left (as a
new root immediately to the left when the node is itself a root).  The forest
of singletons is the unique maximum in each degree; the chain forests sit at
the bottom of their fibers.  A rotation keeps every node's postorder place
and shrinks one subtree, so F <= G exactly when no node's subtree is larger
in G than in F (the bracket vectors of Huang and Tamari), as ``leq`` checks.

``upset`` and ``downset`` are memoized recursions keyed by the forest; a
plane tree is the tuple of its children, so B+(H) is H.  The up-set of a
forest concatenates the up-sets of its trees, and the up-set of B+(H)
collects G1 . B+(G2) over the splits G = G1 G2 at root boundaries of every
G >= H; the test suite checks both against the transitive closure of covers.
"""

from __future__ import annotations

from functools import lru_cache

from .forests import EMPTY_FOREST, Forest


@lru_cache(maxsize=None)
def upset(f: Forest) -> frozenset[Forest]:
    """All forests G >= F in the Tamari order."""
    if len(f) > 1:
        return frozenset(h + t for h in upset(f[:1]) for t in upset(f[1:]))
    if not f:
        return frozenset({EMPTY_FOREST})
    return frozenset(g[:cut] + (g[cut:],) for g in upset(f[0])
                     for cut in range(len(g) + 1))


def sizes(f: Forest) -> list[int]:
    """F's postorder subtree sizes; a node pushes where its entries start."""
    out, stack = [], list(f[::-1])
    while stack:
        t = stack.pop()
        if isinstance(t, int):
            out.append(len(out) - t + 1)
        else:
            stack += (len(out),) + t[::-1]
    return out


def leq(f: Forest, g: Forest) -> bool:
    """F <= G in the Tamari order; forests of unequal size are not."""
    sf, sg = sizes(f), sizes(g)
    return len(sf) == len(sg) and all(a >= b for a, b in zip(sf, sg))


@lru_cache(maxsize=None)
def downset(f: Forest) -> frozenset[Forest]:
    """All forests G <= F in the Tamari order."""
    if not f:
        return frozenset({EMPTY_FOREST})
    return frozenset((h,) + g for k in range(1, len(f) + 1)
                     for h in downset(f[:k - 1] + f[k - 1])
                     for g in downset(f[k:]))


def covers(f: Forest) -> frozenset[Forest]:
    """Forests covering F: one left rotation at each non-leaf node."""
    return frozenset(_rotations(f))


def _rotations(f: Forest):
    """The rotation at each non-leaf root of F, then the rotations inside
    each tree, which are those of its children's forest."""
    for i, t in enumerate(f):
        if t:
            yield f[:i] + (t[0], t[1:]) + f[i + 1:]
        for g in _rotations(t):
            yield f[:i] + (g,) + f[i + 1:]
