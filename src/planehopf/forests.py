"""Plane trees and forests, their Polish codes, labellings and linear extensions.

A plane tree is a tuple of its child subtrees (a leaf is the empty tuple); a
plane forest is a tuple of plane trees.  Canonical identity goes through the
Polish code: the prefix-order sequence of child counts.

The canonical labelling is postorder: within each tree the subtrees are
labelled left to right before the root, so every subtree carries an interval
of labels with the maximum at its root.  All poset-dependent operations
(linear extensions, order polytopes) use this labelling.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .perms import shifted_shuffle

Tree = tuple            # nested tuples of children
Forest = tuple          # tuple of Trees

LEAF: Tree = ()
EMPTY_FOREST: Forest = ()


class CodeError(ValueError):
    """Raised when a text code does not parse as a prefix traversal."""


# ---------------------------------------------------------------------------
# Polish codes

def tree_size(t: Tree) -> int:
    return forest_size((t,))


def forest_size(f: Forest) -> int:
    size, stack = 0, list(f)
    while stack:
        size += 1
        stack.extend(stack.pop())
    return size


def polish_code(f: Forest) -> tuple[int, ...]:
    out, stack = [], list(f[::-1])
    while stack:
        t = stack.pop()
        out.append(len(t))
        if t:
            stack += t[::-1]
    return tuple(out)


def code_to_text(code: Sequence[int]) -> str:
    if all(c <= 9 for c in code):
        return "".join(str(c) for c in code)
    return ",".join(str(c) for c in code)


def text_to_code(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            return tuple(int(x) for x in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise CodeError(f"not a code: {text!r}") from exc


def forest_code(f: Forest) -> str:
    return code_to_text(polish_code(f))


def parse_code(code: Sequence[int]) -> Forest:
    """Rebuild the forest whose Polish code is ``code``."""
    trees, stack = [], []  # stack: the open nodes, as (children, arity)
    for arity in code:
        if arity < 0:
            raise CodeError(f"negative arity {arity}")
        stack.append(([], arity))
        while stack and len(stack[-1][0]) == stack[-1][1]:
            node = tuple(stack.pop()[0])
            (stack[-1][0] if stack else trees).append(node)
    if stack:
        raise CodeError("prefix underflow: code ends inside a subtree")
    return tuple(trees)


def parse_forest(text: str) -> Forest:
    return parse_code(text_to_code(text))


def parse_tree(text: str) -> Tree:
    f = parse_forest(text)
    if len(f) != 1:
        raise CodeError(f"expected a single tree, got {len(f)} roots")
    return f[0]


# ---------------------------------------------------------------------------
# Children-first fold

def fold(f: Forest, top, start, close, join):
    """Fold the forest children first, off its Polish code, with no recursion:
    an open node's accumulator is its first child's value as it is, each
    further child's joined in by ``join(acc, value)``.  A node closes to
    ``close(acc)``, a leaf to ``close(start)``, and the forest, one more
    node, gives ``top(acc)`` (``top(start)`` when empty).  So the stack holds
    one accumulator per level of depth."""
    stack = [[None, -1]]  # [accumulator, children left]; the forest never closes
    for arity in polish_code(f):
        stack.append([None, arity])
        while not stack[-1][1]:
            acc = stack.pop()[0]
            value = close(start if acc is None else acc)
            up = stack[-1]
            up[0] = value if up[0] is None else join(up[0], value)
            up[1] -= 1
    acc = stack[0][0]
    return top(start if acc is None else acc)


def chain_tree(n: int) -> Tree:
    t: Tree = LEAF
    for _ in range(n - 1):
        t = (t,)
    return t


def corolla(n: int) -> Tree:
    return tuple(LEAF for _ in range(n - 1))


def singletons(n: int) -> Forest:
    return tuple(LEAF for _ in range(n))


def b_plus(f: Forest) -> Tree:
    """Graft the forest on a new common root."""
    return tuple(f)


# ---------------------------------------------------------------------------
# Enumeration (deterministic: lexicographic by Polish code)

@lru_cache(maxsize=None)
def enumerate_forests(n: int) -> tuple[Forest, ...]:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (EMPTY_FOREST,)
    out = []
    for k in range(1, n + 1):
        for t in enumerate_trees(k):
            for rest in enumerate_forests(n - k):
                out.append((t,) + rest)
    return tuple(sorted(out, key=polish_code))


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Tree, ...]:
    if n < 1:
        return ()
    return tuple(sorted((b_plus(f) for f in enumerate_forests(n - 1)),
                        key=lambda t: polish_code((t,))))


def catalan_count(n: int, cap: int) -> int:
    """The Catalan number C_n, the number of forests with n nodes and of
    trees with n + 1, or ``cap`` if it is at least ``cap``.  The walk goes
    up from C_0 = 1 and stops at the cap, so a huge n costs no huge
    binomial."""
    count = 1
    for k in range(n):
        if count >= cap:
            break
        count = count * 2 * (2 * k + 1) // (k + 2)
    return min(count, cap)


# ---------------------------------------------------------------------------
# Linear extensions: in T.G, T takes the labels 1..|T| and G follows, shifted;
# in B+(H) the root comes last.  ``linear_extensions`` recurses into the
# children only, so its depth is the tree depth; ``max_linear_extension`` folds.

def linear_extensions(f: Forest) -> tuple[tuple[int, ...], ...]:
    """All permutation words listing nodes so ancestors come after descendants:
    those of T.G are the shifted shuffles of those of T and of G, and those
    of B+(H) are those of H followed by the root.

    There are (2n-1)!! of them over the forests of size n, so only
    :func:`planehopf.fqsym.gamma_fqsym` and the tests read them; the counts
    of :mod:`planehopf.ncsf` come from its tree recursion, and the tests
    check that recursion against this listing."""
    words: tuple[tuple[int, ...], ...] = ((),)
    for t in f:
        tree = tuple(w + (len(w) + 1,) for w in linear_extensions(t))
        words = tuple(s for u in words for v in tree
                      for s in shifted_shuffle(u, v))
    return words


def max_linear_extension(f: Forest) -> tuple[int, ...]:
    """The linear extension with the most inversions: that of G, shifted,
    before that of T for T.G, and that of H before the root for B+(H).
    Its inverse is the 132-avoiding permutation that stands for X_F in the
    FQSym quotient, which :mod:`planehopf.fqsym` tabulates per degree."""
    return fold(f, tuple, (), lambda word: word + (len(word) + 1,),
                lambda word, tree: tuple(v + len(word) for v in tree) + word)


# ---------------------------------------------------------------------------
# Non-plane (unordered) rooted trees

def non_plane_class(t: Tree):
    """Canonical unordered form: children canonicalized recursively and sorted.
    On a forest it gives the forest's shape, itself a plane forest."""
    return tuple(sorted(map(non_plane_class, t))) if t else t


class Shapes:
    """The forests of one size in enumeration order, the index in ``shapes``
    of each one's shape, and the distinct shapes in first-seen order."""
    __slots__ = ("forests", "ids", "shapes")  # no NamedTuple: faster import

    def __init__(self, forests: tuple, ids: list, shapes: tuple):
        self.forests, self.ids, self.shapes = forests, ids, shapes

    def spread(self, values) -> dict:
        """F -> the value of F's shape, ``values`` listed like ``shapes``."""
        return dict(zip(self.forests, map(values.__getitem__, self.ids)))


@lru_cache(maxsize=None)
def shapes(n: int) -> Shapes:
    """The forests of size n by shape.  A tree's shape is its children's,
    off a smaller index: only roots are sorted; equal shapes are one object."""
    tree, index, forests = {}, {}, enumerate_forests(n)
    for smaller in map(shapes, range(n)):
        tree.update(smaller.spread(smaller.shapes))
    ids = [index.setdefault(tuple(sorted(map(tree.__getitem__, f))),
                            len(index)) for f in forests]
    return Shapes(forests, ids, tuple(index))
