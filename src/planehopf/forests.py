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
from math import factorial
from typing import Sequence

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


def reverse_polish_code(f: Forest) -> tuple[int, ...]:
    """Reverse Polish code: equals the Polish code read backwards."""
    return tuple(reversed(polish_code(f)))


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
# Canonical labelling and the forest poset

def labelled_forest(f: Forest) -> tuple:
    """Mirror of ``f`` with nodes replaced by (label, children) pairs."""
    counter = [0]

    def walk(t: Tree):
        kids = tuple(walk(c) for c in t)
        counter[0] += 1
        return (counter[0], kids)

    return tuple(walk(t) for t in f)


def parent_array(f: Forest) -> list[int]:
    """parents[i] = label of the parent of node i+1, or 0 for roots."""
    n = forest_size(f)
    parents = [0] * n

    def walk(node) -> None:
        label, kids = node
        for k in kids:
            parents[k[0] - 1] = label
            walk(k)

    for t in labelled_forest(f):
        walk(t)
    return parents


def strict_below_pairs(f: Forest) -> set[tuple[int, int]]:
    """All (i, j) with i strictly below j in the forest poset (roots maximal)."""
    parents = parent_array(f)
    pairs = set()
    for i in range(1, len(parents) + 1):
        j = parents[i - 1]
        while j:
            pairs.add((i, j))
            j = parents[j - 1]
    return pairs


# ---------------------------------------------------------------------------
# Linear extensions

def linear_extensions(f: Forest) -> tuple[tuple[int, ...], ...]:
    """All permutation words listing nodes so ancestors come after descendants.

    There are (2n-1)!! of them over the forests of size n, so only
    :func:`planehopf.fqsym.gamma_fqsym` and the tests read them; the counts
    of :mod:`planehopf.ncsf` come from its tree recursion, and the tests
    check that recursion against this listing."""
    n = forest_size(f)
    parents = parent_array(f)
    nchildren = [0] * (n + 1)
    for p in parents:
        if p:
            nchildren[p] += 1
    # a node becomes available once all its children are placed
    remaining = list(nchildren)
    avail = sorted(i for i in range(1, n + 1) if remaining[i] == 0)
    out: list[tuple[int, ...]] = []
    word: list[int] = []

    def rec(avail: list[int]) -> None:
        if len(word) == n:
            out.append(tuple(word))
            return
        for idx, v in enumerate(avail):
            word.append(v)
            p = parents[v - 1]
            nxt = avail[:idx] + avail[idx + 1:]
            if p:
                remaining[p] -= 1
                if remaining[p] == 0:
                    nxt = sorted(nxt + [p])
            rec(nxt)
            if p:
                remaining[p] += 1
            word.pop()

    rec(avail)
    return tuple(out)


def max_linear_extension(f: Forest) -> tuple[int, ...]:
    """Inversion-maximal linear extension (greedy: always take the largest
    available node; verified against exhaustive search in the test suite)."""
    n = forest_size(f)
    parents = parent_array(f)
    remaining = [0] * (n + 1)
    for p in parents:
        if p:
            remaining[p] += 1
    avail = {i for i in range(1, n + 1) if remaining[i] == 0}
    word = []
    while avail:
        v = max(avail)
        avail.remove(v)
        word.append(v)
        p = parents[v - 1]
        if p:
            remaining[p] -= 1
            if remaining[p] == 0:
                avail.add(p)
    return tuple(word)


class NotAMaxExtension(ValueError):
    """Raised when a word is not the maximal linear extension of any forest."""


def forest_from_max_extension(sigma: tuple[int, ...]) -> Forest:
    """Invert ``max_linear_extension``: binary search tree of the mirror word,
    decoded by the right-branch rotation.  Raises if the round trip fails."""
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise NotAMaxExtension(f"not a permutation: {sigma}")
    if not sigma:
        return EMPTY_FOREST

    # binary search tree of the mirror image, as (value, left, right)
    root = None

    def insert(node, v):
        if node is None:
            return [v, None, None]
        if v < node[0]:
            node[1] = insert(node[1], v)
        else:
            node[2] = insert(node[2], v)
        return node

    for v in reversed(sigma):
        root = insert(root, v)

    def to_forest(node) -> Forest:
        if node is None:
            return EMPTY_FOREST
        return (tuple(to_forest(node[1])),) + to_forest(node[2])

    f = to_forest(root)
    if max_linear_extension(f) != tuple(sigma):
        raise NotAMaxExtension(f"{sigma} is not maximal for any forest")
    return f


# ---------------------------------------------------------------------------
# Non-plane (unordered) rooted trees

def non_plane_class(t: Tree):
    """Canonical unordered form: children canonicalized recursively and sorted."""
    return tuple(sorted(non_plane_class(c) for c in t))


def aut_order(tau) -> int:
    """|Aut| of a canonical non-plane tree: product over nodes of the
    factorials of multiplicities of identical child subtrees."""
    order = 1
    i = 0
    kids = list(tau)
    while i < len(kids):
        j = i
        while j < len(kids) and kids[j] == kids[i]:
            j += 1
        order *= factorial(j - i) * aut_order(kids[i]) ** (j - i)
        i = j
    return order


def plane_representatives(tau, n: int) -> tuple[Tree, ...]:
    """All plane trees with ``n`` nodes whose shape-forgetting is ``tau``."""
    return tuple(t for t in enumerate_trees(n) if non_plane_class(t) == tau)
