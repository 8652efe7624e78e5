"""Compositions of integers: descent sets, complement, refinement, sign
words, and integer partitions.

Orientation convention used throughout (matching the word-model identity
S(I) = union of W(J) over J finer than I): ``J <= I`` means J is COARSER,
i.e. obtained from I by merging adjacent parts, D(J) a subset of D(I).
"""

from __future__ import annotations

from itertools import combinations


def weight(parts: tuple[int, ...]) -> int:
    return sum(parts)


def descent_set(parts: tuple[int, ...]) -> frozenset[int]:
    out, s = set(), 0
    for p in parts[:-1]:
        s += p
        out.add(s)
    return frozenset(out)


def from_descent_set(descents, n: int) -> tuple[int, ...]:
    if n == 0:
        return ()
    ds = sorted(descents)
    if ds and (ds[0] < 1 or ds[-1] > n - 1):
        raise ValueError(f"descent set {ds} out of range for n={n}")
    prev, parts = 0, []
    for d in ds:
        parts.append(d - prev)
        prev = d
    parts.append(n - prev)
    return tuple(parts)


def maj(parts: tuple[int, ...]) -> int:
    return sum(descent_set(parts))


def complement(parts: tuple[int, ...]) -> tuple[int, ...]:
    n = weight(parts)
    return from_descent_set(set(range(1, n)) - descent_set(parts), n)


def coarsenings(parts: tuple[int, ...]):
    """All J <= I (merging adjacent parts), including I itself."""
    n = weight(parts)
    ds = sorted(descent_set(parts))
    for r in range(len(ds) + 1):
        for keep in combinations(ds, r):
            yield from_descent_set(keep, n)


def refinements(parts: tuple[int, ...]):
    """All J >= I (D(J) contains D(I)), including I itself."""
    n = weight(parts)
    base = descent_set(parts)
    free = sorted(set(range(1, n)) - base)
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            yield from_descent_set(base | set(extra), n)


def compositions_of(n: int):
    """All compositions of n, by descent subsets, deterministic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    positions = list(range(1, n))
    for r in range(len(positions) + 1):
        for ds in combinations(positions, r):
            yield from_descent_set(ds, n)


def sign_word(parts: tuple[int, ...]) -> str:
    """Length-n word over +/-, with '-' exactly at the descents of I."""
    n = weight(parts)
    ds = descent_set(parts)
    return "".join("-" if k in ds else "+" for k in range(1, n + 1))


def partitions_of(n: int):
    """Weakly decreasing positive parts summing to n."""

    def rec(n, maxpart):
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxpart), 0, -1):
            for rest in rec(n - p, p):
                yield (p,) + rest

    return rec(n, n)
