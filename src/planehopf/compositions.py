"""Compositions of integers: descent sets (also as int masks, bit d - 1 for
descent d), refinement, sign words, and integer partitions.

Orientation convention used throughout (matching the word-model identity
S(I) = union of W(J) over J finer than I): ``J <= I`` means J is COARSER,
i.e. obtained from I by merging adjacent parts, D(J) a subset of D(I).
"""

from __future__ import annotations

from itertools import accumulate


def weight(parts: tuple[int, ...]) -> int:
    return sum(parts)


def descent_set(parts: tuple[int, ...]) -> frozenset[int]:
    return frozenset(accumulate(parts[:-1]))


def descent_mask(parts: tuple[int, ...]) -> int:
    """D(I) as an int, with bit d - 1 set for each descent d."""
    return sum(1 << d - 1 for d in accumulate(parts[:-1]))


def from_descent_mask(mask: int, n: int) -> tuple[int, ...]:
    parts, prev = [], 0
    while mask:
        d = (mask & -mask).bit_length()
        parts.append(d - prev)
        prev, mask = d, mask & mask - 1
    return tuple(parts) + (n - prev,) if n else ()


def maj(parts: tuple[int, ...]) -> int:
    return sum(accumulate(parts[:-1]))


def submasks(x: int, base: int = 0):
    """base | s for each submask s of x, from x down to 0."""
    s = x
    while True:
        yield base | s
        if not s:
            return
        s = s - 1 & x


def coarsenings(parts: tuple[int, ...]):
    """All J <= I (merging adjacent parts), including I itself."""
    n = weight(parts)
    return (from_descent_mask(s, n) for s in submasks(descent_mask(parts)))


def refinements(parts: tuple[int, ...]):
    """All J >= I (D(J) contains D(I)), including I itself."""
    n, x = weight(parts), descent_mask(parts)
    free = (1 << max(n - 1, 0)) - 1 & ~x
    return (from_descent_mask(s, n) for s in submasks(free, x))


def compositions_of(n: int):
    """All compositions of n, by descent mask, in increasing order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (from_descent_mask(m, n) for m in range(1 << max(n - 1, 0)))


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
