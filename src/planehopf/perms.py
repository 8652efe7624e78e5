"""Permutation words: inverses, inversions, descents, patterns, shuffles."""

from __future__ import annotations


def inverse(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for pos, val in enumerate(sigma, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def inversions(sigma: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Value pairs (a, b), a < b, with b appearing before a in the word."""
    out = set()
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                out.add((sigma[j], sigma[i]))
    return frozenset(out)


def descents(sigma: tuple[int, ...]) -> frozenset[int]:
    """Positions i with sigma(i) > sigma(i + 1)."""
    return frozenset(i for i in range(1, len(sigma)) if sigma[i - 1] > sigma[i])


def contains_132(sigma: tuple[int, ...]) -> bool:
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[j] <= sigma[i]:
                continue
            for k in range(j + 1, n):
                if sigma[i] < sigma[k] < sigma[j]:
                    return True
    return False


def shifted_shuffle(u: tuple[int, ...], v: tuple[int, ...]):
    """All shuffles of u with v shifted by len(u)."""
    n = len(u)
    vs = tuple(x + n for x in v)

    def rec(a, b):
        if not a:
            yield b
            return
        if not b:
            yield a
            return
        for rest in rec(a[1:], b):
            yield (a[0],) + rest
        for rest in rec(a, b[1:]):
            yield (b[0],) + rest

    return rec(u, vs)
