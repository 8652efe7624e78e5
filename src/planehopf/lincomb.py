"""Finite formal linear combinations over an arbitrary hashable basis.

Coefficients may be ints, Fractions, or any of the polynomial types in
:mod:`planehopf.polynomials` / :mod:`planehopf.laurent`; the only requirements
are ``+``, ``-``, ``*`` and truthiness (zero coefficients are dropped).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain, count
from typing import Callable


class LinComb:
    """Sparse mapping basis label -> coefficient.

    The constructor is the way to sum terms: it adds up ``(basis, coeff)``
    pairs, repeated labels included, in order into one dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = out = dict(terms) if isinstance(terms, dict) else {}
        if out:  # a dict's labels are distinct: a copy reuses their hashes
            for b in [b for b, c in out.items() if not c]:
                del out[b]
        elif terms:
            for b, c in terms:
                if not c:
                    continue
                if b in out:
                    s = out[b] + c
                    if s:
                        out[b] = s
                    else:
                        del out[b]
                else:
                    out[b] = c

    @classmethod
    def monomial(cls, basis, coeff=1) -> "LinComb":
        return cls(((basis, coeff),))

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("LinComb is mutable-by-construction; not hashable")

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return LinComb((b, -c) for b, c in self.terms.items())

    def scale(self, coeff) -> "LinComb":
        return LinComb((b, coeff * c) for b, c in self.terms.items())

    def map_basis(self, fn: Callable) -> "LinComb":
        """Apply ``fn: basis -> LinComb`` linearly."""
        return LinComb((b2, c * c2) for b, c in self.terms.items()
                       for b2, c2 in fn(b).terms.items())

    def coeff(self, basis):
        return self.terms.get(basis, 0)

    def items(self):
        return self.terms.items()

    def support(self):
        return set(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        bits = [f"{c!r}*{b!r}" for b, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))]
        return "LinComb(" + " + ".join(bits) + ")"


def bilinear(op: Callable, a: LinComb, b: LinComb) -> LinComb:
    """Extend ``op: (basis, basis) -> LinComb`` bilinearly to ``a`` and ``b``."""
    return LinComb((h, c * ch)
                   for x, cx in a.terms.items() for y, cy in b.terms.items()
                   for c in (cx * cy,) for h, ch in op(x, y).terms.items())


def peel(a: LinComb, key: Callable, expand: Callable) -> LinComb:
    """Rewrite ``a`` in the basis B_b = sum of the labels in ``expand(b)``, b
    and labels of strictly larger ``key``.  The least key left is popped (ties
    in insertion order); its coefficient c is final, and c B_b is subtracted
    with only ``-``, unary ``-`` and truthiness of coefficients."""
    rest, out, tick = dict(a.terms), {}, count()
    heap = [(key(b), next(tick), b) for b in rest]
    heapify(heap)
    while heap:
        b = heappop(heap)[2]
        if c := rest.pop(b):
            out[b] = c
            for g in expand(b):
                if g in rest:
                    rest[g] = rest[g] - c
                elif g != b:
                    rest[g] = -c
                    heappush(heap, (key(g), next(tick), g))
    return LinComb(out)
