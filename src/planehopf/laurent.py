"""Laurent polynomials in z over MultiPoly coefficients, with the
polar-part splitting used by the Birkhoff recursion.

Every series the package factorizes is a Laurent polynomial whose degree
the caller knows, so sums and products are kept exactly, with no bound on
the exponents.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import MultiPoly


class LaurentPoly:
    """Finite mapping z-exponent -> nonzero MultiPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, MultiPoly] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = MultiPoly.coerce(c)
                if c:
                    self.coeffs[e] = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def term(cls, e: int, c) -> "LaurentPoly":
        return cls({e: c})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if not self.coeffs.keys() - {0}:
            return hash(self.coefficient(0))  # equal constants hash equal
        return hash(frozenset((e, c) for e, c in self.coeffs.items()))

    @staticmethod
    def _wrap(coeffs: dict) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e: c for e, c in coeffs.items() if c}
        return res

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        out: dict[int, MultiPoly] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                if prod:
                    out[e] = out[e] + prod if e in out else prod
        return self._wrap(out)

    __rmul__ = __mul__

    def polar_split(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """(P+ f, P- f): strictly negative z-exponent part, and the rest."""
        plus = {e: c for e, c in self.coeffs.items() if e < 0}
        minus = {e: c for e, c in self.coeffs.items() if e >= 0}
        return self._wrap(plus), self._wrap(minus)

    def polar_part(self) -> "LaurentPoly":
        return self.polar_split()[0]

    def regular_part(self) -> "LaurentPoly":
        return self.polar_split()[1]

    def residue(self) -> MultiPoly:
        """Coefficient of z^-1."""
        return self.coeffs.get(-1, MultiPoly.zero())

    def eval_z1(self) -> MultiPoly:
        """Sum of all coefficients (evaluation at z = 1)."""
        return MultiPoly.sum(self.coeffs.values())

    def coefficient(self, e: int) -> MultiPoly:
        return self.coeffs.get(e, MultiPoly.zero())

    def substitute(self, values: dict) -> "LaurentPoly":
        return self._wrap({e: c.substitute(values) for e, c in self.coeffs.items()})

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e].text()
            if e == 0:
                bits.append(f"({c})")
            else:
                bits.append(f"({c})*z^{e}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {"z_terms": [{"z": e, "poly": self.coeffs[e].to_json()}
                            for e in sorted(self.coeffs)]}

    def __repr__(self):
        return f"LaurentPoly({self.text()})"
