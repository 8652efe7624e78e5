"""Sparse exact multivariate polynomials and unnormalized rational functions.

Monomials are sorted tuples of (variable name, positive exponent); coefficients
are ``fractions.Fraction``.  Rational functions are kept as unnormalized
numerator/denominator pairs, compared by cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, factorial

Monomial = tuple  # sorted tuple of (var, exp) pairs, exps > 0

ONE_MONO: Monomial = ()


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_divides(m1: Monomial, m2: Monomial) -> bool:
    d = dict(m2)
    return all(d.get(v, 0) >= e for v, e in m1)


def _mono_div(m2: Monomial, m1: Monomial) -> Monomial:
    d = dict(m2)
    for v, e in m1:
        d[v] -= e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_key(m: Monomial):
    # graded-lex order used for division and deterministic output
    return (sum(e for _, e in m), m)


class MultiPoly:
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[Monomial, Fraction] = {}
        if coeffs:
            for m, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[m] = c

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({ONE_MONO: Fraction(c)})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MultiPoly":
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): Fraction(1)})

    @classmethod
    def coerce(cls, x) -> "MultiPoly":
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, RationalFn):
            raise TypeError("cannot coerce RationalFn to MultiPoly")
        return cls.const(x)

    # -- basic protocol ----------------------------------------------------
    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, RationalFn):
            return NotImplemented
        other = MultiPoly.coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = MultiPoly.__new__(MultiPoly)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = MultiPoly.__new__(MultiPoly)
        res.coeffs = {m: -c for m, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, RationalFn):
            return NotImplemented
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            return NotImplemented
        other = MultiPoly.coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        res = MultiPoly.__new__(MultiPoly)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries -----------------------------------------------------------
    def variables(self) -> set[str]:
        return {v for m in self.coeffs for v, _ in m}

    def degree(self, var: str | None = None) -> int:
        if not self.coeffs:
            return 0
        if var is None:
            return max(sum(e for _, e in m) for m in self.coeffs)
        return max((dict(m).get(var, 0) for m in self.coeffs), default=0)

    def constant_term(self) -> Fraction:
        return self.coeffs.get(ONE_MONO, Fraction(0))

    def as_constant(self) -> Fraction:
        if self.variables():
            raise ValueError(f"not a constant: {self}")
        return self.constant_term()

    def coefficient(self, var: str, exp: int) -> "MultiPoly":
        """Coefficient of var**exp, a polynomial in the remaining variables."""
        out = {}
        for m, c in self.coeffs.items():
            d = dict(m)
            if d.get(var, 0) == exp:
                d.pop(var, None)
                out[tuple(sorted(d.items()))] = c
        return MultiPoly(out)

    def substitute(self, values: dict) -> "MultiPoly":
        """Substitute variables by polynomials or scalars."""
        out = MultiPoly.zero()
        for m, c in self.coeffs.items():
            term = MultiPoly.const(c)
            for v, e in m:
                if v in values:
                    term = term * MultiPoly.coerce(values[v]) ** e
                else:
                    term = term * MultiPoly.var(v, e)
            out = out + term
        return out

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ExactDivisionError on a nonzero remainder."""
        divisor = MultiPoly.coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        lead = max(divisor.coeffs, key=_mono_key)
        lead_c = divisor.coeffs[lead]
        rem = self
        quot: dict[Monomial, Fraction] = {}
        while rem:
            m = max(rem.coeffs, key=_mono_key)
            if not _mono_divides(lead, m):
                raise ExactDivisionError(f"{self} is not divisible by {divisor}")
            qm = _mono_div(m, lead)
            qc = rem.coeffs[m] / lead_c
            quot[qm] = quot.get(qm, Fraction(0)) + qc
            rem = rem - MultiPoly({qm: qc}) * divisor
        return MultiPoly(quot)

    # -- serialization -----------------------------------------------------
    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: _mono_key(kv[0]))

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            factors = [str(c)] + [f"{v}^{e}" if e > 1 else v for v, e in m]
            bits.append("*".join(factors))
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "monomials": [
                {"coeff": str(c), "exps": {v: e for v, e in m}}
                for m, c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        out = {}
        for mono in data["monomials"]:
            m = tuple(sorted(mono["exps"].items()))
            out[m] = Fraction(mono["coeff"])
        return cls(out)

    def __repr__(self):
        return f"MultiPoly({self.text()})"


class RationalFn:
    """Unnormalized fraction of MultiPolys; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        self.num = MultiPoly.coerce(num)
        self.den = MultiPoly.coerce(den)
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def coerce(cls, x) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        return cls(MultiPoly.coerce(x))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RationalFn.coerce(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFn equality is semantic; not hashable")

    def __add__(self, other):
        other = RationalFn.coerce(other)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFn.coerce(other))

    def __rsub__(self, other):
        return RationalFn.coerce(other) + (-self)

    def __mul__(self, other):
        other = RationalFn.coerce(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFn.coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def substitute(self, values: dict) -> "RationalFn":
        return RationalFn(self.num.substitute(values), self.den.substitute(values))

    def cancel(self) -> "RationalFn":
        """Best-effort cleanup: try exact division of num by den (or den by num)."""
        try:
            return RationalFn(self.num.divexact(self.den))
        except (ExactDivisionError, ZeroDivisionError):
            pass
        try:
            q = self.den.divexact(self.num)
            return RationalFn(MultiPoly.const(1), q)
        except (ExactDivisionError, ZeroDivisionError):
            return self

    def text(self) -> str:
        if self.den == MultiPoly.const(1):
            return self.num.text()
        return f"({self.num.text()}) / ({self.den.text()})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        return f"RationalFn({self.text()})"


# ---------------------------------------------------------------------------
# Special polynomials

def binomial_poly(var: str, k: int) -> MultiPoly:
    """binomial(x, k) = x(x-1)...(x-k+1)/k! as a polynomial in ``var``."""
    x = MultiPoly.var(var)
    num = reduce(lambda p, i: p * (x - MultiPoly.const(i)), range(k), MultiPoly.const(1))
    return Fraction(1, factorial(k)) * num


def bernoulli_polynomial(m: int, var: str = "t") -> MultiPoly:
    """Bernoulli polynomial B_m, pinned by the defining recursion
    sum_{j<=m} C(m+1, j) B_j(t) = (m+1) t^m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    bs: list[MultiPoly] = []
    t = MultiPoly.var(var)
    for k in range(m + 1):
        rhs = Fraction(k + 1) * t ** k
        acc = MultiPoly.zero()
        for j in range(k):
            acc = acc + Fraction(comb(k + 1, j)) * bs[j]
        bs.append(Fraction(1, k + 1) * (rhs - acc))
    return bs[m]


def discrete_integral(p: MultiPoly, var: str = "t") -> MultiPoly:
    """Linear extension of t^p -> (B_{p+1}(t) - B_{p+1}(0)) / (p+1).

    The result g satisfies g(t+1) - g(t) = p(t) and g(0) = 0.
    """
    extra = p.variables() - {var}
    if extra:
        raise ValueError(f"polynomial must be univariate in {var}, found {extra}")
    out = MultiPoly.zero()
    for m, c in p.coeffs.items():
        e = dict(m).get(var, 0)
        b = bernoulli_polynomial(e + 1, var)
        out = out + (c * Fraction(1, e + 1)) * (b - MultiPoly.const(b.constant_term()))
    return out


def gaussian_binomial(n: int, k: int, var: str = "q") -> MultiPoly:
    """q-binomial coefficient via the product formula with exact division."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    q = MultiPoly.var(var)
    num = MultiPoly.const(1)
    den = MultiPoly.const(1)
    for i in range(k):
        num = num * (MultiPoly.const(1) - q ** (n - i))
        den = den * (MultiPoly.const(1) - q ** (i + 1))
    return num.divexact(den)
