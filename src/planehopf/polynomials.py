"""Sparse exact multivariate polynomials and canonical rational functions.

Monomials are sorted tuples of (variable name, positive exponent); coefficients
are ``int``, or ``Fraction`` where a division made one.  A rational function's
denominator is a product of cyclotomic polynomials Phi_d in one variable, as
every (1 - q^k) of the q-series is, and its numerator is kept coprime to each
of them (lowest terms), so equal values are equal structurally.  A sum of
q-series terms c q^e m / prod (1 - q^k) is put over one common cyclotomic
denominator and reduced once, not after each addition (``q_series_sum``).
``interpolate`` takes integer values at 0..d to the polynomial through them
in Newton's form, in integers until one final division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

Monomial = tuple  # sorted tuple of (var, exp) pairs, exps > 0

ONE_MONO: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _mono_key(m: Monomial):
    # graded-lex order for deterministic output
    return (sum(e for _, e in m), m)


class MultiPoly:
    """Sparse multivariate polynomial, coefficients ``int`` or ``Fraction``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[Monomial, Fraction] = {}
        if coeffs:
            for m, c in coeffs.items():
                if c:
                    self.coeffs[m] = c

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({ONE_MONO: c})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MultiPoly":
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): 1})

    @classmethod
    def sum(cls, polys) -> "MultiPoly":
        """Sum of polynomials or scalars, added up in one dict."""
        out: dict[Monomial, Fraction] = {}
        for p in polys:
            for m, c in cls.coerce(p).coeffs.items():
                out[m] = out[m] + c if m in out else c
        res = cls.__new__(cls)
        res.coeffs = {m: c for m, c in out.items() if c}
        return res

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
        if not self.coeffs:
            return hash(0)
        if len(self.coeffs) == 1 and () in self.coeffs:
            return hash(self.coeffs[()])  # equal constants hash equal
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
        if n and len(self.coeffs) == 1:
            (m, c), = self.coeffs.items()
            return MultiPoly({tuple((v, e * n) for v, e in m): c ** n})
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

    def constant_term(self) -> int | Fraction:
        return self.coeffs.get(ONE_MONO, 0)

    def as_constant(self) -> int | Fraction:
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

        def term(m, c):
            for v, e in m:
                c = c * (MultiPoly.coerce(values[v]) ** e if v in values
                         else MultiPoly.var(v, e))
            return c

        return MultiPoly.sum(term(m, c) for m, c in self.coeffs.items())

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

    def __repr__(self):
        return f"MultiPoly({self.text()})"


# ---------------------------------------------------------------------------
# Cyclotomic polynomials; univariate polynomials here are dense lists of
# coefficients, constant term first

@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d: q^d - 1 divided by Phi_e for every proper
    divisor e of d."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _divmod_monic(p, _cyclotomic(e))[0]
    return tuple(p)


def _divmod_monic(p: list, m: tuple) -> tuple[list, list]:
    """Quotient and remainder of p by the monic m."""
    k = len(m) - 1
    rem = list(p)
    quot = [0] * max(len(rem) - k, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = rem[i + k]
        if c:
            for j in range(k):
                if m[j]:
                    rem[i + j] -= c * m[j]
    return quot, rem[:k]


def _phi_divides(d: int, p: list) -> bool:
    """Whether Phi_d divides p: fold exponents mod d (Phi_d | q^d - 1),
    then take the remainder.  Phi_d(0) = +-1, so Phi_d never divides a
    nonzero c q^e."""
    if len(p) - p.count(0) == 1:
        return False
    if len(p) > d:
        folded = [0] * d
        for e, c in enumerate(p):
            folded[e % d] += c
        p = folded
    return not any(_divmod_monic(p, _cyclotomic(d))[1])


def _totient(d: int) -> int:
    out, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def _cyclotomic_factors(den: MultiPoly) -> tuple[int | Fraction, dict]:
    """(unit, {(var, d): multiplicity}) with den = unit * prod Phi_d(var)^m;
    ValueError if den is not of that form."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    variables = den.variables()
    if len(variables) > 1:
        raise ValueError(f"denominator {den.text()} is not univariate")
    if not variables:
        return den.constant_term(), {}
    (var,) = variables
    p = [0] * (den.degree() + 1)
    for m, c in den.coeffs.items():
        p[m[0][1] if m else 0] = c
    factors = {}
    d = 1
    # Phi_d has degree phi(d) >= sqrt(d / 2): only d <= 2 deg^2 can divide
    while len(p) > 1 and d <= 2 * (len(p) - 1) ** 2:
        while _totient(d) < len(p) and _phi_divides(d, p):
            p = _divmod_monic(p, _cyclotomic(d))[0]
            factors[(var, d)] = factors.get((var, d), 0) + 1
        d += 1
    if len(p) > 1:
        raise ValueError(f"denominator {den.text()} is not a product of "
                         "cyclotomic polynomials")
    return p[0], factors


def _cyclotomic_product(den: dict) -> MultiPoly:
    """prod Phi_d(var)^m over the map {(var, d): m}."""
    out = MultiPoly.const(1)
    for (var, d), m in sorted(den.items()):
        phi = MultiPoly({((var, e),) if e else ONE_MONO: c
                         for e, c in enumerate(_cyclotomic(d))})
        out = out * phi ** m
    return out


def _common_denominator(shapes) -> tuple[dict, list]:
    """The least common multiple D of the prod_{k in ks} (1 - q^k) over
    the tuples ks in ``shapes``, as {("q", d): multiplicity of Phi_d}, and
    for each shape the nonzero (exponent, coefficient) pairs of
    D / prod_{k in ks} (1 - q^k)."""
    top: dict = {}
    for ks in shapes:
        if min(ks, default=1) < 0:
            raise ValueError(f"negative k in 1 - q^k: {ks}")
        if 0 in ks:
            raise ZeroDivisionError("a factor 1 - q^0 in the denominator")
        for d in range(1, max(ks, default=0) + 1):
            top[d] = max(top.get(d, 0), sum(k % d == 0 for k in ks))
    den = [1]
    for d, m in top.items():
        phi = _cyclotomic(d)
        for _ in range(m):
            prod = [0] * (len(den) + len(phi) - 1)
            for i, x in enumerate(den):
                for j, y in enumerate(phi):
                    prod[i + j] += x * y
            den = prod
    cofactors = []
    for ks in shapes:
        p = list(den)
        for k in ks:
            # p = (1 - q^k) r: r is p summed along each class mod k, and
            # deg r = deg p - k
            for j in range(k):
                p[j::k] = accumulate(p[j::k])
            del p[len(p) - k:]
        cofactors.append([(j, x) for j, x in enumerate(p) if x])
    return {("q", d): m for d, m in top.items() if m}, cofactors


def _lowest_terms(num: MultiPoly, den: dict) -> tuple[MultiPoly, dict]:
    """Divide num and den by every Phi_d of den that divides num.  The
    division is in var with the other variables as coefficients: num is
    split into one dense polynomial in var per monomial of the others."""
    if not num:
        return num, {}
    den = dict(den)
    for var in {v for v, _ in den}:
        parts: dict[Monomial, list] = {}
        for m, c in num.coeffs.items():
            e = 0
            for k, (v, ve) in enumerate(m):
                if v == var:
                    e, m = ve, m[:k] + m[k + 1:]
                    break
            p = parts.setdefault(m, [])
            p.extend([0] * (e + 1 - len(p)))
            p[e] = c
        divided = False
        for key in [k for k in den if k[0] == var]:
            d = key[1]
            while den[key] and all(_phi_divides(d, p) for p in parts.values()):
                parts = {m: _divmod_monic(p, _cyclotomic(d))[0]
                         for m, p in parts.items()}
                den[key] -= 1
                divided = True
            if not den[key]:
                del den[key]
        if divided:
            num = MultiPoly({_mono_mul(m, ((var, e),)) if e else m: c
                             for m, p in parts.items()
                             for e, c in enumerate(p) if c})
    return num, den


class RationalFn:
    """Canonical rational function: a MultiPoly numerator over a product of
    cyclotomic polynomials, ``den`` = {(var, d): multiplicity of Phi_d(var)}.

    The numerator is coprime to every Phi_d in ``den``; since Phi_d is
    monic and irreducible, equal values have equal (num, den), so ``==``
    and ``hash`` are structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        """num / den, with den a constant or a univariate polynomial that
        is a product of cyclotomic polynomials (ValueError otherwise)."""
        unit, factors = _cyclotomic_factors(MultiPoly.coerce(den))
        self.num, self.den = _lowest_terms(
            MultiPoly.coerce(num) * Fraction(1, unit), factors)

    @classmethod
    def _make(cls, num: MultiPoly, den: dict) -> "RationalFn":
        """The value num / den, with num already coprime to den."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def coerce(cls, x) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        return cls._make(MultiPoly.coerce(x), {})

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RationalFn.coerce(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if not self.den:
            return hash(self.num)  # equal to a MultiPoly, so hash like one
        return hash((self.num, frozenset(self.den.items())))

    def __add__(self, other):
        other = RationalFn.coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        den = {key: max(self.den.get(key, 0), other.den.get(key, 0))
               for key in self.den.keys() | other.den.keys()}
        return RationalFn._make(*_lowest_terms(
            self._num_over(den) + other._num_over(den), den))

    def _num_over(self, den: dict) -> MultiPoly:
        """The numerator of self over den, a multiple of its denominator."""
        cofactor = {key: m - self.den.get(key, 0) for key, m in den.items()
                    if m > self.den.get(key, 0)}
        return self.num * _cyclotomic_product(cofactor) if cofactor else self.num

    __radd__ = __add__

    def __neg__(self):
        return RationalFn._make(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFn.coerce(other))

    def __rsub__(self, other):
        return RationalFn.coerce(other) + (-self)

    def __mul__(self, other):
        other = RationalFn.coerce(other)
        # each numerator is already coprime to its own denominator
        num1, den2 = _lowest_terms(self.num, other.den)
        num2, den1 = _lowest_terms(other.num, self.den)
        den = dict(den1)
        for key, m in den2.items():
            den[key] = den.get(key, 0) + m
        return RationalFn._make(num1 * num2, den)

    __rmul__ = __mul__

    def den_poly(self) -> MultiPoly:
        return _cyclotomic_product(self.den)

    def substitute(self, values: dict) -> "RationalFn":
        return RationalFn(self.num.substitute(values),
                          self.den_poly().substitute(values))

    def text(self) -> str:
        if not self.den:
            return self.num.text()
        return f"({self.num.text()}) / ({self.den_poly().text()})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den_poly().to_json()}

    def __repr__(self):
        return f"RationalFn({self.text()})"


def q_series_sum(terms) -> RationalFn:
    """The sum of c q^e m / prod_{k in ks} (1 - q^k) over the terms
    (c, e, m, ks), m a monomial free of q.  Terms with equal e, m and
    multiset ks are added first; every term then goes over one common
    cyclotomic denominator, the numerators are added up in one dict per
    monomial m, and the sum is reduced to lowest terms once."""
    grouped: dict = {}
    for c, e, m, ks in terms:
        key = e, m, tuple(sorted(ks))
        grouped[key] = grouped.get(key, 0) + c
    shapes = list(dict.fromkeys(ks for _, _, ks in grouped))
    den, cofactors = _common_denominator(shapes)
    cofactors = dict(zip(shapes, cofactors))
    num: dict = {}
    for (e, m, ks), c in grouped.items():
        row = num.setdefault(m, {})
        for j, x in cofactors[ks]:
            row[e + j] = row.get(e + j, 0) + c * x
    return RationalFn._make(*_lowest_terms(MultiPoly(
        {_mono_mul(m, (("q", e),)) if e else m: x
         for m, row in num.items() for e, x in row.items()}), den))


# ---------------------------------------------------------------------------
# Interpolation

def interpolate(values: list[int]) -> list:
    """The dense coefficients, constant term first, of the p of degree below
    len(values) = d + 1 with p(m) = values[m].  Newton's form sum_k D^k p(0)
    C(x, k) has integer forward differences D^k p(0); times d!, it is
    expanded by Horner's rule over the falling factorials."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    poly, scale = [], 1
    for k in reversed(range(len(diffs))):
        # poly <- (x - k) poly + d!/k! D^k p(0); scale ends at d!
        poly = [a - k * b for a, b in
                zip([scale * diffs[k]] + poly, poly + [0])]
        scale *= k or 1
    return [Fraction(c, scale) for c in poly]
