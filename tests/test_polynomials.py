"""Exact polynomial, rational function, Laurent polynomial and linear
algebra layers."""

import json
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehopf import birkhoff, cli, idempotents, ncsf, polynomials
from planehopf.forests import parse_forest
from planehopf.laurent import LaurentPoly
from planehopf.lincomb import LinComb
from planehopf.polynomials import (MultiPoly, RationalFn, _phi_divides,
                                   _power, interpolate, q_series_sum)

from oracles import (SingularMatrix, TuplePoly, bernoulli_polynomial,
                     binomial_poly, discrete_integral, over_one_minus_q, solve)

x = MultiPoly.var("x")
q = MultiPoly.var("q")


def test_multipoly_arithmetic():
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert p.substitute({"x": Fraction(3)}).as_constant() == 8
    assert (p * q).coefficient("q", 1) == p


def test_divexact():
    p = (x + 1) * (x + 2)
    assert RationalFn(p, x + 1) == x + 2
    # equal to a MultiPoly, int or Fraction, so it must hash like one
    assert hash(RationalFn(p, x + 1)) == hash(x + 2)
    assert hash(RationalFn(2 * x - 2, x - 1)) == hash(MultiPoly.const(2)) == hash(2)
    assert len({RationalFn(p, x + 1), x + 2}) == 1


def test_rationalfn_cross_equality():
    a = RationalFn(x * x - 1, x - 1)
    b = RationalFn(x + 1, MultiPoly.const(1))
    assert a == b
    assert a != RationalFn(x, MultiPoly.const(1))


@pytest.mark.parametrize("den", [1 + 2 * q, q - 2, q * (1 - q), 1 - q * x])
def test_rationalfn_rejects_non_cyclotomic_denominator(den):
    with pytest.raises(ValueError):
        RationalFn(x, den)


class CrossRef:
    """Reference rational function: unreduced num/den pairs, a sum by
    cross-multiplication."""

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __add__(self, other):
        return CrossRef(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __mul__(self, other):
        return CrossRef(self.num * other.num, self.den * other.den)

    def __neg__(self):
        return CrossRef(-self.num, self.den)


t = MultiPoly.var("t")
POINTS = [{"q": Fraction(2), "t": Fraction(3, 7)},
          {"q": Fraction(-1, 3), "t": Fraction(-2)},
          {"q": Fraction(5, 2), "t": Fraction(1)}]


@st.composite
def q_series(draw):
    """A p(q, t) / prod (1 - q^k) with k <= 6, as a (RationalFn, CrossRef)
    pair."""
    num = MultiPoly.sum(c * q ** a * t ** b for (a, b), c in draw(
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                        st.integers(-2, 2), max_size=4)).items())
    ks = draw(st.lists(st.integers(1, 6), max_size=3))
    den = reduce(mul, (1 - q ** k for k in ks), MultiPoly.const(1))
    return RationalFn(num, den), CrossRef(num, den)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(
            lambda ab: (ab[0][0] + ab[1][0], ab[0][1] + ab[1][1])),
        st.tuples(children, children).map(
            lambda ab: (ab[0][0] * ab[1][0], ab[0][1] * ab[1][1])),
        children.map(lambda a: (-a[0], -a[1])))


@settings(deadline=None, max_examples=150)
@given(st.recursive(q_series(), _combine, max_leaves=5))
def test_rationalfn_is_canonical(pair):
    got, ref = pair
    for point in POINTS:
        want = Fraction(ref.num.substitute(point).as_constant(),
                        ref.den.substitute(point).as_constant())
        assert Fraction(got.num.substitute(point).as_constant(),
                        got.den_poly().substitute(point).as_constant()) == want
    # the same value built by factoring the expanded denominator
    again = RationalFn(ref.num, ref.den)
    assert again.num == got.num
    assert again.den == got.den
    assert hash(again) == hash(got)
    assert (got - again).num == MultiPoly.zero()


@st.composite
def q_series_terms(draw):
    """Terms (c, e, m, ks) of q_series_sum, m a power of t, with the sum
    they stand for built by RationalFn arithmetic."""
    terms = draw(st.lists(st.tuples(
        st.one_of(st.integers(-3, 3),
                  st.fractions(min_value=-2, max_value=2, max_denominator=4)),
        st.integers(0, 6), st.integers(0, 2),
        st.lists(st.integers(1, 6), max_size=4).map(tuple)), max_size=6))
    # the same denominator written in another order
    terms += [(draw(st.integers(-3, 3)), e, j, tuple(draw(st.permutations(ks))))
              for _, e, j, ks in terms]
    want = sum((RationalFn(c * q ** e * t ** j,
                           reduce(mul, (1 - q ** k for k in ks),
                                  MultiPoly.const(1)))
                for c, e, j, ks in terms), RationalFn(0))
    return [(c, e, _power("t", j), ks) for c, e, j, ks in terms], want


@settings(deadline=None, max_examples=150)
@given(q_series_terms())
def test_q_series_sum_matches_pairwise_sum(case):
    terms, want = case
    got = q_series_sum(terms)
    assert got.num.coeffs == want.num.coeffs
    assert got.den == want.den


@pytest.mark.parametrize("ks, error", [((0,), ZeroDivisionError),
                                       ((2, 0, 1), ZeroDivisionError),
                                       ((-1,), ValueError),
                                       ((3, -2), ValueError)])
def test_factor_one_minus_q_to_k_at_most_zero(ks, error):
    # 1 - q^0 = 0 has no inverse, and 1 - q^k for k < 0 is no q-series factor
    with pytest.raises(error):
        q_series_sum([(1, 0, 0, ks)])
    with pytest.raises(error):
        over_one_minus_q(1, ks)
    if error is ValueError:
        with pytest.raises(error):
            over_one_minus_q(1, [], ks)
    else:
        assert over_one_minus_q(1, [], ks) == 0


def test_q_series_sum_edge_cases():
    assert q_series_sum([]) == 0
    assert q_series_sum([(2, 1, 0, (1,)), (-2, 1, 0, (1,))]) == 0
    assert q_series_sum([(1, 0, 0, ())]) == 1


@pytest.mark.parametrize("c", [q, 3 * q * t, Fraction(-1, 2) * q ** 2 * t,
                               MultiPoly.const(-2), MultiPoly.zero(), 1 + q])
def test_power_by_repeated_products(c):
    want = MultiPoly.const(1)
    for n in range(6):
        assert (c ** n).coeffs == want.coeffs
        want = want * c


def test_no_cyclotomic_polynomial_divides_a_monomial():
    for d in range(1, 13):
        for e in range(15):
            assert not _phi_divides(d, [0] * e + [Fraction(-3, 2)])
        assert _phi_divides(d, [0] * 4)


int_dicts = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                           st.integers(-3, 3), max_size=4)


def _built(coeffs, wrap):
    """The MultiPoly, RationalFn over (1 - q)^2 and LinComb of the same
    integer coefficients, each passed through ``wrap``."""
    p = MultiPoly({tuple((v, e) for v, e in (("q", a), ("t", b)) if e): wrap(c)
                   for (a, b), c in coeffs.items()})
    return p, RationalFn(p, (1 - q) ** 2), LinComb((k, wrap(c))
                                                 for k, c in coeffs.items())


@settings(deadline=None)
@given(int_dicts, int_dicts)
def test_int_and_fraction_coefficients_agree(a, b):
    # one policy: an int and the equal Fraction are the same coefficient
    ints, fracs = _built(a, int), _built(a, Fraction)
    others = _built(b, int)
    for x_int, x_frac, y in zip(ints, fracs, others):
        ops = (add, sub) if isinstance(y, LinComb) else (add, sub, mul)
        for op in ops:
            u, v = op(x_int, y), op(x_frac, y)
            assert u == v
            if isinstance(u, LinComb):
                assert cli._terms_payload(u) == cli._terms_payload(v)
            else:
                assert hash(u) == hash(v)
                assert u.text() == v.text()
                assert u.to_json() == v.to_json()


def _exact(c) -> bool:
    """Whether every number in c is an int or a Fraction, never a float."""
    if isinstance(c, RationalFn):
        return _exact(c.num) and _exact(c.den_poly())
    if isinstance(c, MultiPoly):
        return all(map(_exact, c.coeffs.values()))
    return type(c) in (int, Fraction)


def test_divisions_are_exact():
    half = RationalFn(1, 2)
    assert isinstance(half.num.constant_term(), Fraction)
    assert half.num.constant_term() == Fraction(1, 2)
    assert _exact(RationalFn(x, 2 * (1 - q)))
    assert _exact(RationalFn(x, MultiPoly.const(Fraction(2, 3))))
    assert _exact(bernoulli_polynomial(5))
    assert _exact(binomial_poly("x", 4))
    assert _exact(discrete_integral(t ** 3))
    assert _exact(over_one_minus_q(x, [1, 2], [3]))


def test_binomial_poly():
    # binom(x, 2) = x(x-1)/2
    assert binomial_poly("x", 2) * 2 == x * (x - 1)
    assert binomial_poly("x", 0) == MultiPoly.const(1)


def test_bernoulli():
    t = MultiPoly.var("t")
    assert bernoulli_polynomial(1) == t - Fraction(1, 2)
    assert bernoulli_polynomial(2) == t * t - t + Fraction(1, 6)


def test_discrete_integral():
    # Delta g = f with g(0) = 0: integral of 1 is t, of t is binom(t, 2)
    t = MultiPoly.var("t")
    assert discrete_integral(MultiPoly.const(1)) == t
    g = discrete_integral(t)
    assert g.substitute({"t": t + 1}) - g == t
    assert g.substitute({"t": Fraction(0)}).as_constant() == 0


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12))
def test_interpolate_takes_the_values(values):
    # the polynomial of degree at most len(values) - 1 through the values
    coeffs = interpolate(values)
    assert len(coeffs) <= len(values)
    for m, v in enumerate(values):
        assert sum(c * m ** e for e, c in enumerate(coeffs)) == v


def test_gaussian_binomial():
    # qbin(n, k) = prod_{i < k} (1 - q^(n-i)) / (1 - q^(i+1)), a polynomial
    def qbin(n, k):
        return over_one_minus_q(1, range(1, k + 1), range(n - k + 1, n + 1))
    assert qbin(4, 2) == (1 + q * q) * (1 + q + q * q)
    assert qbin(3, 1) == 1 + q + q * q
    assert qbin(5, 0) == MultiPoly.const(1)
    assert qbin(6, 3).den == {}


def test_laurent_polar_split():
    f = LaurentPoly.term(-2, MultiPoly.const(3)) \
        + LaurentPoly.term(0, MultiPoly.const(5)) \
        + LaurentPoly.term(1, q)
    assert f.polar_part() + f.regular_part() == f
    assert f.residue() == MultiPoly.zero()
    assert (f.polar_part()).eval_z1() == MultiPoly.const(3)


@pytest.mark.parametrize("c", [0, 2, -3, Fraction(1, 2), q, 1 - q * x])
def test_laurent_constant_hashes_like_its_constant(c):
    # a constant Laurent polynomial equals its constant, so it must hash
    # like it and collapse with it in a set
    const = LaurentPoly.const(c)
    assert const == c
    assert hash(const) == hash(c)
    assert len({const, c}) == 1


def test_laurent_residue():
    f = LaurentPoly.term(-1, q) + LaurentPoly.term(2, MultiPoly.const(1))
    assert f.residue() == q


# z-exponent -> small polynomial in q and t; exponents reach past +-16, and
# products past +-40
laurent_dicts = st.dictionaries(
    st.integers(-40, 40), int_dicts.map(lambda d: _built(d, int)[0]),
    max_size=5)


@settings(deadline=None)
@given(laurent_dicts, laurent_dicts)
def test_laurent_poly_is_exact(a, b):
    f, g = LaurentPoly(a), LaurentPoly(b)
    assert f.coeffs == {e: c for e, c in a.items() if c}
    conv: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            conv[e1 + e2] = conv.get(e1 + e2, MultiPoly.zero()) + c1 * c2
    fg = f * g
    assert fg.coeffs == {e: c for e, c in conv.items() if c}
    plus, minus = f.polar_part(), f.regular_part()
    assert plus + minus == f
    assert all(e < 0 for e in plus.coeffs) and all(e >= 0 for e in minus.coeffs)
    zero = MultiPoly.zero()
    assert f.residue() == a.get(-1, zero)
    assert fg.residue() == conv.get(-1, zero)
    assert f.eval_z1() == reduce(add, a.values(), zero)
    assert fg.eval_z1() == f.eval_z1() * g.eval_z1()


# polynomials on tuple monomials over a few names, one of them used nowhere
# else, so that its digit is handed out inside the test
_names = st.sampled_from(["q", "t", "x", "a0", "a3", "b", "packed_only"])
_tuple_polys = st.dictionaries(
    st.dictionaries(_names, st.integers(1, 5), max_size=3).map(
        lambda d: tuple(sorted(d.items()))),
    st.one_of(st.integers(-3, 3),
              st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    max_size=4)


def _agree(got: MultiPoly, want: TuplePoly):
    assert dict(got.terms()) == want.coeffs
    assert got.text() == want.text()


@settings(deadline=None, max_examples=150)
@given(_tuple_polys, _tuple_polys, st.integers(0, 3), _names,
       st.integers(0, 5), st.dictionaries(_names, _tuple_polys, max_size=2))
def test_packed_monomials_match_tuple_reference(a, b, n, var, exp, values):
    # every operation on packed monomials against the same one on tuples
    p, r = MultiPoly(a), MultiPoly(b)
    ref_p, ref_r = TuplePoly(a), TuplePoly(b)
    _agree(p, ref_p)
    _agree(p + r, ref_p + ref_r)
    _agree(p - r, ref_p - ref_r)
    _agree(p * r, ref_p * ref_r)
    _agree(p ** n, ref_p ** n)
    _agree(p.coefficient(var, exp), ref_p.coefficient(var, exp))
    _agree(p.substitute({v: MultiPoly(c) for v, c in values.items()}),
           ref_p.substitute({v: TuplePoly(c) for v, c in values.items()}))
    assert p.degree() == ref_p.degree()
    assert p.degree(var) == ref_p.degree(var)
    assert p.variables() == ref_p.variables()


def test_exponent_past_the_digit_width_raises():
    # an exponent reaching the guard bit raises; it never carries into the
    # next variable's digit
    top = (1 << polynomials._WIDTH - 1) - 1
    high = MultiPoly.var("x", top)
    assert (high * MultiPoly.var("y", top)).terms() == \
        [((("x", top), ("y", top)), 1)]
    for overflow in (lambda: high * x, lambda: x * high,
                     lambda: MultiPoly.var("x", top + 1),
                     lambda: MultiPoly({(("x", top + 1),): 1}),
                     lambda: MultiPoly({(("x", top), ("x", 1)): 1}),
                     lambda: x ** (top + 1),
                     lambda: MultiPoly.var("x", top // 2 + 1) ** 2,
                     lambda: (1 + high) ** 2,
                     lambda: MultiPoly.univariate("x", [(top + 1, 1)]),
                     lambda: high.substitute({"y": x})
                     * MultiPoly.var("x", 1)):
        with pytest.raises(OverflowError):
            overflow()
    with pytest.raises(ValueError):
        MultiPoly.var("x", -1)


_CHILD = """
import json, pickle, sys
from planehopf.polynomials import MultiPoly, _NAMES
for name in json.loads(sys.argv[2]):
    MultiPoly.var(name)
values = pickle.loads(open(sys.argv[1], "rb").read())
print(json.dumps([_NAMES[:len(json.loads(sys.argv[2]))],
                  {k: [[repr(b), c.to_json()] for b, c in v.items()]
                   if hasattr(v, "items") else v.to_json()
                   for k, v in values.items()}]))
"""


def test_pickles_go_by_variable_name(tmp_path):
    # a process that hands out the digits in another order reads the same
    # polynomials: sigma_a^+, phi_5(q) and one (q, t) tree series
    values = {
        "sigma_plus": birkhoff.sigma_plus(5, birkhoff.a_series(5)),
        "q_solomon": idempotents.q_solomon(5),
        "eval_xqt": ncsf.eval_xqt(ncsf.f_to_m(
            ncsf.gamma_qsym_f(parse_forest("2100")))),
    }
    want = {k: [[repr(b), c.to_json()] for b, c in v.items()]
            if hasattr(v, "items") else v.to_json()
            for k, v in values.items()}
    names = [v for v in polynomials._NAMES
             if v in {"q", "t"} or v.startswith("a")]
    order = names[::-1]
    blob = tmp_path / "values.pickle"
    blob.write_bytes(pickle.dumps(values))
    src = str(Path(polynomials.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _CHILD, str(blob),
                          json.dumps(order)], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src})
    child_names, got = json.loads(out.stdout)
    assert child_names == order != names
    assert got == json.loads(json.dumps(want))


def test_solve_and_invert():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    sol = solve(m, [Fraction(5), Fraction(10)])
    assert sol == [Fraction(1), Fraction(3)]
    with pytest.raises(SingularMatrix):
        solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
              [Fraction(1), Fraction(1)])
