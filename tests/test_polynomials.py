"""Exact polynomial, rational function, Laurent window, and linalg layers."""

from fractions import Fraction

import pytest

from planehopf.laurent import LaurentPoly, LaurentWindowOverflow
from planehopf.linalg import SingularMatrix, invert, solve
from planehopf.polynomials import (MultiPoly, RationalFn, bernoulli_polynomial,
                                   binomial_poly, discrete_integral,
                                   gaussian_binomial)

x = MultiPoly.var("x")
q = MultiPoly.var("q")


def test_multipoly_arithmetic():
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert p.substitute({"x": Fraction(3)}).as_constant() == 8
    assert (p * q).coefficient("q", 1) == p


def test_divexact():
    p = (x + 1) * (x + 2)
    assert p.divexact(x + 1) == x + 2


def test_rationalfn_cross_equality():
    a = RationalFn(x * x - 1, x - 1)
    b = RationalFn(x + 1, MultiPoly.const(1))
    assert a == b
    assert a != RationalFn(x, MultiPoly.const(1))


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


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2) == (1 + q * q) * (1 + q + q * q)
    assert gaussian_binomial(3, 1) == 1 + q + q * q
    assert gaussian_binomial(5, 0) == MultiPoly.const(1)


def test_laurent_polar_split():
    w = 4
    f = LaurentPoly.term(-2, MultiPoly.const(3), w) \
        + LaurentPoly.term(0, MultiPoly.const(5), w) \
        + LaurentPoly.term(1, q, w)
    assert f.polar_part() + f.regular_part() == f
    assert f.residue() == MultiPoly.zero()
    assert (f.polar_part()).eval_z1() == MultiPoly.const(3)


def test_laurent_residue():
    w = 3
    f = LaurentPoly.term(-1, q, w) + LaurentPoly.term(2, MultiPoly.const(1), w)
    assert f.residue() == q


def test_laurent_window_overflow():
    w = 2
    f = LaurentPoly.term(2, MultiPoly.const(1), w)
    with pytest.raises(LaurentWindowOverflow):
        _ = f * f


def test_solve_and_invert():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    sol = solve(m, [Fraction(5), Fraction(10)])
    assert sol == [Fraction(1), Fraction(3)]
    inv = invert(m)
    assert inv[0][0] * 2 + inv[0][1] * 1 == 1
    with pytest.raises(SingularMatrix):
        solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
              [Fraction(1), Fraction(1)])
