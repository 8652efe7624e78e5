"""Free quasi-symmetric functions and the 132-pattern quotient."""

from fractions import Fraction

import pytest

from planehopf import fqsym, hopf
from planehopf.checks import suite_quotient
from planehopf.forests import enumerate_forests, parse_forest
from planehopf.lincomb import LinComb
from planehopf.perms import contains_132

from oracles import (all_perms, f_coproduct, left_weak_above_scan,
                     left_weak_below, left_weak_below_scan, m_in_f, s_in_f)


def mono(b):
    return LinComb.monomial(b, Fraction(1))


def test_gamma_fqsym_2100():
    g = fqsym.gamma_fqsym(parse_forest("2100"))
    assert set(g.support()) == {(3, 1, 2, 4), (1, 3, 2, 4), (1, 2, 3, 4)}


def test_gamma_is_weak_order_interval_sum():
    g = fqsym.gamma_fqsym(parse_forest("2100"))
    assert s_in_f((2, 3, 1, 4)) == g


def test_f_product_shifted_shuffle():
    p = fqsym.f_product(mono((1,)), mono((2, 1)))
    assert p == LinComb({(1, 3, 2): Fraction(1), (3, 1, 2): Fraction(1),
                         (3, 2, 1): Fraction(1)})


def test_f_coproduct():
    c = f_coproduct((2, 1, 3))
    assert c.coeff(((), (2, 1, 3))) == 1
    assert c.coeff(((1,), (1, 2))) == 1
    assert c.coeff(((2, 1), (1,))) == 1
    assert c.coeff(((2, 1, 3), ())) == 1


def test_f_m_round_trip():
    # the peeling gives what the Moebius recursion builds, for every
    # permutation of length at most 5
    for sigma in (s for n in range(6) for s in all_perms(n)):
        assert fqsym.m_to_f(mono(sigma)) == m_in_f(sigma)
        assert fqsym.f_to_m(fqsym.m_to_f(mono(sigma))) == mono(sigma)
        assert fqsym.m_to_f(fqsym.f_to_m(mono(sigma))) == mono(sigma)


@pytest.mark.parametrize("n", range(7))
def test_left_weak_walk_matches_scan(n):
    for sigma in all_perms(n):
        assert fqsym._left_weak_above(sigma) == left_weak_above_scan(sigma)
        assert left_weak_below(sigma) == left_weak_below_scan(sigma)


def test_suite_quotient_refuses_past_its_degree():
    with pytest.raises(fqsym.DegreeGuard):
        suite_quotient(fqsym.MAX_QUOTIENT_DEGREE + 1)


def test_m12_squared_quotient():
    m12 = mono((1, 2))
    prod = fqsym.m_product(m12, m12)
    # only 132-avoiding permutations survive the quotient
    assert all(not contains_132(s) for s in fqsym.m_quotient(prod).support()
               for s in [s])
    assert fqsym.m_quotient(prod) == hopf.x_product(parse_forest("10"),
                                                    parse_forest("10"))


def test_quotient_product_matches_x_product():
    for n1 in (1, 2, 3):
        for n2 in (1, 2):
            for f in enumerate_forests(n1):
                for g in enumerate_forests(n2):
                    assert fqsym.quotient_product(f, g) \
                        == hopf.x_product(f, g)


def test_degree_guard(monkeypatch):
    # the degree is read off the forests before any extension is built
    def refuse(f):
        raise AssertionError("max_linear_extension called before the guard")

    monkeypatch.setattr(fqsym, "max_linear_extension", refuse)
    f, g = enumerate_forests(4)[0], enumerate_forests(4)[-1]
    with pytest.raises(fqsym.DegreeGuard):
        fqsym.quotient_product(f, g)


def test_x_to_m_avoids_132():
    for f in enumerate_forests(3):
        for sigma in fqsym.x_to_m(f).support():
            assert not contains_132(sigma)
