"""Noncommutative symmetric functions, quasi-symmetric functions, the
embedding into the forest algebra, and alphabet transforms."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehopf import birkhoff, forests, hopf, ncsf
from planehopf.compositions import compositions_of
from planehopf.forests import (enumerate_forests, forest_code,
                               linear_extensions, parse_forest)
from planehopf.lincomb import LinComb
from planehopf.perms import all_perms, descent_composition, shifted_shuffle
from planehopf.polynomials import MultiPoly, RationalFn

q = MultiPoly.var("q")
t = MultiPoly.var("t")


def mono(b, c=1):
    return LinComb.monomial(b, Fraction(c))


from fixtures import R_TO_X_TABLE


@pytest.mark.parametrize("i", sorted(R_TO_X_TABLE))
def test_embed_r_table(i):
    want = LinComb({parse_forest(k): Fraction(v)
                    for k, v in R_TO_X_TABLE[i].items()})
    assert ncsf.embed_r(i) == want


def test_embed_r_via_gamma_duality():
    # dual route: the coefficient of X_F in R_I is the coefficient of F_I
    # in the fundamental expansion of Gamma_F
    for n in range(1, 5):
        for i in compositions_of(n):
            emb = ncsf.embed_r(i)
            for f in enumerate_forests(n):
                assert emb.coeff(f) == ncsf.gamma_qsym_f(f).coeff(i)


def test_embed_s_routes():
    for i in (i for n in range(6) for i in compositions_of(n)):
        via_r = ncsf.s_to_r(mono(i)).map_basis(ncsf.embed_r)
        assert via_r == ncsf.embed_s(i)
        prod = LinComb.monomial(())
        for part in i:
            prod = hopf.x_product_lin(prod, hopf.s_n(part))
        assert prod == ncsf.embed_s(i)


def test_embed_lambda_routes():
    for i in (i for n in range(6) for i in compositions_of(n)):
        prod = LinComb.monomial(())
        for part in i:
            prod = hopf.x_product_lin(prod, hopf.lambda_n(part))
        assert prod == ncsf.embed_lambda(i)


def test_one_enumeration_per_forest(monkeypatch):
    # every count reads the memoized tree recursion and no linear extension
    # is listed: each of the 23 forests of size <= 4 misses the memo at most
    # once, however many compositions ask about it
    def refuse(f):
        raise AssertionError(f"linear extensions of {forest_code(f)} listed")

    monkeypatch.setattr(forests, "linear_extensions", refuse)
    ncsf._gamma.cache_clear()
    for i in compositions_of(4):
        ncsf.embed_r(i)
        ncsf.embed_s(i)
        ncsf.embed_lambda(i)
    for f in enumerate_forests(4):
        ncsf.gamma_qsym_m(f)
    birkhoff.d_lambda_ribbon((2, 1))
    small = sum(len(enumerate_forests(n)) for n in range(5))
    assert ncsf._gamma.cache_info().misses <= small == 23


@pytest.mark.parametrize("n", range(8))
def test_gamma_matches_linear_extensions(n):
    # dual route: the tree recursion against the descent compositions of
    # the listed linear extensions
    for f in enumerate_forests(n):
        want = Counter(map(descent_composition, linear_extensions(f)))
        assert ncsf.gamma_qsym_f(f) == LinComb(want), forest_code(f)


@st.composite
def descent_class_member(draw, n):
    """A composition I of n and a permutation drawn from those with
    descent composition I."""
    i = draw(st.sampled_from(list(compositions_of(n))))
    perm = draw(st.sampled_from([p for p in all_perms(n)
                                 if descent_composition(p) == i]))
    return i, perm


@settings(deadline=None, max_examples=150)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6))
       .filter(lambda ab: sum(ab) <= 6)
       .flatmap(lambda ab: st.tuples(descent_class_member(ab[0]),
                                     descent_class_member(ab[1]))))
def test_f_product_is_shuffle_of_any_representatives(pair):
    # F_I F_J does not depend on the permutations chosen for I and J
    (i, u), (j, v) = pair
    want = Counter(map(descent_composition, shifted_shuffle(u, v)))
    assert dict(ncsf._f_product(i, j)) == want


def test_r_s_round_trip():
    for i in [(2, 1), (1, 2, 1), (3,), (1, 1, 2)]:
        assert ncsf.s_to_r(ncsf.r_to_s(mono(i))) == mono(i)
        assert ncsf.r_to_s(ncsf.s_to_r(mono(i))) == mono(i)


def test_minus_alphabet_routes():
    for i in [(2,), (1, 1), (2, 1), (1, 2), (2, 2)]:
        a = ncsf.m_to_f(ncsf.minus_x_m(ncsf.f_to_m(mono(i))))
        b = ncsf.minus_x_f(mono(i))
        assert a == b


def test_minus_alphabet_involution():
    for i in [(2,), (2, 1), (1, 2, 1)]:
        assert ncsf.minus_x_f(ncsf.minus_x_f(mono(i))) == mono(i)


def test_gamma_routes():
    for n in range(1, 6):
        for f in enumerate_forests(n):
            assert ncsf.f_to_m(ncsf.gamma_qsym_f(f)) == ncsf.gamma_qsym_m(f)


def test_gamma_2100():
    g = ncsf.gamma_qsym_f(parse_forest("2100"))
    assert g == LinComb({(2, 2): Fraction(1), (1, 3): Fraction(1),
                         (4,): Fraction(1)})


def test_psi_via_limit():
    for n in range(1, 6):
        assert ncsf.psi_n(n) == ncsf.psi_n_via_limit(n)


def test_pairing():
    assert ncsf.pair(mono((2, 1)), mono((2, 1))) == 1
    assert ncsf.pair(mono((2, 1)), mono((1, 2))) == 0


def test_quasi_shuffle():
    assert ncsf.m_product(mono((1,)), mono((1,))) \
        == LinComb({(1, 1): Fraction(2), (2,): Fraction(1)})


def test_eval_xqt_h2():
    h2 = LinComb({(2,): Fraction(1), (1, 1): Fraction(1)})
    val = ncsf.eval_xqt(h2)
    want = RationalFn((1 - q * t) * (1 - q * q * t), (1 - q) * (1 - q * q))
    assert val == want


def test_eval_xqt_specialization():
    # t = q^n recovers the finite geometric alphabet {1, q, ..., q^n}
    for i in [(1,), (2,), (1, 1), (2, 1), (1, 2)]:
        for n in (1, 2, 3):
            lhs = ncsf.eval_xqt(mono(i)).substitute({"t": q ** n})
            rhs = ncsf.eval_geometric(mono(i), n + 1)
            assert lhs == RationalFn(rhs, MultiPoly.const(1))


@pytest.mark.parametrize("i", [(1,), (2,), (1, 1), (2, 1), (3, 1), (1, 1, 1)])
def test_eval_xqt_functional_equation(i):
    # M_I(q, qt) = M_I(q, t) + M_{I'}(q, t) (qt)^{i_r}
    lhs = ncsf.eval_xqt(mono(i)).substitute({"t": q * t})
    rhs = ncsf.eval_xqt(mono(i)) \
        + ncsf.eval_xqt(mono(i[:-1])) * RationalFn((q * t) ** i[-1],
                                                   MultiPoly.const(1))
    assert lhs == rhs


def _gamma_prime_fixtures():
    x = MultiPoly.var("x")
    return {
        "10": ((q**2*x + q + 1)*(q*x + 1), (q + 1)),
        "110": ((q**3*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1),
                (q**2 + q + 1)*(q + 1)),
        "200": ((q**3*x + q**2*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1),
                (q**2 + q + 1)*(q + 1)),
        "1110": ((q**4*x + q**3 + q**2 + q + 1)*(q**3*x + q**2 + q + 1)
                 * (q**2*x + q + 1)*(q*x + 1),
                 (q**2 + q + 1)*(q**2 + 1)*(q + 1)**2),
        "1200": ((q**3*x + q**2 + q + 1)*(q**3*x + q**2 + 1)
                 * (q**2*x + q + 1)*(q*x + 1),
                 (q**2 + q + 1)*(q**2 + 1)*(q + 1)),
        "2010": ((q**4*x + q**3*x + q**3 + q**2*x + q**2 + q + 1)
                 * (q**3*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1),
                 (q**2 + q + 1)*(q**2 + 1)*(q + 1)**2),
        "2100": ((q**4*x + q**3*x + q**3 + q**2*x + q**2 + q + 1)
                 * (q**3*x + q**2 + q + 1)*(q**2*x + q + 1)*(q*x + 1),
                 (q**2 + q + 1)*(q**2 + 1)*(q + 1)**2),
        "3000": ((q**6*x**2 + q**5*x**2 + 2*q**5*x + q**4*x**2 + 2*q**4*x
                  + q**4 + 3*q**3*x + q**3 + 2*q**2*x + 2*q**2 + q + 1)
                 * (q**2*x + q + 1)*(q*x + 1),
                 (q**2 + q + 1)*(q**2 + 1)*(q + 1)),
    }


def test_gamma_prime_table():
    # Gamma'_T evaluated on (1 - qt)/(1 - q), then t = 1 + (q - 1) x
    x = MultiPoly.var("x")
    t_sub = MultiPoly.const(1) + (q - 1) * x
    for code, (num, den) in _gamma_prime_fixtures().items():
        g = ncsf.gamma_qsym_f(parse_forest(code))
        val = ncsf.eval_xqt(ncsf.f_to_m(g)).substitute({"t": t_sub})
        assert val == RationalFn(num, den), code


def test_labelling_counts_cherry():
    cherry = parse_forest("200")
    # Gamma_200 = F_12 coefficientwise through the labelling counts
    assert ncsf.nondecreasing_labellings(cherry, (1, 1, 1)) == 2
    assert ncsf.strict_labellings(cherry, (2, 1)) == 1
    assert ncsf.strict_labellings(cherry, (1, 2)) == 0
