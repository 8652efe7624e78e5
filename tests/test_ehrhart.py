"""Order polytopes of forest posets: points, packed-word expansions,
order and Ehrhart polynomials, reciprocity, and q-counts."""

from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planehopf import ehrhart as eh
from planehopf.forests import (chain_tree, enumerate_forests, forest_size,
                               parse_forest, singletons)
from planehopf.ncsf import eval_geometric, gamma_qsym_m
from planehopf.polynomials import MultiPoly

from oracles import (chi_qsym_m, gamma_alpha, gamma_by_reciprocity,
                     gamma_wqsym, interior_count_poly, q_count_points,
                     q_count_qsym, reciprocity_check, scan_lattice_points, signed_gamma_by_transform,
                     wqsym_to_qsym)
from test_hopf import plane_forests

CHERRY = parse_forest("200")
x = MultiPoly.var("x")
q = MultiPoly.var("q")


def test_cherry_2q_has_14_points():
    assert len(eh.lattice_points(CHERRY, 2)) == 14


def test_cherry_3q_interior():
    assert eh.lattice_points(CHERRY, 3, interior=True) == [(1, 1, 2)]


def test_gamma_word_fixtures():
    want = {(1, 2, 3), (1, 2, 2), (1, 1, 2), (1, 1, 1), (2, 1, 3), (2, 1, 2)}
    assert set(gamma_wqsym(CHERRY).support()) == want
    wants = {(1, 2, 3), (2, 1, 3), (1, 1, 2)}
    assert set(gamma_wqsym(CHERRY, signed=True).support()) == wants


def test_signed_gamma_dual_route():
    for n in range(1, 6):
        for f in enumerate_forests(n):
            assert gamma_wqsym(f, signed=True) \
                == signed_gamma_by_transform(f)


def test_commutative_image():
    for n in range(1, 6):
        for f in enumerate_forests(n):
            assert wqsym_to_qsym(gamma_wqsym(f)) == gamma_qsym_m(f)
            assert wqsym_to_qsym(gamma_wqsym(f, signed=True)) \
                == chi_qsym_m(f)


def test_ehrhart_polynomial_fixtures():
    assert eh.ehrhart_polynomial(CHERRY) * 6 == (x + 1) * (x + 2) * (2 * x + 3)
    assert eh.ehrhart_polynomial(parse_forest("0")) == x + 1
    assert eh.ehrhart_polynomial(parse_forest("10")) * 2 == (x + 1) * (x + 2)


@pytest.mark.parametrize("n", range(8))
def test_interpolation_matches_reciprocity_route(n):
    # the same polynomials as the Bernoulli route, term for term and in text
    for f in enumerate_forests(n):
        gamma = gamma_by_reciprocity(f)
        for got, want in ((gamma_alpha(f), gamma),
                          (eh.ehrhart_polynomial(f),
                           gamma.substitute({"alpha": x + 1}))):
            assert got.coeffs == want.coeffs
            assert got.text() == want.text()


def test_ehrhart_polynomial_of_a_deep_chain():
    # the 1,000-node chain is past the recursion limit: E(m) = C(m + 1000, m)
    e = eh.ehrhart_polynomial((chain_tree(1000),))
    for m in range(3):
        assert e.substitute({"x": m}).as_constant() == comb(m + 1000, 1000)


def test_ehrhart_counts():
    for sz in range(1, 6):
        for f in enumerate_forests(sz):
            e = eh.ehrhart_polynomial(f)
            for n in range(0, 5):
                val = e.substitute({"x": Fraction(n)}).as_constant()
                assert val == len(eh.lattice_points(f, n))


def test_reciprocity():
    for sz in range(1, 6):
        for f in enumerate_forests(sz):
            for n in range(1, 5):
                assert reciprocity_check(f, n)
    assert interior_count_poly(CHERRY, 3) == 1


def test_q_count_fixture():
    qc = eh.q_count(CHERRY, 2)
    assert qc == {0: 1, 1: 1, 2: 3, 3: 3, 4: 3, 5: 2, 6: 1}
    assert qc == q_count_points(CHERRY, 2)
    poly = MultiPoly.zero()
    for e, c in qc.items():
        poly = poly + q ** e * c
    assert poly == eval_geometric(gamma_qsym_m(CHERRY), 3)
    assert sum(qc.values()) == 14


def test_interior_q_count_fixture():
    iq = eh.q_count(CHERRY, 3, interior=True)
    assert iq == {-4: Fraction(-1)}
    assert iq == q_count_points(CHERRY, 3, interior=True)


@settings(deadline=None, max_examples=150)
@given(plane_forests(9), st.integers(0, 2), st.booleans())
@example(singletons(1), 0, True)
@example((chain_tree(4),), 2, True)
def test_labelling_walk_matches_scan(f, n, interior):
    # past the exhaustive tests: a node whose children have no labelling
    # below a value has none at that value
    points = scan_lattice_points(f, n, interior)
    assert eh.lattice_points(f, n, interior) == points
    sign, weight = ((-1) ** forest_size(f), -1) if interior else (1, 1)
    sums = Counter(weight * sum(p) for p in points)
    assert eh.q_count(f, n, interior) == {s: sign * c for s, c in sums.items()}


def test_q_routes_agree():
    for sz in range(0, 5):
        for f in enumerate_forests(sz):
            for n in range(0, 4):
                assert eh.q_count(f, n) == q_count_points(f, n)
                assert eh.q_count(f, n, interior=True) \
                    == q_count_points(f, n, interior=True)


def test_q_count_matches_qsym_route():
    # Gamma_F and chi_F on finite geometric alphabets, the former route
    for sz in range(0, 6):
        for f in enumerate_forests(sz):
            for n in range(0, 4):
                assert eh.q_count(f, n) == q_count_qsym(f, n)
                assert eh.q_count(f, n, interior=True) \
                    == q_count_qsym(f, n, interior=True)


@pytest.mark.parametrize("k", range(10, 19))
def test_q_count_many_singletons(k):
    # k free coordinates in {0, 1}: C(k, s) points have sum s
    assert eh.q_count(singletons(k), 1) == {s: comb(k, s)
                                            for s in range(k + 1)}


@pytest.mark.parametrize("k", range(7))
def test_lattice_points_match_scan(k):
    # the tree recursion lists the scan's points in the scan's order
    for f in enumerate_forests(k):
        for n in range(4):
            for interior in (False, True):
                assert eh.lattice_points(f, n, interior) \
                    == scan_lattice_points(f, n, interior)


def test_negative_dilation_rejected():
    with pytest.raises(ValueError):
        eh.lattice_points(CHERRY, -1)


@pytest.mark.parametrize("k", range(6))
def test_candidate_count_matches_points(k):
    # on singletons every candidate point is a lattice point
    for n in range(4):
        count = len(eh.lattice_points(singletons(k), n))
        for f in enumerate_forests(k):
            assert eh.candidate_count(f, n, count + 1) == count
            assert eh.candidate_count(f, n, count) == count
            assert eh.candidate_count(f, n, 2) == min(count, 2)
