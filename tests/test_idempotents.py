"""Lie idempotents: Eulerian, Solomon, Dynkin, the q-interpolation, and the
certification in the descent algebra against the symmetric group algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planehopf import birkhoff, idempotents as idem, ncsf
from planehopf.checks import suite_idempotents
from planehopf.compositions import compositions_of, maj, partitions_of
from planehopf.forests import (chain_tree, enumerate_forests, enumerate_trees,
                               parse_forest)
from planehopf.hopf import s_n
from planehopf.lincomb import LinComb
from planehopf.ncsf import psi_bar_n, psi_n, r_to_s, s_to_r
from planehopf.polynomials import MultiPoly, RationalFn

from fixtures import E4_TABLES
from oracles import (beta, chi_poly, eulerian_by_interpolation, eval_binomial,
                     first_rows_by_filter, fraction_quasi_idempotent_check,
                     gamma_alpha, group_product,
                     group_quasi_idempotent_check,
                     is_primitive_by_coproduct, over_one_minus_q,
                     product_transform_over_1mq, r_product, s_n_1mq)


def xelt(spec):
    return LinComb({parse_forest(code): Fraction(c, 24)
                    for code, c in spec.items()})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_e4_tables(k):
    assert idem.eulerian(4, k) == xelt(E4_TABLES[k])


@pytest.mark.parametrize("n", range(1, 6))
def test_eulerian_sum_is_identity(n):
    total = LinComb.zero()
    for k in range(1, n + 1):
        total = total + idem.eulerian(n, k)
    assert total == LinComb({f: Fraction(1) for f in s_n(n).support()})


def test_chi_dual_route():
    # chi_T(t) == (-1)^n Gamma_T(-t), Gamma_T from the M basis
    t_var = MultiPoly.var("t")
    for n in range(1, 6):
        for t in enumerate_trees(n):
            chi = chi_poly(t)
            g = eval_binomial(ncsf.gamma_qsym_m((t,)))
            assert chi == g.substitute({"alpha": -t_var}) \
                * Fraction((-1) ** n)


@pytest.mark.parametrize("n", range(1, 8))
def test_eulerian_matches_interpolation(n):
    # one integer row and the tree table against Gamma_F interpolated
    # forest by forest
    for k in range(1, n + 1):
        assert idem.eulerian(n, k) == eulerian_by_interpolation(n, k)


@pytest.mark.parametrize("n", range(7))
def test_gamma_alpha_routes(n):
    # the interpolated point counts against Gamma_F in the M basis on
    # alpha ones
    for f in enumerate_forests(n):
        assert gamma_alpha(f) \
            == eval_binomial(ncsf.gamma_qsym_m(f))


def test_chi_difference_equation():
    t_var = MultiPoly.var("t")
    for n in range(1, 6):
        for t in enumerate_trees(n):
            chi = chi_poly(t)
            delta = chi.substitute({"t": t_var + 1}) - chi
            prod = MultiPoly.const(1)
            for c in t:
                prod = prod * chi_poly(c)
            assert delta == prod


def test_solomon_is_first_eulerian():
    for n in range(1, 6):
        assert idem.solomon_x(n) == idem.eulerian(n, 1)


def test_solomon_tree_supported():
    for n in range(1, 7):
        assert all(len(f) == 1 for f in idem.solomon_x(n).support())


def test_solomon_degree_2():
    assert idem.solomon(2) == LinComb({(2,): Fraction(1),
                                       (1, 1): Fraction(-1, 2)})


def test_dynkin_x():
    for n in range(1, 6):
        psi_x, psibar_x = idem.dynkin_x(n)
        # Psi_n is the chain tree up to lower-order trees; Psibar_n is the
        # sum of all trees
        assert psibar_x == LinComb(
            {(t,): Fraction(1) for t in enumerate_trees(n)})
        assert psi_x.coeff((chain_tree(n),)) == 1
        assert all(len(f) == 1 for f in psi_x.support())


@pytest.mark.parametrize("n", range(1, 5))
def test_q_solomon_specializations(n):
    phi = idem.q_solomon(n)
    q1 = LinComb({i: c.substitute({"q": Fraction(1)})
                  for i, c in phi.terms.items()})
    assert q1 == s_to_r(idem.solomon(n))
    q0 = LinComb({i: c.substitute({"q": Fraction(0)})
                  for i, c in phi.terms.items()})
    assert q0 == psi_n(n).scale(Fraction(1, n))


@pytest.mark.parametrize("n", range(1, 10))
def test_q_solomon_term_by_term(n):
    # each coefficient as the product of its 1 - q^k factors, reduced
    q = MultiPoly.var("q")
    for i, c in idem.q_solomon(n).items():
        l = len(i)
        num = q ** (maj(i) - l * (l - 1) // 2) * Fraction((-1) ** (l - 1), n)
        want = over_one_minus_q(num, range(n - l + 1, n), range(1, l))
        assert c.num.coeffs == want.num.coeffs and c.den == want.den


@pytest.mark.parametrize("n", [0, -1, -5])
def test_q_solomon_refuses_degree_below_one(n):
    with pytest.raises(ValueError):
        idem.q_solomon(n)


def _transform_1mq_ratfn(a):
    """The morphism A -> (1-q)A on a ribbon element with RationalFn
    coefficients."""
    out = LinComb.zero()
    for i, c in r_to_s(a).terms.items():
        term = LinComb.monomial((), MultiPoly.const(1))
        for part in i:
            term = r_product(term, s_n_1mq(part))
        out = out + term.scale(RationalFn.coerce(c))
    return out


@pytest.mark.parametrize("n", range(1, 5))
def test_s_n_over_1mq_inverts(n):
    # applying the (1-q)-transform to S_n(A/(1-q)) recovers S_n
    got = _transform_1mq_ratfn(idem.transform_over_1mq(LinComb.monomial((n,))))
    want = s_to_r(LinComb.monomial((n,), Fraction(1)))
    assert got == want


@pytest.mark.parametrize("n", range(1, 8))
def test_q_solomon_from_dynkin_transform(n):
    # (1 - q^n)/n Psi_n(A/(1-q)) == phi_n(q)
    q = MultiPoly.var("q")
    lhs = idem.transform_over_1mq(r_to_s(psi_n(n))) \
        .scale(RationalFn(1 - q ** n, n))
    assert lhs == idem.q_solomon(n)


def _agrees_with_product_route(a):
    got = idem.transform_over_1mq(a)
    want = product_transform_over_1mq(a)
    assert got == want
    assert {k: c.to_json() for k, c in got.items()} \
        == {k: c.to_json() for k, c in want.items()}
    assert all(isinstance(x, (int, Fraction))
               for c in got.terms.values() for x in c.num.coeffs.values())
    return True


@pytest.mark.parametrize("n", range(8))
def test_transform_over_1mq_each_s_monomial(n):
    for i in compositions_of(n):
        assert _agrees_with_product_route(LinComb.monomial(i))


@pytest.mark.parametrize("n", range(1, 7))
def test_transform_over_1mq_dynkin(n):
    assert _agrees_with_product_route(r_to_s(psi_n(n)))
    assert _agrees_with_product_route(r_to_s(psi_bar_n(n)))


rational_coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def s_combinations(draw):
    """Pairs (I, c) of weights 0 to 6, some followed by (I, -c) so that
    terms cancel, summed by the LinComb constructor."""
    pairs = draw(st.lists(st.tuples(
        st.integers(0, 6).flatmap(lambda n: st.sampled_from(list(compositions_of(n)))),
        rational_coefficients, st.booleans()), max_size=6))
    return LinComb([(i, c) for i, c, _ in pairs]
                   + [(i, -c) for i, c, cancel in pairs if cancel])


@settings(max_examples=80, deadline=None)
@given(s_combinations())
def test_transform_over_1mq_random(a):
    assert _agrees_with_product_route(a)
    assert not idem.transform_over_1mq(a - a)


@pytest.mark.parametrize("n", range(1, 6))
def test_primitivity(n):
    assert idem.is_primitive(r_to_s(psi_n(n)))
    assert idem.is_primitive(r_to_s(psi_bar_n(n)))
    assert idem.is_primitive(idem.solomon(n))


@pytest.mark.parametrize("n", range(1, 5))
def test_q_solomon_primitive(n):
    assert idem.is_primitive(r_to_s(idem.q_solomon(n)))


def _named_primitives(n):
    """Psi_n, Psi-bar_n, Solomon and every D_lambda of degree n, S basis."""
    return ([r_to_s(psi_n(n)), r_to_s(psi_bar_n(n)), idem.solomon(n)]
            + [r_to_s(birkhoff.d_lambda_ribbon(lam))
               for lam in partitions_of(n - 1)])


def _commutator(a, b):
    return r_product(a, b) - r_product(b, a)


def test_is_primitive_matches_the_whole_coproduct():
    # every S^J with n <= 7, the named idempotents with n <= 8, phi_n(q)
    # with n <= 4, [Psi_1, Psi_3], sums of mixed degree and the unit
    inputs = [LinComb.monomial(j) for n in range(8) for j in compositions_of(n)]
    named = [e for n in range(1, 9) for e in _named_primitives(n)]
    inputs += named
    inputs += [r_to_s(idem.q_solomon(n)) for n in range(1, 5)]
    inputs.append(r_to_s(_commutator(psi_n(1), psi_n(3))))
    inputs += [a + b for a, b in zip(named, named[3:])]
    inputs += [a + LinComb.monomial((1, 2)) for a in named[::5]]
    inputs += [a.scale(3) + LinComb.monomial(()) for a in named[::7]]
    answers = [idem.is_primitive(a) for a in inputs]
    assert answers == [is_primitive_by_coproduct(a) for a in inputs]
    assert 0 < sum(answers) < len(answers)


PRIMITIVES = [e for n in range(1, 7) for e in _named_primitives(n)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(PRIMITIVES) - 1),
                          rational_coefficients), max_size=4),
       st.one_of(st.just(LinComb()), s_combinations()))
def test_is_primitive_random_mixed_degree(named, noise):
    a = sum((PRIMITIVES[k].scale(c) for k, c in named), noise)
    assert idem.is_primitive(a) == is_primitive_by_coproduct(a)


@pytest.mark.parametrize("n", range(10))
def test_first_rows_match_the_product_filter(n):
    # the same rows in the same order, for every total up to n + 1
    for j in compositions_of(n):
        for total in range(n + 2):
            assert idem._first_rows(total, j) == first_rows_by_filter(total, j)


@pytest.mark.parametrize("n", range(2, 6))
def test_dynkin_quasi_idempotent(n):
    ok, c = idem.quasi_idempotent_check(psi_n(n), n)
    assert ok and c == n
    assert isinstance(c, Fraction)  # integer coefficients, exact quotient
    ok, c = idem.quasi_idempotent_check(psi_bar_n(n), n)
    assert ok and c == n


def test_solomon_quasi_idempotent():
    ok, c = idem.quasi_idempotent_check(s_to_r(idem.solomon(4)), 4)
    assert ok and c == 1


D_LAMBDA_SCALARS = {(3,): 4, (2, 1): 12, (1, 1, 1): 4}


@pytest.mark.parametrize("lam", sorted(D_LAMBDA_SCALARS))
def test_d_lambda_quasi_idempotent(lam):
    e = birkhoff.d_lambda_ribbon(lam)
    ok, c = idem.quasi_idempotent_check(e, 4)
    assert ok and c == D_LAMBDA_SCALARS[lam] and c != 0


@pytest.mark.parametrize("n", range(2, 6))
def test_all_d_lambda_primitive_and_quasi(n):
    for lam in partitions_of(n - 1):
        e = birkhoff.d_lambda_ribbon(lam)
        assert idem.is_primitive(r_to_s(e))
        ok, c = idem.quasi_idempotent_check(e, n)
        assert ok and c != 0


def test_suite_reports_primitive_with_zero_scalar(monkeypatch):
    # [Psi_1, Psi_3] is primitive of degree 4 with no S^(4) term, so its
    # square is 0: the suite must not certify it in place of D_(3)
    commutator = _commutator(psi_n(1), psi_n(3))
    assert idem.is_primitive(r_to_s(commutator))
    assert r_to_s(commutator).coeff((4,)) == 0
    d_lambda = birkhoff.d_lambda_ribbon
    monkeypatch.setattr(birkhoff, "d_lambda_ribbon",
                        lambda lam: commutator if lam == (3,) else d_lambda(lam))
    assert suite_idempotents(5) == [
        "D_(3,) is not a multiple of a Lie idempotent"]


def test_quasi_idempotent_degree_7():
    # past the group algebra's reach: the square stays in the descent algebra
    for elem, want in ((psi_n(7), 7), (psi_bar_n(7), 7),
                       (s_to_r(idem.solomon(7)), 1)):
        assert idem.quasi_idempotent_check(elem, 7) == (True, want)


def test_quasi_idempotent_check_edge_cases():
    assert idem.quasi_idempotent_check(LinComb.zero(), 4) == (True, 0)
    with pytest.raises(ValueError):
        idem.quasi_idempotent_check(LinComb.monomial((2, 1)), 4)
    # the internal product vanishes between degrees
    assert not idem.internal_product(LinComb.monomial((2,)),
                                     LinComb.monomial((1, 1, 1)))


def _agrees_with_group_algebra(elem, n):
    ok, c = idem.quasi_idempotent_check(elem, n)
    ok_group, c_group = group_quasi_idempotent_check(elem, n)
    return ok == ok_group and (not ok or c == c_group)


def ribbon_combinations(n):
    return st.dictionaries(st.sampled_from(list(compositions_of(n))),
                           st.integers(-3, 3), max_size=6).map(LinComb)


degrees = st.integers(1, 5)


@settings(max_examples=60, deadline=None)
@given(degrees.flatmap(lambda n: st.tuples(
    st.just(n), ribbon_combinations(n), ribbon_combinations(n))))
def test_internal_product_is_group_product(case):
    # the Mackey formula reads the matrices by rows, which is the group
    # product of the factors in the opposite order
    n, a, b = case
    ab = s_to_r(idem.internal_product(r_to_s(a), r_to_s(b)))
    assert beta(ab, n) == group_product(beta(b, n), beta(a, n))


@settings(max_examples=60, deadline=None)
@given(degrees.flatmap(lambda n: st.tuples(st.just(n), ribbon_combinations(n))))
def test_quasi_idempotent_check_random(case):
    n, a = case
    assert _agrees_with_group_algebra(a, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_quasi_idempotent_check_against_group_algebra(n):
    named = [psi_n(n), psi_bar_n(n), s_to_r(idem.solomon(n))]
    named += [birkhoff.d_lambda_ribbon(lam) for lam in partitions_of(n - 1)]
    named += [LinComb.monomial(i) for i in compositions_of(n)]
    for elem in named:
        assert _agrees_with_group_algebra(elem, n), elem


@pytest.mark.parametrize("n", range(1, 7))
def test_integer_square_matches_fraction_square(n):
    # the square of den * r_to_s(a) over the integers, its scalar divided
    # by den, against the square on the Fraction coefficients
    for elem in (psi_n(n), psi_bar_n(n), s_to_r(idem.solomon(n))):
        want = fraction_quasi_idempotent_check(elem, n)
        assert idem.quasi_idempotent_check(elem, n) == want
        assert want[0]


def test_eulerian_domain_errors():
    with pytest.raises(ValueError):
        idem.eulerian(4, 0)
    with pytest.raises(ValueError):
        idem.eulerian(4, 5)
