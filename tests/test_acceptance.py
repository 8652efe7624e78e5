"""Acceptance gate: eleven exact symbolic checks, one test per criterion."""

from fractions import Fraction

from planehopf import birkhoff as bk
from planehopf import ehrhart as eh
from planehopf import hopf, idempotents as idem, ncsf, tamari
from planehopf.checks import (suite_dendriform, suite_factorization,
                              suite_hopf, suite_quotient, suite_words)
from planehopf.compositions import compositions_of, partitions_of
from planehopf.forests import (chain_tree, corolla, enumerate_forests,
                               enumerate_trees, parse_forest, parse_tree)
from planehopf.laurent import LaurentPoly
from planehopf.lincomb import LinComb
from planehopf.polynomials import MultiPoly, RationalFn

from fixtures import (E4_TABLES, N3_TABLE, N4_TABLE, R_TO_X_TABLE,
                      UPSET_0021_CODES, W4111_TABLE)
from oracles import prelie_graft, reciprocity_check, upset_words


def _lc(spec, scale=1):
    return LinComb({parse_forest(k): Fraction(v, scale)
                    for k, v in spec.items()})


def test_criterion_01_ribbon_to_x_table():
    """The complete degree <= 4 ribbon -> X listing, term for term."""
    assert len(R_TO_X_TABLE) == 14
    for i, table in R_TO_X_TABLE.items():
        assert ncsf.embed_r(i) == _lc(table), i


def test_criterion_02_coproduct_2100():
    """Delta Y_2100 equals the seven-term display."""
    want = LinComb({(parse_forest(a), parse_forest(b)): Fraction(1)
                    for a, b in [("", "2100"), ("0", "110"), ("0", "200"),
                                 ("10", "10"), ("00", "10"), ("100", "0"),
                                 ("2100", "")]})
    assert hopf.y_coproduct(parse_forest("2100")) == want


def test_criterion_03_birkhoff_values():
    """phi+ on the five small forests, and recursion == closed form on all
    trees with at most six nodes."""
    a = bk.a_series(6)

    def lp(d):
        out = LaurentPoly.zero()
        for e, words in d.items():
            poly = MultiPoly.zero()
            for word in words:
                m = MultiPoly.const(1)
                for k in word:
                    m = m * MultiPoly.var(f"a{k}")
                poly = poly + m
            out = out + LaurentPoly.term(e, poly)
        return out

    assert bk.phi_plus(parse_forest("0"), a) == lp({-1: [(0,)]})
    assert bk.phi_plus(parse_forest("00"), a) == lp({-2: [(0, 0)]})
    assert bk.phi_plus(parse_forest("10"), a) == lp(
        {-2: [(0, 0)], -1: [(0, 1)]})
    assert bk.phi_plus(parse_forest("200"), a) == lp(
        {-3: [(0, 0, 0)], -2: [(0, 1, 0)], -1: [(0, 0, 2)]})
    assert bk.phi_plus(parse_forest("110"), a) == lp(
        {-3: [(0, 0, 0)], -2: [(0, 1, 0), (0, 0, 1)],
         -1: [(0, 1, 1), (0, 0, 2)]})
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert bk.phi_plus((t,), a) == bk.phi_plus_closed(t, a)


def test_criterion_04_tamari_fixtures():
    """The nine reverse Polish codes of the up-set of the tree 0021 (via the
    letter-append process, cross-checked against the recursion), and the
    five-tree down-set of the four-node corolla."""
    from planehopf.forests import polish_code

    t = parse_tree("1200")
    assert sorted(upset_words(t)) == UPSET_0021_CODES
    # each word carries the code-letter multiset of one up-set element
    words = sorted(tuple(sorted(w)) for w in upset_words(t))
    ups = sorted(tuple(sorted(str(c) for c in polish_code(g)))
                 for g in tamari.upset((t,)))
    assert words == ups
    down = tamari.downset((corolla(4),))
    assert down == frozenset((s,) for s in enumerate_trees(4))


def test_criterion_05_refined_idempotents():
    """D_lambda at n = 4: C-basis and ribbon identities; every D_lambda with
    n <= 7 is primitive and quasi-idempotent with a nonzero scalar."""
    assert bk.d_lambda((3,)) == _lc({"3000": 1})
    assert bk.d_lambda((2, 1)) == _lc({"2100": 1, "2010": 1, "1200": 1})
    assert bk.d_lambda_x((3,)) == LinComb(
        {(t,): Fraction(1) for t in enumerate_trees(4)})
    assert bk.d_lambda_x((1, 1, 1)) == ncsf.psi_n(4).map_basis(ncsf.embed_r)
    want = LinComb({(4,): Fraction(1), (2, 2): Fraction(-1),
                    (1, 2, 1): Fraction(1), (1, 1, 1, 1): Fraction(-1)})
    want = want + ncsf.psi_n(4) + ncsf.psi_bar_n(4)
    assert bk.d_lambda_ribbon((2, 1)) == want
    for n in range(2, 8):
        for lam in partitions_of(n - 1):
            e = bk.d_lambda_ribbon(lam)
            assert idem.is_primitive(ncsf.r_to_s(e)), (n, lam)
            ok, c = idem.quasi_idempotent_check(e, n)
            assert ok and c != 0, (n, lam)
            # the splitting formula: the scalar is the S^(n) coefficient
            assert c == ncsf.r_to_s(e).coeff((n,)), (n, lam)


def test_criterion_06_word_model():
    """Word classifications, the 5x5 listing, the ribbon reassembly of
    sigma+, and the Catalan block product."""
    assert len(N3_TABLE) == 10
    for w, i in N3_TABLE.items():
        assert bk.ribbon_from_word(w) == i
    for i, words in N4_TABLE.items():
        want = {tuple(int(ch) for ch in w) for w in words.split()}
        assert set(bk.words_w(i)) == want
    assert len(bk.words_w((3, 1, 2))) == 8
    assert len(bk.words_w((3, 1, 1, 1))) == 10
    listed = {tuple(int(c) for c in s) for s in W4111_TABLE.split()}
    assert len(listed) == 25
    assert set(bk.words_w((4, 1, 1, 1))) == listed
    assert suite_words(5) == []
    for n in range(1, 8):
        for i in compositions_of(n):
            assert len(bk.words_w(i)) == bk.catalan_block_count(i)


def test_criterion_07_eulerian_tables():
    """e_4^(k) coefficient lists; the resolution of the identity; Solomon
    tree-supported."""
    for k, table in E4_TABLES.items():
        assert idem.eulerian(4, k) == _lc(table, 24), k
    for n in range(1, 6):
        total = LinComb.zero()
        for k in range(1, n + 1):
            total = total + idem.eulerian(n, k)
        assert total == LinComb({f: Fraction(1)
                                 for f in enumerate_forests(n)})
    for n in range(1, 7):
        assert all(len(f) == 1 for f in idem.solomon_x(n).support())


def test_criterion_08_dynkin():
    """Psi_n embeds on the chain tree, Psibar_n on the sum of all trees;
    Psi_n is quasi-idempotent with scalar n."""
    for n in range(1, 6):
        psi_x, psibar_x = idem.dynkin_x(n)
        assert psi_x == LinComb.monomial((chain_tree(n),), Fraction(1))
        assert psibar_x == LinComb(
            {(t,): Fraction(1) for t in enumerate_trees(n)})
    for n in range(2, 6):
        ok, c = idem.quasi_idempotent_check(ncsf.psi_n(n), n)
        assert ok and c == n


def test_criterion_09_q_series():
    """h2 evaluation, the Gamma' table, the 1/(1+q) coefficient, the
    phi_n(q) identities, and the functional equation."""
    q = MultiPoly.var("q")
    t = MultiPoly.var("t")
    x = MultiPoly.var("x")
    h2 = LinComb({(2,): Fraction(1), (1, 1): Fraction(1)})
    val = ncsf.eval_xqt(h2)
    assert val == RationalFn((1 - q * t) * (1 - q * q * t),
                             (1 - q) * (1 - q * q))
    # Gamma'_T table for all trees with 2 <= n <= 4 nodes
    from test_ncsf import _gamma_prime_fixtures

    t_sub = MultiPoly.const(1) + (q - 1) * x
    fixtures = _gamma_prime_fixtures()
    assert {code for code in fixtures} == {
        "10", "110", "200", "1110", "1200", "2010", "2100", "3000"}
    for code, (num, den) in fixtures.items():
        g = ncsf.gamma_qsym_f(parse_forest(code))
        got = ncsf.eval_xqt(ncsf.f_to_m(g)).substitute({"t": t_sub})
        assert got == RationalFn(num, den), code
    # the 1/(1+q) coefficient: h2 evaluated at t = 1 + (q-1)x factors as
    # (1+qx)(1+q+q^2 x)/(1+q), and the second factor is 1 at x = -1/q
    val2 = val.substitute({"t": t_sub})
    assert val2 == RationalFn((1 + q * x) * (1 + q + q * q * x), 1 + q)
    p = MultiPoly.const(1) + q + q * q * x
    assert p.coefficient("x", 0) * q - p.coefficient("x", 1) == q
    # phi_n(q): q = 1 gives Solomon, q = 0 gives Psi_n / n, and the
    # A/(1-q) display, all for n <= 4
    for n in range(1, 5):
        phi = idem.q_solomon(n)
        q1 = LinComb({i: c.substitute({"q": Fraction(1)})
                      for i, c in phi.terms.items()})
        assert q1 == ncsf.s_to_r(idem.solomon(n))
        q0 = LinComb({i: c.substitute({"q": Fraction(0)})
                      for i, c in phi.terms.items()})
        assert q0 == ncsf.psi_n(n).scale(Fraction(1, n))
        lhs = idem.transform_over_1mq(ncsf.r_to_s(ncsf.psi_n(n))) \
            .scale(RationalFn(1 - q ** n, n))
        assert lhs == phi
    # functional equation f(qt) = f(t) sigma_qt(A) coefficientwise at n <= 3
    for n in range(1, 4):
        for i in compositions_of(n):
            mono = LinComb.monomial(i, Fraction(1))
            lhs = ncsf.eval_xqt(mono).substitute({"t": q * t})
            rhs = ncsf.eval_xqt(mono) + ncsf.eval_xqt(
                LinComb.monomial(i[:-1], Fraction(1))) \
                * RationalFn((q * t) ** i[-1], MultiPoly.const(1))
            assert lhs == rhs, i


def test_criterion_10_ehrhart():
    """Cherry fixtures and reciprocity for all forest posets with at most
    five nodes."""
    cherry = parse_forest("200")
    x = MultiPoly.var("x")
    assert eh.ehrhart_polynomial(cherry) * 6 == (x + 1) * (x + 2) * (2 * x + 3)
    assert len(eh.lattice_points(cherry, 2)) == 14
    assert eh.q_count(cherry, 2) == {0: 1, 1: 1, 2: 3, 3: 3, 4: 3, 5: 2,
                                     6: 1}
    assert eh.lattice_points(cherry, 3, interior=True) == [(1, 1, 2)]
    assert eh.q_count(cherry, 3, interior=True) == {-4: Fraction(-1)}
    for sz in range(1, 6):
        for f in enumerate_forests(sz):
            for n in range(1, 5):
                assert reciprocity_check(f, n)


def test_criterion_11_structural_suites():
    """Hopf axioms and duality; Birkhoff factorization; dendriform and the
    divided-power recursions; preLie and x_tau closure; the series inverse;
    the 132-quotient fixture."""
    assert suite_hopf(5) == []
    assert suite_factorization(5) == []
    assert suite_dendriform(6) == []
    assert suite_quotient(5) == []
    # preLie commutator [X_., X_10] = 2 X_200
    comm = (prelie_graft(parse_tree("0"), parse_tree("10"))
            - prelie_graft(parse_tree("10"), parse_tree("0")))
    assert comm == _lc({"200": 2})
    from test_hopf import _x_tau_span_closed

    for n in (2, 3, 4):
        assert _x_tau_span_closed(n)
    # series inverse to degree 6
    deg = 6
    series = [hopf.lambda_n(n).scale(Fraction((-1) ** n))
              for n in range(deg + 1)]
    inv = [LinComb.monomial(())]
    for n in range(1, deg + 1):
        acc = LinComb.zero()
        for k in range(1, n + 1):
            acc = acc + hopf.x_product_lin(series[k], inv[n - k])
        inv.append(-acc)
    for n in range(deg + 1):
        assert inv[n] == hopf.s_n(n)
    # 132-pattern quotient fixture
    from planehopf import fqsym

    m12 = LinComb.monomial((1, 2), Fraction(1))
    assert fqsym.m_quotient(fqsym.m_product(m12, m12)) \
        == hopf.x_product(parse_forest("10"), parse_forest("10"))
