"""The Hopf algebra on plane forests: coproducts, the dual product, the
dendriform splitting, braces, and the C basis."""

from fractions import Fraction
from itertools import combinations, takewhile
from itertools import product as iproduct
from math import comb, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planehopf import hopf
from planehopf.checks import suite_dendriform, suite_hopf
from planehopf.forests import (chain_tree, enumerate_forests,
                               enumerate_trees, forest_code, forest_size,
                               parse_code, parse_forest, parse_tree,
                               singletons)
from planehopf.laurent import LaurentPoly
from planehopf.lincomb import LinComb
from planehopf.polynomials import MultiPoly

from oracles import (SingularMatrix, graft_tree, labelled_forest,
                     prelie_graft, solve, strict_below_pairs, x_in_c, x_tau)


def lc(spec):
    return LinComb({parse_forest(k): Fraction(v) for k, v in spec.items()})


def pairs(spec):
    return LinComb({(parse_forest(a), parse_forest(b)): Fraction(v)
                    for (a, b), v in spec.items()})


def test_y_coproduct_2100():
    # admissible cuts of the tree with code 2100, lower part on the left
    assert hopf.y_coproduct(parse_forest("2100")) == pairs({
        ("", "2100"): 1,
        ("0", "110"): 1,
        ("0", "200"): 1,
        ("10", "10"): 1,
        ("00", "10"): 1,
        ("100", "0"): 1,
        ("2100", ""): 1,
    })


def test_x_product_10_10():
    assert hopf.x_product(parse_forest("10"), parse_forest("10")) == lc({
        "1010": 2, "2100": 1, "2010": 1, "1110": 1})


def restrict(f, keep):
    """Induced plane forest on the postorder labels in ``keep``."""
    def walk(nodes):
        out = []
        for label, kids in nodes:
            sub = walk(kids)
            if label in keep:
                out.append(sub)
            else:
                out.extend(sub)
        return tuple(out)

    return walk(labelled_forest(f))


def label_cuts(f):
    """Oracle route for the cuts: every descendant-closed set of postorder
    labels, as (lower, upper, whether label n, the root of the last tree,
    is lower)."""
    n = forest_size(f)
    below = strict_below_pairs(f)
    labels = set(range(1, n + 1))
    for r in range(n + 1):
        for chosen in combinations(range(1, n + 1), r):
            lower = set(chosen)
            if all(i in lower for i, j in below if j in lower):
                yield restrict(f, lower), restrict(f, labels - lower), n in lower


@pytest.mark.parametrize("n", range(8))
def test_cuts_match_label_sets(n):
    table = {}
    for f in enumerate_forests(n):
        oracle = list(label_cuts(f))
        assert hopf.y_coproduct(f) == LinComb(
            ((lo, up), 1) for lo, up, _ in oracle)
        for lo, up, last in oracle:
            slot = table.setdefault((lo, up), {}).setdefault(f, [0, 0])
            slot[0 if last else 1] += 1
    # the X product and its dendriform halves count the cuts of each H of
    # size n with lower part f and upper part g, split by the last root
    for n1 in range(n + 1):
        for f in enumerate_forests(n1):
            for g in enumerate_forests(n - n1):
                terms = table.get((f, g), {})
                assert hopf.x_product(f, g) == LinComb(
                    {h: c[0] + c[1] for h, c in terms.items()})
                if f and g:
                    assert hopf.x_prec(f, g) == LinComb(
                        {h: c[0] for h, c in terms.items()})
                    assert hopf.x_succ(f, g) == LinComb(
                        {h: c[1] for h, c in terms.items()})


@pytest.mark.parametrize("n", range(8))
def test_cut_count_matches_cuts(n):
    for f in enumerate_forests(n):
        count = sum(c for _, c in hopf.y_coproduct(f).items())
        assert hopf.cut_count(f, count + 1) == count
        assert hopf.cut_count(f, count) == count
        assert hopf.cut_count(f, 2) == min(count, 2)


def test_x_product_transposes_y_coproduct():
    for n in range(2, 7):
        cop = {h: hopf.y_coproduct(h) for h in enumerate_forests(n)}
        for n1 in range(1, n):
            for f in enumerate_forests(n1):
                for g in enumerate_forests(n - n1):
                    prod = hopf.x_product(f, g)
                    for h, delta in cop.items():
                        assert prod.coeff(h) == delta.coeff((f, g)), \
                            (forest_code(f), forest_code(g), forest_code(h))


def test_hopf_suite():
    assert suite_hopf(6) == []


def test_hopf_suite_reports_a_corrupted_coproduct(monkeypatch):
    # one extra (0, 0) term in the Y coproduct of two singletons is seen by
    # the duality and bialgebra checks, which read the suite's one table
    y_coproduct, dots = hopf.y_coproduct, singletons(2)

    def corrupt(f):
        out = y_coproduct(f)
        if f == dots:
            out = out + LinComb.monomial((singletons(1), singletons(1)))
        return out

    monkeypatch.setattr(hopf, "y_coproduct", corrupt)
    bad = suite_hopf(3)
    assert "duality fails at 0,0 vs 00" in bad
    assert "bialgebra fails at 0,0" in bad


def test_dendriform_suite():
    assert suite_dendriform(6) == []


def test_lambda_s_bases():
    dot = parse_forest("0")
    assert hopf.x_prec(dot, singletons(2)) == hopf.lambda_n(3)
    s3 = LinComb.zero()
    for g, c in hopf.s_n(2).items():
        s3 = s3 + hopf.x_succ(g, dot).scale(c)
    assert s3 == hopf.s_n(3)
    # S_n is the all-ones sum over forests, Lambda_n the singleton forest
    for n in range(1, 6):
        assert hopf.s_n(n) == LinComb(
            {f: Fraction(1) for f in enumerate_forests(n)})
        assert hopf.lambda_n(n) == LinComb.monomial(singletons(n),
                                                    Fraction(1))


def test_series_inverse():
    # (sum (-1)^n Lambda_n)^(-1) = sum S_n, degree by degree up to 6
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


def test_prelie_commutator():
    comm = (prelie_graft(parse_tree("0"), parse_tree("10"))
            - prelie_graft(parse_tree("10"), parse_tree("0")))
    assert comm == lc({"200": 2})


def test_prelie_from_dendriform():
    for t1 in enumerate_trees(2):
        for t2 in enumerate_trees(3):
            a = prelie_graft(t1, t2)
            b = hopf.x_succ((t1,), (t2,)) - hopf.x_prec((t2,), (t1,))
            assert a == b


def test_brace_product_duality():
    for t in enumerate_trees(4):
        for f in enumerate_forests(2):
            for fp in enumerate_forests(1):
                lhs = LinComb.zero()
                for h, c in hopf.x_product(f, fp).items():
                    lhs = lhs + hopf.brace(h, t).scale(c)
                rhs = LinComb.zero()
                for h, c in hopf.brace(fp, t).items():
                    rhs = rhs + hopf.brace(f, h[0]).scale(c)
                assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 8))
def test_brace_matches_grafting(n):
    # every (forest, tree) pair with n nodes in total
    for k in range(1, n + 1):
        for t in enumerate_trees(k):
            for f in enumerate_forests(n - k):
                assert hopf.brace(f, t) == LinComb(
                    ((h,), 1) for h in graft_tree(t, f)), \
                    (forest_code(f), forest_code((t,)))


def insert_product(f, g):
    """Oracle route for the X product: insert the trees of f, keeping their
    order, between and inside the trees of g."""
    def rec(gtrees, ftrees):
        if not gtrees:
            yield ftrees
            return
        first, rest = gtrees[0], gtrees[1:]
        for i in range(len(ftrees) + 1):
            before, remaining = ftrees[:i], ftrees[i:]
            for j in range(len(remaining) + 1):
                inside, after = remaining[:j], remaining[j:]
                for t2 in graft_tree(first, inside):
                    for tail in rec(rest, after):
                        yield before + (t2,) + tail

    out = LinComb.zero()
    for h in rec(g, f):
        out = out + LinComb.monomial(h)
    return out


def test_insertion_route_matches_product():
    # every pair with at most 6 nodes in total, the unit included
    for n1, n2 in iproduct(range(7), repeat=2):
        if n1 + n2 > 6:
            continue
        for f in enumerate_forests(n1):
            for g in enumerate_forests(n2):
                assert insert_product(f, g) == hopf.x_product(f, g), \
                    (forest_code(f), forest_code(g))


@st.composite
def plane_forests(draw, max_nodes):
    """A plane forest of at most ``max_nodes`` nodes, drawn as the depths
    of its nodes in prefix order: each node is at most one level below the
    node before it, and its arity counts the nodes one level below it up to
    the next node at its level or above."""
    depths = []
    for _ in range(draw(st.integers(0, max_nodes))):
        depths.append(draw(st.integers(0, depths[-1] + 1 if depths else 0)))
    code = []
    for i, d in enumerate(depths):
        below = takewhile(lambda e: e > d, depths[i + 1:])
        code.append(sum(e == d + 1 for e in below))
    return parse_code(code)


# pairs (F, G) with at most 12 nodes in total
forest_pairs = plane_forests(12).flatmap(
    lambda f: st.tuples(st.just(f), plane_forests(12 - forest_size(f))))


@settings(deadline=None, max_examples=150)
@given(forest_pairs)
def test_product_coefficients_count_the_slots(pair):
    # X_F X_G places the l(F) trees of F, in order, in the 2|G| + 1 slots
    # of G; X_F < X_G fills the slot after the last tree of G
    f, g = pair
    slots = 2 * forest_size(g)
    prod = hopf.x_product(f, g)
    assert sum(c for _, c in prod.items()) == comb(len(f) + slots, len(f))
    if f and g:
        prec, succ = hopf.x_prec(f, g), hopf.x_succ(f, g)
        assert sum(c for _, c in prec.items()) == (
            comb(len(f) + slots, len(f)) - comb(len(f) + slots - 1, len(f)))
        assert prec + succ == prod


@settings(deadline=None, max_examples=150)
@given(plane_forests(12))
@example(singletons(12))
@example((chain_tree(3),) * 4)
@example((parse_tree("10"), parse_tree("0")) * 4)
def test_merged_coproduct_counts_every_cut(f):
    # repeated trees merge their cuts, k singletons into C(k, i) Y_i x Y_k-i
    total = sum(c for _, c in hopf.y_coproduct(f).items())
    assert total == hopf.cut_count(f, inf)
    if f == singletons(len(f)):
        assert total == 2 ** len(f)


SMALL_FORESTS = [f for n in range(8) for f in enumerate_forests(n)]


def test_c_basis_round_trip():
    # the peeling gives what the Moebius recursion builds, forest by forest
    for f in SMALL_FORESTS:
        got = hopf.x_to_c(LinComb.monomial(f))
        assert got == x_in_c(f)
        assert hopf.c_expand(got) == LinComb.monomial(f)


@settings(deadline=None, max_examples=60)
@given(st.dictionaries(
    st.sampled_from(SMALL_FORESTS),
    st.one_of(st.integers(-3, 3),
              st.fractions(min_value=-2, max_value=2, max_denominator=4)),
    max_size=6).map(LinComb))
def test_x_to_c_on_mixed_degrees(a):
    got = hopf.x_to_c(a)
    assert got == a.map_basis(x_in_c)
    assert hopf.c_expand(got) == a


@pytest.mark.parametrize("coeff", [
    LaurentPoly({-1: 2, 1: MultiPoly.var("x")}),
    MultiPoly.var("x") - Fraction(1, 2),
])
def test_x_to_c_polynomial_coefficients(coeff):
    # the peeling subtracts coefficients, so no int - coefficient is formed
    a = LinComb({parse_forest("0000"): coeff, parse_forest("1100"): -coeff,
                 parse_forest("10"): coeff})
    got = hopf.x_to_c(a)
    assert got == a.map_basis(x_in_c)
    assert hopf.c_expand(got) == a


def test_c_basis_cherry():
    # C_F = sum of X_G over G <= F in the Tamari order
    assert hopf.c_to_x(parse_forest("200")) == lc({"200": 1, "110": 1})


def _x_tau_span_closed(n):
    """The prelie products of the x_tau elements stay in their span."""
    from planehopf.forests import non_plane_class

    reps = {}
    for t in enumerate_trees(n):
        reps.setdefault(non_plane_class(t), t)
    taus = list(reps)
    basis = [x_tau(tau, n) for tau in taus]
    forests = [(t,) for t in enumerate_trees(n)]
    matrix = [[b.coeff(f) for b in basis] for f in forests]
    for n1 in range(1, n):
        for tau1 in {non_plane_class(t) for t in enumerate_trees(n1)}:
            for tau2 in {non_plane_class(t) for t in enumerate_trees(n - n1)}:
                prod = LinComb.zero()
                for t1, c1 in x_tau(tau1, n1).items():
                    for t2, c2 in x_tau(tau2, n - n1).items():
                        prod = prod + prelie_graft(
                            t1[0], t2[0]).scale(c1 * c2)
                rhs = [prod.coeff(f) for f in forests]
                try:
                    solve([row[:] for row in matrix], rhs)
                except SingularMatrix:
                    return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_x_tau_closure(n):
    assert _x_tau_span_closed(n)
