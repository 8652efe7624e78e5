"""Birkhoff factorization of the a-weighted character, the C and D series,
the Catalan Lie idempotents D_lambda, and the word model."""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehopf import birkhoff as bk
from planehopf import forests, hopf, ncsf, tamari
from planehopf.checks import suite_factorization, suite_words
from planehopf.compositions import (compositions_of, descent_set,
                                    partitions_of, refinements)
from planehopf.forests import (chain_tree, corolla, enumerate_forests,
                               enumerate_trees, non_plane_class, parse_forest,
                               polish_code, shapes, tree_size)
from planehopf.laurent import LaurentPoly
from planehopf.lincomb import LinComb
from planehopf.polynomials import MultiPoly

from fixtures import N3_TABLE, N4_TABLE, W4111_TABLE
from oracles import (a_weight, p_bracket, sigma_plus_lambda,
                     sigma_plus_ribbon_by_word, sigma_plus_s, tamari_sigma_plus,
                     word_to_path)

A = bk.a_series(6)


def lp(d):
    """Build a LaurentPoly from {exponent: [a-words]}."""
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


def test_phi_plus_fixtures():
    assert bk.phi_plus(parse_forest("0"), A) == lp({-1: [(0,)]})
    assert bk.phi_plus(parse_forest("00"), A) == lp({-2: [(0, 0)]})
    assert bk.phi_plus(parse_forest("10"), A) == lp(
        {-2: [(0, 0)], -1: [(0, 1)]})
    assert bk.phi_plus(parse_forest("200"), A) == lp(
        {-3: [(0, 0, 0)], -2: [(0, 1, 0)], -1: [(0, 0, 2)]})
    assert bk.phi_plus(parse_forest("110"), A) == lp(
        {-3: [(0, 0, 0)], -2: [(0, 1, 0), (0, 0, 1)],
         -1: [(0, 1, 1), (0, 0, 2)]})


def test_phi_plus_closed_form():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert bk.phi_plus((t,), A) == bk.phi_plus_closed(t, A)


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("series", [bk.a_series, bk.a_series_ab,
                                    lambda n: bk.a_series(2)],
                         ids=["generic", "ab", "truncated"])
def test_sigma_plus_tamari_routes(n, series):
    # the Tamari sum against the phi_plus recursion, forest by forest
    a = series(n)
    assert bk.sigma_plus(n, a) == LinComb(
        {f: bk.phi_plus(f, a) for f in enumerate_forests(n)})


@pytest.mark.parametrize("n", range(0, 8))
@pytest.mark.parametrize("series", [bk.a_series, bk.a_series_ab,
                                    lambda n: bk.a_series(2)],
                         ids=["generic", "ab", "truncated"])
def test_sigma_plus_matches_upset_oracle(n, series):
    # the root-count table against the sum over each Tamari up-set
    a = series(n)
    assert bk.sigma_plus(n, a) == tamari_sigma_plus(n, a)


_MASK = (1 << bk._DIGIT) - 1


def _key(g):
    """The root-count key of one forest, from its Polish code: r in the low
    digit and m_k in digit k + 1."""
    return len(g) + sum(1 << (bk._DIGIT * (c + 1)) for c in polish_code(g))


def _flat(shape):
    """(key, row) for a shape: the key of its forests, root count and arity
    multiset read off the shape, and its root-count row flattened to
    {key: count}, each key packed as ``_key`` packs a forest's."""
    return len(shape) + (bk._arities(shape, {}) << bk._DIGIT), {
        r + (m << bk._DIGIT): count
        for r, sub in bk._root_row(shape) for m, count in zip(*sub)}


@pytest.mark.parametrize("n", range(0, 9))
def test_root_count_rows_count_the_upsets(n):
    # every plane forest's row, reached through its shape, counts its up-set
    # by root count and arity multiset; the key beside it is the forest's own
    index = shapes(n)
    for f, (key, row) in index.spread(
            [_flat(s) for s in index.shapes]).items():
        up = tamari.upset(f)
        assert sum(row.values()) == len(up)
        assert row == Counter(map(_key, up))
        assert key == _key(f)


@pytest.mark.parametrize("n", range(0, 11))
def test_root_count_rows_count_the_tamari_intervals(n):
    # the up-sets of all C_n plane forests hold Chapoton's count of Tamari
    # intervals, 2 (4n + 1)! / ((n + 1)! (3n + 2)!), each forest's through its
    # shape's row; every key has n nodes, with n - r children in all
    index = shapes(n)
    planes = Counter(index.ids)
    rows = [_flat(s)[1] for s in index.shapes]
    assert sum(planes[k] * sum(row.values()) for k, row in enumerate(rows)) \
        == 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))
    for row in rows:
        for key in row:
            m = [key >> bk._DIGIT * (k + 1) & _MASK for k in range(n + 1)]
            assert key >> bk._DIGIT * (n + 2) == 0
            assert sum(m) == n
            assert sum(k * mk for k, mk in enumerate(m)) == n - (key & _MASK)


def _shape(f):
    """The non-plane shape of a forest: its trees, each sorted the same way,
    in sorted order."""
    return tuple(sorted(_shape(t) for t in f))


def _permuted(f, data):
    """The forest with the siblings under every node, and its roots, put in
    a drawn order."""
    return tuple(data.draw(st.permutations([_permuted(t, data) for t in f])))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 7).flatmap(lambda n: st.sampled_from(
    enumerate_forests(n))), st.data())
def test_upset_counts_depend_only_on_the_shape(f, data):
    # through the routes that read no table: phi+ by its recursion, and the
    # Tamari up-set counted by root count and arity multiset
    g = _permuted(f, data)
    assert _shape(g) == _shape(f)
    a = bk.a_series(len(polish_code(f)))
    assert bk.phi_plus(g, a) == bk.phi_plus(f, a)
    assert Counter(map(_key, tamari.upset(g))) == \
        Counter(map(_key, tamari.upset(f)))


@pytest.mark.parametrize("n, rows", enumerate(
    (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842)))
def test_root_count_rows_are_one_per_shape(n, rows):
    # one row object per non-plane shape (OEIS A000081), each keyed by its
    # canonical shape, by this module's sort and by the library's; through
    # the shape index, or the memo at an equal but distinct key, two forests
    # share a row exactly when their shapes are equal
    index = shapes(n)
    table = [bk._root_row(s) for s in index.shapes]
    assert len(table) == rows
    assert len({id(row) for row in table}) == rows
    assert all(non_plane_class(s) == s == _shape(s) for s in index.shapes)
    by_shape = {}
    for f, row in index.spread(table).items():
        shape = _shape(f)
        assert bk._root_row(shape) is row
        by_shape.setdefault(shape, set()).add(id(row))
    assert all(len(s) == 1 for s in by_shape.values())
    assert len(by_shape) == rows


def test_sigma_plus_sums_each_row_once(monkeypatch):
    # each distinct sub-row of the degree's rows (one root count of one
    # shape's row) is summed once, and the forests whose rows hold it share
    # its MultiPoly: at n = 7, 226 sub-rows hold the 1,888 row entries
    sub_row_sum, calls = bk._sub_row_sum, []

    def counted(sub, weights):
        calls.append(sub)
        return sub_row_sum(sub, weights)

    monkeypatch.setattr(bk, "_sub_row_sum", counted)
    for n in range(0, 8):
        calls.clear()
        sigma = bk.sigma_plus(n, bk.a_series(n))
        subs = {sub for s in shapes(n).shapes for _, sub in bk._root_row(s)}
        assert sorted(calls) == sorted(subs)
        shared = {id(c) for value in sigma.terms.values()
                  for c in value.coeffs.values()}
        assert len(shared) == len(subs)
    assert len(shared) == 226


def test_sigma_plus_refuses_double_pole():
    # every Tamari-formula route refuses a z^-2 term rather than drop it
    a = bk.a_series(3) + LaurentPoly.term(-2, MultiPoly.var("c"))
    for call in (bk.sigma_plus, bk.series_c, bk.series_d):
        with pytest.raises(ValueError):
            call(3, a)
    with pytest.raises(ValueError):
        bk.phi_plus_closed(parse_forest("100")[0], a)


# a(z) = sum of a_k z^(k-1): some letters missing, the others small integers
# or polynomials in b and c, either of which may be negative or cancel
_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), st.integers(-2, 2),
    max_size=3).map(lambda d: MultiPoly(
        {tuple((v, e) for v, e in (("b", i), ("c", j)) if e): k
         for (i, j), k in d.items()}))
_a_series = st.dictionaries(st.integers(-1, 5),
                            st.one_of(st.integers(-3, 3), _polys),
                            max_size=5).map(LaurentPoly)


# the same, with exponents from -2: double poles, which the bracket routes
# accept and the Tamari formula refuses
_a_laurent = st.dictionaries(st.integers(-2, 5),
                             st.one_of(st.integers(-3, 3), _polys),
                             max_size=4).map(LaurentPoly)


@settings(deadline=None, max_examples=60)
@given(_a_laurent, st.integers(1, 5))
def test_ribbon_walk_matches_bracket_per_word(a, n):
    assert bk.sigma_plus_ribbon(n, a) == sigma_plus_ribbon_by_word(n, a)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("series", [bk.a_series, bk.a_series_ab],
                         ids=["generic", "ab"])
def test_ribbon_walk_matches_bracket_per_word_on_specs(n, series):
    a = series(n)
    assert bk.sigma_plus_ribbon(n, a) == sigma_plus_ribbon_by_word(n, a)


def test_ribbon_expansion_in_degree_zero():
    # the degree-0 part of sigma_a^+ is the unit, with an integer sign
    expansion = bk.sigma_plus_ribbon(0, A)
    assert expansion == LinComb.monomial((), LaurentPoly.const(1))
    assert expansion.coeff(()).text() == "(1)"


@settings(deadline=None, max_examples=100)
@given(_a_series, st.integers(0, 5))
def test_root_count_route_matches_phi_plus_recursion(a, n):
    assert bk.sigma_plus(n, a) == LinComb(
        {f: bk.phi_plus(f, a) for f in enumerate_forests(n)})
    for t in enumerate_trees(n):
        assert bk.phi_plus_closed(t, a) == bk.phi_plus((t,), a)
    assert bk.series_c(n, a) == LinComb(
        {g: a_weight(a, g) for g in enumerate_forests(n)})
    assert bk.series_d(n, a) == LinComb(
        {(t,): a_weight(a, (t,)) for t in enumerate_trees(n)})


def test_birkhoff_reads_no_upset(monkeypatch):
    # sigma+, phi+ and the C and D series come from the root-count table
    # alone, rebuilt here with the up-sets out of reach
    def refuse(f):
        raise AssertionError(f"tamari.upset reached for {f}")

    monkeypatch.setattr(tamari, "upset", refuse)
    bk._root_row.cache_clear()
    for n in range(0, 7):
        a = bk.a_series(n)
        assert len(bk.sigma_plus(n, a)) == len(enumerate_forests(n))
        for t in enumerate_trees(n):
            bk.phi_plus_closed(t, a)
        bk.series_c(n, a)
        bk.series_d(n, a)


@pytest.mark.parametrize("series", [bk.a_series, bk.a_series_ab],
                         ids=["generic", "ab"])
def test_series_c_and_d_build_no_root_count_row(monkeypatch, series):
    # the C and D series read each shape's root count and arity multiset
    # off the shape itself, and no row
    def refuse(shape):
        raise AssertionError(f"a root-count row was built for {shape}")

    monkeypatch.setattr(bk, "_root_row", refuse)
    for n in range(0, 9):
        a = series(n)
        assert bk.series_c(n, a) == LinComb(
            {g: a_weight(a, g) for g in enumerate_forests(n)})
        assert bk.series_d(n, a) == LinComb(
            {(t,): a_weight(a, (t,)) for t in enumerate_trees(n)})


def test_phi_plus_closed_builds_no_degree_table(monkeypatch):
    # one tree's phi+ reads the rows of its shape and its parts: neither the
    # shape index of its degree nor a listing of its plane forests
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    trees += [chain_tree(14), corolla(14)]

    def refuse(n):
        raise AssertionError(f"a degree-{n} table was built")

    monkeypatch.setattr(bk, "shapes", refuse)
    monkeypatch.setattr(forests, "enumerate_forests", refuse)
    bk._root_row.cache_clear()
    for t in trees:
        for series in (bk.a_series, bk.a_series_ab):
            a = series(tree_size(t))
            assert bk.phi_plus_closed(t, a) == bk.phi_plus((t,), a)


def test_factorization_suite():
    assert suite_factorization(4) == []


def test_factorization_suite_reads_the_tamari_table(monkeypatch):
    # one wrong sigma_plus coefficient is reported at its forest, and at the
    # tree grafted on it, whose phi- it enters
    sigma_plus = bk.sigma_plus

    def corrupt(n, a):
        out = sigma_plus(n, a)
        if n == 3:
            out = out + LinComb.monomial(parse_forest("000"),
                                         LaurentPoly.term(-1, 1))
        return out

    monkeypatch.setattr(bk, "sigma_plus", corrupt)
    bad = suite_factorization(4)
    assert "factorization fails at 000" in bad
    assert "factorization fails at 3000" in bad


@pytest.mark.parametrize("n", range(1, 5))
def test_c_d_dual_routes(n):
    # z = 1 and residue of sigma+ against the C-basis series
    sp = bk.sigma_plus(n, A)
    c_direct = LinComb.zero()
    for g, coeff in bk.series_c(n, A).items():
        c_direct = c_direct + hopf.c_to_x(g).scale(coeff)
    assert LinComb({f: c.eval_z1() for f, c in sp.items()}) == c_direct
    d_direct = LinComb.zero()
    for g, coeff in bk.series_d(n, A).items():
        d_direct = d_direct + hopf.c_to_x(g).scale(coeff)
    assert LinComb({f: c.residue() for f, c in sp.items()}) == d_direct


def test_d_lambda_fixtures():
    assert bk.d_lambda((3,)) == LinComb.monomial(parse_forest("3000"),
                                                 Fraction(1))
    assert bk.d_lambda((2, 1)) == LinComb({
        parse_forest("2100"): Fraction(1),
        parse_forest("2010"): Fraction(1),
        parse_forest("1200"): Fraction(1)})
    # D_(3) expands as the sum of all trees, D_(111) as Psi_4
    assert bk.d_lambda_x((3,)) == LinComb(
        {(t,): Fraction(1) for t in enumerate_trees(4)})
    assert bk.d_lambda_x((1, 1, 1)) == ncsf.psi_n(4).map_basis(ncsf.embed_r)


@pytest.mark.parametrize("n", range(1, 9))
def test_d_lambda_matches_tree_filter(n):
    # the arrangements that parse as one tree are the trees whose nonzero
    # code letters form lambda
    for lam in partitions_of(n - 1):
        assert bk.d_lambda(lam) == LinComb(
            {(t,): Fraction(1) for t in enumerate_trees(n)
             if sorted(filter(None, polish_code((t,))), reverse=True)
             == list(lam)})


def test_d_lambda_21_ribbon():
    # D_(21) = R_4 - R_22 + R_121 - R_1111 + Psi_4 + Psibar_4, collected
    want = LinComb({(4,): Fraction(1), (2, 2): Fraction(-1),
                    (1, 2, 1): Fraction(1), (1, 1, 1, 1): Fraction(-1)})
    want = want + ncsf.psi_n(4) + ncsf.psi_bar_n(4)
    assert bk.d_lambda_ribbon((2, 1)) == want


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 1500])
def test_d_lambda_ribbon_all_ones_is_psi(k):
    # D_(1^k) = Psi_(k+1); the arrangements are listed with no recursion,
    # so k = 1500, deeper than the recursion limit, is answered
    assert bk.d_lambda_ribbon((1,) * k) == ncsf.psi_n(k + 1)


def test_d_supported_on_trees():
    # D is a Lie element: its X expansion is supported on single trees
    for n in range(1, 6):
        d = LinComb.zero()
        for g, coeff in bk.series_d(n, A).items():
            d = d + hopf.c_to_x(g).scale(coeff)
        assert all(len(f) == 1 for f in d.support())


def test_d_lambda_reassembles_d():
    # sum over lambda of a_lambda D_lambda equals the residue series
    for n in range(1, 6):
        d = LinComb.zero()
        for g, coeff in bk.series_d(n, A).items():
            d = d + hopf.c_to_x(g).scale(coeff)
        total = LinComb.zero()
        for lam in partitions_of(n - 1):
            mono = MultiPoly.var("a0") ** (n - len(lam))
            for part in lam:
                mono = mono * MultiPoly.var(f"a{part}")
            for f, c in bk.d_lambda_x(lam).items():
                total = total + LinComb.monomial(f, mono * c)
        assert LinComb({f: MultiPoly.coerce(c) for f, c in total.items()}) \
            == LinComb({f: c for f, c in d.items()})


def a_monomial(lam, n):
    """The monomial key of a_0^(n - l(lambda)) a_lambda."""
    mono = MultiPoly.var("a0", n - len(lam))
    for part in lam:
        mono = mono * MultiPoly.var(f"a{part}")
    (key,) = mono.coeffs
    return key


@pytest.mark.parametrize("n", range(1, 7))
def test_d_lambda_ribbon_embeds_to_x(n):
    # the word route lands on the X expansion, as an exact solve of the
    # ribbon coordinates would
    for lam in partitions_of(n - 1):
        assert bk.d_lambda_ribbon(lam).map_basis(ncsf.embed_r) \
            == bk.d_lambda_x(lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_d_lambda_ribbon_is_residue(n):
    # D_lambda is the a_0^(n-l) a_lambda part of the residue of sigma_a^+,
    # here from the bracket route
    residue = {i: c.coefficient(-1)
               for i, c in bk.sigma_plus_ribbon(n, bk.a_series(n)).items()}
    for lam in partitions_of(n - 1):
        key = a_monomial(lam, n)
        assert bk.d_lambda_ribbon(lam) == LinComb(
            (i, c.coeffs.get(key, 0)) for i, c in residue.items())


@pytest.mark.parametrize("n", range(1, 5))
def test_sigma_plus_expansions(n):
    # S, Lambda, and ribbon expansions all reassemble sigma+ in the X basis
    target = bk.sigma_plus(n, A)
    for expansion, embed in ((sigma_plus_s, ncsf.embed_s),
                             (sigma_plus_lambda, ncsf.embed_lambda),
                             (bk.sigma_plus_ribbon, ncsf.embed_r)):
        acc = LinComb.zero()
        for i, coeff in expansion(n, A).items():
            for f, c in embed(i).items():
                acc = acc + LinComb.monomial(
                    f, coeff * LaurentPoly.const(c))
        assert acc == target


def test_birkhoff_bracket_identities():
    # phi-(M_n) = -P-(a^n): the polar part route for one-part compositions
    for n in range(1, 5):
        prod = LaurentPoly.const(1)
        for _ in range(n):
            prod = prod * A
        assert p_bracket((n,), "-", A) == prod.regular_part()


def test_words_s_112():
    want = {(3, 0, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
            (1, 2, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (2, 0, 0, 0),
            (1, 1, 0, 0)}
    assert set(bk.words_s((1, 1, 2))) == want


def test_n3_word_classification():
    assert len(N3_TABLE) == 10
    for w, i in N3_TABLE.items():
        assert bk.ribbon_from_word(w) == i
    # these are all the n = 3 words
    union = set()
    for i in compositions_of(3):
        union |= set(bk.words_w(i))
    assert union == set(N3_TABLE)


def test_n4_block_table():
    for i, words in N4_TABLE.items():
        want = {tuple(int(ch) for ch in w) for w in words.split()}
        assert set(bk.words_w(i)) == want


def test_w4111_listing():
    listed = [tuple(int(c) for c in s) for s in W4111_TABLE.split()]
    assert len(listed) == 25
    assert set(bk.words_w((4, 1, 1, 1))) == set(listed)


def test_catalan_block_counts():
    assert bk.catalan_block_count((3, 1, 2)) == 8
    assert len(bk.words_w((3, 1, 2))) == 8
    assert bk.catalan_block_count((3, 1, 1, 1)) == 10
    assert len(bk.words_w((3, 1, 1, 1))) == 10
    for n in range(1, 8):
        for i in compositions_of(n):
            assert len(bk.words_w(i)) == bk.catalan_block_count(i)


@pytest.mark.parametrize("n", range(1, 7))
def test_word_count_matches_words(n):
    for i in compositions_of(n):
        for model, words in (("W", bk.words_w), ("S", bk.words_s)):
            count = len(words(i))
            assert bk.word_count(i, model, count + 1) == count
            assert bk.word_count(i, model, count) == count
            assert bk.word_count(i, model, 2) == min(count, 2)


@pytest.mark.parametrize("n", range(8))
def test_arrangement_count_matches_arrangements(n):
    for lam in partitions_of(n):
        count = len(list(bk._arrangements(lam)))
        assert bk.arrangement_count(lam, count + 1) == count
        assert bk.arrangement_count(lam, count) == count
        assert bk.arrangement_count(lam, 2) == min(count, 2)


@pytest.mark.parametrize("n", range(0, 6))
def test_words_brute_force(n):
    # both models, in lexicographic order, against a filter of all words
    # with letters below n
    candidates = [(w, tuple(accumulate(w)))
                  for w in product(range(n), repeat=n)]
    for i in compositions_of(n):
        d = descent_set(i)
        assert bk.words_w(i) == tuple(
            w for w, sums in candidates
            if all((t >= k) == (k in d) for k, t in enumerate(sums, 1)))
        assert bk.words_s(i) == tuple(
            w for w, sums in candidates if sum(w) < n
            and all(t >= k for k, t in enumerate(sums, 1) if k in d))


def test_words_suite():
    assert suite_words(5) == []


def test_s_decomposes_into_w():
    for n in range(1, 6):
        for i in compositions_of(n):
            union = set()
            for j in refinements(i):
                wj = set(bk.words_w(j))
                assert not (union & wj)
                union |= wj
            assert union == set(bk.words_s(i))


def test_total_word_count():
    for n in range(1, 7):
        assert sum(len(bk.words_w(i)) for i in compositions_of(n)) \
            == comb(2 * n - 1, n)


def test_word_to_path():
    assert word_to_path((0,) * 3).count("b") == 3
