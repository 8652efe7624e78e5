"""Noncommutative symmetric functions, quasi-symmetric functions, the
embedding into the forest algebra, and alphabet transforms."""

from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planehopf import birkhoff, forests, hopf, ncsf
from planehopf.compositions import (coarsenings, compositions_of,
                                    descent_mask, descent_set,
                                    from_descent_mask, refinements)
from planehopf.forests import (chain_tree, enumerate_forests, forest_code,
                               linear_extensions, non_plane_class,
                               parse_forest, shapes)
from planehopf.lincomb import LinComb
from planehopf.perms import descents, shifted_shuffle
from planehopf.polynomials import (MultiPoly, RationalFn, _cyclotomic,
                                   _divmod_monic)

q = MultiPoly.var("q")
t = MultiPoly.var("t")


def mono(b, c=1):
    return LinComb.monomial(b, Fraction(c))


from fixtures import R_TO_X_TABLE
from test_birkhoff import _permuted
from oracles import (descent_composition,
                     eval_geometric_inf_pairwise, eval_xqt_pairwise,
                     from_descent_set, labelling_count, m_product, minus_x_f,
                     minus_x_m, pair, psi_n_via_limit, subset_sums)


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


def test_one_row_per_shape_and_count(monkeypatch):
    # R_I, S^I and Lambda^I read each shape's row off the memo that
    # gamma_qsym_m and the labelling counts read: the same array, built by
    # one transform per shape for S and for Lambda; the R row is Gamma
    # itself, never a second copy
    subset_sums, built = ncsf._subset_sums, Counter()

    def counted(counts, n, strict=False):
        built[id(counts), n, strict] += 1
        return subset_sums(counts, n, strict)

    monkeypatch.setattr(ncsf, "_subset_sums", counted)
    ncsf._row.cache_clear()
    ncsf._degree.cache_clear()
    for n in range(8):
        i = (n,) if n else ()
        for kind, embed in ((None, ncsf.embed_r), (False, ncsf.embed_s),
                            (True, ncsf.embed_lambda)):
            embed(i)
            assert all(r is ncsf._row(s, kind)[1] for r, s in
                       zip(ncsf._degree(n)[2][kind], shapes(n).shapes))
        for f in enumerate_forests(n):
            ncsf.gamma_qsym_m(f)
            ncsf.nondecreasing_labellings(f, i)
            ncsf.strict_labellings(f, i)
        assert all(ncsf._row(s, None)[1] is ncsf._gamma(s)
                   for s in shapes(n).shapes)
    assert len(built) == 2 * sum(len(shapes(n).shapes) for n in range(8))
    assert set(built.values()) == {1}


@pytest.mark.parametrize("n", range(9))
def test_gamma_matches_linear_extensions(n):
    # dual route: the tree recursion against the descent compositions of
    # the listed linear extensions
    for f in enumerate_forests(n):
        want = Counter(map(descent_composition, linear_extensions(f)))
        assert ncsf.gamma_qsym_f(f) == LinComb(want), forest_code(f)


@pytest.mark.parametrize("n", range(8))
def test_gamma_of_a_plane_forest_is_that_of_its_shape(n):
    # the plane recursion, which the shape-keyed callers no longer take,
    # against the map of the forest's non-plane class
    for f in enumerate_forests(n):
        assert ncsf._gamma(f) == ncsf._gamma(non_plane_class(f)), \
            forest_code(f)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 7).flatmap(lambda n: st.sampled_from(
    enumerate_forests(n))), st.data())
def test_gamma_depends_only_on_the_shape(f, data):
    # through the listed linear extensions, which read no shape key: the
    # siblings under every node, and the roots, permuted
    g = _permuted(f, data)
    want = LinComb(Counter(map(descent_composition, linear_extensions(f))))
    assert LinComb(Counter(map(descent_composition,
                               linear_extensions(g)))) == want
    assert ncsf.gamma_qsym_f(g) == want


def _mask(sigma):
    return sum(1 << d - 1 for d in descents(sigma))


def _perm(n):
    return st.permutations(range(1, n + 1)).map(tuple)


@settings(deadline=None, max_examples=150)
@given(st.tuples(st.integers(0, 9), st.integers(0, 9))
       .filter(lambda ab: sum(ab) <= 9)
       .flatmap(lambda ab: st.tuples(_perm(ab[0]), _perm(ab[1]))))
def test_f_product_is_shuffle_of_any_representatives(pair):
    # F_I F_J, counted from the descent masks of I and J alone, against the
    # listed shifted shuffles of any permutations u and v with those masks
    u, v = pair
    want = Counter(map(_mask, shifted_shuffle(u, v)))
    assert dict(ncsf._f_product(len(u), _mask(u), len(v), _mask(v))) == want


def _composition(n):
    return st.sampled_from(list(compositions_of(n)))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.sampled_from(enumerate_forests(n)), _composition(n))))
def test_labelling_counts_match_the_sparse_route(case):
    # each count is one entry of the shape's row, against Gamma of the shape
    # summed over the submasks of D(I), or over the masks above its
    # complement; any plane forest, canonical or not
    f, i = case
    assert ncsf.nondecreasing_labellings(f, i) == labelling_count(f, i)
    assert ncsf.strict_labellings(f, i) == labelling_count(f, i, strict=True)
    assert ncsf.gamma_qsym_m(f) == LinComb(
        {j: labelling_count(f, j) for j in compositions_of(sum(i))})


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 8).flatmap(_composition))
def test_embeddings_match_the_sparse_route(i):
    # one read per shape off the degree's table, against every forest's
    # sparse sum over its shape's Gamma
    forests_n = enumerate_forests(sum(i))
    gamma = {f: ncsf._gamma(non_plane_class(f)) for f in forests_n}
    x = descent_mask(i)
    assert ncsf.embed_r(i) == LinComb(
        {f: gamma[f][x] if x < len(gamma[f]) else 0 for f in forests_n})
    assert ncsf.embed_s(i) == LinComb(
        {f: labelling_count(f, i) for f in forests_n})
    assert ncsf.embed_lambda(i) == LinComb(
        {f: labelling_count(f, i, strict=True) for f in forests_n})


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.integers(0, 2 ** 70) | st.integers(0, 300),
    min_size=1 << max(n - 1, 0), max_size=1 << max(n - 1, 0)))))
def test_packed_transform_matches_the_naive_sums(case):
    # the shift-and-add transform on one packed int, with fields sized by
    # the total, against the sums over each mask's subsets and supersets
    n, row = case
    for strict in (False, True):
        assert list(ncsf._subset_sums(_typed(row), n, strict)) == \
            subset_sums(row, strict)


def _typed(row):
    """``row`` in Gamma's form: fields as wide as its total."""
    out = ncsf._zeros(sum(row), len(row))
    for m, c in enumerate(row):
        out[m] = c
    return out


def test_packed_rows_stay_exact_past_64_bits():
    # a total of 64 bits still fits an array of 8-byte fields; entries past
    # it keep their row as exact ints, never truncated
    for row, kind in (([1] * 7 + [2 ** 64 - 8], array),
                      ([2 ** 64 + k for k in range(8)], list),
                      ([2 ** 90 - k for k in range(8)], list)):
        got = ncsf._subset_sums(_typed(row), 4)
        assert type(got) is kind and list(got) == subset_sums(row)
        assert got[7] == sum(row) >= 2 ** 64 - 1
    # fields follow the total, not the node count: the 21-node chain has
    # one linear extension, so one byte per field of 2^20
    chain = (chain_tree(21),)
    n, weak = ncsf._row(chain, False)
    assert (n, weak.itemsize, len(weak), set(weak)) == (21, 1, 1 << 20, {1})
    assert ncsf.strict_labellings(chain, (1,) * 21) == 1
    assert ncsf.strict_labellings(chain, (2,) + (1,) * 19) == 0


@pytest.mark.parametrize("n", range(9))
def test_gamma_rows_hold_the_extensions(n):
    # each shape's row sums to its number of listed linear extensions, has
    # at most one field per mask, and a tree's row is its children's object
    for s in shapes(n).shapes:
        row = ncsf._gamma(s)
        assert sum(row) == len(linear_extensions(s)), forest_code(s)
        assert len(row) <= 2 ** max(n - 1, 0)
        assert ncsf._gamma((s,)) is row


def test_gamma_row_type_follows_the_total():
    # the narrowest array type holds the total; past 64 bits, a list
    wide = ncsf._zeros(2 ** 64 - 1, 4)
    assert (type(wide), wide.typecode, list(wide)) == (array, "Q", [0] * 4)
    assert ncsf._zeros(2 ** 64, 4) == [0] * 4


def test_descent_masks_match_descent_sets():
    # every composition of n <= 7, once each, and its coarsenings and
    # refinements, against the descent-set route
    for n in range(8):
        comps = list(compositions_of(n))
        assert len(set(comps)) == len(comps) == max(2 ** (n - 1), 1)
        for m, i in enumerate(comps):
            ds = {d for d in range(1, n) if m >> d - 1 & 1}
            assert i == from_descent_mask(m, n) == from_descent_set(ds, n)
            assert descent_mask(i) == m and descent_set(i) == ds
            coarser = list(coarsenings(i))
            finer = list(refinements(i))
            assert len(coarser) == 2 ** len(ds)
            assert len(finer) == len(comps) >> len(ds)
            assert set(coarser) == {j for j in comps if descent_set(j) <= ds}
            assert set(finer) == {j for j in comps if descent_set(j) >= ds}


def test_r_s_round_trip():
    for i in [(2, 1), (1, 2, 1), (3,), (1, 1, 2)]:
        assert ncsf.s_to_r(ncsf.r_to_s(mono(i))) == mono(i)
        assert ncsf.r_to_s(ncsf.s_to_r(mono(i))) == mono(i)


def test_minus_alphabet_routes():
    for i in [(2,), (1, 1), (2, 1), (1, 2), (2, 2)]:
        a = ncsf.m_to_f(minus_x_m(ncsf.f_to_m(mono(i))))
        b = minus_x_f(mono(i))
        assert a == b


def test_minus_alphabet_involution():
    for i in [(2,), (2, 1), (1, 2, 1)]:
        assert minus_x_f(minus_x_f(mono(i))) == mono(i)


def test_gamma_routes():
    for n in range(1, 6):
        for f in enumerate_forests(n):
            assert ncsf.f_to_m(ncsf.gamma_qsym_f(f)) == ncsf.gamma_qsym_m(f)


def test_gamma_2100():
    g = ncsf.gamma_qsym_f(parse_forest("2100"))
    assert g == LinComb({(2, 2): Fraction(1), (1, 3): Fraction(1),
                         (4,): Fraction(1)})


def test_compositions_of_negative_is_refused():
    with pytest.raises(ValueError):
        list(compositions_of(-1))


@pytest.mark.parametrize("n", range(-2, 9))
def test_hook_part_count_matches_psi(n):
    for psi in (ncsf.psi_n(n), ncsf.psi_bar_n(n)):
        count = sum(len(i) for i in psi.support())
        assert ncsf.hook_part_count(n, count + 1) == count
        assert ncsf.hook_part_count(n, count) == count
        assert ncsf.hook_part_count(n, 2) == min(count, 2)


def test_psi_via_limit():
    for n in range(1, 6):
        assert ncsf.psi_n(n) == psi_n_via_limit(n)


def test_pairing():
    assert pair(mono((2, 1)), mono((2, 1))) == 1
    assert pair(mono((2, 1)), mono((1, 2))) == 0


def test_quasi_shuffle():
    assert m_product(mono((1,)), mono((1,))) \
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


def _same_structure(got, want):
    return got.num.coeffs == want.num.coeffs and got.den == want.den


def _in_lowest_terms(r):
    """Whether no Phi_d of the denominator divides the numerator, read in q
    with one dense polynomial per power of t."""
    slices: dict = {}
    for m, c in r.num.coeffs.items():
        d = dict(m)
        p = slices.setdefault(d.get("t", 0), [])
        p.extend([0] * (d.get("q", 0) + 1 - len(p)))
        p[d.get("q", 0)] = c
    return all(any(any(_divmod_monic(p, _cyclotomic(d))[1])
                   for p in slices.values())
               for (_, d) in r.den)


@pytest.mark.parametrize("n", range(7))
def test_eval_geometric_inf_matches_pairwise_sum(n):
    for f in enumerate_forests(n):
        a = ncsf.gamma_qsym_m(f)
        assert _same_structure(ncsf.eval_geometric_inf(a),
                               eval_geometric_inf_pairwise(a)), f


@pytest.mark.parametrize("n", range(6))
def test_eval_xqt_matches_pairwise_sum(n):
    for f in enumerate_forests(n):
        a = ncsf.f_to_m(ncsf.gamma_qsym_f(f))
        assert _same_structure(ncsf.eval_xqt(a), eval_xqt_pairwise(a)), f


m_combinations = st.dictionaries(
    st.integers(0, 5).flatmap(lambda n: st.sampled_from(list(compositions_of(n)))),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    max_size=4).map(LinComb)


@settings(deadline=None, max_examples=40)
@given(m_combinations)
def test_evaluations_match_pairwise_sums(a):
    for fast, slow in ((ncsf.eval_geometric_inf, eval_geometric_inf_pairwise),
                       (ncsf.eval_xqt, eval_xqt_pairwise)):
        got = fast(a)
        assert _same_structure(got, slow(a))
        assert _in_lowest_terms(got)


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
