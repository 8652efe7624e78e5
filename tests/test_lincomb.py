"""The LinComb constructor as the one accumulator, and bilinear extension,
against the term-by-term ``+`` they replace; peeling in a unitriangular
basis."""

from fractions import Fraction
from functools import reduce
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from planehopf import hopf
from planehopf.forests import enumerate_forests
from planehopf.lincomb import LinComb, bilinear, peel
from planehopf.polynomials import MultiPoly

SMALL_FORESTS = [f for n in range(5) for f in enumerate_forests(n)]

fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
polys = st.lists(st.integers(-2, 2), max_size=3).map(
    lambda cs: MultiPoly({((("q", e),) if e else ()): c
                          for e, c in enumerate(cs)}))
coeffs = st.one_of(fractions, polys)


@st.composite
def cancelling_pairs(draw):
    """(basis, coeff) pairs on a few labels, followed by the negatives of
    some of them, so that sums often cancel to zero."""
    pairs = draw(st.lists(st.tuples(st.sampled_from("abcd"), coeffs),
                          max_size=10))
    undo = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) \
        if pairs else []
    return pairs + [(b, -c) for b, c in undo]


def x_elements(coeff):
    return st.dictionaries(st.sampled_from(SMALL_FORESTS), coeff,
                           max_size=4).map(LinComb)


@settings(deadline=None)
@given(cancelling_pairs())
def test_constructor_is_the_fold_of_plus(pairs):
    fold = reduce(add, (LinComb.monomial(b, c) for b, c in pairs), LinComb())
    built = LinComb(pairs)
    assert built == fold
    assert all(built.terms.values())


@settings(deadline=None)
@given(x_elements(coeffs), x_elements(fractions))
def test_bilinear_is_the_double_loop(a, b):
    expected = LinComb()
    for f, cf in a.items():
        for g, cg in b.items():
            expected = expected + hopf.x_product(f, g).scale(cf * cg)
    assert bilinear(hopf.x_product, a, b) == expected


def test_peel_inverts_a_unitriangular_basis():
    # B_k = X_k + X_(k+1) + ... + X_4 on the labels 0..4, keyed by the label
    up = lambda k: range(k, 5)
    a = LinComb({0: 2, 3: Fraction(1, 2)})
    got = peel(a, lambda k: k, up)
    assert got == LinComb({0: 2, 1: -2, 3: Fraction(1, 2), 4: Fraction(-1, 2)})
    assert LinComb((j, c) for k, c in got.items() for j in up(k)) == a


def _top_above(calls):
    """B_b = b + "top" for every label b but "top", which is B_top alone."""
    def expand(b):
        calls.append(b)
        return (b,) if b == "top" else (b, "top")
    return expand


def _top_key(b):
    return 1 if b == "top" else 0


def test_peel_breaks_ties_by_insertion_order():
    # a str and a tuple share the least key; ordering them would raise
    calls = []
    got = peel(LinComb({("b",): 1, "a": 1}), _top_key, _top_above(calls))
    assert calls == [("b",), "a", "top"]
    assert got == LinComb({("b",): 1, "a": 1, "top": -2})


def test_peel_skips_a_cancelled_label():
    # "top" is left with 1 - 1 = 0, so it is neither kept nor expanded
    calls = []
    got = peel(LinComb({"a": 1, "top": 1}), _top_key, _top_above(calls))
    assert calls == ["a"]
    assert got == LinComb.monomial("a")


def test_peel_of_zero():
    assert peel(LinComb(), _top_key, _top_above([])) == LinComb()
