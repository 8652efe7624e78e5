"""The Tamari order on plane forests: recursion, covers, and the
letter-append code process."""

import sys

import pytest

from planehopf import tamari
from planehopf.checks import suite_tamari
from planehopf.forests import (corolla, enumerate_forests, enumerate_trees,
                               forest_code, parse_forest, polish_code,
                               singletons)

from oracles import rotation_covers, upset_words


def codes(forests):
    return sorted(forest_code(f) for f in forests)


def test_upset_cherry():
    up = tamari.upset(parse_forest("200"))
    assert codes(up) == ["000", "010", "200"]


def test_upset_chain3_size():
    assert len(tamari.upset(parse_forest("110"))) == 5


def test_upset_words_1200():
    # the letter-append process on the tree with reverse Polish code 0021
    t = parse_forest("1200")[0]
    assert sorted(upset_words(t)) == [
        "0000", "0001", "0002", "0003", "0020",
        "0021", "0100", "0101", "0102"]


def test_upset_words_match_upset_commutatively():
    # the words carry the code-letter multiset (hence the a-monomial and the
    # root count) of each element of the up-set, for all trees n <= 6
    for n in range(1, 7):
        for t in enumerate_trees(n):
            words = sorted(tuple(sorted(w)) for w in upset_words(t))
            ups = sorted(tuple(sorted(str(c) for c in polish_code(g)))
                         for g in tamari.upset((t,)))
            assert words == ups


def test_upset_1200_exact():
    up = tamari.upset(parse_forest("1200"))
    assert codes(up) == ["0000", "0010", "0100", "0110", "0200",
                         "1200", "2000", "2010", "3000"]
    # the trees in the up-set carry reverse Polish codes 0021, 0102, 0003
    assert codes(g for g in up if len(g) == 1) == ["1200", "2010", "3000"]


def test_singletons_are_maximum():
    for n in range(1, 6):
        top = singletons(n)
        for f in enumerate_forests(n):
            assert tamari.leq(f, top)


def test_covers_closure_matches_upset():
    assert suite_tamari(5) == []


def test_suite_reports_a_downset_missing_a_forest(monkeypatch):
    f = parse_forest("1200")
    downset = tamari.downset
    monkeypatch.setattr(tamari, "downset", lambda g: downset(g) - {f})
    # 1200 is missing from its own down-set and from those of the forests
    # above it
    assert sorted(suite_tamari(4)) == [f"downset mismatch at {code}"
                                       for code in codes(tamari.upset(f))]


def test_cover_of_1200():
    assert codes(tamari.covers(parse_forest("1200"))) == ["2000", "2010"]


@pytest.mark.parametrize("n", range(8))
def test_covers_match_rotations(n):
    for f in enumerate_forests(n):
        assert tamari.covers(f) == rotation_covers(f)


def test_downset_corolla():
    # every plane tree sits below the corolla; nothing else does
    down = tamari.downset((corolla(4),))
    assert down == frozenset((t,) for t in enumerate_trees(4))
    assert len(down) == 5


@pytest.mark.parametrize("n", range(1, 8))
def test_downset_matches_upset_scan(n):
    # the down-set recursion against the scan of every forest of the size
    # whose up-set holds F
    for f in enumerate_forests(n):
        assert tamari.downset(f) == frozenset(
            g for g in enumerate_forests(n) if f in tamari.upset(g))


@pytest.mark.parametrize("n", range(7))
def test_leq_matches_upset(n):
    # the subtree-size criterion against membership in the up-set
    for f in enumerate_forests(n):
        up = tamari.upset(f)
        for g in enumerate_forests(n):
            assert tamari.leq(f, g) == (g in up)


def test_leq_unequal_sizes():
    assert not tamari.leq(parse_forest("0"), parse_forest("00"))
    assert not tamari.leq(parse_forest("00"), parse_forest("0"))
    assert not tamari.leq((), parse_forest("0"))


def test_sizes_postorder():
    assert tamari.sizes(parse_forest("1200")) == [1, 1, 3, 4]
    assert tamari.sizes(parse_forest("0100")) == [1, 1, 2, 1]
    assert tamari.sizes(()) == []


def test_leq_on_a_chain_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 500
    chain, top = parse_forest("1" * (n - 1) + "0"), singletons(n)
    assert tamari.sizes(chain) == list(range(1, n + 1))
    assert tamari.leq(chain, top)
    assert not tamari.leq(top, chain)


def test_leq_reflexive_antisymmetric():
    for f in enumerate_forests(4):
        assert tamari.leq(f, f)
    f, g = parse_forest("1100"), parse_forest("0100")
    assert tamari.leq(f, g)
    assert not tamari.leq(g, f)


@pytest.mark.parametrize("n", range(1, 6))
def test_upset_product_form(n):
    # the up-set of a forest is the concatenation product of tree up-sets
    for f in enumerate_forests(n):
        if len(f) < 2:
            continue
        heads = tamari.upset((f[0],))
        tails = tamari.upset(f[1:])
        assert tamari.upset(f) == frozenset(h + t for h in heads
                                            for t in tails)
