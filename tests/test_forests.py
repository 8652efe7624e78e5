"""Plane forests, codes, and the poset structure of the canonical labelling."""

from math import comb

import pytest

from planehopf.forests import (CodeError, b_plus, catalan_count, chain_tree,
                               corolla,
                               enumerate_forests, enumerate_trees, forest_code,
                               forest_from_max_extension, forest_size,
                               linear_extensions, max_linear_extension,
                               parse_code, parse_forest, parse_tree,
                               polish_code, reverse_polish_code, singletons,
                               strict_below_pairs, tree_size)


def test_code_round_trip():
    for n in range(0, 6):
        for f in enumerate_forests(n):
            assert parse_forest(forest_code(f)) == f
            assert forest_size(f) == n


def test_reverse_polish_is_reversed_polish():
    f = parse_forest("2010")
    assert polish_code(f) == (2, 0, 1, 0)
    assert reverse_polish_code(f) == (0, 1, 0, 2)


@pytest.mark.parametrize("bad", ["1", "20", "3", "0200x"])
def test_invalid_codes_rejected(bad):
    with pytest.raises(CodeError):
        parse_forest(bad)


def test_deep_codes():
    # codes are read, sized and written with no stack frame per level
    deep = (1,) * 2999 + (0,)
    f = parse_code(deep + (0, 1, 0))
    assert polish_code(f) == deep + (0, 1, 0)
    assert [tree_size(t) for t in f] == [3000, 1, 2]
    assert forest_size(f) == 3003


def test_negative_arity_rejected():
    with pytest.raises(CodeError, match="negative arity"):
        parse_code((1, -1, 0))


def test_empty_code_is_empty_forest():
    assert parse_forest("") == ()


def test_enumeration_counts():
    # plane forests with n nodes are counted by Catalan numbers
    for n in range(0, 8):
        assert len(enumerate_forests(n)) == comb(2 * n, n) // (n + 1)
    # plane trees with n nodes by the shifted Catalan numbers
    for n in range(1, 8):
        assert len(enumerate_trees(n)) == comb(2 * n - 2, n - 1) // n


def test_named_shapes():
    assert forest_code((chain_tree(3),)) == "110"
    assert forest_code((corolla(3),)) == "200"
    assert forest_code(singletons(3)) == "000"
    assert b_plus(singletons(2)) == corolla(3)
    assert tree_size(chain_tree(4)) == 4


def test_strict_below_pairs_cherry():
    # canonical postorder labelling: leaves 1, 2 below the root 3
    assert strict_below_pairs(parse_forest("200")) == {(1, 3), (2, 3)}


def test_linear_extensions_counts():
    # hook length formula for the forest poset
    f = parse_forest("200")
    assert len(linear_extensions(f)) == 2
    assert len(linear_extensions(parse_forest("110"))) == 1
    assert len(linear_extensions(singletons(3))) == 6


def test_max_extension_round_trip():
    for n in range(1, 6):
        for f in enumerate_forests(n):
            assert forest_from_max_extension(max_linear_extension(f)) == f


def test_parse_tree_rejects_forest():
    with pytest.raises(ValueError):
        parse_tree("00")


@pytest.mark.parametrize("n", range(10))
def test_catalan_count_matches_enumeration(n):
    count = len(enumerate_forests(n))
    assert len(enumerate_trees(n + 1)) == count
    assert catalan_count(n, count + 1) == count
    assert catalan_count(n, count) == count
    assert catalan_count(n, 2) == min(count, 2)


def test_catalan_count_stops_at_cap():
    # the walk stops at the cap, so a huge n costs no huge number
    assert catalan_count(10 ** 9, 10 ** 6 + 1) == 10 ** 6 + 1
