"""Plane forests, codes, and the poset structure of the canonical labelling."""

from math import comb, factorial, prod

import pytest

from planehopf import fqsym
from planehopf.forests import (CodeError, b_plus, catalan_count, chain_tree,
                               corolla, enumerate_forests, enumerate_trees,
                               forest_code, forest_size, linear_extensions,
                               max_linear_extension, non_plane_class,
                               parse_code, parse_forest, parse_tree,
                               polish_code, reverse_polish_code, shapes,
                               singletons, tree_size)
from planehopf.lincomb import LinComb
from planehopf.perms import contains_132, inverse, inversions

from oracles import all_perms, strict_below_pairs


def subtree_sizes(f):
    """The size of the subtree at each node of ``f``."""
    return [s for t in f for s in subtree_sizes(t) + [tree_size(t)]]


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


@pytest.mark.parametrize("n", range(8))
def test_linear_extensions_order_ideals(n):
    # descendants before ancestors, no word twice, n!/prod of subtree sizes
    for f in enumerate_forests(n):
        below = strict_below_pairs(f)
        words = linear_extensions(f)
        assert len(set(words)) == len(words)
        assert len(words) == factorial(n) // prod(subtree_sizes(f))
        for w in words:
            assert sorted(w) == list(range(1, n + 1))
            pos = {v: k for k, v in enumerate(w)}
            assert all(pos[i] < pos[j] for i, j in below)


@pytest.mark.parametrize("n", range(7))
def test_max_extension_has_most_inversions(n):
    for f in enumerate_forests(n):
        words = linear_extensions(f)
        most = max(len(inversions(w)) for w in words)
        best = [w for w in words if len(inversions(w)) == most]
        assert best == [max_linear_extension(f)]


def test_max_extension_round_trip():
    # the quotient table maps the inverse of each maximal extension back to
    # its forest
    for n in range(1, 6):
        table = fqsym._quotient_table(n)
        for f in enumerate_forests(n):
            assert table[inverse(max_linear_extension(f))] == f


@pytest.mark.parametrize("n", range(8))
def test_max_extension_decoder_refuses_the_rest(n):
    # the 132-avoiders of S_n are exactly the keys of the quotient table,
    # each the inverse of the maximal extension of the forest it maps to;
    # every other permutation is absent
    table = fqsym._quotient_table(n)
    assert set(table) == {s for s in all_perms(n) if not contains_132(s)}
    for sigma, f in table.items():
        assert inverse(sigma) == max_linear_extension(f)


@pytest.mark.parametrize("word", [(1, 1), (2, 3), (0, 1), (1, 2, 4)])
def test_max_extension_decoder_refuses_non_permutations(word):
    # a word with no 132 pattern that is not in the table raises, rather
    # than being dropped from the quotient
    assert not contains_132(word)
    with pytest.raises(KeyError):
        fqsym.m_quotient(LinComb.monomial(word))


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


@pytest.mark.parametrize("n, count", enumerate(
    (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)))
def test_shapes_are_the_non_plane_classes(n, count):
    # one value per non-plane forest of size n (OEIS A000081(n + 1)), each
    # the forest's own class, keyed in enumeration order, equal shapes one
    # object
    table = shapes(n)
    assert list(table) == list(enumerate_forests(n))
    assert all(s == non_plane_class(f) for f, s in table.items())
    assert len(set(table.values())) == count
    assert len({id(s) for s in table.values()}) == count
