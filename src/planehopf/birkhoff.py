"""Birkhoff factorization of the generic character sigma_a and the
multiparameter Catalan elements.

The character phi(M_I) = a^n [I = (n)] of QSym is factorized as
phi+ = phi- * phi in the Rota-Baxter algebra of Laurent series, where
a = a(z) = sum of a_n z^(n-1) and P+ takes the polar part.  On trees the
factorization closes over the Tamari order:

    phi+(Y_T) = sum over F >= T of a_F z^(-r(F))

with a_F the product of the code letters of F and r(F) its number of roots.
The sum depends on each F only through r(F) and its arity multiset, so one
memo per shape, independent of a, counts the up-set of a forest by those
two; it is filled by the recursion of the up-sets without listing them,
one row per non-plane shape (OEIS A000081), from the rows of its parts.
``phi_plus_closed`` reads one tree's row; ``sigma_plus`` reads every X_F
coefficient of sigma_a^+ off the rows of the degree's shapes, with no
Laurent products, one power product per multiset and one sum per row;
the ``phi_plus`` recursion is kept as its oracle.  Setting z = 1 gives the
grouplike series C = sum of a_G C_G; the residue at z = 0 gives the
primitive series D = sum over trees of a_T C_T, whose homogeneous pieces
split into the quasi-idempotents D_lambda.

The ribbon expansion of sigma_a^+ (the tests keep the S and Lambda ones)
comes from one walk over the iterated Rota-Baxter brackets P^I_eps and,
combinatorially, from the word sets W(I) and S(I) whose cardinalities are
products of Catalan numbers.  The ribbon expansion of D_lambda is read
from the word model: the residue keeps the words of sum n-1, and those
with letters lambda padded with zeros are counted by their ribbon I.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb, inf

from .compositions import (compositions_of, descent_set, from_descent_mask,
                           refinements, sign_word, weight)
from .forests import (CodeError, Forest, Tree, catalan_count,
                      non_plane_class, parse_code, shapes)
from .hopf import c_expand
from .laurent import LaurentPoly
from .lincomb import LinComb
from .polynomials import MultiPoly


# ---------------------------------------------------------------------------
# The series a(z)

def a_var(k: int) -> MultiPoly:
    return MultiPoly.var(f"a{k}")


def a_series(terms: int) -> LaurentPoly:
    """a(z) = sum of a_n z^(n-1) with symbolic coefficients, truncated after
    a_terms, an exact Laurent polynomial.  Keeping terms >= n makes every
    polar-part coefficient of the degree-n factorization exact (a monomial
    a_{k_1}..a_{k_n} has z-exponent sum(k_j) - n, so letters above n never
    reach the polar side)."""
    return LaurentPoly({k - 1: a_var(k) for k in range(terms + 1)})


def a_series_ab(terms: int) -> LaurentPoly:
    """The specialization a(z) = a/z + b/(1-z), truncated like a_series."""
    coeffs = {-1: MultiPoly.var("a")}
    for k in range(1, terms + 1):
        coeffs[k - 1] = MultiPoly.var("b")
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# The factorized character

def phi_plus(f: Forest, a: LaurentPoly) -> LaurentPoly:
    """phi+(Y_F); multiplicative over the trees of the forest."""
    out = LaurentPoly.const(1)
    for t in f:
        out = out * _phi_plus_tree(t, a)
    return out


def _phi_plus_tree(t: Tree, a: LaurentPoly) -> LaurentPoly:
    """phi+(Y_T) = P+(phi+(Y_F) a) for T = B+(F)."""
    return (phi_plus(tuple(t), a) * a).polar_part()


def phi_plus_closed(t: Tree, a: LaurentPoly) -> LaurentPoly:
    """phi+(Y_T) by the Tamari formula: sum over F >= T of a_F z^(-r(F)),
    read off the root-count row of T."""
    _refuse_double_pole(a)
    row = _root_row(non_plane_class((t,)))[1]
    return _row_sum(row, _multiset_weights(a, row))


def sigma_plus(n: int, a: LaurentPoly) -> LinComb:
    """Degree-n part of sigma_a^+ as an X-basis element with Laurent
    coefficients, read from the Tamari formula: the X_F coefficient is
    phi+(Y_F) = sum over G >= F of a_G z^(-r(G)), the sum of
    count * a^m z^(-r) over the root-count row W(F).  ``phi_plus`` is the
    recursive oracle of the same values.  Each shape's row is summed once,
    and the forests of that shape share its ``LaurentPoly``."""
    _refuse_double_pole(a)
    index = shapes(n)
    rows = [_root_row(s) for s in index.shapes]
    weights = _multiset_weights(a, (key for key, _ in rows))
    return LinComb(index.spread([_row_sum(row, weights) for _, row in rows]))


def series_c(n: int, a: LaurentPoly) -> LinComb:
    """Degree-n part of C = sigma_a^+ at z = 1, in the C basis."""
    _refuse_double_pole(a)
    index = shapes(n)
    keys = [_root_row(s)[0] for s in index.shapes]
    weights = _multiset_weights(a, keys)
    return LinComb(index.spread([weights[key >> _DIGIT] for key in keys]))


def series_d(n: int, a: LaurentPoly) -> LinComb:
    """Degree-n part of D = Res sigma_a^+, in the C basis: the trees of C."""
    return LinComb({g: c for g, c in series_c(n, a).items() if len(g) == 1})


# ---------------------------------------------------------------------------
# The root-count rows
#
# A forest G enters the Tamari formula only through its root count r(G) and
# its arity multiset m(G), m_k the number of nodes with k children, since
# a_G = prod of a_k^(m_k).  The pair is one integer key: r in the low digit
# and m_k in digit k + 1, each digit _DIGIT bits wide.  No digit exceeds the
# degree, so the key of a concatenation is the sum of the keys.

_DIGIT = 16
_MASK = (1 << _DIGIT) - 1


@lru_cache(maxsize=None)
def _root_row(shape: Forest) -> tuple[int, dict[int, int]]:
    """(key, W) for a non-plane shape S: the key of a forest F of shape S,
    and W(F), which counts the G >= F in the Tamari order by root count and
    arity multiset.  It follows the recursion of the Tamari up-sets: W(T.G)
    is the convolution of W(T) and W(G), and each (r, m) of W(H) gives
    (s, m + {r - s + 1}) in W(B+(H)) for s = 1..r+1, the forests
    G1 . B+(G2) that split G >= H after s - 1 roots; s = 1 is B+(H) itself.
    The counts do not depend on a(z), so one row serves every series, and
    the forests of one shape share one (key, row) pair, as the convolution
    is commutative: a tree reads its children's shape S[0], any other shape
    S[:1] and S[1:]."""
    if not shape:
        return 0, {0: 1}
    acc: dict[int, int] = {}
    if len(shape) == 1:
        key, row = _root_row(shape[0])
        for k, count in row.items():
            for s in range(1, (k & _MASK) + 2):
                g = _grafted(k, s)
                acc[g] = acc.get(g, 0) + count
        return _grafted(key, 1), acc
    key1, row1 = _root_row(shape[:1])
    key2, row2 = _root_row(shape[1:])
    for k1, c1 in row1.items():
        for k2, c2 in row2.items():
            acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    return key1 + key2, acc


def _grafted(key: int, s: int) -> int:
    """The key of G1 . B+(G2), for G of key ``key`` split after s - 1 roots:
    s roots, and one more node with r(G) - s + 1 children."""
    r = key & _MASK
    return key - r + s + (1 << (_DIGIT * (r - s + 2)))


def _refuse_double_pole(a: LaurentPoly) -> None:
    """The Tamari formula holds for any a(z) = sum over k >= 0 of
    a_k z^(k-1), so a z-exponent below -1 is refused."""
    if a.coeffs and min(a.coeffs) < -1:
        raise ValueError("the Tamari formula needs a(z) with no z-exponent "
                         f"below -1, got z^{min(a.coeffs)}")


def _multiset_weights(a: LaurentPoly, keys) -> dict[int, MultiPoly]:
    """key >> _DIGIT -> a^m = prod of a_k^(m_k), with a_k the z^(k-1)
    coefficient of a, once per distinct arity multiset m of ``keys``."""
    out = {}
    for m in {key >> _DIGIT for key in keys}:
        w, k, rest = MultiPoly.const(1), 0, m
        while rest:
            if rest & _MASK:
                w = w * a.coefficient(k - 1) ** (rest & _MASK)
            rest >>= _DIGIT
            k += 1
        out[m] = w
    return out


def _row_sum(row: dict[int, int], weights: dict) -> LaurentPoly:
    """Sum of count * a^m z^(-r) over a root-count row, each z-power added
    up in one dict."""
    groups: dict[int, dict] = {}
    for key, count in row.items():
        acc = groups.setdefault(-(key & _MASK), {})
        for mono, c in weights[key >> _DIGIT].coeffs.items():
            acc[mono] = acc.get(mono, 0) + count * c
    return LaurentPoly({e: MultiPoly(acc) for e, acc in groups.items()})


# ---------------------------------------------------------------------------
# D_lambda

def d_lambda(lam: tuple[int, ...]) -> LinComb:
    """D_lambda in the C basis: the sum of C_T over the trees whose codes are
    arrangements of lambda padded with zeros to length n = |lambda| + 1.
    By the cycle lemma one arrangement in n parses as a tree."""
    out = {}
    for code in _arrangements(lam):
        try:
            out[parse_code(code)] = 1
        except CodeError:
            continue
    return LinComb(out)


def d_lambda_x(lam: tuple[int, ...]) -> LinComb:
    """D_lambda expanded in the X basis."""
    return c_expand(d_lambda(lam))


def d_lambda_ribbon(lam: tuple[int, ...]) -> LinComb:
    """D_lambda in the ribbon basis of Sym, read from the word model.

    D_lambda is the coefficient of a_0^(n-l) a_lambda in the residue of
    sigma_a^+, whose R_I coefficient is (-1)^(l(I)-1) times the generating
    sum of W(I).  The residue collects the words of sum n-1, so the R_I
    coordinate is (-1)^(l(I)-1) times the number of arrangements of lambda
    padded with zeros to length n that lie in W(I)."""
    counts = Counter(map(ribbon_from_word, _arrangements(lam)))
    return LinComb((i, (-1) ** (len(i) - 1) * c)
                   for i, c in counts.items())


def _arrangements(lam: tuple[int, ...]):
    """The distinct words of lambda padded with zeros to length |lambda| + 1,
    in lexicographic order: next-permutation steps, with no recursion."""
    w = sorted(lam + (0,) * (sum(lam) + 1 - len(lam)))
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = reversed(w[i + 1:])


def arrangement_count(lam: tuple[int, ...], cap: int) -> int:
    """The number of words ``_arrangements`` lists, the multinomial
    n! / ((n - l)! m_1! m_2! ...) for n = |lambda| + 1 and the
    multiplicities m_k of the parts, or ``cap`` if it is at least ``cap``.
    It is a product of binomials, one per part value, and stops at the cap."""
    left, count = sum(lam) + 1, 1
    for mult in Counter(lam).values():
        if count >= cap:
            break
        count = min(count * comb(left, mult), cap)
        left -= mult
    return count


# ---------------------------------------------------------------------------
# Iterated Rota-Baxter brackets and basis expansions

def sigma_plus_ribbon(n: int, a: LaurentPoly) -> LinComb:
    """sigma_a^+ in the ribbon basis: 1 + sum over sign words eps of
    P_{eps,+}(a) R_{eps .}, with R_{eps .} = (-1)^(l(I)-1) R_I.

    One walk builds the brackets of all sign words level by level: each
    prefix is multiplied by a once and split by ``polar_split``.  With
    ``left`` products to come, each raising the z-exponent by at least the
    least exponent ``low`` of a, a term z^e with e + left * low >= 0 cannot
    reach the final polar part, so it is dropped; this is exact for any a."""
    if not n:
        return LinComb.monomial((), LaurentPoly.const(1))
    low = min(a.coeffs, default=0)
    level = {"": LaurentPoly.const(1)}
    for left in range(n - 1, 0, -1):
        level = {eps + s: LaurentPoly({e: c for e, c in part.coeffs.items()
                                       if e + left * low < 0})
                 for eps, value in level.items()
                 for s, part in zip("+-", (value * a).polar_split())}
    return LinComb((i, (level[sign_word(i)[:-1]] * a).polar_part()
                    * (-1) ** (len(i) - 1)) for i in compositions_of(n))


# ---------------------------------------------------------------------------
# Word models

def words_w(i: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """W(I): words w over nonnegative integers with partial sums w_1..k >= k
    exactly at the descents of I (and < k elsewhere, including k = n)."""
    n = weight(i)
    descents = descent_set(i)
    # partial sums never decrease, so the k-th one lies below the next
    # non-descent j >= k
    below = [0] * (n + 1)
    for k in range(n, 0, -1):
        below[k] = below[k + 1] if k in descents else k
    return _partial_sum_words(n, lambda k, total: (
        max(total, k) if k in descents else total, below[k]))


def words_s(i: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """S(I): partial sums >= d at the descents d of I, and total < n."""
    n = weight(i)
    if not n:
        return ()  # the empty word has total 0, not < 0
    descents = descent_set(i)
    return _partial_sum_words(n, lambda k, total: (
        max(total, k) if k in descents else total, n))


def _partial_sum_words(n: int, bounds) -> tuple[tuple[int, ...], ...]:
    """The words of length n whose k-th partial sum lies in the range
    bounds(k, previous partial sum), in lexicographic order.  The bounds
    must leave every prefix extendable, so that each branch of the explicit
    stack ends in a word."""
    if not n:
        return ((),)
    out = []
    sums = [0]
    stack = [iter(range(*bounds(1, 0)))]
    while stack:
        depth = len(stack)
        total = next(stack[-1], None)
        if total is None:
            stack.pop()
            continue
        del sums[depth:]
        sums.append(total)
        if depth == n:
            out.append(tuple(b - a for a, b in zip(sums, sums[1:])))
        else:
            stack.append(iter(range(*bounds(depth + 1, total))))
    return tuple(out)


def ribbon_from_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """The unique composition I with w in W(I)."""
    n = len(w)
    if sum(w) >= n:
        raise ValueError(f"not a contributing word (sum must be < {n}): {w}")
    mask = 0
    for k, total in enumerate(accumulate(w[:-1]), start=1):
        if total >= k:
            mask |= 1 << k - 1
    return from_descent_mask(mask, n)


def catalan_block_count(i: tuple[int, ...]) -> int:
    """|W(I)| as the product of Catalan numbers of the sign-block lengths."""
    return word_count(i, "W", inf)


def word_count(i: tuple[int, ...], model: str, cap: int) -> int:
    """|W(I)| or |S(I)|, the number of words ``words_w`` or ``words_s``
    lists, or ``cap`` if it is at least ``cap``.  S(I) is the disjoint union
    of W(J) over the J finer than I; it contains W(1^n), of size C_(n-1),
    so when that alone reaches the cap the refinements are not summed."""
    if model == "S":
        if catalan_count(weight(i) - 1, cap) == cap:
            return cap
        return min(sum(word_count(j, "W", cap) for j in refinements(i)), cap)
    count = 1
    for _, block in groupby(sign_word(i)):
        count = min(count * catalan_count(len(list(block)), cap), cap)
    return count
