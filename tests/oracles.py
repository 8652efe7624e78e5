"""Reference routes kept for the tests only.

The A/(1-q) transform as a product: S^I(A/(1-q)) is the ribbon product of
the S_{i_k}(A/(1-q)), each the sum of q^maj(J) R_J / (q)_{i_k}, with every
product and sum reduced to lowest terms again.  The library reads each
ribbon's coefficient off one formula instead.

The q-series term by term: ``over_one_minus_q`` builds one quotient of
products of 1 - q^k and reduces it, and the evaluations of QSym on
{1, q, q^2, ...} and on the (q, t) alphabet add one such RationalFn at a
time, each partial sum put over a new common denominator and reduced again.
The library puts every term of a sum over one cyclotomic denominator and
reduces once.

The symmetric group algebra: a ribbon element of degree n is sent to the
group algebra of S_n, R_I going to the sum of the permutations with descent
composition I, and squared by convolution.  That costs n!^2 steps, so it is
capped at ``MAX_GROUP_DEGREE``; the library squares inside the descent
algebra instead, and the tests compare the two.

Packed words: the points of the dilated order polytope of a forest poset,
read as packed words, give a word-indexed lift of Gamma_F.  The sign change
of alphabet M_u(-A) = (-1)^max(u) sum of M_v over the merges v of u turns
the weak words into the strict ones, which lifts Ehrhart reciprocity.  The
q-counts are also read off the points one by one, and off Gamma_F and
chi_F on finite geometric alphabets.

The forest poset by labels: the postorder labels of a forest as nested
(label, children) pairs, the strict order relations among them, the scan of
every candidate point of a dilated order polytope, and the Tamari covers
as one rotation at each node.  The library recurses on the nested tuple
instead: the points tree by tree, the covers through each children forest.

Grafting: the trees made by grafting a forest on the nodes of a tree, in
planar order, enumerated directly.  The library reads the brace product off
the cut table of the X product instead, and the tests compare the two.

The Tamari up-sets: the X_F coefficient of sigma_a^+ as the sum of
a_G z^(-r(G)) over the up-set of F, each a_G the product of the code
letters of G.  The library reads the same sums off a table of root counts
and arity multisets instead.

The Moebius recursions of the two unitriangular basis changes: X_F in
the C basis is X_F minus the expansions of every X_G with G < F in C_F, and
F_sigma in the M basis likewise over the left weak order, each memoized
per label.  The library peels a whole combination top down instead.  The
left weak order itself by a scan of every permutation of the length,
comparing inversion sets; the library walks the covers instead.

Primitivity from the whole S-basis coproduct, built by nested products
of the Delta S_n.  The library reads the same pairs off the rows of the
Mackey table, in the degrees k <= n/2 only; the rows themselves are also
kept here as a filter over every candidate row.

The iterated Rota-Baxter brackets one sign word at a time: P^I_eps(a) by
alternate products and projections, and sigma_a^+ in the S, Lambda and
ribbon bases from them.  The library builds the ribbon brackets of every
sign word in one walk instead, each prefix multiplied by a once.

The order polynomial Gamma_F(alpha) by reciprocity: the strict order
polynomial chi_T of each tree is the discrete integral, by Bernoulli
polynomials, of the product of its children's, and Gamma_F(alpha) is
(-1)^|F| times the product of the chi_T(-alpha).  The library interpolates
the Ehrhart polynomial through |F| + 1 point counts instead.  Gamma_F
interpolated the same way, one forest at a time: the library reads each
[alpha^k] Gamma_F as one integer row dotted with the forest's counts.

The quasi-idempotent check on the Fraction coefficients of the S basis.
The library scales them to integers by their common denominator first.

The labelling counts as sparse sums: Gamma of the shape summed over the
submasks of D(I), or over the masks that contain its complement, and the
subset and superset sums of a row entry by entry.  The library reads each
count as one entry of a row that a packed shift-and-add transform fills.

Also kept here: Gaussian elimination over Fraction, S_n((1-q)A) and Psi_n
as the limit of S_n((1-q)A)/(1-q) at q = 1, the lattice-path encoding of
words, and routes that no library code calls: every permutation of a
length, standardization and the F coproduct, S^sigma in the F basis, the
ribbon and quasi-shuffle products, the S/M pairing, the minus alphabet in
the M and F bases, chi_F in QSym, the evaluation on alpha ones, and
compositions from descent sets (the library keys them by int masks), the
descent composition of a permutation and the complement of a composition;
and helpers only the tests call: the reverse Polish code, the automorphism
count of a non-plane tree, the letter-append words of a Tamari up-set, the
preLie product and the x_tau elements, and Ehrhart reciprocity.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, permutations
from itertools import product as iter_product
from math import comb, factorial
from operator import mul, sub

from planehopf import fqsym, perms, tamari
from planehopf.compositions import (coarsenings, compositions_of, descent_mask,
                                    descent_set, maj, sign_word, submasks,
                                    weight)
from planehopf.ehrhart import _counts, ehrhart_polynomial, lattice_points
from planehopf.forests import (Forest, Tree, enumerate_forests,
                               enumerate_trees, forest_size, non_plane_class,
                               polish_code)
from planehopf.hopf import brace
from planehopf.laurent import LaurentPoly
from planehopf.idempotents import internal_product
from planehopf.lincomb import LinComb, bilinear
from planehopf.ncsf import _gamma, eval_geometric, gamma_qsym_m, r_to_s
from planehopf.polynomials import MultiPoly, RationalFn, interpolate

PackedWord = tuple[int, ...]

MAX_GROUP_DEGREE = 6


def over_one_minus_q(num, den_ks, num_ks=()) -> RationalFn:
    """num * prod_{k in num_ks} (1 - q^k) / prod_{k in den_ks} (1 - q^k),
    multiplied out and reduced by RationalFn.  A factor 1 - q^0 = 0 makes
    the value 0 above the bar and raises ZeroDivisionError below it."""
    if any(k < 0 for k in (*den_ks, *num_ks)):
        raise ValueError(f"negative k in 1 - q^k: {den_ks}, {num_ks}")
    q = MultiPoly.var("q")
    return RationalFn(
        reduce(mul, (1 - q ** k for k in num_ks), MultiPoly.coerce(num)),
        reduce(mul, (1 - q ** k for k in den_ks), MultiPoly.const(1)))


def eval_geometric_inf_pairwise(a: LinComb) -> RationalFn:
    """M_I on {1, q, q^2, ...}, one RationalFn per term, summed pairwise."""
    return sum((_even_factor(i) * c for i, c in a.terms.items()),
               RationalFn(0))


def eval_xqt_pairwise(a: LinComb) -> RationalFn:
    """M_I on the (q, t) alphabet as the product of an even prefix and an
    odd suffix factor, summed pairwise."""
    return sum((_even_factor(i[:cut]) * _odd_part_factor(i[cut:]) * c
                for i, c in a.terms.items() for cut in range(len(i) + 1)),
               RationalFn(0))


def _even_factor(i: tuple[int, ...]) -> RationalFn:
    q = MultiPoly.var("q")
    return over_one_minus_q(
        q ** sum((k - 1) * part for k, part in enumerate(i, start=1)),
        [sum(i[k:]) for k in range(len(i))])


def _odd_part_factor(i: tuple[int, ...]) -> RationalFn:
    """Contribution of the odd letters q^j t (j >= 1), taken with strictly
    decreasing j along the blocks; within a block the letters coincide."""
    q = MultiPoly.var("q")
    t = MultiPoly.var("t")

    def blockings(parts):
        if not parts:
            yield ()
            return
        for cut in range(1, len(parts) + 1):
            for rest in blockings(parts[cut:]):
                yield (parts[:cut],) + rest

    def term(blocks):
        sizes = [sum(block) for block in blocks]
        num_exp = sum((len(blocks) - m) * size for m, size in enumerate(sizes))
        return over_one_minus_q((-1) ** len(i) * q ** num_exp * t ** weight(i),
                                list(accumulate(sizes)))

    return sum(map(term, blockings(i)), RationalFn(0))


def product_s_n_over_1mq(n: int) -> LinComb:
    """S_n(A/(1-q)) in the ribbon basis:
    sum over I of q^maj(I) R_I / ((1-q)(1-q^2)...(1-q^n))."""
    q = MultiPoly.var("q")
    return LinComb({i: over_one_minus_q(q ** maj(i), range(1, n + 1))
                    for i in compositions_of(n)})


def product_transform_over_1mq(a: LinComb) -> LinComb:
    """A -> A/(1-q) on an S-basis element, as a product of the
    S_{i_k}(A/(1-q)) for each S^I; output in the ribbon basis."""
    one = LinComb.monomial((), RationalFn(1))
    return LinComb((j, RationalFn.coerce(c) * cj) for i, c in a.terms.items()
                   for j, cj in reduce(r_product, map(product_s_n_over_1mq, i),
                                       one).items())


class GroupDegreeGuard(ValueError):
    """Raised when a symmetric-group-algebra computation exceeds the cap."""


def beta(a, n: int) -> dict:
    """Send a ribbon element to the group algebra of S_n:
    R_I -> sum of the permutations with descent set D(I)."""
    out: dict = {}
    classes: dict = {}
    for sigma in all_perms(n):
        classes.setdefault(perms.descents(sigma), []).append(sigma)
    for i, c in a.terms.items():
        if weight(i) != n:
            raise ValueError(f"composition {i} is not of weight {n}")
        for sigma in classes.get(descent_set(i), []):
            s = out.get(sigma, 0) + c
            if s:
                out[sigma] = s
            else:
                out.pop(sigma, None)
    return out


def group_product(x: dict, y: dict) -> dict:
    """Convolution product in the group algebra (left factor acts after)."""
    out: dict = {}
    for p, cp in x.items():
        for q, cq in y.items():
            r = tuple(p[q[k] - 1] for k in range(len(q)))
            s = out.get(r, 0) + cp * cq
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


def group_quasi_idempotent_check(a, n: int) -> tuple[bool, int | Fraction]:
    """Whether beta(a)^2 = c beta(a) for some scalar c; returns (ok, c)."""
    if n > MAX_GROUP_DEGREE:
        raise GroupDegreeGuard(
            f"group algebra check needs degree {n} > {MAX_GROUP_DEGREE}")
    b = beta(a, n)
    if not b:
        return True, 0
    square = group_product(b, b)
    pivot = next(iter(b))
    c = Fraction(square.get(pivot, 0), b[pivot])
    scaled = {sigma: coeff * c for sigma, coeff in b.items() if coeff * c}
    return square == scaled, c


def fraction_quasi_idempotent_check(a, n: int) -> tuple[bool, int | Fraction]:
    """(ok, c): whether a * a = c a, squared in the descent algebra on the
    Fraction coefficients of a in the S basis, not scaled to integers."""
    for i in a.terms:
        if weight(i) != n:
            raise ValueError(f"composition {i} is not of weight {n}")
    s = r_to_s(a)
    if not s:
        return True, 0
    square = internal_product(s, s)
    pivot = next(iter(s.terms))
    c = Fraction(square.coeff(pivot), s.terms[pivot])
    return square == s.scale(c), c


# ---------------------------------------------------------------------------
# The forest poset by labels

def reverse_polish_code(f: Forest) -> tuple[int, ...]:
    """Reverse Polish code: equals the Polish code read backwards."""
    return tuple(reversed(polish_code(f)))


def aut_order(tau) -> int:
    """|Aut| of a canonical non-plane tree: product over nodes of the
    factorials of multiplicities of identical child subtrees."""
    return reduce(mul, (factorial(m) * aut_order(c) ** m
                        for c, m in Counter(tau).items()), 1)


def labelling_count(f: Forest, i: tuple[int, ...], strict: bool = False) -> int:
    """Labellings of F with evaluation I, |I| = |F|, weakly (or strictly)
    increasing toward the roots: Gamma of the shape summed over the
    submasks of D(I), or over the masks that contain its complement."""
    x, full = descent_mask(i), (1 << max(weight(i) - 1, 0)) - 1
    masks = submasks(x, full & ~x) if strict else submasks(x)
    row = _gamma(non_plane_class(f))
    return sum(row[m] for m in masks if m < len(row))


def subset_sums(row: list[int], strict: bool = False) -> list[int]:
    """Entry x: the sum of row[m] over the submasks m of x, or with
    ``strict`` over the masks m that contain the complement of x."""
    full = len(row) - 1
    return [sum(c for m, c in enumerate(row)
                if (full & ~m & ~x if strict else m & ~x) == 0)
            for x in range(len(row))]


def labelled_forest(f: Forest) -> tuple:
    """Mirror of ``f`` with nodes replaced by (label, children) pairs."""
    counter = [0]

    def walk(t: Tree):
        kids = tuple(walk(c) for c in t)
        counter[0] += 1
        return (counter[0], kids)

    return tuple(walk(t) for t in f)


def strict_below_pairs(f: Forest) -> set[tuple[int, int]]:
    """All (i, j) with i strictly below j in the forest poset (roots maximal)."""
    pairs: set[tuple[int, int]] = set()

    def walk(node, above: tuple[int, ...]) -> None:
        label, kids = node
        pairs.update((label, j) for j in above)
        for k in kids:
            walk(k, above + (label,))

    for t in labelled_forest(f):
        walk(t, ())
    return pairs


def scan_lattice_points(f: Forest, n: int,
                        interior: bool = False) -> list[tuple[int, ...]]:
    """The points of ``ehrhart.lattice_points``: every candidate point of
    {0..n}^|F| (of {1..n-1}^|F| for interior points) that satisfies each
    inequality of the poset."""
    below = strict_below_pairs(f)
    lo, hi = (1, n - 1) if interior else (0, n)
    out = []
    for x in iter_product(range(lo, hi + 1), repeat=forest_size(f)):
        if interior:
            if all(x[i - 1] < x[j - 1] for i, j in below):
                out.append(x)
        elif all(x[i - 1] <= x[j - 1] for i, j in below):
            out.append(x)
    return out


def interior_count_poly(f: Forest, n: int):
    """(-1)^|F| E(-n), the reciprocity prediction for interior points."""
    e = ehrhart_polynomial(f)
    val = e.substitute({"x": -n}).as_constant()
    return (-1) ** forest_size(f) * val


def reciprocity_check(f: Forest, n: int) -> bool:
    """Interior points of the n-th dilation against (-1)^|F| E(-n)."""
    return interior_count_poly(f, n) == len(lattice_points(f, n, interior=True))


def rotation_covers(f: Forest) -> frozenset[Forest]:
    """The covers of ``tamari.covers`` by their definition: at each non-leaf
    node, its leftmost child subtree moves out as the sibling just left of
    it (as a new root just left of it, when the node is a root)."""
    out: set[Forest] = set()

    def tree_moves(t: Tree):
        for i, c in enumerate(t):
            if c:
                yield t[:i] + (c[0], c[1:]) + t[i + 1:]
            for moved in tree_moves(c):
                yield t[:i] + (moved,) + t[i + 1:]

    for i, t in enumerate(f):
        if t:
            out.add(f[:i] + (t[0], t[1:]) + f[i + 1:])
        for moved in tree_moves(t):
            out.add(f[:i] + (moved,) + f[i + 1:])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Packed words and point-by-point q-counts

def packed_words(n: int) -> tuple[PackedWord, ...]:
    """All words on {1..m} of length n using every letter up to their max."""
    out = []
    for w in iter_product(range(1, n + 1), repeat=n):
        m = max(w) if w else 0
        if set(w) == set(range(1, m + 1)):
            out.append(w)
    return tuple(out)


def gamma_wqsym(f: Forest, signed: bool = False) -> LinComb:
    """Word generating function of the forest poset: all packed words with
    u_i <= u_j for i below j (strict inequalities for the signed variant,
    which equals (-1)^n times the function of the sign-changed alphabet)."""
    below = strict_below_pairs(f)
    out = {}
    for u in packed_words(forest_size(f)):
        if signed:
            ok = all(u[i - 1] < u[j - 1] for i, j in below)
        else:
            ok = all(u[i - 1] <= u[j - 1] for i, j in below)
        if ok:
            out[u] = 1
    return LinComb(out)


def word_merges(u: PackedWord) -> tuple[PackedWord, ...]:
    """All coarsenings of u: merge adjacent blocks (consecutive letter
    values) and repack."""
    m = max(u) if u else 0
    out = []
    # choose which of the m-1 boundaries between consecutive values survive
    for mask in iter_product((0, 1), repeat=max(m - 1, 0)):
        group = [1] * (m + 1)
        g = 1
        for k in range(2, m + 1):
            if mask[k - 2]:
                g += 1
            group[k] = g
        out.append(tuple(group[x] for x in u))
    return tuple(out)


def minus_alphabet(a: LinComb) -> LinComb:
    """Sign change of alphabet on a packed-word expansion:
    M_u(-A) = (-1)^max(u) sum of M_v over merges v of u."""
    return LinComb((v, (-1) ** (max(u) if u else 0) * c)
                   for u, c in a.terms.items() for v in word_merges(u))


def signed_gamma_by_transform(f: Forest) -> LinComb:
    """(-1)^n Gamma(-A) computed by the merge formula; must agree with the
    strict-word route of gamma_wqsym(f, signed=True)."""
    n = forest_size(f)
    return minus_alphabet(gamma_wqsym(f)).scale((-1) ** n)


def word_to_composition(u: PackedWord) -> tuple[int, ...]:
    """Commutative image: the composition counting each letter value."""
    m = max(u) if u else 0
    return tuple(sum(1 for x in u if x == k) for k in range(1, m + 1))


def wqsym_to_qsym(a: LinComb) -> LinComb:
    """Project a packed-word expansion to the monomial basis of QSym."""
    return LinComb((word_to_composition(u), c) for u, c in a.terms.items())


def q_count_points(f: Forest, n: int, interior: bool = False) -> dict[int, int]:
    """The q-count of ``ehrhart.q_count`` by direct point enumeration."""
    out: dict[int, int] = {}
    sign = (-1) ** forest_size(f) if interior else 1
    for x in lattice_points(f, n, interior=interior):
        e = sum(x)
        e = -e if interior else e
        out[e] = out.get(e, 0) + sign
    return {e: c for e, c in out.items() if c}


def q_count_qsym(f: Forest, n: int, interior: bool = False) -> dict[int, int]:
    """The q-count of ``ehrhart.q_count`` from QSym.  Boundary: Gamma_F on
    the alphabet {1, q, ..., q^n}, one letter per coordinate value 0..n.
    Interior: chi_F on {1, q, ..., q^(n-2)}, each exponent shifted by |F|
    (coordinate values 1..n-1) and negated, with the sign (-1)^|F|."""
    if not interior:
        return q_exponents(eval_geometric(gamma_qsym_m(f), n + 1))
    size = forest_size(f)
    return {-(size + e): (-1) ** size * c for e, c in
            q_exponents(eval_geometric(chi_qsym_m(f), n - 1)).items()}


def q_exponents(p: MultiPoly) -> dict[int, int]:
    return {dict(m).get("q", 0): c for m, c in p.coeffs.items()}


# ---------------------------------------------------------------------------
# Exact linear algebra, Psi_n as a limit, lattice paths

class SingularMatrix(ValueError):
    pass


def solve(matrix, rhs) -> list[Fraction]:
    """Solve A x = b exactly by Gaussian elimination over Fraction.  A is a
    list of rows; raises on a singular or inconsistent system.  Rectangular
    systems are accepted when the solution is unique."""
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs, strict=True)]
    nrows = len(m)
    ncols = len(matrix[0]) if nrows else 0
    row = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    if len(pivots) < ncols:
        raise SingularMatrix("system does not determine a unique solution")
    for r in range(row, nrows):
        if m[r][ncols]:
            raise SingularMatrix("inconsistent system")
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return x


def s_n_1mq(n: int) -> LinComb:
    """S_n((1-q)A) in the R basis, coefficients polynomials in q."""
    q = MultiPoly.var("q")
    if n == 0:
        return LinComb.monomial((), MultiPoly.const(1))
    return LinComb(((1,) * k + (n - k,), (1 - q) * (-q) ** k)
                   for k in range(n))


def psi_n_via_limit(n: int) -> LinComb:
    """Psi_n as the limit of S_n((1-q)A)/(1-q) at q = 1 (exact division)."""
    q = MultiPoly.var("q")
    return LinComb((i, RationalFn(c, 1 - q).substitute({"q": 1})
                    .num.as_constant())
                   for i, c in s_n_1mq(n).terms.items())


def word_to_path(w: tuple[int, ...]) -> str:
    """Encode each letter k as a^k b (a = upstep, b = downstep)."""
    return "".join("a" * k + "b" for k in w)


# ---------------------------------------------------------------------------
# Grafting

def graft_tree(t: Tree, trees: tuple[Tree, ...]):
    """All trees made by grafting ``trees`` on nodes of ``t``, their roots
    appearing in that order along the planar (prefix) traversal."""
    if not trees:
        yield t
        return
    m = len(t)

    def splits(seq, k):
        if k == 1:
            yield (seq,)
            return
        for i in range(len(seq) + 1):
            for rest in splits(seq[i:], k - 1):
                yield (seq[:i],) + rest

    # blocks: B0, I1, B1, I2, ..., Im, Bm read in planar order
    for parts in splits(trees, 2 * m + 1):
        blocks = parts[0::2]
        inner = parts[1::2]
        child_options = [list(graft_tree(c, inn))
                         for c, inn in zip(t, inner)]

        def rec(i, acc):
            if i == m:
                yield acc
                return
            for c in child_options[i]:
                yield from rec(i + 1, acc + (c,) + blocks[i + 1])

        yield from rec(0, blocks[0])


def prelie_graft(t1: Tree, t2: Tree) -> LinComb:
    """Right preLie product X_T1 |> X_T2: graft T1 on a node of T2."""
    return brace((t1,), t2)


def x_tau(tau, n: int) -> LinComb:
    """Chapoton-Livernet element: |Aut(tau)| times the sum of X_T over plane
    trees T whose underlying non-plane tree is tau."""
    coeff = aut_order(tau)
    return LinComb(((t,), coeff) for t in enumerate_trees(n)
                   if non_plane_class(t) == tau)


# ---------------------------------------------------------------------------
# Tamari up-sets

def upset_words(t: Tree) -> tuple[str, ...]:
    """The letter-append process for the up-set of a tree T = B+(F): for
    each G >= F write the reverse Polish code of G and append i for
    i = 0..r(G).  The resulting words enumerate the up-set of T faithfully
    at the level of code-letter multisets and root counts (the last letter
    is the arity of the tree closing the forest); as literal forest codes
    they can permute the letters of the true codes."""
    out = []
    for g in tamari.upset(tuple(t)):
        stem = "".join(str(c) for c in reversed(polish_code(g)))
        for i in range(len(g) + 1):
            out.append(stem + str(i))
    return tuple(sorted(out))


def a_weight(a: LaurentPoly, g: Forest) -> MultiPoly:
    """a_G: the product of a_k, the z^(k-1) coefficient of a, over the code
    letters k of G."""
    out = MultiPoly.const(1)
    for c in reverse_polish_code(g):
        out = out * a.coefficient(c - 1)
    return out


def tamari_sigma_plus(n: int, a: LaurentPoly) -> LinComb:
    """Degree-n part of sigma_a^+ in the X basis: the X_F coefficient is
    the sum of a_G z^(-r(G)) over the up-set of F, each z-power added up in
    one MultiPoly.sum."""
    weights = {g: (-len(g), a_weight(a, g)) for g in enumerate_forests(n)}
    out = {}
    for f in weights:
        groups: dict[int, list[MultiPoly]] = {}
        for g in tamari.upset(f):
            e, w = weights[g]
            groups.setdefault(e, []).append(w)
        out[f] = LaurentPoly({e: MultiPoly.sum(ws) for e, ws in groups.items()})
    return LinComb(out)


# ---------------------------------------------------------------------------
# Moebius recursions

@lru_cache(maxsize=None)
def x_in_c(f: Forest) -> LinComb:
    """X_F in the C basis, from the expansions of every X_G with G < F."""
    return LinComb(chain(((f, 1),),
                         ((h, -c) for g in tamari.downset(f) if g != f
                          for h, c in x_in_c(g).terms.items())))


@lru_cache(maxsize=None)
def m_in_f(sigma: tuple[int, ...]) -> LinComb:
    """M_sigma in the F basis, F_sigma being the sum of M_tau over tau >=
    sigma in the left weak order."""
    return LinComb(chain(((sigma, 1),),
                         ((rho, -c) for tau in left_weak_above_scan(sigma)
                          if tau != sigma
                          for rho, c in m_in_f(tau).terms.items())))


@lru_cache(maxsize=None)
def left_weak_above_scan(rho: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All sigma >= rho in the left weak order, by a scan of all n!
    permutations: Inv(rho^-1) within Inv(sigma^-1)."""
    table = _inverse_inversions(len(rho))
    return tuple(sigma for sigma, inv in table.items() if table[rho] <= inv)


def left_weak_below_scan(sigma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All tau <= sigma in the left weak order, by a scan of all n!
    permutations: Inv(tau^-1) within Inv(sigma^-1)."""
    table = _inverse_inversions(len(sigma))
    return tuple(tau for tau, inv in table.items() if inv <= table[sigma])


@lru_cache(maxsize=None)
def _inverse_inversions(n: int) -> dict:
    """Inv(sigma^-1) for every permutation sigma of length n, in order."""
    return {sigma: perms.inversions(perms.inverse(sigma))
            for sigma in all_perms(n)}


# ---------------------------------------------------------------------------
# Permutations: all of them, standardization, the F coproduct and S^sigma

def all_perms(n: int):
    return permutations(range(1, n + 1))


def standardize(word: tuple[int, ...]) -> tuple[int, ...]:
    """Standardization: relabel by rank, ties broken left to right."""
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    std = [0] * len(word)
    for rank, i in enumerate(order, start=1):
        std[i] = rank
    return tuple(std)


def from_descent_set(descents, n: int) -> tuple[int, ...]:
    """The composition of n with descent set ``descents``."""
    if n == 0:
        return ()
    ds = sorted(descents)
    if ds and (ds[0] < 1 or ds[-1] > n - 1):
        raise ValueError(f"descent set {ds} out of range for n={n}")
    return tuple(map(sub, ds + [n], [0] + ds))


def descent_composition(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Ribbon shape of a permutation."""
    return from_descent_set(perms.descents(sigma), len(sigma))


def f_coproduct(sigma: tuple[int, ...]) -> LinComb:
    """Coproduct in the F basis: standardized deconcatenations."""
    return LinComb(((standardize(sigma[:k]), standardize(sigma[k:])), 1)
                   for k in range(len(sigma) + 1))


def left_weak_below(sigma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All tau <= sigma in the left weak order, sorted: replacing each value
    v by n + 1 - v reverses the order, so this maps the walked up-set over."""
    return tuple(sorted(map(_complement,
                            fqsym._left_weak_above(_complement(sigma)))))


def _complement(sigma: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(len(sigma) + 1 - v for v in sigma)


def s_in_f(sigma: tuple[int, ...]) -> LinComb:
    return LinComb({perms.inverse(tau): 1 for tau in left_weak_below(sigma)})


# ---------------------------------------------------------------------------
# Products, pairing, the minus alphabet and alpha ones in Sym and QSym

def r_product(a: LinComb, b: LinComb) -> LinComb:
    """Product in the R basis: R_I R_J = R_{I.J} + R_{I|>J}."""

    def ribbons(i, j):
        if not i or not j:
            return LinComb.monomial(i + j)
        return LinComb(((i + j, 1), (i[:-1] + (i[-1] + j[0],) + j[1:], 1)))

    return bilinear(ribbons, a, b)


def _quasi_shuffles(i: tuple[int, ...], j: tuple[int, ...]):
    if not i:
        yield j
        return
    if not j:
        yield i
        return
    for rest in _quasi_shuffles(i[1:], j):
        yield (i[0],) + rest
    for rest in _quasi_shuffles(i, j[1:]):
        yield (j[0],) + rest
    for rest in _quasi_shuffles(i[1:], j[1:]):
        yield (i[0] + j[0],) + rest


def m_product(a: LinComb, b: LinComb) -> LinComb:
    """Quasi-shuffle product in the M basis."""
    return bilinear(lambda i, j: LinComb((k, 1) for k in _quasi_shuffles(i, j)),
                    a, b)


def pair(s_elem: LinComb, m_elem: LinComb):
    """Duality pairing, S basis against M basis."""
    return sum(c * m_elem.coeff(i) for i, c in s_elem.terms.items())


def complement(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The composition whose descent set is the complement of D(I)."""
    n = weight(parts)
    return from_descent_set(set(range(1, n)) - descent_set(parts), n)


def minus_x_m(a: LinComb) -> LinComb:
    """The involution X -> -X in the M basis:
    M_I(-X) = (-1)^l(I) sum of M_J over J coarser than I."""
    return LinComb((j, c * (-1) ** len(i))
                   for i, c in a.terms.items() for j in coarsenings(i))


def minus_x_f(a: LinComb) -> LinComb:
    """The involution X -> -X in the F basis:
    F_I(-X) = (-1)^|I| F of the descent complement."""
    return LinComb((complement(i), c * (-1) ** weight(i))
                   for i, c in a.terms.items())


def chi_qsym_m(f: Forest) -> LinComb:
    """chi_F(X) = (-1)^|F| Gamma_F(-X), in the M basis."""
    return minus_x_m(gamma_qsym_m(f)).scale((-1) ** forest_size(f))


def binomial_poly(var: str, k: int) -> MultiPoly:
    """binomial(x, k) = x(x-1)...(x-k+1)/k! as a polynomial in ``var``."""
    x = MultiPoly.var(var)
    num = reduce(lambda p, i: p * (x - MultiPoly.const(i)), range(k),
                 MultiPoly.const(1))
    return Fraction(1, factorial(k)) * num


def eval_binomial(a: LinComb) -> MultiPoly:
    """Evaluate on an alphabet of alpha ones: M_I -> binomial(alpha, l(I))."""
    return MultiPoly.sum(binomial_poly("alpha", len(i)) * MultiPoly.coerce(c)
                         for i, c in a.terms.items())


# ---------------------------------------------------------------------------
# The order polynomial by reciprocity from the strict one

@lru_cache(maxsize=None)
def bernoulli_polynomial(m: int) -> MultiPoly:
    """Bernoulli polynomial B_m in t, pinned by the defining recursion
    sum_{j<=m} C(m+1, j) B_j(t) = (m+1) t^m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    bs: list[MultiPoly] = []
    t = MultiPoly.var("t")
    for k in range(m + 1):
        rhs = (k + 1) * t ** k
        acc = MultiPoly.sum(comb(k + 1, j) * bs[j] for j in range(k))
        bs.append(Fraction(1, k + 1) * (rhs - acc))
    return bs[m]


def discrete_integral(p: MultiPoly) -> MultiPoly:
    """Linear extension of t^p -> (B_{p+1}(t) - B_{p+1}(0)) / (p+1).

    The result g satisfies g(t+1) - g(t) = p(t) and g(0) = 0.
    """
    extra = p.variables() - {"t"}
    if extra:
        raise ValueError(f"polynomial must be univariate in t, found {extra}")

    def term(e, c):
        b = bernoulli_polynomial(e + 1)
        return (c * Fraction(1, e + 1)) * (b - MultiPoly.const(b.constant_term()))

    return MultiPoly.sum(term(dict(m).get("t", 0), c) for m, c in p.coeffs.items())


@lru_cache(maxsize=None)
def chi_poly(t: Tree) -> MultiPoly:
    """chi_T(t): put t at each leaf, and at each internal node take the
    discrete integral (Delta g = f, g(0) = 0) of the product of the
    children.  A leaf is the integral of the empty product, which is t."""
    prod = MultiPoly.const(1)
    for child in t:
        prod = prod * chi_poly(child)
    return discrete_integral(prod)


def gamma_by_reciprocity(f: Forest) -> MultiPoly:
    """The order polynomial Gamma_F(alpha) of the forest poset, by
    reciprocity from the strict one: the product over the trees T of F of
    (-1)^|T| chi_T(-alpha)."""
    chi = MultiPoly.const(1)
    for t in f:
        chi = chi * chi_poly(t)
    return chi.substitute({"t": -MultiPoly.var("alpha")}) * (-1) ** forest_size(f)


def gamma_alpha(f: Forest) -> MultiPoly:
    """The order polynomial Gamma_F(alpha), the number of maps into a chain
    of alpha elements that weakly increase toward the roots: E(alpha - 1)
    for alpha >= 1, and at 0, 1 for the empty forest and 0 otherwise.  It is
    interpolated through those |F| + 1 values."""
    values = [int(not f)] + _counts(f, forest_size(f) - 1)
    return MultiPoly({(("alpha", e),) if e else (): c
                      for e, c in enumerate(interpolate(values))})


def eulerian_by_interpolation(n: int, k: int) -> LinComb:
    """e_n^(k) in the X basis, each coefficient [alpha^k] of the
    interpolated Gamma_F."""
    return LinComb((f, gamma_alpha(f).coefficient("alpha", k).as_constant())
                   for f in enumerate_forests(n))


# ---------------------------------------------------------------------------
# sigma_a^+ in the S, Lambda and ribbon bases, one bracket at a time

def p_bracket(i: tuple[int, ...], eps: str, a: LaurentPoly) -> LaurentPoly:
    """P^I_eps(a): alternately multiply by a^(i_k) and project by P(eps_k)."""
    if len(i) != len(eps) or any(s not in "+-" for s in eps):
        raise ValueError("signs must be a +/- word matching the composition")
    out = LaurentPoly.const(1)
    for part, s in zip(i, eps):
        for _ in range(part):
            out = out * a
        out = out.polar_part() if s == "+" else out.regular_part()
    return out


def sigma_plus_ribbon_by_word(n: int, a: LaurentPoly) -> LinComb:
    """sigma_a^+ in the ribbon basis for n >= 1, one bracket per sign word:
    sum over I of (-1)^(l(I)-1) P^(1^n)_eps(I)(a) R_I."""
    return LinComb((i, p_bracket((1,) * n, sign_word(i), a)
                    * (-1) ** (len(i) - 1)) for i in compositions_of(n))


def sigma_plus_s(n: int, a: LaurentPoly) -> LinComb:
    """sigma_a^+ in the S basis:
    sum over I of (-1)^(l(I)-1) P^I_{-...-+}(a) S^I."""
    return LinComb((i, p_bracket(i, "-" * (len(i) - 1) + "+", a)
                    * (-1) ** (len(i) - 1)) for i in compositions_of(n))


def sigma_plus_lambda(n: int, a: LaurentPoly) -> LinComb:
    """sigma_a^+ in the Lambda basis:
    sum over I of (-1)^(|I|+l(I)) P^I_{+...+}(a) Lambda^I."""
    return LinComb((i, p_bracket(i, "+" * len(i), a) * (-1) ** (n + len(i)))
                   for i in compositions_of(n))


# ---------------------------------------------------------------------------
# Primitivity from the whole S-basis coproduct

def s_coproduct(a: LinComb) -> LinComb:
    """Coproduct of an S-basis element, as a combination of pairs (I, J):
    Delta S_n = sum of S_i (x) S_j, extended multiplicatively."""

    def concat(x, y):
        return LinComb.monomial((x[0] + y[0], x[1] + y[1]))

    def delta(i):
        pairs = LinComb.monomial(((), ()))
        for part in i:
            pairs = bilinear(concat, pairs, LinComb(
                (((k,) if k else (), (part - k,) if part - k else ()), 1)
                for k in range(part + 1)))
        return pairs

    return a.map_basis(delta)


def is_primitive_by_coproduct(a: LinComb) -> bool:
    """Whether Delta a = a (x) 1 + 1 (x) a, from the whole coproduct."""
    expected = LinComb((key, c) for i, c in a.terms.items()
                       for key in ((i, ()), ((), i)))
    return s_coproduct(a) == expected


def first_rows_by_filter(total: int, caps: tuple[int, ...]) -> tuple:
    """``idempotents._first_rows`` by filtering every candidate row."""
    return tuple((tuple(v for v in x if v),
                  tuple(c - v for c, v in zip(caps, x) if c > v))
                 for x in iter_product(*(range(min(c, total) + 1)
                                         for c in caps))
                 if sum(x) == total)
