"""Named invariant suites, shared by the ``verify`` CLI command and the
test suite.  Each suite takes a degree bound and returns a list of
counterexample descriptions (empty means the suite passed)."""

from __future__ import annotations

from collections import Counter
from itertools import product

from . import birkhoff, fqsym, hopf, idempotents, tamari
from .compositions import compositions_of, partitions_of
from .forests import enumerate_forests, enumerate_trees, forest_code, forest_size
from .laurent import LaurentPoly
from .lincomb import LinComb, bilinear
from .ncsf import r_to_s
from .polynomials import MultiPoly


def _pairs(n: int):
    """Nonempty (F, G) with |F| + |G| <= n, by |F|, then |G|, then F."""
    for n1 in range(1, n):
        for n2 in range(1, n + 1 - n1):
            yield from product(enumerate_forests(n1), enumerate_forests(n2))


def suite_hopf(n: int) -> list[str]:
    """Coassociativity of both coproducts, the bialgebra law on the Y side,
    and the product/coproduct duality between the two bases.  Every check
    reads the Y coproducts off one table of the forests of size <= n."""
    bad = []
    y_cop = {f: hopf.y_coproduct(f) for size in range(n + 1)
             for f in enumerate_forests(size)}
    for f in y_cop:
        for name, cop in (("Y", y_cop.__getitem__), ("X", hopf.x_coproduct)):
            delta = cop(f).items()
            left = LinComb(((g1, g2, f2), c * d) for (f1, f2), c in delta
                           for (g1, g2), d in cop(f1).items())
            right = LinComb(((f1, g1, g2), c * d) for (f1, f2), c in delta
                            for (g1, g2), d in cop(f2).items())
            if left != right:
                bad.append(f"coassociativity[{name}] fails at {forest_code(f)}")
    # duality: <X_F X_G, Y_H> = <X_F (x) X_G, Delta Y_H>, one dict per (F, G)
    dual = {}
    for h, delta in y_cop.items():
        for pair, c in delta.items():
            dual.setdefault(pair, {})[h] = c
    for f, g in _pairs(n):
        prod = hopf.x_product(f, g)
        if prod.terms != dual.get((f, g), {}):
            bad += [f"duality fails at {forest_code(f)},{forest_code(g)} vs "
                    f"{forest_code(h)}" for h in
                    enumerate_forests(forest_size(f) + forest_size(g))
                    if prod.coeff(h) != y_cop[h].coeff((f, g))]
    # bialgebra on Y: Delta(Y_F Y_G) = Delta(Y_F) Delta(Y_G)
    for f, g in _pairs(n):
        rhs = bilinear(
            lambda x, y: LinComb.monomial((x[0] + y[0], x[1] + y[1])),
            y_cop[f], y_cop[g])
        if y_cop[f + g] != rhs:
            bad.append(f"bialgebra fails at {forest_code(f)},{forest_code(g)}")
    return bad


def suite_dendriform(n: int) -> list[str]:
    """Half-product splitting, the three dendriform axioms, and the
    recursions for the divided powers Lambda_n and S_n."""
    bad = []
    for f, g in _pairs(n):
        if hopf.x_prec(f, g) + hopf.x_succ(f, g) != hopf.x_product(f, g):
            bad.append(f"split fails at {forest_code(f)},{forest_code(g)}")
    bullet = ((),)

    # axioms on triples of single trees with total size <= n
    for s1 in range(1, n - 1):
        for s2 in range(1, n - s1):
            for s3 in range(1, n + 1 - s1 - s2):
                for t1 in enumerate_trees(s1):
                    for t2 in enumerate_trees(s2):
                        for t3 in enumerate_trees(s3):
                            x = LinComb.monomial((t1,))
                            y = LinComb.monomial((t2,))
                            z = LinComb.monomial((t3,))
                            xy = hopf.x_product_lin(x, y)
                            yz = hopf.x_product_lin(y, z)
                            a1 = bilinear(hopf.x_prec, bilinear(hopf.x_prec, x, y), z)
                            a2 = bilinear(hopf.x_prec, x, yz)
                            b1 = bilinear(hopf.x_prec, bilinear(hopf.x_succ, x, y), z)
                            b2 = bilinear(hopf.x_succ, x, bilinear(hopf.x_prec, y, z))
                            c1 = bilinear(hopf.x_succ, xy, z)
                            c2 = bilinear(hopf.x_succ, x, bilinear(hopf.x_succ, y, z))
                            if a1 != a2 or b1 != b2 or c1 != c2:
                                bad.append(
                                    "dendriform axiom fails at "
                                    f"{forest_code((t1,))},{forest_code((t2,))},"
                                    f"{forest_code((t3,))}")
    # Lambda_n = X_bullet < Lambda_{n-1}; S_n = S_{n-1} > X_bullet
    for k in range(2, n + 1):
        lam = bilinear(hopf.x_prec, LinComb.monomial(bullet),
                       hopf.lambda_n(k - 1))
        if lam != hopf.lambda_n(k):
            bad.append(f"Lambda recursion fails at degree {k}")
        sn = bilinear(hopf.x_succ, hopf.s_n(k - 1),
                      LinComb.monomial(bullet))
        if sn != hopf.s_n(k):
            bad.append(f"S recursion fails at degree {k}")
    return bad


def suite_tamari(n: int) -> list[str]:
    """Up-set and down-set recursions against the transitive closures of
    the covers, each inverted into the down-sets as it is found."""
    bad = []
    for size in range(1, n + 1):
        below = {}
        covers = {f: tamari.covers(f) for f in enumerate_forests(size)}
        for f in enumerate_forests(size):
            seen, stack = {f}, [f]
            while stack:
                for h in covers[stack.pop()] - seen:
                    seen.add(h)
                    stack.append(h)
            if seen != set(tamari.upset(f)):
                bad.append(f"upset mismatch at {forest_code(f)}")
            for g in seen:
                below.setdefault(g, set()).add(f)
        for f in enumerate_forests(size):
            if tamari.downset(f) != below[f]:
                bad.append(f"downset mismatch at {forest_code(f)}")
    return bad


def suite_factorization(n: int) -> list[str]:
    """phi+ = phi- * phi as characters: for every forest, phi+(Y_F), read
    off the Tamari table of ``birkhoff.sigma_plus``, equals the convolution
    of phi- and the base character phi(Y_F) = a^|F| over the admissible-cut
    coproduct.  phi- is built once per tree, phi-(B+(G)) = -P-(phi+(Y_G) a),
    and once per forest, as the product over its trees.  The cuts with equal
    |F2| are summed first, and the sums are weighted by a^|F2| by Horner's
    rule, each step one product by a."""
    bad = []
    a = birkhoff.a_series(n)
    phi_minus = {(): LaurentPoly.const(1)}
    plus = birkhoff.sigma_plus(0, a)
    for size in range(1, n + 1):
        for g in enumerate_forests(size):
            # a tree is the tuple of its children, so (G,) holds B+(G)
            phi_minus[g] = (-(plus.coeff(g[0]) * a).regular_part()
                            if len(g) == 1
                            else phi_minus[g[:1]] * phi_minus[g[1:]])
        plus = birkhoff.sigma_plus(size, a)
        for f in enumerate_forests(size):
            by_size = [LaurentPoly.zero()] * (size + 1)
            for (f1, f2), c in hopf.y_coproduct(f).items():
                by_size[forest_size(f2)] += phi_minus[f1] * c
            conv = LaurentPoly.zero()
            for cuts in reversed(by_size):
                conv = conv * a + cuts
            if conv != plus.coeff(f):
                bad.append(f"factorization fails at {forest_code(f)}")
    return bad


def suite_words(n: int) -> list[str]:
    """Word model against the bracket expansion: the ribbon coefficient of
    sigma_a^+ is (-1)^(l(I)-1) times the generating sum of W(I), and |W(I)|
    is the Catalan block product.  The words are counted by their sorted
    letters, so each letter multiset is multiplied out once."""
    bad = []
    a = birkhoff.a_series(n)
    for size in range(1, n + 1):
        expansion = birkhoff.sigma_plus_ribbon(size, a)
        for i in compositions_of(size):
            words = birkhoff.words_w(i)
            if len(words) != birkhoff.catalan_block_count(i):
                bad.append(f"|W({i})| is not the Catalan block product")
            by_power = {}
            multisets = Counter(tuple(sorted(w)) for w in words)
            for letters, count in multisets.items():
                mono = MultiPoly.const((-1) ** (len(i) - 1) * count)
                for k in letters:
                    mono = mono * MultiPoly.var(f"a{k}")
                by_power.setdefault(sum(letters) - size, []).append(mono)
            gen = LaurentPoly({e: MultiPoly.sum(monos)
                               for e, monos in by_power.items()})
            if gen != expansion.coeff(i):
                bad.append(f"word sum differs from bracket at I={i}")
    return bad


def suite_quotient(n: int) -> list[str]:
    """X product through the 132-pattern quotient against the coproduct
    transpose.  Past ``fqsym.MAX_QUOTIENT_DEGREE`` the quotient product
    raises ``DegreeGuard``."""
    bad = []
    for f, g in _pairs(n):
        if fqsym.quotient_product(f, g) != hopf.x_product(f, g):
            bad.append(f"quotient product differs at "
                       f"{forest_code(f)},{forest_code(g)}")
    return bad


def suite_idempotents(n: int) -> list[str]:
    """The paper's theorem: every D_lambda with |lambda| < n is primitive
    with a nonzero S^(m) coefficient c, m = |lambda| + 1.  By the splitting
    formula a primitive F of degree m has F * F = c F (Gelfand et al. 1995,
    section 5), so D_lambda / c is a Lie idempotent."""
    bad = []
    for m in range(1, n + 1):
        for lam in partitions_of(m - 1):
            s = r_to_s(birkhoff.d_lambda_ribbon(lam))
            if not (idempotents.is_primitive(s) and s.coeff((m,))):
                bad.append(f"D_{lam} is not a multiple of a Lie idempotent")
    return bad


SUITES = {
    "hopf": suite_hopf,
    "dendriform": suite_dendriform,
    "tamari": suite_tamari,
    "factorization": suite_factorization,
    "words": suite_words,
    "quotient": suite_quotient,
    "idempotents": suite_idempotents,
}
