"""Reference routes that share no code with planehopf.

Every benchmark result is checked against these.  Forests use the same
nested-tuple shape as the package (a tree is the tuple of its child
subtrees, a forest a tuple of trees) and the same canonical postorder
labelling, but everything here is computed independently:

* labelling counts by dynamic programming over chains of lower sets
  (the package enumerates permutations and linear extensions);
* Tamari up-sets by closing the left-rotation cover relation (the package
  uses a product recursion);
* X-basis products by counting admissible cuts on bitmasks;
* q-series and Birkhoff values as exact ``Fraction`` values at sample
  points (the package manipulates symbolic polynomials).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

# ---------------------------------------------------------------------------
# Forests and codes


def parse(text: str):
    """Forest from its Polish code (digits, or comma separated)."""
    code = [int(c) for c in (text.split(",") if "," in text else text)]
    pos = 0

    def tree():
        nonlocal pos
        arity = code[pos]
        pos += 1
        return tuple(tree() for _ in range(arity))

    out = []
    while pos < len(code):
        out.append(tree())
    return tuple(out)


def code(f) -> str:
    out = []

    def walk(t):
        out.append(len(t))
        for c in t:
            walk(c)

    for t in f:
        walk(t)
    return "".join(map(str, out)) if all(c <= 9 for c in out) \
        else ",".join(map(str, out))


def size(f) -> int:
    return sum(1 + size(t) for t in f)


@lru_cache(maxsize=None)
def forests(n: int) -> tuple:
    """All plane forests with n nodes, sorted by code."""
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n + 1):
        for kids in forests(k - 1):
            for rest in forests(n - k):
                out.append((kids,) + rest)
    return tuple(sorted(out, key=code))


@lru_cache(maxsize=None)
def trees(n: int) -> tuple:
    return tuple(f for f in forests(n) if len(f) == 1)


# ---------------------------------------------------------------------------
# Poset data on bitmasks (bit i-1 is the node labelled i in postorder)


@lru_cache(maxsize=None)
def poset(f):
    """(n, below, ancestors): below[v] is the mask of strict descendants
    of node v, ancestors[v] the mask of its strict ancestors."""
    parent = []

    def walk(t):
        kids = [walk(c) for c in t]
        parent.append(0)
        label = len(parent)
        for k in kids:
            parent[k - 1] = label
        return label

    for t in f:
        walk(t)
    n = len(parent)
    anc = [0] * (n + 1)
    below = [0] * (n + 1)
    for v in range(1, n + 1):
        p = parent[v - 1]
        while p:
            anc[v] |= 1 << (p - 1)
            below[p] |= 1 << (v - 1)
            p = parent[p - 1]
    return n, tuple(below), tuple(anc)


@lru_cache(maxsize=None)
def lower_sets(f) -> tuple:
    """Descendant-closed node sets, as bitmasks sorted by popcount."""
    n, below, _ = poset(f)
    out = [0]
    for v in range(1, n + 1):
        bit = 1 << (v - 1)
        out += [m | bit for m in out if (below[v] & ~m) == 0]
    # every set is built in label order, so children precede parents
    return tuple(sorted(set(out), key=lambda m: (bin(m).count("1"), m)))


def restrict(f, mask: int):
    """Induced plane forest on the nodes of ``mask``."""
    counter = [0]

    def walk(t):
        kids = []
        for c in t:
            kids.extend(walk(c))
        counter[0] += 1
        if mask >> (counter[0] - 1) & 1:
            return [tuple(kids)]
        return kids

    out = []
    for t in f:
        out.extend(walk(t))
    return tuple(out)


# ---------------------------------------------------------------------------
# Compositions


def comp_from_mask(mask: int, n: int) -> tuple:
    """Composition of n whose descent set is the bit set of ``mask``."""
    parts, prev = [], 0
    for k in range(1, n):
        if mask >> (k - 1) & 1:
            parts.append(k - prev)
            prev = k
    parts.append(n - prev)
    return tuple(parts) if n else ()


def mask_from_comp(i) -> int:
    mask, s = 0, 0
    for p in i[:-1]:
        s += p
        mask |= 1 << (s - 1)
    return mask


def compositions(n: int):
    return [comp_from_mask(m, n) for m in range(1 << max(n - 1, 0))]


def maj(i) -> int:
    return sum(k for k in range(1, sum(i)) if mask_from_comp(i) >> (k - 1) & 1)


# ---------------------------------------------------------------------------
# Labelling counts by chains of lower sets


def _chains(f, strict: bool) -> dict:
    """descent mask -> number of chains of lower sets whose intermediate
    sizes are exactly the mask (blocks must be antichains when strict)."""
    n, _, anc = poset(f)
    lows = lower_sets(f)
    table = {0: {0: 1}}
    for low in lows[1:]:
        acc: dict = {}
        for sub in lows:
            if sub == low or sub & ~low:
                continue
            block = low & ~sub
            if strict and any(block >> (v - 1) & 1 and anc[v] & block
                              for v in range(1, n + 1)):
                continue
            k = bin(sub).count("1")
            bit = (1 << (k - 1)) if k else 0
            for m, c in table[sub].items():
                acc[m | bit] = acc.get(m | bit, 0) + c
        table[low] = acc
    return table[lows[-1]] if n else {0: 1}


@lru_cache(maxsize=None)
def alpha(f) -> dict:
    """Composition -> number of labellings weakly increasing toward the
    roots with that evaluation (coefficient of X_F in S^I, of M_I in
    Gamma_F)."""
    n = size(f)
    return {comp_from_mask(m, n): c for m, c in _chains(f, False).items()}


@lru_cache(maxsize=None)
def strict_alpha(f) -> dict:
    """Composition -> number of strictly increasing labellings."""
    n = size(f)
    return {comp_from_mask(m, n): c for m, c in _chains(f, True).items()}


@lru_cache(maxsize=None)
def beta(f) -> dict:
    """Composition -> number of linear extensions with that descent
    composition (coefficient of X_F in R_I), by Moebius inversion."""
    n = size(f)
    width = max(n - 1, 0)
    vec = [0] * (1 << width)
    for m, c in _chains(f, False).items():
        vec[m] = c
    for b in range(width):
        bit = 1 << b
        for m in range(1 << width):
            if m & bit:
                vec[m] -= vec[m ^ bit]
    return {comp_from_mask(m, n): c for m, c in enumerate(vec) if c}


def embed(kind: str, i) -> dict:
    """R_I, S^I or Lambda^I in the X basis: forest -> coefficient."""
    table = {"R": beta, "S": alpha, "L": strict_alpha}[kind]
    out = {}
    for f in forests(sum(i)):
        c = table(f).get(tuple(i), 0)
        if c:
            out[f] = c
    return out


def ribbon_to_x(ribbon: dict, n: int) -> dict:
    """A ribbon-basis element of degree n in the X basis."""
    out = {}
    for f in forests(n):
        c = sum(coef * beta(f).get(i, 0) for i, coef in ribbon.items())
        if c:
            out[f] = c
    return out


# ---------------------------------------------------------------------------
# Order polynomials and Ehrhart values


def binom_at(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= (x - j)
    return out / factorial(k)


def poly_binom(k: int) -> list:
    """Coefficient list of binomial(a, k) as a polynomial in a."""
    poly = [Fraction(1)]
    for j in range(k):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for e, c in enumerate(poly):
            nxt[e + 1] += c
            nxt[e] -= j * c
        poly = nxt
    return [c / factorial(k) for c in poly]


def order_poly_coeff(f, k: int) -> Fraction:
    """[alpha^k] of the order polynomial sum_I alpha_F(I) binom(alpha, l(I))."""
    total = Fraction(0)
    for i, c in alpha(f).items():
        poly = poly_binom(len(i))
        if k < len(poly):
            total += c * poly[k]
    return total


def ehrhart_at(f, x: Fraction) -> Fraction:
    """E_F(x) = Gamma_F on x + 1 ones."""
    return sum((c * binom_at(x + 1, len(i)) for i, c in alpha(f).items()),
               Fraction(0))


def lattice_points(f, m: int, interior: bool = False) -> list:
    """Points of the m-th dilated order polytope, by brute force."""
    from itertools import product

    n, below, _ = poset(f)
    pairs = [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)
             if below[j] >> (i - 1) & 1]
    lo, hi = (1, m - 1) if interior else (0, m)
    out = []
    for x in product(range(lo, hi + 1), repeat=n):
        if interior:
            if all(x[i - 1] < x[j - 1] for i, j in pairs):
                out.append(x)
        elif all(x[i - 1] <= x[j - 1] for i, j in pairs):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# Tamari order


def covers(f) -> set:
    """Left rotations: the leftmost child subtree of a non-leaf node moves
    out as the sibling just left of that node."""
    out = set()

    def inside(t):
        for i, c in enumerate(t):
            if c:
                yield t[:i] + (c[0], c[1:]) + t[i + 1:]
            for moved in inside(c):
                yield t[:i] + (moved,) + t[i + 1:]

    for i, t in enumerate(f):
        if t:
            out.add(f[:i] + (t[0], t[1:]) + f[i + 1:])
        for moved in inside(t):
            out.add(f[:i] + (moved,) + f[i + 1:])
    return out


@lru_cache(maxsize=None)
def upset(f) -> frozenset:
    out = {f}
    for g in covers(f):
        out |= upset(g)
    return frozenset(out)


@lru_cache(maxsize=None)
def downsets(n: int) -> dict:
    out = {f: set() for f in forests(n)}
    for f in forests(n):
        for g in upset(f):
            out[g].add(f)
    return {f: frozenset(s) for f, s in out.items()}


def downset(f) -> frozenset:
    return downsets(size(f))[f]


def c_to_x(c_comb: dict) -> dict:
    """C-basis combination in the X basis: C_F = sum of X_G over G <= F."""
    out = {}
    for f, c in c_comb.items():
        for g in downset(f):
            out[g] = out.get(g, 0) + c
    return {g: c for g, c in out.items() if c}


def code_partition(t) -> tuple:
    out = []

    def walk(node):
        if node:
            out.append(len(node))
        for c in node:
            walk(c)

    walk(t)
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# X-basis products by admissible cuts


@lru_cache(maxsize=None)
def product_table(n1: int, n2: int) -> dict:
    """(F, G) -> {H: [cuts with the last node lower, cuts with it upper]}."""
    n = n1 + n2
    out: dict = {}
    last = 1 << (n - 1)
    for h in forests(n):
        for low in lower_sets(h):
            if bin(low).count("1") != n1:
                continue
            key = (restrict(h, low), restrict(h, ((1 << n) - 1) & ~low))
            slot = out.setdefault(key, {}).setdefault(h, [0, 0])
            slot[0 if low & last else 1] += 1
    return out


def x_product(f, g, half: str = "both") -> dict:
    if not f:
        return {g: 1}
    if not g:
        return {f: 1}
    terms = product_table(size(f), size(g)).get((f, g), {})
    pick = {"both": lambda c: c[0] + c[1], "prec": lambda c: c[0],
            "succ": lambda c: c[1]}[half]
    return {h: pick(c) for h, c in terms.items() if pick(c)}


def y_coproduct(f) -> dict:
    n = size(f)
    out: dict = {}
    for low in lower_sets(f):
        key = (restrict(f, low), restrict(f, ((1 << n) - 1) & ~low))
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Noncommutative symmetric functions (ribbon basis, numeric coefficients)


def psi(n: int) -> dict:
    return {(1,) * k + (n - k,): (-1) ** k for k in range(n)}


def psi_bar(n: int) -> dict:
    return {(n - k,) + (1,) * k: (-1) ** k for k in range(n)}


def s_to_r(s_comb: dict) -> dict:
    """S^I = sum of R_J over J coarser than I."""
    out: dict = {}
    for i, c in s_comb.items():
        n, d = sum(i), mask_from_comp(i)
        sub = d
        while True:
            j = comp_from_mask(sub, n)
            out[j] = out.get(j, 0) + c
            if sub == 0:
                break
            sub = (sub - 1) & d
    return {j: c for j, c in out.items() if c}


def r_to_s(r_comb: dict) -> dict:
    """R_I = sum over coarser J of (-1)^(l(I) - l(J)) S^J."""
    out: dict = {}
    for i, c in r_comb.items():
        n, d = sum(i), mask_from_comp(i)
        sub = d
        while True:
            j = comp_from_mask(sub, n)
            out[j] = out.get(j, 0) + c * (-1) ** (len(i) - len(j))
            if sub == 0:
                break
            sub = (sub - 1) & d
    return {j: c for j, c in out.items() if c}


def solomon_r(n: int) -> dict:
    """log sigma_1 in degree n, ribbon basis."""
    return s_to_r({i: Fraction((-1) ** (len(i) - 1), len(i))
                   for i in compositions(n)})


def ribbon_product(a: dict, b: dict) -> dict:
    """R_I R_J = R_{I.J} + R_{I|>J}."""
    out: dict = {}
    for i, ci in a.items():
        for j, cj in b.items():
            c = ci * cj
            if not i or not j:
                keys = [i + j]
            else:
                keys = [i + j, i[:-1] + (i[-1] + j[0],) + j[1:]]
            for k in keys:
                out[k] = out.get(k, 0) + c
    return out


def qpoch(p: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= 1 - p ** k
    return out


def transform_over_1mq_at(s_comb: dict, p: Fraction) -> dict:
    """A -> A/(1-q) on an S-basis element, ribbon basis, at q = p."""
    out: dict = {}
    for i, c in s_comb.items():
        term = {(): Fraction(1)}
        for part in i:
            term = ribbon_product(term, {j: p ** maj(j) / qpoch(p, part)
                                         for j in compositions(part)})
        for k, v in term.items():
            out[k] = out.get(k, 0) + c * v
    return out


@lru_cache(maxsize=None)
def q_solomon_at(n: int, p: Fraction) -> dict:
    """phi_n(q) = (1 - q^n)/n Psi_n(A/(1-q)) at q = p."""
    scale = (1 - p ** n) / n
    return {i: scale * v for i, v in
            transform_over_1mq_at(r_to_s(psi(n)), p).items()}


# ---------------------------------------------------------------------------
# Alphabet evaluations at a point


def geometric_inf_at(f, p: Fraction) -> Fraction:
    """Gamma_F on {1, q, q^2, ...} at q = p, from the labelling counts."""
    total = Fraction(0)
    for i, c in alpha(f).items():
        val = p ** sum((k - 1) * part for k, part in enumerate(i, start=1))
        for k in range(len(i)):
            val /= 1 - p ** sum(i[k:])
        total += c * val
    return total


def geometric_at(f, m: int, p: Fraction) -> Fraction:
    """Gamma_F on {1, q, ..., q^(m-1)} at q = p, by a tree recursion over
    the value of each root (values weakly increase toward the roots)."""

    def at_most(t):
        # [sum over labellings of t with root value exactly v] for v < m
        kids = [at_most(c) for c in t]
        out = []
        for v in range(m):
            val = p ** v
            for k in kids:
                val *= sum(k[: v + 1])
            out.append(val)
        return out

    total = Fraction(1)
    for t in f:
        total *= sum(at_most(t))
    return total


def letters_value(g, values: dict):
    """Product over the code letters c of g of values[c]."""
    out = 1

    def walk(t):
        nonlocal out
        out *= values[len(t)]
        for c in t:
            walk(c)

    for t in g:
        walk(t)
    return out


# Sample values of the coefficients of a(z) = sum of a_k z^(k - 1), or of
# its specialization a/z + b/(1 - z); letter c of a forest code picks the
# coefficient of z^(c - 1).
Z_POINTS = (Fraction(2), Fraction(-3))


def a_values(spec: str) -> tuple:
    """(variable values, letter values) for a_series or a_series_ab."""
    if spec == "ab":
        values = {"a": -3, "b": 5}
        return values, {c: values["a"] if c == 0 else values["b"]
                        for c in range(16)}
    values = {f"a{k}": k + 2 for k in range(16)}
    return values, {c: values[f"a{c}"] for c in range(16)}


def phi_plus_at(f, values: dict, zs) -> list:
    """phi+(Y_F) = sum over G >= F of a_G z^(-r(G)), at each z."""
    terms = [(letters_value(g, values), len(g)) for g in upset(f)]
    return [sum((a * z ** -r for a, r in terms), Fraction(0)) for z in zs]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_blocks(i) -> int:
    """|W(I)|: product of Catalan numbers of the sign-block lengths."""
    n, d = sum(i), mask_from_comp(i)
    signs = ["-" if d >> (k - 1) & 1 else "+" for k in range(1, n + 1)]
    out, pos = 1, 0
    while pos < n:
        end = pos
        while end < n and signs[end] == signs[pos]:
            end += 1
        out *= catalan(end - pos)
        pos = end
    return out


def refinements(i) -> list:
    n, d = sum(i), mask_from_comp(i)
    full = (1 << max(n - 1, 0)) - 1
    free = full & ~d
    out, sub = [], free
    while True:
        out.append(comp_from_mask(d | sub, n))
        if sub == 0:
            break
        sub = (sub - 1) & free
    return out


def in_w(word, i) -> bool:
    """Whether the word lies in W(I): partial sums reach k exactly at the
    descents k of I, and stay below k elsewhere (including k = n)."""
    n, d = sum(i), mask_from_comp(i)
    total = 0
    for k, w in enumerate(word, start=1):
        total += w
        if (d >> (k - 1) & 1 if k < n else 0) != (total >= k):
            return False
    return len(word) == n and min(word, default=0) >= 0


def in_s(word, i) -> bool:
    """Whether the word lies in S(I): partial sums >= d at each descent d,
    total < n."""
    n, d = sum(i), mask_from_comp(i)
    total = 0
    for k, w in enumerate(word, start=1):
        total += w
        if k < n and d >> (k - 1) & 1 and total < k:
            return False
    return len(word) == n and total < n and min(word, default=0) >= 0


def words_count(i, model: str) -> int:
    if model == "W":
        return catalan_blocks(i)
    return sum(catalan_blocks(j) for j in refinements(i))


# ---------------------------------------------------------------------------
# Exact evaluation of the package's text output


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\*\*|[-+*/^()])")


def evaluate(poly, values: dict) -> Fraction:
    """Exact value, with every variable set from ``values``, of a
    polynomial, rational function or Laurent polynomial given either as
    text in ordinary infix notation or in the structured ``to_json`` form
    (``monomials``; ``num`` and ``den``; ``z_terms``)."""
    values = {k: Fraction(v) for k, v in values.items()}
    if isinstance(poly, str):
        return _evaluate_text(poly, values)
    return _evaluate_json(poly, values)


@lru_cache(maxsize=4096)
def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _evaluate_json(poly: dict, values: dict) -> Fraction:
    if "monomials" in poly:
        total = Fraction(0)
        for mono in poly["monomials"]:
            term = _fraction(mono["coeff"])
            for var, exp in mono["exps"].items():
                term *= values[var] ** int(exp)
            total += term
        return total
    if "num" in poly:
        return _evaluate_json(poly["num"], values) / \
            _evaluate_json(poly["den"], values)
    if "z_terms" in poly:
        z = values["z"]
        return sum((_evaluate_json(t["poly"], values) * z ** int(t["z"])
                    for t in poly["z_terms"]), Fraction(0))
    raise ValueError(f"unknown polynomial form: {sorted(poly)}")


def _evaluate_text(text: str, values: dict) -> Fraction:
    """Infix grammar: binary and unary + and -, * and / (or juxtaposition),
    ^ or ** with an integer exponent that may be negative or parenthesised;
    integers, variables and parentheses as atoms."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"unparsed output: {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(want=None):
        nonlocal pos
        tok = peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want or 'more'} at {pos}: {text!r}")
        pos += 1
        return tok

    def expr():
        val = term()
        while peek() in ("+", "-"):
            val = val + term() if take() == "+" else val - term()
        return val

    def term():
        val = unary()
        while True:
            tok = peek()
            if tok in ("*", "/"):
                take()
                val = val * unary() if tok == "*" else val / unary()
            elif tok is not None and (tok == "(" or tok[0].isalnum()
                                      or tok[0] == "_"):
                val *= unary()
            else:
                return val

    def unary():
        if peek() in ("+", "-"):
            return unary() if take() == "+" else -unary()
        return power()

    def power():
        val = atom()
        if peek() in ("^", "**"):
            take()
            exp = unary()  # right-associative, may carry a sign
            if exp.denominator != 1:
                raise ValueError(f"non-integer exponent {exp}: {text!r}")
            val = val ** int(exp)
        return val

    def atom():
        tok = take()
        if tok == "(":
            val = expr()
            take(")")
            return val
        if tok[0].isdigit():
            return Fraction(int(tok))
        if tok[0].isalpha() or tok[0] == "_":
            return values[tok]
        raise ValueError(f"unexpected {tok!r}: {text!r}")

    val = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing output: {text!r}")
    return val
