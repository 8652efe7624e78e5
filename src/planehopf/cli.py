"""Command-line front end.

Subcommands: forest, tamari, hopf, nsym, birkhoff, idem, ehrhart, verify.
Output is text or JSON (``--format``); JSON is deterministic (sorted keys
and term lists) and coefficients are always exact strings, never floats.

Exit codes: 0 ok, 2 usage error, 3 domain error (bad codes or parameters),
4 cost-guard rejection, input nested past the recursion limit included.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from math import factorial

from . import birkhoff, ehrhart, hopf, idempotents, ncsf, tamari
from .compositions import refinements
from .forests import (CodeError, enumerate_forests, enumerate_trees,
                      forest_code, forest_size, parse_forest)
from .fqsym import DegreeGuard
from .idempotents import GroupDegreeGuard
from .laurent import LaurentPoly, LaurentWindowOverflow
from .lincomb import LinComb
from .ncsf import r_to_s, s_to_r
from .polynomials import MultiPoly, RationalFn

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_GUARD = 4

# nsym embed reads Gamma_F of every forest of the degree off the tree
# recursion: 0.03 s at degree 7, 0.19 s at 8 and 1.2 s and 62 MB at 9 in a
# fresh process; the cap stays 7, since the contract tests and the cli_cold
# benchmark check that degrees 8 and 9 are refused
MAX_EMBED_DEGREE = 7
# the largest up-set (a chain's) takes 0.02 s at 10 nodes and 0.35 s at 12,
# the largest down-set 0.02 s at 10; birkhoff sigma-plus takes one up-set per
# forest, 5.1 s and 190 MB at 9, and idem eulerian every forest, 3.5 s at 9;
# ehrhart qcount builds Gamma_F, 0.27 s for 12 singletons, 3.0 s for 14 and
# 12.8 s and 204 MB for a 4-node tree followed by 10 singletons
MAX_TAMARI_SIZE = 9
# hopf product: 1.4 s at 8 nodes in total, 24.9 s at 10; through the C
# basis, singletons by singletons, 1.6 s at 8 and 13 s at 9
MAX_PRODUCT_SIZE = {"X": 9, "Y": 9, "C": 8}
# ehrhart points tries every point of {0..n}^|F|, and ehrhart qcount lists
# C(n+|F|, |F|) monomials, no more than that; birkhoff words lists every
# word of the model, and birkhoff d-lambda in the C and ribbon bases every
# arrangement of the padded partition
MAX_LATTICE_CANDIDATES = 10 ** 6


class DomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Parsing and serialization helpers

def _parse_forest_arg(text: str):
    try:
        return parse_forest(text)
    except (CodeError, ValueError) as exc:
        raise DomainError(str(exc)) from exc


def _parse_composition(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad composition {text!r}") from exc
    if any(p <= 0 for p in parts):
        raise DomainError(f"composition parts must be positive: {text!r}")
    return parts


def _coeff_str(c) -> str:
    if isinstance(c, (int, Fraction)):
        return str(c)
    if isinstance(c, (MultiPoly, RationalFn, LaurentPoly)):
        return c.text()
    return str(c)


def _key_str(key) -> str:
    if isinstance(key, tuple) and (not key or isinstance(key[0], tuple)):
        return forest_code(key) or "e"
    if isinstance(key, tuple):
        return ",".join(str(p) for p in key) or "e"
    return str(key)


def _terms_payload(a: LinComb) -> dict:
    return {_key_str(k): _coeff_str(c)
            for k, c in sorted(a.terms.items(), key=lambda kv: _key_str(kv[0]))}


def _pair_key_str(key) -> str:
    left, right = key
    return f"{_key_str(left)} (x) {_key_str(right)}"


def _emit(args, payload: dict) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        _emit_text(payload)
    return EXIT_OK


def _emit_text(payload, indent: str = "") -> None:
    for k in sorted(payload) if isinstance(payload, dict) else []:
        v = payload[k]
        if isinstance(v, dict):
            print(f"{indent}{k}:")
            _emit_text(v, indent + "  ")
        elif isinstance(v, list):
            print(f"{indent}{k}: " + " ".join(str(x) for x in v))
        else:
            print(f"{indent}{k}: {v}")


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_forest(args) -> int:
    if args.action == "parse":
        f = _parse_forest_arg(args.code)
        return _emit(args, {"command": "forest parse", "code": forest_code(f),
                            "size": forest_size(f), "trees": len(f)})
    f_list = enumerate_trees(args.n) if args.trees else enumerate_forests(args.n)
    codes = sorted(forest_code((t,) if args.trees else t) for t in f_list)
    return _emit(args, {"command": "forest list", "n": args.n, "codes": codes})


def _cmd_tamari(args) -> int:
    f = _parse_forest_arg(args.lower if args.action == "leq" else args.forest)
    if args.action == "leq":
        hi = _parse_forest_arg(args.upper)
        if forest_size(f) != forest_size(hi):
            raise DomainError("leq needs forests of equal size")
    if forest_size(f) > MAX_TAMARI_SIZE:
        raise DegreeGuard(f"tamari {args.action} needs size "
                          f"{forest_size(f)} > {MAX_TAMARI_SIZE}")
    if args.action == "leq":
        return _emit(args, {"command": "tamari leq", "lower": args.lower,
                            "upper": args.upper, "result": tamari.leq(f, hi)})
    fam = tamari.upset(f) if args.action == "upset" else tamari.downset(f)
    return _emit(args, {"command": f"tamari {args.action}",
                        "forest": forest_code(f),
                        "codes": sorted(forest_code(g) for g in fam)})


def _cmd_hopf(args) -> int:
    if args.action == "coproduct":
        f = _parse_forest_arg(args.forest)
        cop = hopf.y_coproduct(f) if args.basis == "Y" else hopf.x_coproduct(f)
        payload = {_pair_key_str(k): _coeff_str(c)
                   for k, c in sorted(cop.terms.items(),
                                      key=lambda kv: _pair_key_str(kv[0]))}
        return _emit(args, {"command": "hopf coproduct", "basis": args.basis,
                            "forest": forest_code(f), "terms": payload})
    left = _parse_forest_arg(args.left)
    right = _parse_forest_arg(args.right)
    size = forest_size(left) + forest_size(right)
    if size > MAX_PRODUCT_SIZE[args.basis]:
        raise DegreeGuard(f"hopf product in the {args.basis} basis needs size "
                          f"{size} > {MAX_PRODUCT_SIZE[args.basis]}")
    if args.basis == "X":
        prod = hopf.x_product(left, right)
    elif args.basis == "Y":
        prod = LinComb.monomial(left + right, Fraction(1))
    else:
        prod = hopf.x_to_c(hopf.x_product_lin(hopf.c_to_x(left),
                                              hopf.c_to_x(right)))
    return _emit(args, {"command": "hopf product", "basis": args.basis,
                        "left": forest_code(left), "right": forest_code(right),
                        "terms": _terms_payload(prod)})


def _cmd_nsym(args) -> int:
    i = _parse_composition(args.I)
    if args.action == "embed":
        if sum(i) > MAX_EMBED_DEGREE:
            raise DegreeGuard(f"nsym embed needs degree {sum(i)} > {MAX_EMBED_DEGREE}")
        emb = {"R": ncsf.embed_r, "S": ncsf.embed_s, "L": ncsf.embed_lambda}
        result = emb[args.basis](i)
        return _emit(args, {"command": "nsym embed", "basis": args.basis,
                            "I": args.I, "terms": _terms_payload(result)})
    if args.n is None:
        raise DomainError("nsym psi needs --n")
    a = ncsf.psi_n(args.n) if args.action == "psi" else ncsf.psi_bar_n(args.n)
    return _emit(args, {"command": f"nsym {args.action}", "n": args.n,
                        "terms": _terms_payload(a)})


def _cmd_birkhoff(args) -> int:
    if args.action == "sigma-plus":
        if args.n is None:
            raise DomainError("birkhoff sigma-plus needs --n")
        if args.n > MAX_TAMARI_SIZE:
            raise DegreeGuard(f"birkhoff sigma-plus needs size "
                              f"{args.n} > {MAX_TAMARI_SIZE}")
        a = birkhoff.a_series_ab(args.n) if args.spec else birkhoff.a_series(args.n)
        sp = birkhoff.sigma_plus(args.n, a)
        return _emit(args, {"command": "birkhoff sigma-plus", "n": args.n,
                            "spec": args.spec or "generic",
                            "terms": _terms_payload(sp)})
    if args.action == "d-lambda":
        lam = _parse_composition(args.lam)
        if tuple(sorted(lam, reverse=True)) != lam:
            raise DomainError("--lambda must be a partition")
        if args.n is not None and args.n != sum(lam) + 1:
            raise DomainError("--n must equal 1 + sum of --lambda")
        if args.basis == "X":
            if sum(lam) + 1 > MAX_TAMARI_SIZE:
                raise DegreeGuard(f"birkhoff d-lambda in the X basis needs size "
                                  f"{sum(lam) + 1} > {MAX_TAMARI_SIZE}")
            d = birkhoff.d_lambda_x(lam)
        else:
            count = _arrangement_count(lam)
            if count > MAX_LATTICE_CANDIDATES:
                raise DegreeGuard(f"birkhoff d-lambda needs {count} arrangements "
                                  f"> {MAX_LATTICE_CANDIDATES}")
            d = (birkhoff.d_lambda(lam) if args.basis == "C"
                 else birkhoff.d_lambda_ribbon(lam))
        return _emit(args, {"command": "birkhoff d-lambda", "lambda": args.lam,
                            "basis": args.basis, "terms": _terms_payload(d)})
    i = _parse_composition(args.I)
    size = _words_size(i, args.model)
    if size > MAX_LATTICE_CANDIDATES:
        raise DegreeGuard(f"birkhoff words needs |{args.model}(I)| > "
                          f"{MAX_LATTICE_CANDIDATES}")
    words = birkhoff.words_w(i) if args.model == "W" else birkhoff.words_s(i)
    return _emit(args, {"command": "birkhoff words", "I": args.I,
                        "model": args.model, "count": len(words),
                        "words": sorted("".join(map(str, w)) for w in words)})


def _words_size(i: tuple[int, ...], model: str) -> int:
    """|W(I)| or |S(I)|.  S(I) is the disjoint union of W(J) over the J finer
    than I; it contains W(1^n), so when that alone is over the budget its
    size is returned instead of summing over 2^(n-1) refinements."""
    if model == "W":
        return birkhoff.catalan_block_count(i)
    finest = birkhoff.catalan_block_count((1,) * sum(i))
    if finest > MAX_LATTICE_CANDIDATES:
        return finest
    return sum(map(birkhoff.catalan_block_count, refinements(i)))


def _arrangement_count(lam: tuple[int, ...]) -> int:
    """The number of distinct arrangements of lambda padded with zeros to
    length |lambda| + 1, the words that d_lambda and d_lambda_ribbon list."""
    n = sum(lam) + 1
    count = factorial(n) // factorial(n - len(lam))
    for mult in Counter(lam).values():
        count //= factorial(mult)
    return count


def _cmd_idem(args) -> int:
    n = args.n
    if args.action == "verify":
        return _idem_verify(args, n)
    if args.action == "eulerian":
        if args.k is None:
            raise DomainError("eulerian needs --k")
        if args.basis == "R":
            raise DomainError("eulerian pieces live in the X basis only")
        if n > MAX_TAMARI_SIZE:
            raise DegreeGuard(f"idem eulerian needs size {n} > {MAX_TAMARI_SIZE}")
        elem_x = idempotents.eulerian(n, args.k)
        return _emit(args, {"command": "idem eulerian", "n": n, "k": args.k,
                            "terms": _terms_payload(elem_x)})
    if args.action == "dynkin":
        psi, psibar = idempotents.dynkin(n)
        if args.basis == "X":
            psi, psibar = idempotents.dynkin_x(n)
        return _emit(args, {"command": "idem dynkin", "n": n,
                            "psi": _terms_payload(psi),
                            "psi_bar": _terms_payload(psibar)})
    if args.action == "solomon":
        elem = (idempotents.solomon_x(n) if args.basis == "X"
                else s_to_r(idempotents.solomon(n)))
        return _emit(args, {"command": "idem solomon", "n": n,
                            "terms": _terms_payload(elem)})
    if args.basis == "X":
        raise DomainError("qsolomon is reported in the ribbon basis only")
    return _emit(args, {"command": "idem qsolomon", "n": n,
                        "terms": _terms_payload(idempotents.q_solomon(n))})


def _idem_verify(args, n: int) -> int:
    named = {
        "psi": ncsf.psi_n(n),
        "psi_bar": ncsf.psi_bar_n(n),
        "solomon": s_to_r(idempotents.solomon(n)),
    }
    results = {}
    for name, elem in named.items():
        if args.what == "primitive":
            results[name] = idempotents.is_primitive(r_to_s(elem))
        else:
            ok, c = idempotents.quasi_idempotent_check(elem, n)
            results[name] = f"ok, scalar {c}" if ok else "FAILED"
    payload = {"command": f"idem verify {args.what}", "n": n,
               "results": results,
               "passed": all("FAILED" not in str(v) for v in results.values())}
    return _emit(args, payload)


def _cmd_ehrhart(args) -> int:
    f = _parse_forest_arg(args.forest)
    if args.action == "poly":
        return _emit(args, {"command": "ehrhart poly",
                            "forest": forest_code(f),
                            "poly": ehrhart.ehrhart_polynomial(f).text()})
    if args.n is None:
        raise DomainError(f"ehrhart {args.action} needs --n")
    if args.n < 0:
        raise DomainError("dilation factor must be nonnegative")
    if (args.n + 1) ** forest_size(f) > MAX_LATTICE_CANDIDATES:
        raise DegreeGuard(f"ehrhart {args.action} needs (n+1)^|F| = "
                          f"{args.n + 1}^{forest_size(f)} > {MAX_LATTICE_CANDIDATES}")
    if args.action == "points":
        pts = ehrhart.lattice_points(f, args.n, interior=args.interior)
        return _emit(args, {"command": "ehrhart points",
                            "forest": forest_code(f), "n": args.n,
                            "interior": args.interior, "count": len(pts),
                            "points": sorted(",".join(map(str, p)) for p in pts)})
    if forest_size(f) > MAX_TAMARI_SIZE:
        raise DegreeGuard(f"ehrhart qcount needs size {forest_size(f)} > "
                          f"{MAX_TAMARI_SIZE}")
    qc = ehrhart.q_count(f, args.n, interior=args.interior)
    signed = {str(e): str(qc[e]) for e in sorted(qc)}
    unsigned = {str(e): str(abs(qc[e])) for e in sorted(qc)}
    return _emit(args, {"command": "ehrhart qcount", "forest": forest_code(f),
                        "n": args.n, "interior": args.interior,
                        "q_terms": signed, "q_terms_abs": unsigned})


def _cmd_verify(args) -> int:
    from . import checks

    suites = checks.SUITES
    if args.suite not in suites:
        raise DomainError(f"unknown suite {args.suite!r}; "
                          f"choose from {sorted(suites)}")
    failures = suites[args.suite](args.n)
    payload = {"command": "verify", "suite": args.suite, "n": args.n,
               "passed": not failures, "counterexamples": failures}
    _emit(args, payload)
    return EXIT_OK if not failures else 1


# ---------------------------------------------------------------------------
# Argument parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="planehopf")
    p.add_argument("--format", choices=("text", "json"), default="text")
    # accept --format after the subcommand as well, without clobbering a
    # value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[common], **kw))

    f = sub.add_parser("forest")
    f.add_argument("action", choices=("parse", "list"))
    f.add_argument("--code", default="")
    f.add_argument("--n", type=int, default=1)
    f.add_argument("--trees", action="store_true")
    f.set_defaults(fn=_cmd_forest)

    t = sub.add_parser("tamari")
    t.add_argument("action", choices=("upset", "downset", "leq"))
    t.add_argument("--forest", default="")
    t.add_argument("--lower", default="")
    t.add_argument("--upper", default="")
    t.set_defaults(fn=_cmd_tamari)

    h = sub.add_parser("hopf")
    h.add_argument("action", choices=("coproduct", "product"))
    h.add_argument("--forest", default="")
    h.add_argument("--left", default="")
    h.add_argument("--right", default="")
    h.add_argument("--basis", choices=("X", "Y", "C"), default="X")
    h.set_defaults(fn=_cmd_hopf)

    m = sub.add_parser("nsym")
    m.add_argument("action", choices=("embed", "psi", "psibar"))
    m.add_argument("--I", default="")
    m.add_argument("--basis", choices=("R", "S", "L"), default="R")
    m.add_argument("--n", type=int)
    m.set_defaults(fn=_cmd_nsym)

    b = sub.add_parser("birkhoff")
    b.add_argument("action", choices=("sigma-plus", "d-lambda", "words"))
    b.add_argument("--n", type=int)
    b.add_argument("--spec", default="")
    b.add_argument("--lambda", dest="lam", default="")
    b.add_argument("--basis", choices=("C", "X", "R"), default="C")
    b.add_argument("--I", default="")
    b.add_argument("--model", choices=("W", "S"), default="W")
    b.set_defaults(fn=_cmd_birkhoff)

    i = sub.add_parser("idem")
    i.add_argument("action",
                   choices=("dynkin", "solomon", "eulerian", "qsolomon",
                            "verify"))
    i.add_argument("--n", type=int, required=True)
    i.add_argument("--k", type=int)
    i.add_argument("--basis", choices=("R", "X"), default=None)
    i.add_argument("--what", choices=("primitive", "quasi"),
                   default="primitive")
    i.set_defaults(fn=_cmd_idem)

    e = sub.add_parser("ehrhart")
    e.add_argument("action", choices=("poly", "points", "qcount"))
    e.add_argument("--forest", required=True)
    e.add_argument("--n", type=int)
    e.add_argument("--interior", action="store_true")
    e.set_defaults(fn=_cmd_ehrhart)

    v = sub.add_parser("verify")
    v.add_argument("--suite", required=True)
    v.add_argument("--n", type=int, default=4)
    v.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DegreeGuard, GroupDegreeGuard, LaurentWindowOverflow,
            RecursionError) as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (DomainError, CodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
