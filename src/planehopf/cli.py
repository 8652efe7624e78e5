"""Command-line front end.

Subcommands: forest, tamari, hopf, nsym, birkhoff, idem, ehrhart, verify.
Output is text or JSON (``--format``); JSON is deterministic (sorted keys
and term lists) and coefficients are always exact strings, never floats.

Exit codes: 0 ok, 1 a check failed (``verify`` and ``idem verify``), 2 usage
error, 3 domain error (bad codes or parameters), 4 cost-guard rejection,
input nested past the recursion limit included.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import birkhoff, ehrhart, fqsym, hopf, idempotents, ncsf, tamari
from .forests import (CodeError, catalan_count, enumerate_forests,
                      enumerate_trees, forest_code, forest_size, parse_forest)
from .fqsym import DegreeGuard
from .laurent import LaurentPoly
from .lincomb import LinComb
from .ncsf import r_to_s, s_to_r
from .polynomials import MultiPoly, RationalFn

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_GUARD = 4

# nsym embed reads Gamma_F once per non-plane shape of the degree: in a fresh
# process 0.14 s and 20 MB at 9, 0.65 s and 41 MB at 10, 3.0 s and 148 MB at
# 11; the cap stays 7, since the contract tests and the cli_cold benchmark
# check that degrees 8 and 9 are refused
MAX_EMBED_DEGREE = 7
# idem solomon and idem qsolomon in the ribbon basis list all 2^(n-1)
# ribbons of the degree: qsolomon 2.0 s at 12 and 5.4 s at 13, solomon
# 0.9 s at 12, 3.1 s at 13 and 8.4 s at 14, each in a fresh process
MAX_RIBBON_DEGREE = 12
# the largest up-set (a chain's) takes 0.02 s at 10 nodes and 0.35 s at 12,
# the largest down-set 0.02 s at 10; birkhoff sigma-plus reads one root-count
# table of the degree, with one row per non-plane shape, 0.22 s and 31 MB at
# 9 in a fresh process (0.3 s and 38 MB at 10 and 1.0 s and 100 MB at 11 in
# the library), and the cap stays 9, since the contract tests check that 10
# is refused; idem eulerian dots one integer row with the point counts of
# every forest shape, 0.1 s at 9 in a fresh process (0.1-0.2 s and 21 MB at
# 10 and 0.45 s and 33 MB at 11 in the library)
MAX_TAMARI_SIZE = 9
# ehrhart poly interpolates the point counts of |F| + 1 dilations; on 800
# nodes, in a fresh process, the chain takes 0.4 s, the singletons 0.9 s and
# 400 copies of 10 0.7 s
MAX_EHRHART_SIZE = 800
# hopf product grafts only the asked pair; in the C basis it also expands
# both factors and peels the product back, which sets the cap: 4 singletons
# by 5 take 0.96 s and 65 MB in a fresh process, 5 by 5 take 5.9 s and
# 314 MB in the library
MAX_PRODUCT_SIZE = 9
# ehrhart points tries every point of {0..n}^|F|, and ehrhart qcount shares
# its guard; birkhoff words lists every word of the model, birkhoff d-lambda
# in the C and ribbon bases every arrangement of the padded partition, forest
# list every forest, hopf coproduct in the Y basis every cut, and nsym psi,
# nsym psibar and idem dynkin in the ribbon basis every part of the n hooks
MAX_LATTICE_CANDIDATES = 10 ** 6
# verify at the cap and one above, each in a fresh CLI process on 2 vCPUs:
# factorization 0.3 s, 1.2 s (8.7 s at 7; kept at 5: the contract tests expect
# 6 refused); hopf 0.4 s, 2 s (kept at 7: the contract tests expect 8 refused);
# words 2.0 s and 24 MB, 6.3 s and 38 MB; dendriform 0.6 s, 2.4 s; tamari
# 0.6 s and 60 MB, 3.9 s and 328 MB (kept at 8: the contract tests expect 9
# refused); quotient 0.6 s, then its degree guard; idempotents 3.2 s and
# 38 MB, 14.1 s and 87 MB; idem verify primitive 2.7 s and 64 MB, 8.6 s and
# 217 MB; quasi 0.13 s at 7, 0.6 s at 8 (kept at 6: cli_cold wants 7 refused)
MAX_VERIFY_DEGREE = {"factorization": 5, "hopf": 7, "words": 10, "dendriform": 8,
                     "tamari": 8, "quotient": fqsym.MAX_QUOTIENT_DEGREE,
                     "idempotents": 10, "primitive": 11, "quasi": 6}


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


def _refuse_over(command: str, what: str, size: int, cap: int) -> None:
    """Refuse with exit 4, before any work, when ``size`` is over ``cap``.
    The counts that can be huge come capped at cap + 1 from the modules
    that list the objects, so the message states a lower bound."""
    if size > cap:
        raise DegreeGuard(f"{command}: {what} is at least {size}, "
                          f"over the cap {cap}")


def _coeff_str(c) -> str:
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
    """Key text -> coefficient text, each coefficient object rendered once;
    both ``_emit`` paths sort the keys."""
    shared = {id(c): c for c in a.terms.values()}
    texts = {i: _coeff_str(c) for i, c in shared.items()}
    return {_key_str(k): texts[id(c)] for k, c in a.terms.items()}


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
    what = "trees" if args.trees else "forests"
    _refuse_over("forest list", f"the number of {what}",
                 catalan_count(args.n - 1 if args.trees else args.n,
                               MAX_LATTICE_CANDIDATES + 1),
                 MAX_LATTICE_CANDIDATES)
    f_list = enumerate_trees(args.n) if args.trees else enumerate_forests(args.n)
    codes = sorted(forest_code((t,) if args.trees else t) for t in f_list)
    return _emit(args, {"command": "forest list", "n": args.n, "codes": codes})


def _cmd_tamari(args) -> int:
    f = _parse_forest_arg(args.lower if args.action == "leq" else args.forest)
    if args.action == "leq":
        hi = _parse_forest_arg(args.upper)
        if forest_size(f) != forest_size(hi):
            raise DomainError("leq needs forests of equal size")
        return _emit(args, {"command": "tamari leq", "lower": args.lower,
                            "upper": args.upper, "result": tamari.leq(f, hi)})
    _refuse_over(f"tamari {args.action}", "the size", forest_size(f),
                 MAX_TAMARI_SIZE)
    fam = tamari.upset(f) if args.action == "upset" else tamari.downset(f)
    return _emit(args, {"command": f"tamari {args.action}",
                        "forest": forest_code(f),
                        "codes": sorted(forest_code(g) for g in fam)})


def _cmd_hopf(args) -> int:
    if args.action == "coproduct":
        f = _parse_forest_arg(args.forest)
        if args.basis == "Y":
            _refuse_over("hopf coproduct in the Y basis", "the number of cuts",
                         hopf.cut_count(f, MAX_LATTICE_CANDIDATES + 1),
                         MAX_LATTICE_CANDIDATES)
        cop = hopf.y_coproduct(f) if args.basis == "Y" else hopf.x_coproduct(f)
        payload = {_pair_key_str(k): _coeff_str(c)
                   for k, c in sorted(cop.terms.items(),
                                      key=lambda kv: _pair_key_str(kv[0]))}
        return _emit(args, {"command": "hopf coproduct", "basis": args.basis,
                            "forest": forest_code(f), "terms": payload})
    left = _parse_forest_arg(args.left)
    right = _parse_forest_arg(args.right)
    _refuse_over(f"hopf product in the {args.basis} basis", "the size",
                 forest_size(left) + forest_size(right),
                 MAX_PRODUCT_SIZE)
    if args.basis == "X":
        prod = hopf.x_product(left, right)
    elif args.basis == "Y":
        prod = LinComb.monomial(left + right)
    else:
        prod = hopf.x_to_c(hopf.x_product_lin(hopf.c_to_x(left),
                                              hopf.c_to_x(right)))
    return _emit(args, {"command": "hopf product", "basis": args.basis,
                        "left": forest_code(left), "right": forest_code(right),
                        "terms": _terms_payload(prod)})


def _cmd_nsym(args) -> int:
    i = _parse_composition(args.I)
    if args.action == "embed":
        _refuse_over("nsym embed", "the degree", sum(i), MAX_EMBED_DEGREE)
        emb = {"R": ncsf.embed_r, "S": ncsf.embed_s, "L": ncsf.embed_lambda}
        result = emb[args.basis](i)
        return _emit(args, {"command": "nsym embed", "basis": args.basis,
                            "I": args.I, "terms": _terms_payload(result)})
    if args.n is None:
        raise DomainError(f"nsym {args.action} needs --n")
    if args.n < 1:
        raise DomainError(f"nsym {args.action} needs --n >= 1")
    _refuse_over(f"nsym {args.action}", "the number of hook parts",
                 ncsf.hook_part_count(args.n, MAX_LATTICE_CANDIDATES + 1),
                 MAX_LATTICE_CANDIDATES)
    a = ncsf.psi_n(args.n) if args.action == "psi" else ncsf.psi_bar_n(args.n)
    return _emit(args, {"command": f"nsym {args.action}", "n": args.n,
                        "terms": _terms_payload(a)})


def _cmd_birkhoff(args) -> int:
    if args.action == "sigma-plus":
        if args.n is None:
            raise DomainError("birkhoff sigma-plus needs --n")
        _refuse_over("birkhoff sigma-plus", "the size", args.n, MAX_TAMARI_SIZE)
        a = (birkhoff.a_series_ab(args.n) if args.spec == "ab"
             else birkhoff.a_series(args.n))
        sp = birkhoff.sigma_plus(args.n, a)
        return _emit(args, {"command": "birkhoff sigma-plus", "n": args.n,
                            "spec": args.spec,
                            "terms": _terms_payload(sp)})
    if args.action == "d-lambda":
        lam = _parse_composition(args.lam)
        if tuple(sorted(lam, reverse=True)) != lam:
            raise DomainError("--lambda must be a partition")
        if args.n is not None and args.n != sum(lam) + 1:
            raise DomainError("--n must equal 1 + sum of --lambda")
        if args.basis == "X":
            _refuse_over("birkhoff d-lambda in the X basis", "the size",
                         sum(lam) + 1, MAX_TAMARI_SIZE)
            d = birkhoff.d_lambda_x(lam)
        else:
            _refuse_over("birkhoff d-lambda", "the number of arrangements",
                         birkhoff.arrangement_count(
                             lam, MAX_LATTICE_CANDIDATES + 1),
                         MAX_LATTICE_CANDIDATES)
            d = (birkhoff.d_lambda(lam) if args.basis == "C"
                 else birkhoff.d_lambda_ribbon(lam))
        return _emit(args, {"command": "birkhoff d-lambda", "lambda": args.lam,
                            "basis": args.basis, "terms": _terms_payload(d)})
    i = _parse_composition(args.I)
    _refuse_over("birkhoff words", f"|{args.model}(I)|",
                 birkhoff.word_count(i, args.model, MAX_LATTICE_CANDIDATES + 1),
                 MAX_LATTICE_CANDIDATES)
    words = birkhoff.words_w(i) if args.model == "W" else birkhoff.words_s(i)
    return _emit(args, {"command": "birkhoff words", "I": args.I,
                        "model": args.model, "count": len(words),
                        "words": sorted("".join(map(str, w)) for w in words)})


def _cmd_idem(args) -> int:
    n = args.n
    if n < 1 and args.action in ("dynkin", "solomon", "qsolomon", "verify"):
        raise DomainError(f"idem {args.action} needs --n >= 1")
    if args.action == "verify":
        return _idem_verify(args, n)
    if args.action == "eulerian":
        if args.k is None:
            raise DomainError("eulerian needs --k")
        if args.basis == "R":
            raise DomainError("eulerian pieces live in the X basis only")
        _refuse_over("idem eulerian", "the size", n, MAX_TAMARI_SIZE)
        elem_x = idempotents.eulerian(n, args.k)
        return _emit(args, {"command": "idem eulerian", "n": n, "k": args.k,
                            "terms": _terms_payload(elem_x)})
    if args.basis != "X" and args.action in ("solomon", "qsolomon"):
        _refuse_over(f"idem {args.action} in the ribbon basis", "the degree",
                     n, MAX_RIBBON_DEGREE)
    if args.basis == "X" and args.action != "qsolomon":
        # Psi, Psi-bar and Solomon embed every ribbon of the degree
        _refuse_over(f"idem {args.action} in the X basis", "the degree", n,
                     MAX_EMBED_DEGREE)
    if args.action == "dynkin":
        if args.basis == "X":
            psi, psibar = idempotents.dynkin_x(n)
        else:
            _refuse_over("idem dynkin", "the number of hook parts",
                         ncsf.hook_part_count(n, MAX_LATTICE_CANDIDATES + 1),
                         MAX_LATTICE_CANDIDATES)
            psi, psibar = idempotents.dynkin(n)
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
    _refuse_over(f"idem verify --what {args.what}", "the degree", n,
                 MAX_VERIFY_DEGREE[args.what])
    named = {
        "psi": ncsf.psi_n(n),
        "psi_bar": ncsf.psi_bar_n(n),
        "solomon": s_to_r(idempotents.solomon(n)),
    }
    results, oks = {}, []
    for name, elem in named.items():
        if args.what == "primitive":
            ok = results[name] = idempotents.is_primitive(r_to_s(elem))
        else:
            ok, c = idempotents.quasi_idempotent_check(elem, n)
            results[name] = f"ok, scalar {c}" if ok else "FAILED"
        oks.append(ok)
    _emit(args, {"command": f"idem verify {args.what}", "n": n,
                 "results": results, "passed": all(oks)})
    return EXIT_OK if all(oks) else 1


def _cmd_ehrhart(args) -> int:
    f = _parse_forest_arg(args.forest)
    if args.action == "poly":
        _refuse_over("ehrhart poly", "the size", forest_size(f),
                     MAX_EHRHART_SIZE)
        return _emit(args, {"command": "ehrhart poly",
                            "forest": forest_code(f),
                            "poly": ehrhart.ehrhart_polynomial(f).text()})
    if args.n is None:
        raise DomainError(f"ehrhart {args.action} needs --n")
    if args.n < 0:
        raise DomainError("dilation factor must be nonnegative")
    _refuse_over(f"ehrhart {args.action}", "(n+1)^|F|",
                 ehrhart.candidate_count(f, args.n, MAX_LATTICE_CANDIDATES + 1),
                 MAX_LATTICE_CANDIDATES)
    if args.action == "points":
        pts = ehrhart.lattice_points(f, args.n, interior=args.interior)
        return _emit(args, {"command": "ehrhart points",
                            "forest": forest_code(f), "n": args.n,
                            "interior": args.interior, "count": len(pts),
                            "points": sorted(",".join(map(str, p)) for p in pts)})
    qc = ehrhart.q_count(f, args.n, interior=args.interior)
    signed = {str(e): str(qc[e]) for e in sorted(qc)}
    # a boundary count has no negative coefficient
    unsigned = ({str(e): str(abs(qc[e])) for e in sorted(qc)}
                if args.interior else signed)
    return _emit(args, {"command": "ehrhart qcount", "forest": forest_code(f),
                        "n": args.n, "interior": args.interior,
                        "q_terms": signed, "q_terms_abs": unsigned})


def _cmd_verify(args) -> int:
    from . import checks

    suites = checks.SUITES
    if args.suite not in suites:
        raise DomainError(f"unknown suite {args.suite!r}; "
                          f"choose from {sorted(suites)}")
    if args.n < 1:
        raise DomainError(f"verify --suite {args.suite} needs --n >= 1")
    _refuse_over(f"verify --suite {args.suite}", "the degree", args.n,
                 MAX_VERIFY_DEGREE[args.suite])
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
    b.add_argument("--spec", choices=("generic", "ab"), default="generic")
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
    except (DegreeGuard, RecursionError) as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (DomainError, CodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
