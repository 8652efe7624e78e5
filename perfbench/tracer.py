"""Per-function spans around the public functions of planehopf.

``Tracer.install`` wraps each listed function that exists, everywhere the
package holds a reference to it: the defining module or class, the copies
other modules bound with ``from ... import``, and dict-valued tables such
as ``checks.SUITES``.  A listed name that is missing is reported as absent.
Spans keep a stack of child durations, so each function's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import time

# (module, attribute or pattern, metric prefix)
TARGETS = [
    ("polynomials", "MultiPoly.__mul__", None),
    ("polynomials", "MultiPoly.__add__", None),
    ("polynomials", "MultiPoly.substitute", None),
    ("polynomials", "RationalFn.__add__", None),
    ("polynomials", "RationalFn.__mul__", None),
    ("polynomials", "RationalFn.__eq__", None),
    ("laurent", "LaurentPoly.__mul__", None),
    ("laurent", "LaurentPoly.polar_part", None),
    ("lincomb", "LinComb.__add__", None),
    ("lincomb", "LinComb.__sub__", None),
    ("lincomb", "LinComb.scale", None),
    ("lincomb", "LinComb.coeff", None),
    ("linalg", "solve", None),
    ("forests", "enumerate_forests", None),
    ("forests", "linear_extensions", None),
    ("forests", "strict_below_pairs", None),
    ("forests", "restrict_forest", None),
    ("hopf", "lower_subsets", None),
    ("hopf", "x_product", None),
    ("hopf", "x_to_c", None),
    ("hopf", "c_to_x", None),
    ("ncsf", "embed_r", None),
    ("ncsf", "embed_s", None),
    ("ncsf", "nondecreasing_labellings", None),
    ("ncsf", "gamma_qsym_m", None),
    ("ncsf", "eval_xqt", None),
    ("ncsf", "eval_geometric_inf", None),
    ("tamari", "upset", None),
    ("tamari", "downset", None),
    ("birkhoff", "phi_plus", None),
    ("birkhoff", "sigma_plus", None),
    ("birkhoff", "d_lambda_ribbon", None),
    ("idempotents", "q_solomon", None),
    ("idempotents", "transform_over_1mq", None),
    ("idempotents", "quasi_idempotent_check", None),
    ("idempotents", "eulerian", None),
    ("ehrhart", "ehrhart_polynomial", None),
    ("ehrhart", "q_count", None),
    # every verification suite shares one span name
    ("checks", "suite_*", "checks.suite"),
]

MODULES = ("birkhoff", "checks", "cli", "compositions", "ehrhart", "forests",
           "fqsym", "hopf", "idempotents", "laurent", "linalg", "lincomb",
           "ncsf", "perms", "polynomials", "tamari")

# lru_cache tables reported as <module>.<table>.{hits,misses}
CACHE_TABLES = ("forests.enumerate_forests", "forests.enumerate_trees",
                "hopf._product_table", "hopf.c_to_x", "hopf._x_in_c",
                "tamari._up_tree", "tamari._up_forest",
                "fqsym._left_weak_below", "fqsym._m_in_f")


def span_names() -> list:
    return [prefix or f"{mod}.{attr}" for mod, attr, prefix in TARGETS]


def load_modules() -> dict:
    """Import the planehopf modules that exist; short name -> module."""
    out = {}
    for name in MODULES:
        try:
            out[name] = importlib.import_module(f"planehopf.{name}")
        except ModuleNotFoundError:
            continue
    return out


def cache_tables(modules: dict) -> dict:
    """<module>.<name> -> lru_cache wrapper, for tables defined there."""
    out = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and \
                    getattr(obj, "__module__", None) == mod.__name__:
                out[f"{short}.{name}"] = obj
    return out


def clear_caches(tables: dict) -> None:
    for table in tables.values():
        table.cache_clear()


def cache_stats(tables: dict) -> dict:
    out = {}
    for name, table in tables.items():
        info = table.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


class Tracer:
    def __init__(self):
        self.stats: dict = {name: [0, 0.0] for name in span_names()}
        self.absent: list = []
        self.active = False
        self._stack = [0.0]

    def reset(self) -> None:
        for s in self.stats.values():
            s[0], s[1] = 0, 0.0
        self._stack[:] = [0.0]

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur - child

        return span

    def install(self, modules: dict) -> None:
        for mod_name, attr, prefix in TARGETS:
            name = prefix or f"{mod_name}.{attr}"
            mod = modules.get(mod_name)
            owner, _, member = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            if holder is None:
                self.absent.append(name)
                continue
            found = [m for m in list(vars(holder))
                     if fnmatch.fnmatchcase(m, member)
                     and callable(vars(holder)[m])]
            if not found:
                self.absent.append(name)
                continue
            for member_name in found:
                orig = vars(holder)[member_name]
                self._replace(modules, holder, orig, self._wrap(name, orig))

    @staticmethod
    def _replace(modules: dict, holder, orig, wrapped) -> None:
        if isinstance(holder, type):
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapped)
            return
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapped

    def snapshot(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        return out
