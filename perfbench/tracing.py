"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every ``umbralops`` module
and rebinds each wrapped name wherever a loaded module holds a reference to
it: in every module namespace that imported it (the package's own modules
and the benchmark's), in module-level dicts such as ``CONSTRUCTIONS`` and
``SUITES``, and on the classes whose methods are traced.  ``uninstall`` puts
every original back.

Most wrappers record a span: calls, inclusive seconds (outermost activation
only, so recursion is not double-counted) and self seconds (inclusive minus
the spans nested inside it).  The hottest functions are counted only, to
bound the overhead; their time lands in the caller's self time.  The three
mode predicates of ``scalars`` are not wrapped at all: ``coerce`` calls
``check_mode`` on every call, and their time lands in their callers.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from fractions import Fraction
from time import perf_counter


LAYERS = (
    "scalars",
    "series",
    "polynomials",
    "operators",
    "umbral",
    "laguerre",
    "bivariate",
    "corpus",
    "verify",
    "cli",
)

# (module, class) -> traced method names; module functions are found by scan.
METHODS = {
    ("series", "TruncatedSeries"): ("__mul__", "compose", "comp_inverse"),
    ("polynomials", "Polynomial"): ("__init__",),
}
COUNT_ONLY = {
    "scalars.coerce",
    "series.TruncatedSeries.__mul__",
    "polynomials.Polynomial.__init__",
}
NOT_WRAPPED = {"scalars.check_mode", "scalars.infer_mode", "scalars.common_mode"}

SUITES = (
    "formulas",
    "duality",
    "itlog",
    "ode",
    "genfun",
    "group",
    "coeff",
    "kernel",
    "laguerre",
    "float",
)
CONSTRUCTION_SPANS = {
    "garsia": "umbral.umbral_garsia",
    "steffensen": "umbral.umbral_steffensen",
    "steffensen2": "umbral.umbral_steffensen2",
    "bucc": "umbral.umbral_bucc",
    "expitlog": "umbral.umbral_exp_itlog",
    "fractional_iterate": "umbral.fractional_iterate",
    "frac_power": "umbral.frac_power",
    "flow": "umbral.flow",
}
OPERATOR_SPANS = (
    "log_unipotent",
    "exp_loc_nilpotent",
    "gen_pow",
    "op_inverse",
    "normal_form",
)

# Every per-layer metric the traced run reports, besides trace.overhead_ratio.
METRICS = (
    "scalars.coerce.calls",
    "scalars.coerce.rewrap_share",
    "polynomials.new.calls",
    "series.mul.calls",
    "series.compose.calls",
    "series.compose.s",
    "series.comp_inverse.s",
    "series.self_s",
    "operators.compose_ops.calls",
    "operators.compose_ops.s",
    *(f"operators.{name}.s" for name in OPERATOR_SPANS),
    "operators.self_s",
    "umbral.itlog.calls",
    "umbral.itlog.s",
    "umbral.itlog.useful_ratio",
    *(f"umbral.{name}.s" for name in CONSTRUCTION_SPANS),
    "umbral.self_s",
    "laguerre.self_s",
    "bivariate.self_s",
    "corpus.load.s",
    *(f"verify.suite.{suite}.s" for suite in SUITES),
    "verify.items",
    "cli.main.calls",
    "cli.self_s",
)
# The figures that must repeat exactly from one traced run to the next.
EXACT = tuple(
    name
    for name in METRICS
    if name.endswith((".calls", ".items", ".rewrap_share", ".useful_ratio"))
)


class _Stat:
    __slots__ = ("calls", "total", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.depth = 0


def _modules():
    return {name: importlib.import_module(f"umbralops.{name}") for name in LAYERS}


def _targets(modules):
    """(key, owner, attribute) for every traced function, keyed module.name."""
    out = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            key = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and key not in NOT_WRAPPED
            ):
                out.append((key, mod, name))
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        out += [(f"{layer}.{cls_name}.{name}", cls, name) for name in names]
    return out


class Tracer:
    """Wraps ``umbralops`` while installed and aggregates what it records."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.itlog_inputs: set = set()
        self.rewraps = 0
        self.verify_items = 0
        self._stack: list[float] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------

    def _span(self, key, fn, on_return=None):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.self_s += elapsed - stack.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total += elapsed
                if stack:
                    stack[-1] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _coerce(self, fn):
        stat = self.stats.setdefault("scalars.coerce", _Stat())

        def coerce(value, mode):
            stat.calls += 1
            if mode == "exact" and type(value) is Fraction:
                self.rewraps += 1
            return fn(value, mode)

        return coerce

    def _itlog(self, fn):
        span = self._span("umbral.itlog", fn)

        def itlog(f):
            self.itlog_inputs.add((f.order, f.mode, f.coeffs))
            return span(f)

        return itlog

    def _wrap(self, key, fn):
        if key == "scalars.coerce":
            return self._coerce(fn)
        if key == "umbral.itlog":
            return self._itlog(fn)
        if key in COUNT_ONLY:
            return self._count(key, fn)
        if key.startswith("verify.suite_"):
            return self._span(key, fn, on_return=self._count_items)
        return self._span(key, fn)

    def _count_items(self, items):
        self.verify_items += len(items)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        modules = _modules()
        wrapped = {}
        for key, owner, name in _targets(modules):
            fn = vars(owner)[name]
            wrapped[id(fn)] = (fn, self._wrap(key, fn))
        for ns in [m for m in list(sys.modules.values()) if m is not None]:
            for name, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    self._rebind(ns, name, value, wrapped[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrapped:
                            value[k] = wrapped[id(v)][1]
                            self._undo.append((value.__setitem__, k, v))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for name, value in list(vars(cls).items()):
                if id(value) in wrapped:
                    self._rebind(cls, name, value, wrapped[id(value)][1])

    def _rebind(self, owner, name, old, new) -> None:
        setattr(owner, name, new)
        self._undo.append((lambda k, v, owner=owner: setattr(owner, k, v), name, old))

    def uninstall(self) -> None:
        while self._undo:
            restore, name, old = self._undo.pop()
            restore(name, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- metrics --------------------------------------------------------

    def _stat(self, key) -> _Stat:
        return self.stats.get(key) or _Stat()

    def _self_s(self, layer) -> float:
        prefix = layer + "."
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        coerce = self._stat("scalars.coerce")
        itlog = self._stat("umbral.itlog")
        compose_ops = self._stat("operators.compose_ops")
        m = {
            "scalars.coerce.calls": (coerce.calls, "count"),
            "scalars.coerce.rewrap_share": (
                self.rewraps / coerce.calls if coerce.calls else 0.0,
                "ratio",
            ),
            "polynomials.new.calls": (self._stat("polynomials.Polynomial.__init__").calls, "count"),
            "series.mul.calls": (self._stat("series.TruncatedSeries.__mul__").calls, "count"),
            "series.compose.calls": (self._stat("series.TruncatedSeries.compose").calls, "count"),
            "series.compose.s": (self._stat("series.TruncatedSeries.compose").total, "s"),
            "series.comp_inverse.s": (self._stat("series.TruncatedSeries.comp_inverse").total, "s"),
            "series.self_s": (self._self_s("series"), "s"),
            "operators.compose_ops.calls": (compose_ops.calls, "count"),
            "operators.compose_ops.s": (compose_ops.total, "s"),
        }
        for name in OPERATOR_SPANS:
            m[f"operators.{name}.s"] = (self._stat(f"operators.{name}").total, "s")
        m["operators.self_s"] = (self._self_s("operators"), "s")
        m["umbral.itlog.calls"] = (itlog.calls, "count")
        m["umbral.itlog.s"] = (itlog.total, "s")
        m["umbral.itlog.useful_ratio"] = (
            len(self.itlog_inputs) / itlog.calls if itlog.calls else 0.0,
            "ratio",
        )
        for name, key in CONSTRUCTION_SPANS.items():
            m[f"umbral.{name}.s"] = (self._stat(key).total, "s")
        m["umbral.self_s"] = (self._self_s("umbral"), "s")
        m["laguerre.self_s"] = (self._self_s("laguerre"), "s")
        m["bivariate.self_s"] = (self._self_s("bivariate"), "s")
        m["corpus.load.s"] = (self._stat("corpus.load_corpus").total, "s")
        for suite in SUITES:
            m[f"verify.suite.{suite}.s"] = (self._stat(f"verify.suite_{suite}").total, "s")
        m["verify.items"] = (self.verify_items, "count")
        m["cli.main.calls"] = (self._stat("cli.main").calls, "count")
        m["cli.self_s"] = (self._self_s("cli"), "s")
        return m

    def counts(self) -> dict:
        m = self.metrics()
        return {name: m[name][0] for name in EXACT}
