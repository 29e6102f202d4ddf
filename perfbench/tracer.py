"""Per-module spans and work counters for gossamer, installed at run time.

``install()`` replaces every public callable of the gossamer modules with a
wrapper: each function in a module's ``__all__`` (or, for modules without
one, each public name the module defines), each method, property and
dunder of the public classes, and every other module binding of the same
function (``sums.faulhaber``, ``cli.sum_ftc``, the package re-exports).
Aliases such as ``Gossamer.__radd__`` share the wrapper of the function
they alias.

A span opens only when control enters a module from a different module:
the tracer keeps a stack of open spans, and a call whose module is the
module of the innermost open span runs inside that span.  So
``Gossamer.inverse`` calling ``Gossamer.__mul__`` stays one ``core`` span.
A module's self time is the duration of its spans minus the time covered
by the spans they opened.  Spans are aggregated in memory, never logged
one by one.

Work counters are counted on every call, whether or not it opened a span.
Generator bodies (``StepFunction.jumps``) run when they are consumed, so
their time falls in the consumer's span.
"""
from __future__ import annotations

import enum
import functools
import importlib
import sys
import time
import types
from fractions import Fraction
from typing import Callable, Optional

MODULES = ("core", "polynomial", "riemann", "sums", "steps", "report", "parsing", "cli")

COUNTERS = (
    "core.series_built",
    "core.term_products",
    "core.inverse_calls",
    "core.truncated_results",
    "core.max_terms",
    "polynomial.evaluate_series",
    "polynomial.evaluate_rational",
    "polynomial.evaluate_float",
    "riemann.faulhaber_calls",
    "riemann.faulhaber_hits",
    "riemann.faulhaber_misses",
    "riemann.faulhaber_miss_s",
    "sums.bruteforce_terms",
    "steps.bridges",
    "report.cases",
)

# Counters combined by max, not by sum, when traces are merged.
MAX_COUNTERS = ("core.max_terms",)

GOSSAMER_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__", "inverse",
)


def public_names(module: types.ModuleType) -> list[str]:
    """``__all__``, or the public names a module defines when it has none."""
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    ]


def traced_classes(module: types.ModuleType) -> list[type]:
    """Public classes defined in ``module`` whose methods get wrapped.

    Enum classes are left alone: calling one runs the enum machinery of
    the standard library, not gossamer code.
    """
    out = []
    for name in public_names(module):
        value = getattr(module, name, None)
        if (
            isinstance(value, type)
            and value.__module__ == module.__name__
            and not issubclass(value, enum.Enum)
        ):
            out.append(value)
    return out


def traced_functions(module: types.ModuleType) -> list[Callable]:
    """Public module-level callables (functions, cached functions) defined in ``module``."""
    out = []
    for name in public_names(module):
        value = getattr(module, name, None)
        if (
            callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ):
            out.append(value)
    return out


def _method_functions(cls: type):
    """(name, descriptor, function) for every function-like entry of a class body."""
    for name, value in vars(cls).items():
        if isinstance(value, (staticmethod, classmethod)):
            yield name, value, value.__func__
        elif isinstance(value, property):
            yield name, value, value.fget
        elif isinstance(value, types.FunctionType):
            yield name, value, value


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.self_s = {m: 0.0 for m in MODULES}
        self.entries = {m: 0 for m in MODULES}
        self.counts = {c: 0 for c in COUNTERS}
        self._stack: list[list] = [[None, 0.0]]
        self._wrappers: dict[int, Callable] = {}
        self.wrapper_ids: set[int] = set()

    def summary(self) -> dict:
        out: dict = {}
        for m in MODULES:
            out[f"{m}.self_s"] = self.self_s[m]
            out[f"{m}.entries"] = self.entries[m]
        out.update(self.counts)
        return out

    def is_wrapper(self, obj) -> bool:
        return id(obj) in self.wrapper_ids

    def wrap(
        self,
        fn: Callable,
        module: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """The wrapper of ``fn``; wrapping the same function twice returns the same wrapper."""
        existing = self._wrappers.get(id(fn))
        if existing is not None:
            return existing
        stack = self._stack
        self_s = self.self_s
        entries = self.entries
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if stack[-1][0] == module:
                result = fn(*args, **kwargs)
            else:
                entries[module] += 1
                frame = [module, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    self_s[module] += elapsed - frame[1]
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        self._wrappers[id(fn)] = traced
        self.wrapper_ids.add(id(traced))
        # Keep the original alive so its id cannot be reused.
        traced._traced_original = fn
        return traced


def _hooks(tracer: Tracer, gossamer_core) -> dict:
    """Counter hooks: qualified name -> (before, after)."""
    counts = tracer.counts
    Gossamer = gossamer_core.Gossamer

    def series_built(args, result):
        value = args[0]
        counts["core.series_built"] += 1
        n = len(value.terms)
        if n > counts["core.max_terms"]:
            counts["core.max_terms"] = n
        if value.truncated:
            counts["core.truncated_results"] += 1

    def term_products(args, kwargs):
        a, b = args[0], args[1]
        if isinstance(b, Gossamer):
            nb = len(b.terms)
        elif isinstance(b, (int, Fraction)):
            nb = 1 if b else 0  # coerced to a one-term series, or to zero
        else:
            nb = 0  # __mul__ returns NotImplemented
        counts["core.term_products"] += len(a.terms) * nb

    def inverse_call(args, kwargs):
        counts["core.inverse_calls"] += 1

    def evaluate(args, kwargs):
        x = args[1] if len(args) > 1 else kwargs["x"]
        if isinstance(x, Gossamer):
            counts["polynomial.evaluate_series"] += 1
        elif isinstance(x, float):
            counts["polynomial.evaluate_float"] += 1
        else:
            counts["polynomial.evaluate_rational"] += 1

    def bruteforce(args, kwargs):
        bound = dict(zip(("g", "a", "b"), args), **kwargs)
        counts["sums.bruteforce_terms"] += max(0, int(bound["b"]) - int(bound["a"]) + 1)

    def bridges(args, result):
        counts["steps.bridges"] += len(args[0].base.breakpoints)

    def cases(args, result):
        counts["report.cases"] += len(result.cases)

    return {
        "core.Gossamer.__init__": (None, series_built),
        "core.Gossamer.__mul__": (term_products, None),
        "core.Gossamer.inverse": (inverse_call, None),
        "polynomial.Polynomial.evaluate": (evaluate, None),
        "sums.sum_interval_bruteforce": (bruteforce, None),
        "steps.SmoothedFunction.__init__": (None, bridges),
        "report.run_suite": (None, cases),
    }


def _faulhaber_wrapper(tracer: Tracer, original) -> Callable:
    """Counts calls, and times the calls that miss the cache."""
    counts = tracer.counts
    info = original.cache_info
    perf_counter = time.perf_counter

    def counted(*args, **kwargs):
        counts["riemann.faulhaber_calls"] += 1
        misses = info().misses
        start = perf_counter()
        result = original(*args, **kwargs)
        elapsed = perf_counter() - start
        if info().misses > misses:
            counts["riemann.faulhaber_misses"] += 1
            counts["riemann.faulhaber_miss_s"] += elapsed
        else:
            counts["riemann.faulhaber_hits"] += 1
        return result

    functools.update_wrapper(counted, original)
    counted.cache_info = original.cache_info
    counted.cache_clear = original.cache_clear
    return counted


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the gossamer modules (``faulhaber``, the Bernoulli rows)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gossamer" or name.startswith("gossamer.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


_INSTALLED: Optional[Tracer] = None


def install() -> Tracer:
    """Wrap the gossamer package in this process; idempotent.

    The package must already be importable.  Returns the process's tracer.
    """
    global _INSTALLED
    if _INSTALLED is not None:
        return _INSTALLED
    tracer = Tracer()
    modules = {m: importlib.import_module(f"gossamer.{m}") for m in MODULES}
    hooks = _hooks(tracer, modules["core"])
    replaced: dict[int, Callable] = {}

    for short, module in modules.items():
        for fn in traced_functions(module):
            key = f"{short}.{fn.__name__}"
            target = fn
            if short == "riemann" and fn.__name__ == "faulhaber":
                target = _faulhaber_wrapper(tracer, fn)
            before, after = hooks.get(key, (None, None))
            replaced[id(fn)] = tracer.wrap(target, short, before, after)
        for cls in traced_classes(module):
            for name, descriptor, func in list(_method_functions(cls)):
                key = f"{short}.{cls.__name__}.{func.__name__}"
                before, after = hooks.get(key, (None, None))
                wrapper = tracer.wrap(func, short, before, after)
                if isinstance(descriptor, staticmethod):
                    setattr(cls, name, staticmethod(wrapper))
                elif isinstance(descriptor, classmethod):
                    setattr(cls, name, classmethod(wrapper))
                elif isinstance(descriptor, property):
                    setattr(
                        cls,
                        name,
                        property(wrapper, descriptor.fset, descriptor.fdel, descriptor.__doc__),
                    )
                else:
                    setattr(cls, name, wrapper)

    # Rebind every module-level reference to a wrapped function, not only
    # the defining one: other modules import functions by name.
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gossamer" or name.startswith("gossamer.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    _INSTALLED = tracer
    return tracer


def unwrapped_bindings(tracer: Tracer) -> list[str]:
    """Public gossamer callables, bindings and Gossamer dunders that are not wrapped.

    Reads the modules and classes as they are after ``install``, not the
    installer's own bookkeeping, so a binding it skipped shows up here.
    """
    missing = []
    modules = {m: importlib.import_module(f"gossamer.{m}") for m in MODULES}
    originals = set()
    for short, module in modules.items():
        for name in public_names(module):
            value = getattr(module, name, None)
            if isinstance(value, type):
                if value.__module__ != module.__name__ or issubclass(value, enum.Enum):
                    continue
                for attr, descriptor, func in _method_functions(value):
                    if not tracer.is_wrapper(func):
                        missing.append(f"{short}.{value.__name__}.{attr}")
            elif callable(value):
                if not tracer.is_wrapper(value):
                    missing.append(f"{short}.{name}")
                else:
                    original = value._traced_original
                    originals.update({id(original), id(getattr(original, "__wrapped__", original))})
    core = modules["core"]
    for name in GOSSAMER_ARITHMETIC:
        if not tracer.is_wrapper(vars(core.Gossamer).get(name)):
            missing.append(f"core.Gossamer.{name}")
    for mod_name, module in sys.modules.items():
        if module is None or not (mod_name == "gossamer" or mod_name.startswith("gossamer.")):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals:
                missing.append(f"{mod_name}.{attr}")
    return missing
