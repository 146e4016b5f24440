"""Outside-in tracer for one benchmark job process.

`Tracer.install()` wraps the public callables of every loaded engine layer
module in place, then rebinds every name, in every loaded `agroups` module,
that still refers to an unwrapped original. That second step is what traces
`census.extend_set` after `from .perm import extend_set`: patching only the
defining module would miss every call made through such an import site.

Two kinds of wrapper:

* spans: module-level public functions and the public methods of the
  group-level classes. Every call is kept as one record
  `[id, parent, name, start_ns, end_ns, self_ns, ops, extra]`.
* element ops: the public methods and arithmetic operators of the element
  classes (`FieldSpec`, `FieldElem`, `Perm`, `Mat`) and the table lookups
  of `CayleyGroup`. They are too frequent to keep one by one, so each is
  counted and timed in aggregate on the enclosing span:
  `ops[name] = [calls, self_ns]`.

Self time is a call's duration minus the time spent in wrapped callees, so
summing it by layer never counts a nanosecond twice. Properties, dataclass
`__init__`/`__eq__`/`__hash__` and private helpers are not wrapped: their
time goes to whichever layer called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("gf", "perm", "matgrp", "cayley", "construct", "census", "bounds", "report", "cli")
ELEMENT_CLASSES = {"gf": ("FieldSpec", "FieldElem"), "perm": ("Perm",), "matgrp": ("Mat",)}
CAYLEY_ELEMENT_METHODS = ("mul", "inv", "conj", "elem_order", "elem_pow")
ARITHMETIC = ("__mul__", "__add__", "__sub__", "__neg__", "__pow__")
SPAN_DUNDERS = ("__init__", "__post_init__")  # construction that validates or builds
# the entry point: setup ends when it hands over to a command handler
NOT_WRAPPED = {"cli.main"}

# one number per span, derived from the call, where a count cannot be
# read off the span names alone
EXTRAS = {
    "cayley.CayleyGroup.__post_init__": lambda args, result: len(args[0].table) ** 2,
    "cayley.homomorphisms_to_mats": lambda args, result: len(result),
    "cayley.all_subgroups": lambda args, result: len(result),
    "census.enumerate_variety_groups": lambda args, result: result.count,
}


class Tracer:
    """Span store of one job; created by the job runner before the engine runs."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self.current = 0  # id of the enclosing span, 0 outside any
        self.ops: dict = {}  # element-op aggregates of the enclosing span
        # Running total of the durations of finished wrapped calls. Each call
        # resets it on exit to its value at entry plus its own duration, so
        # the growth seen across a call's body is the time of its direct
        # callees only, and nothing is subtracted twice.
        self.nested_ns = 0
        self.loose_ops = self.ops  # element ops called outside every span

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn):
        clock = time.monotonic_ns
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_ops, parent, before = self.ops, self.current, self.nested_ns
            ops = self.ops = {}
            sid = self.current = len(self.spans) + 1
            record = [sid, parent, name, 0, 0, 0, ops, None]
            self.spans.append(record)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    record[7] = extra(args, result)
                return result
            finally:
                t1 = clock()
                record[3], record[4], record[5] = t0, t1, t1 - t0 - (self.nested_ns - before)
                self.ops, self.current, self.nested_ns = outer_ops, parent, before + t1 - t0

        return traced

    def element_op(self, name: str, fn):
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = self.nested_ns
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - (self.nested_ns - before)
                self.nested_ns = before + dt
                agg = self.ops.get(name)
                if agg is None:
                    self.ops[name] = [1, own]
                else:
                    agg[0] += 1
                    agg[1] += own

        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> int:
        """Wrap every loaded layer; returns the number of import sites rebound."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"agroups.{layer}")
            if module is not None:
                self._wrap_module(layer, module, replaced)
        rebound = 0
        for modname, module in list(sys.modules.items()):
            if modname != "agroups" and not modname.startswith("agroups."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    rebound += 1
        return rebound

    def _wrap_module(self, layer: str, module, replaced: dict):
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue  # imported from elsewhere; rebound by install()
            if isinstance(value, type):
                if not attr.startswith("_") and not issubclass(value, BaseException):
                    self._wrap_class(layer, value)
                continue
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in NOT_WRAPPED or not callable(value):
                continue
            if inspect.isgeneratorfunction(value):
                raise TypeError(f"{name} is a generator; a span would time only its creation")
            replaced[id(value)] = self.span(name, value)

    def _wrap_class(self, layer: str, cls):
        element = cls.__name__ in ELEMENT_CLASSES.get(layer, ())
        for attr, raw in list(vars(cls).items()):
            if isinstance(raw, (staticmethod, classmethod)):
                kind, fn = type(raw), raw.__func__
            elif inspect.isfunction(raw):
                kind, fn = None, raw
            else:
                continue  # properties and data
            if attr.startswith("_") and attr not in ARITHMETIC + SPAN_DUNDERS:
                continue
            if attr == "__init__" and hasattr(cls, "__dataclass_fields__"):
                continue  # generated; the dataclass's __post_init__ is the work
            name = f"{layer}.{cls.__name__}.{attr}"
            if element or (layer == "cayley" and attr in CAYLEY_ELEMENT_METHODS):
                if attr in SPAN_DUNDERS:
                    continue  # element construction stays with its caller
                wrapped = self.element_op(name, fn)
            elif attr in ARITHMETIC:
                continue
            else:
                wrapped = self.span(name, fn)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    # -- output ----------------------------------------------------------------

    def to_record(self) -> dict:
        return {"job": self.job_id, "spans": self.spans, "loose_ops": self.loose_ops}
