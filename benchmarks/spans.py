"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the functions that one
``ductpml`` module binds from another, at the place where they are bound
(``ductpml.harness.sample``, ``ductpml.greens.hankel0``, the ``pml_mod``
module object in ``solver``, ...).  Module globals are looked up at call
time, so every call a module makes through such a binding passes one
wrapper.  A short list of functions is also wrapped in its own module,
because the metrics need calls that stay inside that module (the
tridiagonal solve inside ``solver``, the cell integrals inside ``greens``)
and because the workloads enter the package through them.

Each call records a span ``[key, thread, start, end, parent, counts]``.
Spans are held in memory; self time is a span's duration minus the part of
it that its child spans cover (children may run on pool threads).  Nothing
is wrapped while the tracer is not installed, so untraced ops run the
package as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time
import types
from collections import defaultdict

import numpy as np

PACKAGE = "ductpml"
LAYERS = ("duct", "specfun", "greens", "noise", "pml", "solver", "harness", "cli")

# Wrapped in their defining module as well: calls made inside that module,
# and the workloads' entry calls, go through these names.
OWN_MODULE_TARGETS = {
    "noise": ("sample", "coarsen", "realization_levels"),
    "solver": (
        "_solve_tridiag",
        "piecewise_load_matrix",
        "_load_vector",
        "_assemble_interior",
        "_assemble_pml_interior",
        "assemble_field",
    ),
    "greens": (
        "kernel_cell_integrals",
        "singular_cell_integral",
        "q_l2_difference",
        "stochastic_solution",
        "lemma2_exponent_probe",
    ),
    "harness": ("run_h_study", "run_total_error_study", "_map_threads"),
    "cli": ("dispatch",),
}

# Metric group -> span keys ("layer.function") whose spans it sums.
GROUPS = {
    "noise.sample": ("noise.sample",),
    "noise.coarsen": ("noise.coarsen",),
    "solver.tridiag": ("solver._solve_tridiag",),
    "solver.load": ("solver.piecewise_load_matrix", "solver._load_vector"),
    "solver.assemble": ("solver._assemble_interior", "solver._assemble_pml_interior"),
    "solver.assemble_field": ("solver.assemble_field",),
    "pml.nu_coefficients": ("pml.nu_coefficients",),
    "specfun.hankel0": ("specfun.hankel0",),
    "greens.kernel_cell_integrals": ("greens.kernel_cell_integrals",),
    "greens.singular_cell_integral": ("greens.singular_cell_integral",),
    "greens.q_l2_difference": ("greens.q_l2_difference",),
    "duct.axial_wavenumbers": ("duct.axial_wavenumbers", "duct.axial_wavenumbers64"),
}

# Counts besides the ``*.calls`` that must repeat exactly from op to op and
# from run to run; count-based perf claims rest on them.
EXACT_COUNTS = (
    "noise.sample.normals",
    "noise.sample.generators",
    "solver.tridiag.rhs_columns",
    "specfun.hankel0.args",
)

# Thread-pool helper whose mapped function gets a task span of its own, so
# glue work on pool threads is attributed and the caller's wait is not.
POOL_MAP = "harness._map_threads"

# Bit generators whose construction counts as one generator built.
_BIT_GENERATORS = ("Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64", "default_rng")

_LOOKUP_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _hankel_args(args, kwargs, result):
    return "args", int(np.size(args[0] if args else kwargs["z"]))


def _rhs_columns(args, kwargs, result):
    rhs = args[3] if len(args) > 3 else kwargs["rhs"]
    return "rhs_columns", math.prod(int(e) for e in np.shape(rhs)[1:])


def _normals(args, kwargs, result):
    return "normals", int(result.xi.size)


# Counts taken at the call boundary, from arguments or results.
COUNTERS = {
    "specfun.hankel0": _hankel_args,
    "solver._solve_tridiag": _rhs_columns,
    "noise.sample": _normals,
}


def _key(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _is_package_function(obj) -> bool:
    return (
        inspect.isfunction(obj)
        and (obj.__module__ or "").startswith(PACKAGE + ".")
        and not getattr(obj, "__bench_traced__", False)
    )


class _ModuleProxy(types.ModuleType):
    """Stands in for a module object that another module binds; wraps the
    package functions looked up through it."""

    def __init__(self, module, wrap):
        super().__init__(module.__name__)
        self.__dict__["_bench_module"] = module
        self.__dict__["_bench_wrap"] = wrap
        self.__dict__["_bench_cache"] = {}

    def __getattr__(self, name):
        value = getattr(self._bench_module, name)
        if not _is_package_function(value):
            return value
        cache = self._bench_cache
        if name not in cache or cache[name].__wrapped__ is not value:
            cache[name] = self._bench_wrap(value)
        return cache[name]


class Tracer:
    """Installs the wrappers, records spans, and reduces them to metrics."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.counter_errors = set()
        self._local = threading.local()
        self._root_stack = []
        self._saved = []
        self._modules = {}

    # -- recording -----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, key, parent=None):
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif stack is not self._root_stack and self._root_stack:
                parent = self._root_stack[-1]
        span = [key, threading.get_ident(), time.perf_counter(), 0.0, parent, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack().pop()

    def _bump(self, span, name, amount):
        if span[5] is None:
            span[5] = {}
        span[5][name] = span[5].get(name, 0) + amount

    def _wrap(self, fn):
        key = _key(fn)
        counter = COUNTERS.get(key)
        is_pool_map = key == POOL_MAP
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(key)
            if is_pool_map and args and callable(args[0]):
                args = (tracer._task(args[0], span),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                try:
                    name, amount = counter(args, kwargs, result)
                except _LOOKUP_ERRORS:
                    tracer.counter_errors.add(key)
                else:
                    tracer._bump(span, name, amount)
            return result

        traced.__bench_traced__ = True
        return traced

    def _task(self, fn, parent):
        tracer = self
        key = POOL_MAP + "[task]"

        @functools.wraps(fn)
        def task(*args, **kwargs):
            span = tracer._open(key, parent=parent)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return task

    def _counting(self, make):
        tracer = self

        def counted(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                tracer._bump(stack[-1], "generators", 1)
            return make(*args, **kwargs)

        counted.__bench_traced__ = True
        return counted

    # -- install / uninstall -------------------------------------------------
    def _set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def load(self):
        """Import the eight layer modules and note named targets that are gone."""
        for layer in LAYERS:
            self._modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        named = {f"{layer}.{n}" for layer, names in OWN_MODULE_TARGETS.items() for n in names}
        named.update(key for keys in GROUPS.values() for key in keys)
        self.missing = sorted(key for key in named if not self._exists(key))
        return self

    def _exists(self, key: str) -> bool:
        layer, name = key.split(".", 1)
        return inspect.isfunction(getattr(self._modules[layer], name, None))

    def install(self):
        self._root_stack = self._stack()
        self.spans = []
        mods = self._modules
        for layer, names in OWN_MODULE_TARGETS.items():
            for name in names:
                fn = getattr(mods[layer], name, None)
                if _is_package_function(fn):
                    self._set(mods[layer], name, self._wrap(fn))
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if _is_package_function(obj) and obj.__module__ != mod.__name__:
                    self._set(mod, name, self._wrap(obj))
                elif isinstance(obj, types.ModuleType) and obj.__name__.startswith(
                    PACKAGE + "."
                ) and not isinstance(obj, _ModuleProxy):
                    self._set(mod, name, _ModuleProxy(obj, self._wrap))
        for name in _BIT_GENERATORS:
            make = getattr(np.random, name, None)
            if make is None:
                continue
            self._set(np.random, name, self._counting(make))
            for mod in mods.values():
                for bound, obj in list(vars(mod).items()):
                    if obj is make:
                        self._set(mod, bound, self._counting(make))

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- reduction -----------------------------------------------------------
    def op_metrics(self, op_wall: float) -> dict:
        """Per-layer metrics of the spans recorded since ``install``."""
        spans = self.spans
        children = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[id(span[4])].append(span)
        group_of = {key: group for group, keys in GROUPS.items() for key in keys}
        out = defaultdict(float)
        for group in GROUPS:
            out[f"{group}.calls"] = 0
            out[f"{group}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        out["noise.sample.normals"] = 0
        out["noise.sample.generators"] = 0
        out["solver.tridiag.rhs_columns"] = 0
        out["specfun.hankel0.args"] = 0
        total_self = 0.0
        for span in spans:
            start, end = span[2], span[3]
            covered = _union_length(
                (max(c[2], start), min(c[3], end)) for c in children.get(id(span), ())
            )
            self_s = (end - start) - covered
            key = span[0]
            layer = key.split(".", 1)[0]
            out[f"{layer}.self_s"] += self_s
            total_self += self_s
            group = group_of.get(key)
            if group is not None:
                out[f"{group}.calls"] += 1
                out[f"{group}.self_s"] += self_s
            for name, amount in (span[5] or {}).items():
                prefix = group if group is not None else key
                out[f"{prefix}.{name}"] += amount
        out["trace.coverage"] = total_self / op_wall if op_wall > 0 else 0.0
        return dict(out)

    def dump(self, op_index: int):
        """Spans of the current op as plain rows for writing out."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        threads = {}
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = []
        for span in self.spans:
            tid = threads.setdefault(span[1], len(threads))
            parent = index.get(id(span[4])) if span[4] is not None else None
            rows.append(
                [op_index, span[0], tid, span[2] - t0, span[3] - t0, parent, span[5] or {}]
            )
        return rows


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
