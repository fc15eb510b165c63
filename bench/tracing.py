"""Layer tracing for the benchmark, installed from outside the package.

Every public function of the six ``rqcm`` modules is replaced by a wrapper
that records a span (name, start, end, parent span, pass id). The wrapper
is bound wherever the original is referenced at module level: the defining
module, every module that imported it by name, the ``rqcm`` package
namespace, and module-level dicts such as ``verify.SUITES``. Intra-module
calls therefore go through the wrapper too, and spans nest exactly.

``FourVector`` constructions are counted, not spanned: there are tens of
thousands per pass and a span each would dominate their cost. Nothing is
recorded outside a pass, so the benchmark's own checks leave no trace.

A layer's self time is the total duration of its spans minus the part
covered by their child spans. The benchmark's own time inside a pass is
the self time of the pass's root span, so the layers' self times plus that
residual add up to the traced pass time.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("minkowski", "constraint", "oscillator", "transforms", "verify", "cli")
ROOT = "bench.pass"


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _phi_points(args, kwargs):
    return int(np.size(args[2] if len(args) > 2 else kwargs["xi"]))


def _fourier_targets(args, kwargs):
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    if isinstance(targets, (tuple, list)) and len(targets) == 3 \
            and all(np.ndim(t) == 1 for t in targets):
        return int(np.prod([len(t) for t in targets]))
    return int(np.size(targets) // 3)


# Work units summed per call for the functions whose batch size matters.
UNITS = {"oscillator.phi_1d": ("oscillator.phi_1d.points", _phi_points),
         "transforms.fourier_forward": ("transforms.fourier_forward.targets", _fourier_targets)}


class Tracer:
    """Span store plus the wrappers that feed it; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_id = array("q")
        self.sums: dict[str, float] = {}
        self._stack = [-1]
        self._pass = -1
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float):
        self.sums[key] = self.sums.get(key, 0) + value

    def _append(self, nid: int, start: float, end: float, parent: int) -> int:
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.pass_id.append(self._pass)
        return len(self.start) - 1

    # -- passes -----------------------------------------------------------

    def set_pass(self, pass_id: int):
        """Record calls under this pass id; -1 stops recording."""
        self._pass = pass_id

    def begin_pass(self, pass_id: int) -> int:
        """Open the root span of a pass; spans recorded until end_pass nest under it."""
        self.set_pass(pass_id)
        idx = self._append(self.name_id(ROOT), perf_counter(), 0.0, -1)
        self._stack.append(idx)
        return idx

    def end_pass(self, idx: int) -> float:
        """Close the root span; returns the pass's duration."""
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.set_pass(-1)
        return self.end[idx] - self.start[idx]

    def export(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "sums": self.sums}

    def merge(self, spans: dict):
        """Append spans recorded by a child process under the innermost open span."""
        offset = len(self.start)
        parent = self._stack[-1]
        ids = [self.name_id(n) for n in spans["names"]]
        for nm, s, e, p in zip(spans["name"], spans["start"], spans["end"], spans["parent"]):
            self._append(ids[nm], s, e, parent if p < 0 else offset + p)
        for key, value in spans["sums"].items():
            self.add(key, value)

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name=np.asarray(self.name), start=np.asarray(self.start),
                            end=np.asarray(self.end), parent=np.asarray(self.parent),
                            pass_id=np.asarray(self.pass_id))

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = self.name_id(qualname)
        names, starts, ends, parents, passes = (self.name, self.start, self.end,
                                                self.parent, self.pass_id)
        stack = self._stack
        unit_key, units = UNITS.get(qualname, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._pass < 0:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(tracer._pass)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if units is not None:
                tracer.add(unit_key, units(args, kwargs))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _wrap_rule_builder(self, fn):
        """gauss_hermite is cached: the calls that miss the cache are builds."""
        inner = self._wrap("transforms.gauss_hermite", fn)
        tracer = self

        def builder(order):
            misses = fn.cache_info().misses
            t0 = perf_counter()
            rule = inner(order)
            if tracer._pass >= 0 and fn.cache_info().misses != misses:
                tracer.add("transforms.gauss_hermite.builds", 1)
                tracer.add("transforms.gauss_hermite.build_s", perf_counter() - t0)
            return rule

        return functools.wraps(fn)(builder)

    def install(self):
        """Rebind every public function of the six layers to its wrapper."""
        import rqcm
        modules = [importlib.import_module(f"rqcm.{layer}") for layer in LAYERS]
        swap = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_callables(module):
                qualname = f"{layer}.{name}"
                wrapped = (self._wrap_rule_builder(fn) if qualname == "transforms.gauss_hermite"
                           else self._wrap(qualname, fn))
                swap[id(fn)] = (fn, wrapped)

        def replacement(obj):
            hit = swap.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for namespace in [rqcm, *modules]:
            for name, obj in list(vars(namespace).items()):
                if (new := replacement(obj)) is not None:
                    setattr(namespace, name, new)
                    self._undo.append((setattr, namespace, name, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if (new := replacement(val)) is not None:
                            obj[key] = new
                            self._undo.append((dict.__setitem__, obj, key, val))
        four = rqcm.minkowski.FourVector
        init = four.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            if tracer._pass >= 0:
                tracer.add("minkowski.FourVector.count", 1)
            init(obj, *args, **kwargs)

        four.__init__ = counted_init
        self._undo.append((setattr, four, "__init__", init))

    def uninstall(self):
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)


def span_totals(tracer: Tracer) -> dict:
    """Per-name totals over all spans: count, inclusive and self seconds."""
    start = np.asarray(tracer.start)
    dur = np.asarray(tracer.end) - start
    parent = np.asarray(tracer.parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    own = dur - covered
    name = np.asarray(tracer.name, dtype=np.int64)
    k = len(tracer.names)
    count = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    return {n: {"count": int(count[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(tracer.names)}
