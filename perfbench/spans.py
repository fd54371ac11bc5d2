"""Spans around specord's layer boundaries, installed from outside.

`Tracer.install` wraps the public functions of each specord module (its
`__all__`), the `__post_init__` of the matrix and resolution classes, the
suite check registry and one private boundary, `spectral._assert_canonical`.
Each wrapper is bound under every name that held the original in every
`specord.*` namespace, so `from .substrate import eig` call sites are timed
too; `uninstall` puts every original back.  Functions captured before the
run under another name (default arguments, closures) stay untraced, and
their time counts toward the caller.

Spans live in flat arrays until the run ends: name id, parent index, start
and end.  Spans are appended in call order, so one op's spans are the
contiguous run that starts at its root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# specord modules, which are the layers.
LAYERS = (
    "substrate", "resolution", "lattice", "spectral", "core", "orders",
    "dyadic", "generators", "suites", "cli", "matio", "report",
)


def _suite_span(args, kwargs) -> str:
    """run_suite(name, dim, trials, seed, order, policy) spans by suite and order."""
    suite = args[0] if args else kwargs["name"]
    order = args[4] if len(args) > 4 else kwargs.get("order")
    return f"suites.run_suite.{suite}.{getattr(order, 'value', 'spectral')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """Return fn recording one span per call.  name is a string or a
        function of (args, kwargs) giving one; hook(fn, args, kwargs), when
        given, makes the call and may update counts."""
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, ident, clock = self._stack, self._id, time.perf_counter
        fixed = None if callable(name) else ident(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else ident(name(args, kwargs))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    # -- installing and removing the wrappers ------------------------------

    def _set(self, target, key, value, item=False):
        original = target[key] if item else getattr(target, key)
        if item:
            target[key] = value
        else:
            setattr(target, key, value)
        self._patches.append((target, key, original, item))

    def install(self):
        """Wrap specord's layer boundaries; specord must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {k: m for k, m in sys.modules.items()
                if k == "specord" or k.startswith("specord.")}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = mods.get(f"specord.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{layer}.{attr}"
                    name = _suite_span if key == "suites.run_suite" else key
                    wrapped[id(obj)] = (obj, self.wrap(obj, name, self._hook(key)))
        spectral = mods["specord.spectral"]
        guard = spectral._assert_canonical
        wrapped[id(guard)] = (guard, self.wrap(guard, "spectral.assert_canonical"))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
        sub = mods["specord.substrate"]
        for cls in (sub.SymMatrix, sub.Effect, sub.Projection):
            if "__post_init__" in vars(cls):
                self._set(cls, "__post_init__", self.wrap(
                    vars(cls)["__post_init__"],
                    lambda args, kw: f"substrate.construct.{type(args[0]).__name__}"))
        step = mods["specord.resolution"].StepResolution
        self._set(step, "__post_init__",
                  self.wrap(vars(step)["__post_init__"], "resolution.StepResolution"))
        checks = mods["specord.suites"].CHECKS
        for key, fn in list(checks.items()):
            self._set(checks, key, self.wrap(fn, "suites.check"), item=True)

    def uninstall(self):
        while self._patches:
            target, key, original, item = self._patches.pop()
            if item:
                target[key] = original
            else:
                setattr(target, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- counters taken at the boundaries ----------------------------------

    def _hook(self, key):
        counts = self.counts
        if key == "substrate.eig":
            error = sys.modules["specord.substrate"].ConvergenceError

            def eig_hook(fn, args, kwargs):
                a = args[0] if args else kwargs["a"]
                if getattr(a, "_eig_cache", None) is not None:
                    counts["substrate.eig.cache_hits"] += 1
                try:
                    return fn(*args, **kwargs)
                except error:
                    counts["substrate.eig.errors"] += 1
                    raise

            return eig_hook
        if key == "substrate.projection_onto_span":

            def span_hook(fn, args, kwargs):
                vectors = list(args[0] if args else kwargs.pop("vectors"))
                counts["substrate.projection_onto_span.columns_in"] += len(vectors)
                p = fn(vectors, *args[1:], **kwargs)
                counts["substrate.projection_onto_span.rank_out"] += p.rank
                return p

            return span_hook
        if key == "resolution.resolution_of":

            def res_hook(fn, args, kwargs):
                a = args[0] if args else kwargs["a"]
                before = len(getattr(a, "_res_cache", None) or ())
                res = fn(*args, **kwargs)
                if len(getattr(a, "_res_cache", None) or ()) == before:
                    counts["resolution.resolution_of.cache_hits"] += 1
                return res

            return res_hook
        return None

    # -- reading the spans back --------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        return dur - child

    def table(self) -> dict[str, dict]:
        """Per span name: calls, self time and inclusive time in seconds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        own = np.bincount(name, weights=self.self_times(), minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        return {
            n: {"calls": int(calls[i]), "self_s": float(own[i]), "total_s": float(total[i])}
            for i, n in enumerate(self.names)
        }
