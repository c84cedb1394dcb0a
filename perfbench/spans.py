"""Span recorder for the traced run, attached from outside the package.

Each listed function or method is replaced by a wrapper that records one
span (name, start, end, parent) per call into flat arrays, so a traced pass
with a million right-hand-side evaluations stays a few tens of megabytes.
The package source is not touched: `install` rebinds every attribute of a
`starweyl` module (or class) that holds the original object, because names
are imported into several modules (`weyl_m` lives in `schrodinger`,
`pasting` and `spectra`; `solve_ivp` is an alias of `solve_edge`), and
`uninstall` puts the originals back.

A layer's self time is its spans' duration minus the time covered by their
direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute): package functions, patched wherever bound.
FUNCTIONS = (
    ("schrodinger.solve_edge", "starweyl.schrodinger", "solve_edge"),
    ("schrodinger.weyl_m", "starweyl.schrodinger", "weyl_m"),
    ("schrodinger.dirichlet_eigenvalues", "starweyl.schrodinger", "dirichlet_eigenvalues"),
    ("pasting.matrix_weyl", "starweyl.pasting", "matrix_weyl"),
    ("pasting.trace_weyl", "starweyl.pasting", "trace_weyl"),
    ("herglotz.solve_level", "starweyl.herglotz", "solve_level"),
    ("herglotz.atom_weight", "starweyl.herglotz", "atom_weight"),
    ("herglotz.richardson", "starweyl.herglotz", "richardson"),
    ("spectra.find_point_spectrum", "starweyl.spectra", "find_point_spectrum"),
    ("spectra.classify_spectrum", "starweyl.spectra", "classify_spectrum"),
    ("spectra.fd_oracle", "starweyl.spectra", "fd_oracle"),
    ("cli.run", "starweyl.cli", "run"),
    ("cli.emit_plot_data", "starweyl.cli", "emit_plot_data"),
)
# (layer name, module, class, attribute): methods, patched on the class.
METHODS = (
    ("schrodinger.q_at", "starweyl.schrodinger", "Edge", "q_at"),
    ("herglotz.eval", "starweyl.herglotz", "HerglotzRep", "eval"),
    ("herglotz.eval_real", "starweyl.herglotz", "HerglotzRep", "eval_real"),
    ("measure.atom_mass_at", "starweyl.measure", "ScalarMeasure", "atom_mass_at"),
    ("measure.add", "starweyl.measure", "ScalarMeasure", "__add__"),
)
# (layer name, module, attribute): scipy functions, counted where the
# package module calls them.
FOREIGN = (
    ("spectra.brentq", "starweyl.spectra", "brentq"),
    ("spectra.eigsh", "starweyl.spectra", "eigsh"),
    ("schrodinger.brentq", "starweyl.schrodinger", "brentq"),
)
OMEGA_AT = ("starweyl.pasting", "omega_at")


class SpanRecorder:
    """Spans in flat arrays; index order is call order, so parents come first."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name=None, route=None, on_return=None):
        """A wrapper of `fn` recording a span named `name`, or `route(args, kwargs)`."""
        fixed = None if name is None else self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed if route is None else self.name_id(route(args, kwargs))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, by: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> dict:
        """Per layer name: calls and self seconds; plus the root-span total."""
        name, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
               for i, n in enumerate(self.names)}
        return {"layers": out, "root_s": float(dur[~nested].sum()), "spans": len(dur)}

    def calls_inside(self, inner: str, outer: str) -> int:
        """Number of `inner` spans that have an `outer` span among their ancestors."""
        if inner not in self._ids or outer not in self._ids:
            return 0
        inner_id, outer_id = self._ids[inner], self._ids[outer]
        names, parents = self.name.tolist(), self.parent.tolist()
        inside = [False] * len(names)
        total = 0
        for i, p in enumerate(parents):
            if p >= 0:
                inside[i] = names[p] == outer_id or inside[p]
                if inside[i] and names[i] == inner_id:
                    total += 1
        return total

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names))


def _omega_route(sys_modules):
    pasting = sys_modules["starweyl.pasting"]

    def route(args, kwargs):
        system = args[0] if args else kwargs["sys"]
        exact = args[3] if len(args) > 3 else kwargs.get("exact")
        if exact is None:
            exact = system.is_exact_atomic
        return "pasting.omega_at.exact" if exact else "pasting.omega_at.numeric"

    return pasting.omega_at, route


def install(recorder: SpanRecorder) -> list:
    """Patch the package; returns the (owner, attribute, original) list to undo."""
    modules = {k: v for k, v in sys.modules.items()
               if k == "starweyl" or k.startswith("starweyl.")}
    undo = []

    def rebind_everywhere(original, wrapper):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    for name, mod, attr in FUNCTIONS:
        original = getattr(modules[mod], attr)
        on_return = None
        if name == "herglotz.solve_level":
            on_return = lambda roots: recorder.count("herglotz.solve_level.roots", len(roots))
        rebind_everywhere(original, recorder.wrap(original, name, on_return=on_return))
    original, route = _omega_route(modules)
    rebind_everywhere(original, recorder.wrap(original, route=route))
    for name, mod, cls_name, attr in METHODS:
        cls = getattr(modules[mod], cls_name)
        original = cls.__dict__[attr]
        wrapper = recorder.wrap(original, name)
        for key, value in list(cls.__dict__.items()):
            if value is original:  # HerglotzRep.__call__ is eval
                undo.append((cls, key, original))
                setattr(cls, key, wrapper)
    for name, mod, attr in FOREIGN:
        owner = modules[mod]
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, name))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
