"""Per-module tracer for framelift, applied from outside the package.

``Tracer`` wraps every public function of each framelift module, the
methods of ``FrameChart`` and ``LMChart`` and the entries of
``suites.SUITES``.  A function imported with ``from .x import y`` is bound
in several module namespaces, so every binding that holds a wrapped
function is replaced, and every replacement is undone on exit.

Each wrapped call records one span: name, start, end and the index of the
enclosing span (-1 for a root).  Spans live in flat arrays in memory and
are written out once, by ``save``.  A span's self time is its duration
minus the durations of its direct children; calls run on one thread and
nest, so the children never overlap.

The SciPy matrix functions are counted, not timed, at the ``frames`` call
sites; their time stays in the self time of the frames function calling
them.  For ``geometry.christoffel`` the tracer also records the distinct
(chart, point) pairs seen within each unit of work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "suites", "reporting", "catalog", "fields",
          "geometry", "tangent", "frames", "adapted", "submersion")
CHART_CLASSES = ("FrameChart", "LMChart")
SCIPY_COUNTED = ("expm", "expm_frechet", "logm")
DISTINCT = "geometry.christoffel"


class _Forward:
    """Stands in for a module, overriding some attributes and forwarding the rest."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Tracer:
    """Context manager that traces framelift while it is active."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object, bool]] = []
        self._points: set = set()
        self._charts: dict[int, object] = {}
        self.distinct = 0

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _set(self, container, key, value, item: bool = False) -> None:
        old = container[key] if item else getattr(container, key)
        self._restore.append((container, key, old, item))
        if item:
            container[key] = value
        else:
            setattr(container, key, value)

    def _install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"framelift.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name in CHART_CLASSES:
                cls = vars(mod).get(cls_name)
                if cls is None or cls.__module__ != mod.__name__:
                    continue
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        self._set(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "framelift" and not modname.startswith("framelift."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        table = sys.modules["framelift.suites"].SUITES
        for key, fn in list(table.items()):
            if fn in wrappers:
                self._set(table, key, wrappers[fn], item=True)
        self._count_scipy(sys.modules["framelift.frames"])

    def _count_scipy(self, frames) -> None:
        import scipy.linalg

        counted = {n: self._counter(f"scipy.{n}", getattr(scipy.linalg, n))
                   for n in SCIPY_COUNTED}
        # frames calls them as scipy.linalg.<name>
        self._set(frames, "scipy", _Forward(scipy, linalg=_Forward(scipy.linalg, **counted)))

    def _uninstall(self) -> None:
        while self._restore:
            container, key, old, item = self._restore.pop()
            if item:
                container[key] = old
            else:
                setattr(container, key, old)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self._stack)
        clock = time.perf_counter
        note = self._note_point if name == DISTINCT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _note_point(self, args, kwargs) -> None:
        chart = args[0] if args else kwargs["M"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        # Holding the chart keeps its id from being reused within the unit.
        self._charts[id(chart)] = chart
        self._points.add((id(chart), np.asarray(p, dtype=float).tobytes()))

    def end_unit(self) -> None:
        """Close the distinct-point window of one unit of work."""
        self.distinct += len(self._points)
        self._points.clear()
        self._charts.clear()

    # -- results ---------------------------------------------------------

    def arrays(self):
        """(names, name_id, duration, self_time, parent) as numpy arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return self.names, name_id, dur, dur - child, parent

    def summary(self) -> dict:
        """Per-function calls, total and self seconds; per-layer calls and self seconds."""
        names, name_id, dur, self_t, parent = self.arrays()
        n = len(names)
        calls = np.bincount(name_id, minlength=n)
        total = np.bincount(name_id, weights=dur, minlength=n)
        own = np.bincount(name_id, weights=self_t, minlength=n)
        functions = {names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                "self_s": float(own[i])} for i in range(n)}
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, f in functions.items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += f["calls"]
            layer["self_s"] += f["self_s"]
        return {"functions": functions, "layers": layers, "counts": dict(self.counts),
                "root_s": float(dur[parent < 0].sum()), "spans": int(len(dur))}

    def save(self, path) -> None:
        """Write every span to ``path`` as a NumPy .npz archive."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
