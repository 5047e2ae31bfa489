"""In-memory span tracing, done from outside the package.

A span is (name, start, end, parent span, operation id). A span opened while
no other span is open is a root and starts a new operation; every other span
belongs to the operation of its parent. Spans are kept in flat arrays and
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.ops = 0
        self._columns = None

    def wrap(self, name: str, fn):
        """Return fn recording a span called `name` around each call."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            parent = self.current
            if parent < 0:
                op = self.ops
                self.ops += 1
            else:
                op = self.op[parent]
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(op)
            self.start.append(0.0)
            self.end.append(0.0)
            self.current = i
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.start[i] = t0
                self.current = parent

        return traced

    def spans(self) -> dict:
        """Columns as numpy arrays, with each span's duration and self time.

        A layer's self time is its duration minus that of its direct children;
        spans of one thread nest, so the children never overlap."""
        if self._columns is None or len(self._columns["start"]) != len(self.start):
            cols = {k: np.array(getattr(self, k), dtype=np.int64) for k in ("name", "parent", "op")}
            cols.update({k: np.array(getattr(self, k), dtype=float) for k in ("start", "end")})
            dur = cols["end"] - cols["start"]
            child = np.zeros_like(dur)
            nested = cols["parent"] >= 0
            np.add.at(child, cols["parent"][nested], dur[nested])
            cols["duration"] = dur
            cols["self"] = dur - child
            self._columns = cols
        return self._columns

    def orphan_spans(self) -> int:
        """Spans whose parent is not an enclosing, earlier span of the same operation."""
        s = self.spans()
        idx = np.flatnonzero(s["parent"] >= 0)
        p = s["parent"][idx]
        ok = (
            (p < idx)
            & (s["op"][p] == s["op"][idx])
            & (s["start"][p] <= s["start"][idx])
            & (s["end"][idx] <= s["end"][p])
        )
        return int(np.count_nonzero(~ok))

    def durations(self, name: str, column: str = "duration", per_op=None) -> np.ndarray:
        """`column` of every span called `name`, each times per_op[its operation]
        when per_op is given."""
        if name not in self._name_ids:
            return np.empty(0)
        s = self.spans()
        picked = s["name"] == self._name_ids[name]
        values = s[column][picked]
        return values if per_op is None else values * np.asarray(per_op)[s["op"][picked]]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **{k: s[k] for k in ("name", "parent", "op", "start", "end")})


def _layer_of(obj):
    """'algebra' for entfluct.algebra.spin_generators; None for anything else."""
    if not (inspect.isfunction(obj) or inspect.isclass(obj)):
        return None
    module = obj.__module__ or ""
    return module.split(".", 1)[1] if module.startswith("entfluct.") else None


@contextlib.contextmanager
def traced_module(tracer: Tracer, module):
    """Wrap, for the duration of the block, every entfluct function or class
    that `module` imported from another entfluct module. Calls the module makes
    through those names record spans named `<layer>.<name>`."""
    own = module.__name__.split(".", 1)[1]
    saved = {name: (obj, _layer_of(obj)) for name, obj in vars(module).items()}
    saved = {name: (obj, layer) for name, (obj, layer) in saved.items() if layer not in (None, own)}
    for name, (obj, layer) in saved.items():
        setattr(module, name, tracer.wrap(f"{layer}.{name}", obj))
    try:
        yield
    finally:
        for name, (obj, _) in saved.items():
            setattr(module, name, obj)
