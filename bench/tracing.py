"""In-memory span tracer installed around the public functions of each qmask layer.

A layer is one module of the package.  ``installed`` replaces every public
function a layer defines with a wrapper, in every ``qmask`` module
namespace that holds a reference to it, so calls from other modules
(``qmask.crosscheck.grid_deviations``) and same-module calls through
module globals (``maskable_set`` -> ``constraint_matrix``) are both seen.

Each wrapper appends one span per call -- name, start, end, parent span,
op id, a work size and whether it raised -- to flat arrays, and only
while an op is open, so checks made between ops are not recorded.
Self time is a span's duration minus the durations of its direct
children; on one thread the children never overlap, so the self times
of all spans of an op add up to the op's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "bloch", "masking", "analysis", "oracle", "crosscheck", "protocol", "documents")
OP_SPAN = "bench.op"

# Work done by one call, for the per-unit metrics: grid nodes, sampled
# points, verified states and shares.
WORK_SIZES = {
    "oracle.grid_deviations": lambda args: args[2].nx * args[2].ny,
    "bloch.sample_circle": lambda args: args[1],
    "masking.verify_mask": lambda args: len(args[1]),
    "protocol.encode": lambda args: len(args[1]),
    "protocol.decode": lambda args: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.raised = array("b")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, op_id: int, work: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(op_id)
        self.work.append(work)
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.raised[idx] = not ok
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as the root span of its call tree."""
        idx = self._open(self.name_id(OP_SPAN), op_id, 0)
        ok = False
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            self._close(idx, ok)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        size_of = WORK_SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._open(nid, tracer.op[tracer._stack[0]], size_of(args) if size_of else 0)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer._close(idx, ok)

        return traced

    def write(self, path) -> None:
        """Write every recorded span as gzipped JSON columns (times in ns)."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "work": self.work.tolist(),
            "raised": self.raised.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every public function of every layer, wherever qmask refers to it."""
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"qmask.{layer}"]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    swapped = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qmask" and not mod_name.startswith("qmask."):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                swapped.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in swapped:
            setattr(module, attr, value)


class Summary:
    """Per-name and per-layer aggregates over the spans of the chosen ops."""

    def __init__(self, tracer: Tracer, ops):
        name = np.asarray(tracer.name, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        dur = (np.asarray(tracer.end, dtype=np.int64) - np.asarray(tracer.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        layer_of = np.array([nm.split(".")[0] for nm in tracer.names])
        layer = layer_of[name]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
        # an exception counts once per layer boundary it crosses outward
        escaped = np.asarray(tracer.raised, dtype=bool) & (parent_layer != layer)
        keep = np.isin(np.asarray(tracer.op, dtype=np.int64), np.asarray(list(ops), dtype=np.int64))
        self.names = tracer.names
        self.name, self.layer, self.escaped = name[keep], layer[keep], escaped[keep]
        self.dur, self.self_ns = dur[keep], (dur - child)[keep]
        self.work = np.asarray(tracer.work, dtype=float)[keep]
        op_mask = self._mask(OP_SPAN)
        self.n_ops = int(op_mask.sum())
        self.op_ns = float(self.dur[op_mask].sum())

    def _mask(self, name: str) -> np.ndarray:
        ids = [i for i, nm in enumerate(self.names) if nm == name]
        return self.name == ids[0] if ids else np.zeros(len(self.name), dtype=bool)

    def calls(self, name: str) -> float:
        return float(self._mask(name).sum()) / self.n_ops

    def self_us(self, name: str) -> float:
        return float(self.self_ns[self._mask(name)].sum()) / self.n_ops / 1e3

    def work_per_op(self, name: str) -> float:
        return float(self.work[self._mask(name)].sum()) / self.n_ops

    def ns_per_unit(self, name: str) -> float:
        """Inclusive time per unit of work; 0 where the function did no work."""
        mask = self._mask(name)
        units = float(self.work[mask].sum())
        return float(self.dur[mask].sum()) / units if units else 0.0

    def self_frac(self, layer: str) -> float:
        return float(self.self_ns[self.layer == layer].sum()) / self.op_ns

    def errors(self, layer: str) -> float:
        return float((self.escaped & (self.layer == layer)).sum()) / self.n_ops
