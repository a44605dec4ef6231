"""Span tracing of isoforge from outside the package, and per-layer metrics.

`Tracer.install` wraps every public function of the traced modules and
rebinds each name in the package that refers to one, so calls made through
`from .theta import theta_grid` style imports are recorded too.  A span is
(id, parent, name, start_ns, end_ns, op, attrs); spans are kept in memory
and written out by `Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

PACKAGE = "isoforge"
LAYERS = ("theta", "elliptic", "curvefamily", "reparam", "frame", "quat",
          "surface", "spherical", "cli")
ROOT = "bench.op"


def _theta_points(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"points": int(np.size(z))}


def _integrate_stats(args, kwargs, result):
    return {"steps": int(result.stats["n_steps"]),
            "rejected": int(result.stats["n_rejected"])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# extra numbers recorded on a span, computed after the call returns
_ATTRS = {
    "theta.theta_grid": _theta_points,
    "frame.integrate": _integrate_stats,
    "cli.write_obj": _file_bytes,
    "cli.write_curve_csv": _file_bytes,
    "cli.write_svg": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []
        self.names: set = set()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # worker threads start with an empty stack: attach to the op
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            result = done = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of and done \
                    else None
                self.spans.append((sid, parent, name, t0, t1, self.op, attrs))

        return wrapper

    @contextlib.contextmanager
    def op_span(self, op_id):
        """The root span of one benchmark op."""
        self.op, self._root = op_id, next(self._ids)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((self._root, None, ROOT, t0,
                               time.perf_counter_ns(), op_id, None))
            self.op = self._root = None

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer, at every binding."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    self.names.add(f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, op, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1, "op": op,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def union_ns(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _, _ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        out[sid] = (t1 - t0) - union_ns((a, b) for a, b in kids if b > a)
    return out


def layer_metrics(spans, functions, seconds_scale: float = 1.0) -> dict:
    """Per-op layer metrics (calls, busy and self seconds, counters).

    Each qualified name in `functions` ("frame.integrate", ...) gets
    .calls/.s/.self_s entries, where .s is the time at least one of its
    spans was open; each layer in LAYERS gets .calls/.self_s over all of
    its functions.  Seconds are multiplied by `seconds_scale`.
    """
    n_ops = sum(1 for s in spans if s[2] == ROOT)
    if n_ops == 0:
        raise ValueError("no op spans recorded")
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    by_id = {s[0]: s for s in spans}

    def per_op(x):
        return x / n_ops

    ns = 1e-9 * seconds_scale

    m = {}
    for name in functions:
        group = by_name.get(name, [])
        m[f"{name}.calls"] = per_op(len(group))
        m[f"{name}.s"] = per_op(union_ns((s[3], s[4]) for s in group) * ns)
        m[f"{name}.self_s"] = per_op(sum(own[s[0]] for s in group) * ns)
    for layer in LAYERS:
        group = [s for s in spans if s[2].startswith(layer + ".")]
        m[f"{layer}.calls"] = per_op(len(group))
        m[f"{layer}.self_s"] = per_op(sum(own[s[0]] for s in group) * ns)

    def attr_sum(name, key):
        return sum(s[6][key] for s in by_name.get(name, ()) if s[6])

    points = attr_sum("theta.theta_grid", "points")
    grid_calls = len(by_name.get("theta.theta_grid", ()))
    m["theta.theta_grid.points"] = per_op(points)
    m["theta.points_per_call"] = points / grid_calls if grid_calls else 0.0
    steps = attr_sum("frame.integrate", "steps")
    rejected = attr_sum("frame.integrate", "rejected")
    m["frame.integrate.steps"] = per_op(steps)
    m["frame.integrate.rejected"] = per_op(rejected)
    m["frame.accept_ratio"] = (steps / (steps + rejected)
                               if steps + rejected else 0.0)
    # right-hand-side evaluations: qmul called directly by the integrator
    m["frame.rhs_evals"] = per_op(sum(
        1 for s in by_name.get("quat.qmul", ())
        if s[1] in by_id and by_id[s[1]][2] == "frame.integrate"))
    for writer in ("cli.write_obj", "cli.write_curve_csv", "cli.write_svg"):
        m[f"{writer}.bytes"] = per_op(attr_sum(writer, "bytes"))

    roots = by_name[ROOT]
    wall = sum(s[4] - s[3] for s in roots)
    layer_self = sum(v for sid, v in own.items() if by_id[sid][2] != ROOT)
    m["bench.unattributed_frac"] = sum(own[s[0]] for s in roots) / wall
    m["bench.layer_self_frac"] = layer_self / wall
    return m
