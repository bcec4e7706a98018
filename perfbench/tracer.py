"""Span recorder that wraps koopmode's public functions from outside.

Every public module-level function of the layers below is replaced, in
every koopmode namespace that binds it (so `koopmode.cli.exact_dmd` and
`koopmode.dmd.tlsq_project` are both wrapped), by a wrapper that records
a span: name, start, end, parent span and whether it raised.  Spans stay
in memory and are written out once, when the process ends.

Functions called 1e4 to 1e6 times per operation get a call count and a
summed time instead of one span per call.  A few wrappers also derive a
size from argument or return shapes; those figures are computed, not
measured, and repeat exactly for the same inputs.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc

import numpy as np

import koopmode
from koopmode import cli, dmd, fileio, grids, modes, ranking, rom

LAYERS = (fileio, grids, dmd, modes, ranking, rom, cli)
AGGREGATED = ("fileio.format_float", "modes.tidal_ellipse")
MIB = float(1 << 20)


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _computed(fn, name):
    """Sizes derived from the shapes a call receives or returns, by span name."""
    if name == "fileio.ingest":
        return lambda args, kwargs, out: {"mb": out.data.nbytes / MIB}
    if name == "dmd.tlsq_project":
        x1, x2 = _arg(fn, "x1"), _arg(fn, "x2")
        return lambda args, kwargs, out: {
            "in_mb": (x1(args, kwargs).nbytes + x2(args, kwargs).nbytes) / MIB}
    if name == "dmd.fit_coefficients_multi":
        modes_, idx = _arg(fn, "modes"), _arg(fn, "indices")
        return lambda args, kwargs, out: {
            "sys_mb": len(idx(args, kwargs)) * np.asarray(modes_(args, kwargs)).size * 16 / MIB}
    if name == "ranking.kde_grid":
        return lambda args, kwargs, out: {"cells": out[2].size}
    if name == "ranking.leave_one_out":
        return lambda args, kwargs, out: {"trials": len(out.trials)}
    return None


class Tracer:
    """Holds one process's spans; install() wraps, dump() writes them."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.aggregated = {name: [0, 0.0] for name in AGGREGATED}
        self.peak_mb: list[float] = []

    def _span(self, name, fn):
        computed = _computed(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self.stack[-1] if self.stack else None,
                    "error": False}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if computed is not None:
                span["computed"] = computed(args, kwargs, out)
            return out
        return wrapper

    def _aggregate(self, name, fn):
        slot = self.aggregated[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += time.perf_counter() - t
        return wrapper

    def _peak(self, fn):
        """tracemalloc peak inside the outermost call, in MiB."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_mb.append(tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()
        return wrapper

    def install(self) -> None:
        wrapped = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in AGGREGATED:
                    wrapper = self._aggregate(name, fn)
                elif name == "dmd.exact_dmd":
                    wrapper = self._span(name, self._peak(fn))
                else:
                    wrapper = self._span(name, fn)
                wrapped[id(fn)] = wrapper
        # Calls made through a module attribute see the wrapper; the cmd_*
        # functions, reached through cli's dispatch table, stay unwrapped,
        # so cli.main's self time covers the command glue and CSV writing.
        for mod in (koopmode, *LAYERS):
            ns = vars(mod)
            for attr, val in list(ns.items()):
                if id(val) in wrapped:
                    ns[attr] = wrapped[id(val)]
        # cli resolves the default rank and the ROM data rank through numpy.
        np.linalg.matrix_rank = self._span("cli.matrix_rank", np.linalg.matrix_rank)

    def dump(self, path: str) -> None:
        payload = {
            "op": self.op_id,
            "spans": [dict(s, op=self.op_id) for s in self.spans],
            "aggregated": {k: {"calls": c, "s": t} for k, (c, t) in self.aggregated.items()},
            "exact_dmd_peak_mb": self.peak_mb,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer figures of one operation from the span dumps of its processes.

    <name>.s is inclusive seconds, <name>.self_s the span minus its child
    spans, <name>.calls the call count; <layer>.errors counts exceptions
    that left the layer.  Computed sizes are summed over calls.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for dump in dumps:
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            add(f"{name}.s", dur)
            add(f"{name}.self_s", dur - child_s[i])
            add(f"{name}.calls", 1)
            for key, value in s.get("computed", {}).items():
                add(f"{name}.{key}", value)
            layer = name.split(".", 1)[0]
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else ""
            if s["error"] and not parent.startswith(layer + "."):
                add(f"{layer}.errors", 1)
        for name, agg in dump["aggregated"].items():
            add(f"{name}.calls", agg["calls"])
            add(f"{name}.s", agg["s"])
        if dump["exact_dmd_peak_mb"]:
            out["dmd.exact_dmd.peak_mb"] = max(out.get("dmd.exact_dmd.peak_mb", 0.0),
                                               *dump["exact_dmd_peak_mb"])
    return out
