"""Spans around the public calls of ``ssdual``, installed from outside the package.

While ``Tracer.installed()`` is active, every public ``ssdual`` function (and
``ssdual.cli.main``) is replaced, in each ``ssdual`` module namespace that
holds it, by a wrapper that records a span; leaving the block restores the
originals.  Calls between modules therefore nest: ``cli.main`` ->
``chainfile.load_chain`` -> ``poset.build_poset``.

A span's *layer* is the package module that defines the function.  Its
layer self time is its duration minus the time spent in public calls of
other layers below it; public calls of the same layer count as its own.  The
layer self times of the spans that start a run of one layer (no parent, or a
parent in another layer) partition the traced time exactly.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import ssdual
from ssdual import absorption, chain, chainfile, cli, duality, models, poset

LAYERS = ("poset", "chain", "duality", "models", "absorption", "chainfile", "cli")
MODULES = (ssdual, poset, chain, duality, models, absorption, chainfile, cli)

COUNTS = (
    "poset.states",
    "poset.mobius_nnz",
    "absorption.horizon",
    "chainfile.bytes_written",
    "chainfile.bytes_read",
)
MIB = float(1 << 20)


def _public_functions() -> dict:
    found = {}
    for name in ssdual.__all__:
        obj = getattr(ssdual, name)
        if inspect.isfunction(obj):
            found[obj] = name
    found[cli.main] = "main"
    return found


def _noop():
    return None


def call_cost(calls: int = 20_000, rounds: int = 7) -> float:
    """Seconds one traced call costs more than a plain one, measured on a no-op; median over rounds."""
    costs = []
    for _ in range(rounds):
        traced = Tracer("call-cost")._wrap(_noop, "noop")
        start = time.perf_counter()
        for _ in range(calls):
            _noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    return statistics.median(costs)


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "foreign", "base", "peak")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.foreign = 0.0  # time in public calls of other layers below this span
        self.base = self.peak = 0  # tracemalloc bytes at entry, and the highest seen inside

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer_self(self) -> float:
        return self.duration - self.foreign

    @property
    def starts_layer_run(self) -> bool:
        return self.parent is None or self.parent.layer != self.layer


class Tracer:
    """Records spans of one pipeline run; with ``memory`` also tracemalloc peaks."""

    def __init__(self, trace_id: str, memory: bool = False):
        self.trace_id = trace_id
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._counts = dict.fromkeys(COUNTS, 0)
        self._pairs: dict[int, object] = {}
        self._min_transformed = math.inf

    @contextmanager
    def installed(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in _public_functions().items()}
        saved = []
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for module, attr, value in saved:
                setattr(module, attr, value)

    def _wrap(self, fn, name: str):
        layer = fn.__module__.rsplit(".", 1)[-1]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            self._count(name, signature, args, kwargs, result)
            return result

        return traced

    def _enter(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent)
        if self.memory:
            # Fold the peak so far into the parent before restarting the peak for this span.
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        parent = span.parent
        if parent is not None:
            parent.foreign += span.duration if parent.layer != span.layer else span.foreign
            parent.peak = max(parent.peak, span.peak)
        self.spans.append(span)

    def _count(self, name, signature, args, kwargs, result) -> None:
        if name == "mobius_pair":
            self._pairs[id(result)] = result
        elif name == "check_mobius_monotone":
            self._min_transformed = min(self._min_transformed, result.min_entry)
        elif name in ("absorption_survival", "separation_curve"):
            self._counts["absorption.horizon"] += result.horizon
        elif name == "save_chain":
            self._counts["chainfile.bytes_written"] += os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])
        elif name == "load_chain":
            self._counts["chainfile.bytes_read"] += os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced run: layer self times, and per public function
        ``<layer>.<name>_s`` (its layer self time) and, with ``memory``, ``<layer>.<name>_peak_mb``."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for span in self.spans:
            if self.memory:
                key = f"{span.layer}.{span.name}_peak_mb"
                out[key] = max(out.get(key, 0.0), (span.peak - span.base) / MIB)
            if not span.starts_layer_run:
                continue
            out[f"{span.layer}.self_s"] += span.layer_self
            key = f"{span.layer}.{span.name}_s"
            out[key] = out.get(key, 0.0) + span.layer_self
        counts = dict(self._counts)
        for pair in self._pairs.values():
            counts["poset.states"] += pair.mobius.shape[0]
            counts["poset.mobius_nnz"] += int(np.count_nonzero(pair.mobius))
        out.update(counts)
        out["duality.min_transformed_entry"] = self._min_transformed if math.isfinite(self._min_transformed) else 0.0
        return out

    def records(self, origin: float) -> list[dict]:
        """Spans as dicts, times in seconds from ``origin``; ``parent`` is the ``id`` of the parent span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "trace": self.trace_id,
                "id": i,
                "name": span.name,
                "layer": span.layer,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": None if span.parent is None else index[id(span.parent)],
            }
            for i, span in enumerate(self.spans)
        ]
