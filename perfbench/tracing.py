"""Spans around the public entry points of each layer, installed from outside.

The program is not edited: :func:`install` replaces each entry point with a
recording wrapper wherever it is bound.  Modules import these functions by
name (``peel_sequential`` is bound in ``engine.tasks`` and in
``streaming.repair``), so every ``repro`` module attribute that *is* the
original function is swapped, and methods are swapped on their class.

A span is ``[name, start, end, parent, run_id, child_seconds, outermost,
attrs]``.  Spans stay in memory; :meth:`Recorder.dump` writes them out when
the run ends.  A layer's self time is its duration minus the time its child
spans cover (children run on the parent's thread, one after another).
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: span name -> (module, attribute) or (module, class, method).
LAYER_ENTRY_POINTS = {
    "butterfly.count": ("repro.butterfly.counting", "count_per_vertex"),
    "core.cd": ("repro.core.cd", "coarse_grained_decomposition"),
    "core.huc_cost": ("repro.core.hybrid", "recount_cost"),
    "core.huc_recount": ("repro.core.hybrid", "recount_supports"),
    "core.fd": ("repro.core.fd", "fine_grained_decomposition"),
    "graph.induce": ("repro.graph.bipartite", "BipartiteGraph", "induced_on_u_subset"),
    "peeling.sequential": ("repro.peeling.bup", "peel_sequential"),
    "peeling.vertex": ("repro.peeling.update", "peel_vertex"),
    "peeling.batch": ("repro.peeling.update", "peel_batch"),
    "peeling.heap.pop": ("repro.peeling.minheap", "LazyMinHeap", "pop_min"),
    "peeling.heap.decrease": ("repro.peeling.minheap", "LazyMinHeap", "decrease_many"),
    "kernels.gather": ("repro.kernels.wedges", "gather_batch_wedges"),
    "kernels.pair_count": ("repro.kernels.peel", "count_pair_wedges"),
    "kernels.decrement": ("repro.kernels.peel", "apply_clamped_decrements"),
    "kernels.dgm": ("repro.graph.dynamic", "PeelableAdjacency", "compact"),
    "service.gather": ("repro.service.server", "TipService", "theta_payloads"),
    "service.handle": ("repro.service.server", "TipService", "handle"),
    "streaming.repair": ("repro.service.index", "TipIndex", "apply_delta"),
    "artifacts.save": ("repro.service.artifacts", "save_artifact"),
}


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0          # set by the caller around each traced decomposition
        self._next_request = 0
        self._local = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(int))
        return state

    def wrap(self, name: str, original, attr_of=None):
        """Recording wrapper around ``original``; ``attr_of(args)`` adds attrs."""
        recorder = self

        def traced(*args, **kwargs):
            stack, active = recorder._state()
            parent = stack[-1] if stack else None
            if parent is not None:
                run_id = parent[4]
            elif recorder.run_id:
                run_id = recorder.run_id
            else:
                recorder._next_request += 1
                run_id = -recorder._next_request
            span = [name, time.perf_counter(), 0.0, parent, run_id, 0.0,
                    active[name] == 0, attr_of(args) if attr_of else None]
            recorder.spans.append(span)
            stack.append(span)
            active[name] += 1
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                active[name] -= 1
                stack.pop()
                if parent is not None:
                    parent[5] += span[2] - span[1]

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def install(self) -> None:
        """Swap every layer entry point for its recording wrapper."""
        for name, target in LAYER_ENTRY_POINTS.items():
            module = importlib.import_module(target[0])
            if len(target) == 3:
                owner = getattr(module, target[1])
                original = owner.__dict__[target[2]]
                attr_of = _route_attr if name == "service.handle" else None
                self._swap(owner, target[2], self.wrap(name, original, attr_of))
                continue
            original = getattr(module, target[1])
            wrapped = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._swap(loaded, attr, wrapped)

    def _swap(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    def closed(self):
        return [span for span in self.spans if span[2]]

    def dump(self, path) -> None:
        """Write every span as one JSON array per line (gzip)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span[3]), -1) if span[3] is not None else -1
                handle.write(json.dumps([i, span[0], span[1], span[2], parent, span[4],
                                         span[7]]) + "\n")


def _route_attr(args):
    return args[1] if len(args) > 1 else None


def layer_totals(spans, *, run_id=None) -> dict:
    """Per span name: busy seconds (outermost spans), self seconds, calls."""
    totals: dict = defaultdict(lambda: {"busy": 0.0, "self": 0.0, "calls": 0})
    for span in spans:
        if run_id is not None and span[4] != run_id:
            continue
        name = span[0]
        if name == "service.handle":
            name = f"service.handle {span[7]}"
        entry = totals[name]
        duration = span[2] - span[1]
        entry["calls"] += 1
        entry["self"] += duration - span[5]
        if span[6]:
            entry["busy"] += duration
    return totals


def merge_heap(totals: dict) -> dict:
    """Fold the two heap operations into the one ``peeling.heap`` layer."""
    merged = {"busy": 0.0, "self": 0.0, "calls": 0}
    for name in ("peeling.heap.pop", "peeling.heap.decrease"):
        for key in merged:
            merged[key] += totals.get(name, {}).get(key, 0)
    return merged
