"""Exact bottom-up peeling: sequential BUP (Alg. 2) and min-support rounds.

BUP initialises supports with per-vertex butterfly counts and repeatedly
peels a vertex with minimum support, recording that support as its tip
number and decrementing the supports of its 2-hop neighbours.  This is the
algorithm of Sariyuce & Pinar and the sequential baseline of Table 3
(:func:`peel_sequential`, one heap pop per vertex).

:func:`peel_rounds` computes the same tip numbers level-synchronously, as
ParButterfly's rounds do: every vertex at the current minimum support is
peeled in one batch clamped at that level.  It is the kernel RECEIPT FD
applies to every induced subgraph, and the streaming repair's re-peel.
"""

from __future__ import annotations

import numpy as np

from ..butterfly.counting import ButterflyCounts, count_per_vertex
from ..errors import BudgetExceededError
from ..graph.bipartite import BipartiteGraph, validate_side
from ..graph.dynamic import PeelableAdjacency
from ..kernels.workspace import ROUND_WEDGE_BUDGET, WedgeWorkspace
from ..obs.trace import current_tracer
from .base import PeelingCounters, TipDecompositionResult
from .minheap import LazyMinHeap
from .update import peel_batch, peel_vertex

__all__ = ["bup_decomposition", "peel_rounds", "peel_sequential"]


def _copy_supports(graph: BipartiteGraph, side: str, initial_supports) -> np.ndarray:
    supports = np.array(initial_supports, dtype=np.int64, copy=True)
    n_side = graph.side_size(side)
    if supports.shape[0] != n_side:
        raise ValueError(
            f"initial_supports has {supports.shape[0]} entries, expected {n_side}"
        )
    return supports


def peel_sequential(
    graph: BipartiteGraph,
    side: str,
    initial_supports: np.ndarray,
    *,
    enable_dgm: bool = False,
    counters: PeelingCounters | None = None,
    wedge_budget: int | None = None,
    record_peel_order: bool = False,
    peel_kernel: str = "batched",
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray, PeelingCounters, list[int]]:
    """Core sequential peeling loop, reused by BUP and by RECEIPT FD.

    Parameters
    ----------
    graph:
        Graph to peel (for FD this is an induced subgraph).
    side:
        Side being peeled.
    initial_supports:
        Supports at the start of peeling (butterfly counts for BUP, the
        ``⋈init`` vector for FD subsets).
    enable_dgm:
        Whether to compact adjacency lists periodically.
    counters:
        Counter object to accumulate into (a fresh one is created if absent).
    wedge_budget:
        Optional cap on traversed wedges; exceeding it raises
        :class:`~repro.errors.BudgetExceededError` (used to reproduce the
        paper's "did not finish" entries).
    record_peel_order:
        When ``True`` the returned list contains vertices in peel order.
    peel_kernel:
        Support-update kernel: the shared vectorized ``"batched"`` kernel
        (default) or the per-vertex ``"reference"`` formulation.
    workspace:
        Scratch arena shared by every pop of the loop (a fresh one when
        omitted, so per-run peak accounting stays exact); its high-water
        mark is folded into ``counters.peak_scratch_bytes``.

    Returns
    -------
    (tip_numbers, counters, peel_order)
    """
    side = validate_side(side)
    counters = counters if counters is not None else PeelingCounters()
    workspace = workspace if workspace is not None else WedgeWorkspace()
    supports = _copy_supports(graph, side, initial_supports)

    tip_numbers = np.zeros(supports.shape[0], dtype=np.int64)
    adjacency = PeelableAdjacency(graph, side, enable_dgm=enable_dgm,
                                  narrow_ids=workspace.narrow_ids)
    heap = LazyMinHeap(supports)
    peel_order: list[int] = []

    while heap:
        vertex, support = heap.pop_min()
        tip_numbers[vertex] = support
        adjacency.mark_peeled(vertex)
        counters.vertices_peeled += 1
        counters.synchronization_rounds += 1
        if record_peel_order:
            peel_order.append(vertex)

        update = peel_vertex(adjacency, supports, vertex, support, kernel=peel_kernel,
                             workspace=workspace)
        counters.wedges_traversed += update.wedges_traversed
        counters.peeling_wedges += update.wedges_traversed
        counters.support_updates += update.support_updates
        heap.decrease_many(update.updated_vertices, update.new_supports)

        compacted = adjacency.maybe_compact()
        if compacted:
            counters.dgm_compactions += 1

        if wedge_budget is not None and counters.wedges_traversed > wedge_budget:
            raise BudgetExceededError(
                f"wedge budget of {wedge_budget} exceeded during sequential peeling",
                wedges_traversed=counters.wedges_traversed,
            )

    counters.peak_scratch_bytes = max(
        counters.peak_scratch_bytes, workspace.peak_scratch_bytes
    )
    return tip_numbers, counters, peel_order


def peel_rounds(
    graph: BipartiteGraph,
    side: str,
    initial_supports: np.ndarray,
    *,
    enable_dgm: bool = False,
    counters: PeelingCounters | None = None,
    peel_kernel: str = "batched",
    workspace: WedgeWorkspace | None = None,
) -> tuple[np.ndarray, PeelingCounters]:
    """Exact bottom-up peeling in min-support rounds (RECEIPT FD's peel).

    Each round takes every alive vertex whose support equals the current
    minimum, records that level as their tip number and peels them in one
    :func:`~repro.peeling.update.peel_batch` call clamped at the level.  The
    clamp keeps every vertex a round touches at or above the level, so the
    tip numbers and (with DGM off) ``wedges_traversed`` equal
    :func:`peel_sequential`'s.  ``support_updates`` takes the batch
    meaning CD and ParB use: updates between same-round peers are dropped.
    It can differ from :func:`peel_sequential`'s only on pairs of vertices
    with the same tip number, which the two orders peel differently.  With
    DGM on, a compaction inside a round already drops the whole round, so
    ``wedges_traversed`` follows the round schedule (never above the
    DGM-off count).  A round of one vertex goes to :func:`~repro.peeling.update.peel_vertex`,
    whose run-length fast path a one-member batch would miss.

    Parameters match :func:`peel_sequential`.  Rounds gather wedges in
    chunks of at most :data:`~repro.kernels.workspace.ROUND_WEDGE_BUDGET`
    endpoints (or the workspace's budget, if smaller).  Each round adds one
    to ``counters.synchronization_rounds``.

    Returns
    -------
    (tip_numbers, counters)
    """
    side = validate_side(side)
    counters = counters if counters is not None else PeelingCounters()
    workspace = workspace if workspace is not None else WedgeWorkspace()
    supports = _copy_supports(graph, side, initial_supports)

    tip_numbers = np.zeros(supports.shape[0], dtype=np.int64)
    adjacency = PeelableAdjacency(graph, side, enable_dgm=enable_dgm,
                                  narrow_ids=workspace.narrow_ids)
    # Supports of the alive vertices; peeled ones sit at the int64 maximum,
    # so a plain min finds the next level.
    pending = supports.copy()
    peeled = np.iinfo(np.int64).max
    n_alive = supports.shape[0]

    with workspace.budget_capped(ROUND_WEDGE_BUDGET):
        while n_alive:
            level = int(pending.min())
            batch = np.flatnonzero(pending == level)
            pending[batch] = peeled
            tip_numbers[batch] = level
            n_alive -= batch.shape[0]
            if batch.shape[0] == 1:
                vertex = int(batch[0])
                adjacency.mark_peeled(vertex)
                update = peel_vertex(adjacency, supports, vertex, level,
                                     kernel=peel_kernel, workspace=workspace)
                adjacency.maybe_compact()
            else:
                update = peel_batch(adjacency, supports, batch, level,
                                    kernel=peel_kernel, workspace=workspace)
            pending[update.updated_vertices] = update.new_supports
            counters.wedges_traversed += update.wedges_traversed
            counters.peeling_wedges += update.wedges_traversed
            counters.support_updates += update.support_updates
            counters.synchronization_rounds += 1

    counters.vertices_peeled += supports.shape[0]
    counters.dgm_compactions += adjacency.compactions_performed
    counters.peak_scratch_bytes = max(
        counters.peak_scratch_bytes, workspace.peak_scratch_bytes
    )
    return tip_numbers, counters


def bup_decomposition(
    graph: BipartiteGraph,
    side: str = "U",
    *,
    counts: ButterflyCounts | None = None,
    enable_dgm: bool = False,
    wedge_budget: int | None = None,
    peel_kernel: str = "batched",
    workspace: WedgeWorkspace | None = None,
) -> TipDecompositionResult:
    """Tip decomposition by sequential bottom-up peeling (Alg. 2).

    Parameters
    ----------
    graph:
        The bipartite graph.
    side:
        Side to decompose, ``"U"`` by default.
    counts:
        Pre-computed butterfly counts (counted fresh when omitted).
    enable_dgm:
        The classic baseline does not compact adjacency lists; enabling DGM
        here is only used by ablation experiments.
    wedge_budget:
        Optional traversal cap (reproduces the paper's DNF entries).
    peel_kernel:
        Support-update kernel (``"batched"`` or ``"reference"``).
    workspace:
        Scratch arena + memory policy for counting and peeling (a fresh
        default-policy one per run when omitted).
    """
    side = validate_side(side)
    counters = PeelingCounters()
    workspace = workspace if workspace is not None else WedgeWorkspace()
    tracer = current_tracer()
    run_span = tracer.timed("bup", side=side)

    with run_span:
        with tracer.timed("pvBcnt") as counting_span:
            if counts is None:
                counts = count_per_vertex(graph, workspace=workspace)
        counters.wedges_traversed += counts.wedges_traversed
        counters.counting_wedges += counts.wedges_traversed
        if counting_span.recording:
            counting_span.set(wedges_traversed=counts.wedges_traversed)
        initial = counts.counts(side).copy()

        with tracer.span("bup.peel"):
            tip_numbers, counters, _ = peel_sequential(
                graph, side, initial,
                enable_dgm=enable_dgm, counters=counters, wedge_budget=wedge_budget,
                peel_kernel=peel_kernel, workspace=workspace,
            )
    counters.elapsed_seconds = run_span.duration
    if run_span.recording:
        run_span.set(wedges_traversed=counters.wedges_traversed,
                     vertices_peeled=counters.vertices_peeled)

    return TipDecompositionResult(
        tip_numbers=tip_numbers,
        side=side,
        initial_butterflies=initial,
        algorithm="BUP",
        counters=counters,
    )
