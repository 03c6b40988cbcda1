"""Unit tests for RECEIPT Fine-grained Decomposition (FD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.fd import fine_grained_decomposition
from repro.engine.tasks import FdJob, build_fd_tasks, execute_fd_task
from repro.graph.bipartite import BipartiteGraph
from repro.parallel.threadpool import ExecutionContext
from repro.peeling.bup import bup_decomposition, peel_rounds, peel_sequential
from repro.peeling.update import PEEL_KERNELS


@pytest.fixture
def cd_and_reference(blocks_graph):
    counts = count_per_vertex_priority(blocks_graph).u_counts
    cd = coarse_grained_decomposition(blocks_graph, counts, 4)
    reference = bup_decomposition(blocks_graph, "U")
    return blocks_graph, cd, reference


class TestExactness:
    def test_matches_bup(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert np.array_equal(fd.tip_numbers, reference.tip_numbers)

    def test_matches_bup_without_workload_aware_order(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        fd = fine_grained_decomposition(graph, cd, workload_aware=False)
        assert np.array_equal(fd.tip_numbers, reference.tip_numbers)

    def test_matches_bup_with_real_threads(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        for backend in ("serial", "process"):
            with ExecutionContext(4, backend=backend) as context:
                fd = fine_grained_decomposition(graph, cd, context=context)
            assert np.array_equal(fd.tip_numbers, reference.tip_numbers), backend

    def test_matches_bup_with_dgm_in_subsets(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        fd = fine_grained_decomposition(graph, cd, enable_dgm=True)
        assert np.array_equal(fd.tip_numbers, reference.tip_numbers)

    def test_many_partitions(self, community_graph):
        counts = count_per_vertex_priority(community_graph).u_counts
        reference = bup_decomposition(community_graph, "U")
        for n_partitions in (1, 2, 7, 20):
            cd = coarse_grained_decomposition(community_graph, counts, n_partitions)
            fd = fine_grained_decomposition(community_graph, cd)
            assert np.array_equal(fd.tip_numbers, reference.tip_numbers), n_partitions


class TestWorkAccounting:
    def test_subset_records_cover_all_subsets(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert len(fd.subset_records) == cd.n_subsets
        assert sorted(r.subset_index for r in fd.subset_records) == list(range(cd.n_subsets))
        assert sum(r.n_vertices for r in fd.subset_records) == graph.n_u

    def test_fd_traverses_fewer_wedges_than_cd(self, community_graph):
        # The induced subgraphs collectively contain far fewer wedges than
        # the original graph (the Fig. 2 observation).
        counts = count_per_vertex_priority(community_graph).u_counts
        cd = coarse_grained_decomposition(community_graph, counts, 5)
        fd = fine_grained_decomposition(community_graph, cd)
        assert fd.counters.wedges_traversed <= cd.counters.wedges_traversed

    def test_induced_edges_bounded_by_graph(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert sum(r.induced_edges for r in fd.subset_records) <= graph.n_edges

    def test_no_synchronization_rounds(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        assert fd.counters.synchronization_rounds == 0

    def test_subset_work_vector(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        work = fd.subset_work()
        assert work.shape[0] == cd.n_subsets
        assert work.sum() == fd.counters.wedges_traversed


class TestScheduling:
    def test_workload_aware_order_is_descending_in_estimated_work(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd, workload_aware=True)
        wedge_work = graph.wedge_work_per_vertex("U")
        estimates = [float(wedge_work[s].sum()) if s.size else 0.0 for s in cd.subsets]
        scheduled = [estimates[i] for i in fd.schedule_order]
        assert scheduled == sorted(scheduled, reverse=True)

    def test_natural_order_without_was(self, cd_and_reference):
        graph, cd, _ = cd_and_reference
        fd = fine_grained_decomposition(graph, cd, workload_aware=False)
        assert fd.schedule_order == list(range(cd.n_subsets))


def _support_update_band(graph, tip_numbers):
    """``(low, high)`` bounds on any exact bottom-up peel's ``support_updates``.

    A pair ``(p, e)`` sharing a butterfly with ``θ_p < θ_e`` is counted
    exactly once by every exact peel: ``e``'s support never drops to
    ``θ_p``, so ``p``'s decrement always lands.  A same-level pair is
    counted at most once (the vertex peeled second gets nothing), and
    whether it is depends on the peel order — the only place per-vertex
    and round peeling may differ.
    """
    adjacency = np.zeros((graph.n_u, graph.n_v), dtype=np.int64)
    for u in range(graph.n_u):
        adjacency[u, graph.neighbors(u, "U")] = 1
    shares = (adjacency @ adjacency.T) >= 2
    np.fill_diagonal(shares, False)
    below = int((shares & (tip_numbers[:, None] < tip_numbers[None, :])).sum())
    same = int((shares & (tip_numbers[:, None] == tip_numbers[None, :])).sum()) // 2
    return below, below + same


class TestRoundPeelMatchesSequential:
    """FD's min-support rounds against per-vertex ``peel_sequential``, subset
    by subset, on the same induced subgraph and ``⋈init`` supports."""

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, 9)),
            min_size=1, max_size=80, unique=True,
        ),
        n_partitions=st.integers(1, 6),
        kernel=st.sampled_from(PEEL_KERNELS),
        enable_dgm=st.booleans(),
        wedge_budget=st.sampled_from([None, 1]),
    )
    def test_every_subset_matches_sequential(self, edges, n_partitions, kernel,
                                             enable_dgm, wedge_budget):
        graph = BipartiteGraph(15, 10, edges)
        counts = count_per_vertex_priority(graph).u_counts
        cd = coarse_grained_decomposition(graph, counts, n_partitions)
        fd = fine_grained_decomposition(graph, cd, enable_dgm=enable_dgm,
                                        peel_kernel=kernel, wedge_budget=wedge_budget)
        records = {record.subset_index: record for record in fd.subset_records}
        for index, subset in enumerate(cd.subsets):
            record = records[index]
            induced = graph.induced_on_u_subset(subset).graph
            init = cd.init_supports[subset]
            tips, sequential, _ = peel_sequential(induced, "U", init,
                                                  enable_dgm=enable_dgm, peel_kernel=kernel)
            assert np.array_equal(fd.tip_numbers[subset], tips)
            if enable_dgm:
                # DGM compacts at round granularity, so the count follows
                # the round schedule; it can only undercut the plain sweep.
                _, plain, _ = peel_sequential(induced, "U", init, peel_kernel=kernel)
                assert record.wedges_traversed <= plain.wedges_traversed
            else:
                assert record.wedges_traversed == sequential.wedges_traversed
            low, high = _support_update_band(induced, tips)
            assert low <= sequential.support_updates <= high
            assert low <= record.support_updates <= high
            assert np.unique(tips).size <= record.rounds <= subset.size

    def test_support_updates_differ_only_at_same_level_pairs(self):
        # Per-vertex BUP pops a vertex that dropped to the current level as
        # soon as its id comes up; rounds peel it one round later, after
        # the level's first batch.  Here that order counts two more
        # same-level decrements.
        edges = [(0, 1), (0, 2), (0, 3), (0, 6), (1, 1), (1, 3), (1, 4), (1, 5),
                 (1, 6), (1, 7), (1, 8), (2, 0), (2, 7), (3, 2), (3, 3), (3, 8),
                 (4, 0), (4, 3), (4, 7), (5, 0), (5, 2), (5, 3), (5, 4), (6, 1),
                 (6, 3), (6, 8), (7, 0), (7, 1), (7, 6), (7, 8), (8, 0), (8, 2),
                 (8, 3), (8, 7), (8, 8)]
        graph = BipartiteGraph(9, 9, edges)
        counts = count_per_vertex_priority(graph).u_counts
        sequential_tips, sequential, _ = peel_sequential(graph, "U", counts)
        tips, rounds = peel_rounds(graph, "U", counts)
        assert np.array_equal(tips, sequential_tips)
        assert rounds.wedges_traversed == sequential.wedges_traversed
        assert (sequential.support_updates, rounds.support_updates) == (15, 17)
        low, high = _support_update_band(graph, tips)
        assert low <= sequential.support_updates < rounds.support_updates <= high


class TestRoundPeelEdgeCases:
    def test_empty_subset_task(self, blocks_graph):
        flat, tasks = build_fd_tasks([np.zeros(0, dtype=np.int64)])
        job = FdJob(graph=blocks_graph, subsets_flat=flat,
                    init_supports=np.zeros(blocks_graph.n_u, dtype=np.int64))
        result = execute_fd_task(job, tasks[0])
        assert (result.n_vertices, result.rounds, result.tip_numbers.size) == (0, 0, 0)

    def test_empty_side(self):
        graph = BipartiteGraph(0, 3, [])
        tips, counters = peel_rounds(graph, "U", np.zeros(0, dtype=np.int64))
        assert tips.size == 0
        assert counters.synchronization_rounds == 0

    def test_single_vertex(self):
        graph = BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
        tips, counters = peel_rounds(graph, "U", np.array([7]))
        assert tips.tolist() == [7]
        assert counters.synchronization_rounds == 1
        assert counters.vertices_peeled == 1

    def test_all_zero_supports_peel_in_one_round(self):
        graph = BipartiteGraph(4, 1, [(u, 0) for u in range(4)])  # a star: no butterflies
        tips, counters = peel_rounds(graph, "U", np.zeros(4, dtype=np.int64))
        assert tips.tolist() == [0, 0, 0, 0]
        assert counters.synchronization_rounds == 1
        assert counters.support_updates == 0

    @pytest.mark.parametrize("kernel", PEEL_KERNELS)
    def test_every_vertex_at_one_level(self, kernel):
        # K(4, 3): every U vertex sits in the same C(3, 2) * 3 butterflies.
        graph = BipartiteGraph(4, 3, [(u, v) for u in range(4) for v in range(3)])
        counts = count_per_vertex_priority(graph).u_counts
        sequential_tips, sequential, _ = peel_sequential(graph, "U", counts,
                                                         peel_kernel=kernel)
        tips, counters = peel_rounds(graph, "U", counts, peel_kernel=kernel)
        assert np.array_equal(tips, sequential_tips)
        assert np.unique(tips).size == 1
        assert counters.synchronization_rounds == 1
        assert counters.wedges_traversed == sequential.wedges_traversed
        # The whole level peels in one batch, so no update lands.
        assert counters.support_updates == 0 == sequential.support_updates

    def test_rejects_mismatched_supports(self, blocks_graph):
        with pytest.raises(ValueError):
            peel_rounds(blocks_graph, "U", np.zeros(3))

    def test_round_counts_reported_per_subset(self, cd_and_reference):
        graph, cd, reference = cd_and_reference
        fd = fine_grained_decomposition(graph, cd)
        for record in fd.subset_records:
            levels = np.unique(reference.tip_numbers[cd.subsets[record.subset_index]])
            assert levels.size <= record.rounds <= record.n_vertices
        assert fd.counters.synchronization_rounds == 0
