"""Tracing core tests: nesting, no-op cost model, cross-process merge."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.obs.report import format_summary, load_trace, summarize, write_trace
from repro.obs.trace import NOOP_TRACER, Tracer, current_tracer, use_tracer


def _by_name(spans):
    grouped: dict = {}
    for span in spans:
        grouped.setdefault(span["name"], []).append(span)
    return grouped


class TestSpans:
    def test_nesting_establishes_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        spans = tracer.export()
        assert [span["name"] for span in spans] == ["outer", "inner"]
        assert spans[1]["parent"] == spans[0]["id"]

    def test_attributes_and_durations(self):
        tracer = Tracer()
        with tracer.timed("phase", side="U") as span:
            span.set(wedges=42)
            time.sleep(0.01)
        exported = tracer.export()[0]
        assert exported["attrs"] == {"side": "U", "wedges": 42}
        assert exported["dur"] >= 0.01
        assert span.duration == exported["dur"]

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        grouped = _by_name(tracer.export())
        assert grouped["a"][0]["parent"] == root.span_id
        assert grouped["b"][0]["parent"] == root.span_id

    def test_noop_span_is_shared_and_free(self):
        one = NOOP_TRACER.span("x")
        two = NOOP_TRACER.span("y", attr=1)
        assert one is two  # the shared singleton: no allocation per call
        assert one.duration == 0.0
        with one as span:
            assert span.set(a=1) is span

    def test_noop_timed_still_measures(self):
        # Counters derive elapsed_seconds from timed() spans, so timing
        # must be real even when nothing is recorded.
        with NOOP_TRACER.timed("phase") as span:
            time.sleep(0.01)
        assert span.duration >= 0.01
        assert NOOP_TRACER.export() == []

    def test_mid_span_elapsed(self):
        tracer = Tracer()
        with tracer.timed("open") as span:
            time.sleep(0.005)
            assert span.elapsed() >= 0.005

    def test_use_tracer_installs_and_restores(self):
        assert current_tracer() is NOOP_TRACER
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NOOP_TRACER

    def test_clear_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.export() == []


class TestMerge:
    def test_add_spans_rebases_and_attaches_orphans(self):
        worker = Tracer()
        with worker.span("fd.peel_subset", subset=3):
            with worker.span("child"):
                pass
        parent = Tracer()
        with parent.span("fd") as fd_span:
            parent.add_spans(worker.export(), parent=fd_span)
        grouped = _by_name(parent.export())
        subset = grouped["fd.peel_subset"][0]
        child = grouped["child"][0]
        assert subset["parent"] == fd_span.span_id
        assert child["parent"] == subset["id"]
        # Re-based onto the parent's timeline, not the worker's.
        assert subset["start"] >= 0.0

    def test_add_spans_on_noop_tracer_is_dropped(self):
        worker = Tracer()
        with worker.span("x"):
            pass
        NOOP_TRACER.add_spans(worker.export(), parent=None)
        assert NOOP_TRACER.export() == []

    def test_empty_worker_export_is_a_noop(self):
        # A worker whose subset peeled zero vertices exports no spans; the
        # merge must neither fail nor leave partial state behind.
        parent = Tracer()
        with parent.span("fd") as fd_span:
            parent.add_spans([], parent=fd_span)
        exported = parent.export()
        assert [span["name"] for span in exported] == ["fd"]

    def test_orphan_roots_with_dead_parent_id_reattach(self):
        # A worker export can carry spans whose parent id references a span
        # that did not travel (dropped, filtered, or from an earlier batch).
        # Those orphans must attach to the given parent, not keep a dangling
        # id from another process's id space.
        parent = Tracer()
        dead_parent_id = 999_999
        orphans = [
            {"name": "fd.peel_subset", "id": 1, "parent": dead_parent_id,
             "start": 0.0, "dur": 0.01, "tid": 1, "pid": 42, "attrs": {},
             "start_unix": parent._wall0 + 0.001},
            {"name": "child", "id": 2, "parent": 1,
             "start": 0.0, "dur": 0.005, "tid": 1, "pid": 42, "attrs": {},
             "start_unix": parent._wall0 + 0.002},
        ]
        with parent.span("fd") as fd_span:
            parent.add_spans(orphans, parent=fd_span)
        grouped = _by_name(parent.export())
        subset = grouped["fd.peel_subset"][0]
        assert subset["parent"] == fd_span.span_id
        # The intact intra-export link was remapped, not rerooted.
        assert grouped["child"][0]["parent"] == subset["id"]
        # Imported ids were re-issued from this process's id source.
        assert subset["id"] != 1

    def test_add_spans_without_parent_leaves_roots(self):
        worker = Tracer()
        with worker.span("orphan"):
            pass
        parent = Tracer()
        parent.add_spans(worker.export(), parent=None)
        exported = parent.export()
        assert exported[0]["name"] == "orphan"
        assert exported[0]["parent"] is None

    def test_wall_anchor_before_parent_trace_start_clamps_to_zero(self):
        # Clock skew (or a worker that started before the parent tracer)
        # can anchor an imported span before the parent's wall-clock zero;
        # re-basing must clamp to the timeline origin, never go negative.
        parent = Tracer()
        early = [{"name": "skewed", "id": 7, "parent": None,
                  "start": 0.0, "dur": 0.002, "tid": 1, "pid": 42, "attrs": {},
                  "start_unix": parent._wall0 - 5.0}]
        parent.add_spans(early, parent=None)
        span = parent.export()[0]
        assert span["start"] == 0.0
        assert span["dur"] == 0.002

    def test_add_spans_does_not_mutate_the_input(self):
        parent = Tracer()
        source = [{"name": "x", "id": 3, "parent": None, "start": 1.0,
                   "dur": 0.1, "tid": 1, "pid": 42, "attrs": {},
                   "start_unix": parent._wall0 + 0.5}]
        snapshot = [dict(span) for span in source]
        with parent.span("root") as root:
            parent.add_spans(source, parent=root)
        assert source == snapshot  # caller's dicts untouched (workers reuse them)


class TestReceiptTracing:
    @pytest.fixture(scope="class")
    def graph(self):
        return planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)

    def test_phase_spans_cover_the_run(self, graph):
        tracer = Tracer()
        with use_tracer(tracer):
            result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
        grouped = _by_name(tracer.export())
        for phase in ("receipt", "pvBcnt", "cd", "fd", "fd.peel_subset"):
            assert phase in grouped, phase
        root = grouped["receipt"][0]
        # The counters' elapsed time IS the root span duration.
        assert result.counters.elapsed_seconds == root["dur"]
        for phase in ("pvBcnt", "cd", "fd"):
            assert grouped[phase][0]["parent"] == root["id"]
        # Phase spans nest inside the root window and sum to within 5%
        # of the root wall-clock.
        phase_total = sum(grouped[name][0]["dur"] for name in ("pvBcnt", "cd", "fd"))
        assert phase_total <= root["dur"] * 1.001
        assert phase_total >= root["dur"] * 0.5
        assert result.phase_counters["cd"].elapsed_seconds == grouped["cd"][0]["dur"]

    def test_process_backend_merges_worker_spans(self, graph):
        tracer = Tracer()
        with use_tracer(tracer):
            tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4,
                              backend="process", n_threads=2)
        grouped = _by_name(tracer.export())
        fd_span = grouped["fd"][0]
        subsets = grouped["fd.peel_subset"]
        assert subsets, "worker spans did not travel back through the engine"
        assert all(span["parent"] == fd_span["id"] for span in subsets)
        assert all("subset" in span["attrs"] for span in subsets)
        # Worker spans were re-based into the parent timeline: they start
        # inside the fd phase window (with generous slack for clock skew).
        for span in subsets:
            assert span["start"] >= fd_span["start"] - 0.05

    def test_untraced_run_records_nothing(self, graph):
        result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
        assert result.counters.elapsed_seconds > 0
        assert NOOP_TRACER.export() == []


class TestReports:
    def _traced_run(self):
        tracer = Tracer()
        with use_tracer(tracer):
            graph = planted_blocks(30, 20, [(6, 5)], background_edges=30, seed=7)
            tip_decomposition(graph, "U", algorithm="receipt", n_partitions=3)
        return tracer

    def test_chrome_trace_format(self):
        tracer = self._traced_run()
        payload = tracer.chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["dur"] >= 0.0

    def test_write_and_load_roundtrip(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        payload = write_trace(tracer, str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk["spans"] == payload["spans"]
        assert len(on_disk["traceEvents"]) == len(payload["spans"])
        spans = load_trace(str(path))
        assert spans == payload["spans"]

    def test_summary_phase_totals_match_wall_clock(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        write_trace(tracer, str(path))
        summary = summarize(load_trace(str(path)))
        assert summary["roots"] == ["receipt"]
        phases = summary["phases"]
        assert set(phases) >= {"pvBcnt", "cd", "fd"}
        # Direct children of the root partition its wall time: their sum
        # can't exceed it and must account for (nearly) all of it.
        assert sum(phases.values()) <= summary["wall_seconds"] * 1.001
        assert sum(phases.values()) >= summary["wall_seconds"] * 0.5

    def test_summary_from_bare_chrome_events(self, tmp_path):
        # A trace file without the "spans" key (plain chrome://tracing
        # export) is reconstructed from event containment.
        tracer = self._traced_run()
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(tracer.chrome_trace()))
        summary = summarize(load_trace(str(path)))
        assert "receipt" in summary["roots"]
        assert summary["phases"]

    def test_summary_reports_fd_rounds_against_vertices(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        write_trace(tracer, str(path))
        spans = load_trace(str(path))
        tasks = [span for span in spans if span["name"] == "fd.peel_subset"]
        assert tasks and all("rounds" in span["attrs"] for span in tasks)
        fd_rounds = summarize(spans)["fd_rounds"]
        assert fd_rounds["tasks"] == len(tasks)
        assert fd_rounds["vertices"] == 30
        assert 1 <= fd_rounds["rounds"] <= fd_rounds["vertices"]
        assert (f"fd rounds: {fd_rounds['rounds']} rounds peeled 30 vertices"
                in format_summary(spans))

    def test_format_summary_is_readable(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        write_trace(tracer, str(path))
        text = format_summary(load_trace(str(path)))
        assert "phase breakdown" in text
        assert "cd" in text and "fd" in text
        assert "%" in text
