"""Tests for trace sinks and the tracer's enabled fast path."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    NullSink,
    RunSummaryRecord,
    TaskAttemptRecord,
    Tracer,
    read_jsonl,
)


def attempt(i: int) -> TaskAttemptRecord:
    return TaskAttemptRecord(
        now=float(i),
        task_id=f"t{i}",
        stage_id="s",
        attempt=1,
        instance_id="i-0",
        outcome="completed",
        runtime=1.0,
    )


SUMMARY = RunSummaryRecord(
    makespan=10.0,
    completed=True,
    total_units=1,
    total_cost=60.0,
    wasted_seconds=0.0,
    utilization=1.0,
    peak_instances=1,
    instances_launched=1,
    restarts=0,
    ticks=1,
)


class TestMemorySink:
    def test_keeps_emission_order(self):
        sink = MemorySink()
        for i in range(3):
            sink.emit(attempt(i))
        assert [r.task_id for r in sink.records] == ["t0", "t1", "t2"]

    def test_bounded_ring_drops_oldest(self):
        sink = MemorySink(maxlen=2)
        for i in range(5):
            sink.emit(attempt(i))
        assert [r.task_id for r in sink.records] == ["t3", "t4"]

    def test_of_kind_filters(self):
        sink = MemorySink()
        sink.emit(attempt(0))
        sink.emit(SUMMARY)
        assert [r.kind for r in sink.of_kind("run_summary")] == ["run_summary"]
        assert len(sink.of_kind("task_attempt")) == 1

    def test_clear(self):
        sink = MemorySink()
        sink.emit(attempt(0))
        sink.clear()
        assert sink.records == []


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [attempt(0), attempt(1), SUMMARY]
        with JsonlSink(path) as sink:
            for record in records:
                sink.emit(record)
            assert sink.emitted == 3
        assert read_jsonl(path) == records

    def test_lazy_open_leaves_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_lines_are_sorted_compact_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(attempt(0))
        line = path.read_text(encoding="utf-8").splitlines()[0]
        payload = json.loads(line)
        assert list(payload) == sorted(payload)
        assert ": " not in line and ", " not in line

    def test_reopen_overwrites(self, tmp_path):
        # A retried campaign cell reuses its key-derived path; the second
        # attempt must replace the partial first trace, not append to it.
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(attempt(0))
            sink.emit(attempt(1))
        with JsonlSink(path) as sink:
            sink.emit(attempt(2))
        assert [r.task_id for r in read_jsonl(path)] == ["t2"]

    def test_emit_after_close_raises_instead_of_truncating(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(attempt(0))
        sink.emit(attempt(1))
        sink.close()
        with pytest.raises(ValueError, match="trace.jsonl"):
            sink.emit(attempt(2))
        assert sink.emitted == 2
        assert [r.task_id for r in read_jsonl(path)] == ["t0", "t1"]

    def test_emit_after_close_of_unopened_sink_raises(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit(attempt(0))
        assert not path.exists()

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(attempt(0))
        assert path.exists()

    def test_malformed_line_fails_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(attempt(0).to_json())
        path.write_text(good + "\n{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(path)

    def test_unknown_kind_line_fails_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"mystery"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps(attempt(0).to_json())
        path.write_text("\n" + good + "\n\n", encoding="utf-8")
        assert len(read_jsonl(path)) == 1


class TestTracer:
    def test_default_is_disabled(self):
        assert Tracer().enabled is False
        assert Tracer(NullSink()).enabled is False
        assert NULL_TRACER.enabled is False

    def test_real_sink_enables(self):
        assert Tracer(MemorySink()).enabled is True

    def test_disabled_tracer_never_touches_sink(self):
        # The fast-path contract the engine relies on: emit() through a
        # disabled tracer is a no-op even if handed a real record.
        tracer = Tracer()
        tracer.emit(SUMMARY)  # must not raise or retain anything

    def test_enabled_tracer_forwards(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.emit(SUMMARY)
        assert sink.records == [SUMMARY]

    def test_context_manager_closes_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            tracer.emit(SUMMARY)
        assert len(read_jsonl(path)) == 1
