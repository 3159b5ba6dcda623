"""Checkpoint file format + full-engine resume (repro.checkpoint).

The contract under test: a run interrupted at a controller-tick
boundary and resumed from its checkpoint finishes *byte-identically* to
a run that was never interrupted — same summary JSON, same telemetry
bytes — for plain, chaotic, and validated runs alike.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    read_checkpoint_info,
    save_checkpoint,
)
from repro.cloud.faults import ChaosSpec
from repro.autoscalers import StaticAutoscaler
from repro.engine import Simulation
from repro.fleet import resume_fleet

def interrupted_checkpoint(small_fleet, tmp_path, *, every: int = 2, **kwargs):
    """Run the small fleet until its first checkpoint; return the path."""
    path = tmp_path / "fleet.ckpt"
    result = small_fleet(
        checkpoint_every=every,
        checkpoint_path=path,
        stop_after_checkpoint=True,
        **kwargs,
    )
    assert result is None, "run finished before reaching a checkpoint tick"
    assert path.exists()
    return path


class TestCheckpointFile:
    def test_info_header(self, small_fleet, tmp_path):
        path = interrupted_checkpoint(small_fleet, tmp_path)
        info = read_checkpoint_info(path)
        assert info.version == CHECKPOINT_VERSION
        assert info.kind == "fleet"
        assert info.ticks > 0 and info.now > 0.0
        assert info.events_processed > 0
        assert info.payload_bytes > 0
        assert len(info.sha256) == 64

    def test_magic_leads_the_file(self, small_fleet, tmp_path):
        path = interrupted_checkpoint(small_fleet, tmp_path)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint_info(path)

    def test_rejects_truncated_payload(self, small_fleet, tmp_path):
        path = interrupted_checkpoint(small_fleet, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_corrupted_payload(self, small_fleet, tmp_path):
        path = interrupted_checkpoint(small_fleet, tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_rejects_future_version(self, small_fleet, tmp_path):
        path = interrupted_checkpoint(small_fleet, tmp_path)
        sim = load_checkpoint(path)
        import repro.checkpoint as cp

        old = cp.CHECKPOINT_VERSION
        try:
            cp.CHECKPOINT_VERSION = old + 1
            save_checkpoint(sim, path)
        finally:
            cp.CHECKPOINT_VERSION = old
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @staticmethod
    def assert_rejects_old_version(small_fleet, tmp_path, version):
        path = interrupted_checkpoint(small_fleet, tmp_path)
        sim = load_checkpoint(path)
        import repro.checkpoint as cp

        current = cp.CHECKPOINT_VERSION
        try:
            cp.CHECKPOINT_VERSION = version
            save_checkpoint(sim, path)
        finally:
            cp.CHECKPOINT_VERSION = current
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert f"version {version}" in message and f"version {current}" in message

    def test_rejects_version_1(self, small_fleet, tmp_path):
        # Version 1 pickled the two engines before they shared one core;
        # its payload cannot be restored into today's classes.
        self.assert_rejects_old_version(small_fleet, tmp_path, 1)

    def test_rejects_version_2(self, small_fleet, tmp_path):
        # Version 2 pickled each Workflow with its own edge sets; since
        # version 3 a workflow holds its tasks and a shared DagStructure.
        self.assert_rejects_old_version(small_fleet, tmp_path, 2)

    def test_rejects_version_3(self, small_fleet, tmp_path):
        # Version 3 pickled an indexed event queue whose task events
        # carried task ids; since version 4 the queue is a plain heap and
        # task events carry the engine's attempt handles.
        self.assert_rejects_old_version(small_fleet, tmp_path, 3)

    def test_rejects_version_4(self, small_fleet, tmp_path):
        # Version 4 pickled predictors carrying fallback flags and
        # lookahead simulators holding a copy of the completion topology;
        # since version 5 the simulator adopts the run state's topology.
        self.assert_rejects_old_version(small_fleet, tmp_path, 4)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.ckpt")


class TestFleetResume:
    def assert_resume_matches(self, small_fleet, tmp_path, **kwargs):
        straight = small_fleet(**kwargs)
        path = interrupted_checkpoint(small_fleet, tmp_path, **kwargs)
        resumed = resume_fleet(path)
        assert resumed is not None
        assert resumed.to_summary_json() == straight.to_summary_json()

    def test_plain(self, small_fleet, tmp_path):
        self.assert_resume_matches(small_fleet, tmp_path)

    def test_under_chaos(self, small_fleet, tmp_path):
        # faulty RNG streams are part of the checkpoint; the resumed run
        # must replay the exact same revocations and stragglers
        self.assert_resume_matches(
            small_fleet,
            tmp_path,
            chaos=ChaosSpec(revocation_rate=0.5, straggler_probability=0.2),
        )

    def test_with_invariant_checker(self, small_fleet, tmp_path):
        self.assert_resume_matches(small_fleet, tmp_path, validate=True)

    def test_trace_bytes_identical(self, small_fleet, tmp_path):
        straight = tmp_path / "straight.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        small_fleet(trace_path=straight)
        path = interrupted_checkpoint(small_fleet, tmp_path, trace_path=resumed)
        # the interrupted run's sink was closed mid-file; the checkpoint
        # carries a cursor and the resumed sink truncates back to it
        resume_fleet(path)
        assert resumed.read_bytes() == straight.read_bytes()

    def test_resume_can_keep_checkpointing(self, small_fleet, tmp_path):
        # a longer run, so a second checkpoint tick exists after resume
        path = interrupted_checkpoint(small_fleet, tmp_path, every=2, n=6)
        again = tmp_path / "again.ckpt"
        result = resume_fleet(
            path,
            checkpoint_every=1,
            checkpoint_path=again,
            stop_after_checkpoint=True,
        )
        assert result is None and again.exists()
        final = resume_fleet(again)
        assert final.to_summary_json() == small_fleet(n=6).to_summary_json()

    def test_resume_rejects_non_fleet_checkpoint(
        self, tmp_path, two_stage, small_site
    ):
        sim = Simulation(two_stage, small_site, StaticAutoscaler(2), 60.0)
        path = tmp_path / "single.ckpt"
        save_checkpoint(sim, path)
        with pytest.raises(CheckpointError, match="not a fleet run"):
            resume_fleet(path)


class TestSingleRunResume:
    @staticmethod
    def comparable(result) -> dict:
        """Result fields that are deterministic by contract.

        ``controller_cpu_seconds`` is host wall-clock (excluded from
        summaries by design) and ``monitor`` compares by identity.
        """
        fields = dataclasses.asdict(result)
        fields.pop("controller_cpu_seconds", None)
        fields.pop("monitor", None)
        return fields

    def test_resume_matches_straight_through(
        self, tmp_path, two_stage, small_site
    ):
        straight = Simulation(
            two_stage, small_site, StaticAutoscaler(3), 60.0
        ).run()
        sim = Simulation(two_stage, small_site, StaticAutoscaler(3), 60.0)
        path = tmp_path / "single.ckpt"
        interrupted = sim.run(
            checkpoint_every=1,
            checkpoint_path=path,
            stop_after_checkpoint=True,
        )
        assert interrupted is None and path.exists()
        info = read_checkpoint_info(path)
        assert info.kind == "single"
        resumed = load_checkpoint(path).run()
        assert self.comparable(resumed) == self.comparable(straight)
