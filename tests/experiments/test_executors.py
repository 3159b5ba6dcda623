"""Backend conformance suite for :mod:`repro.experiments.executors`.

Every backend must be observably equivalent to the serial reference:
byte-identical campaign stores and traces, task-order results, retry
accounting that charges only executed-and-failed attempts (crash-drained
work resubmits free), and bounded behavior when workers die repeatedly.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.autoscalers import PureReactiveAutoscaler, WireAutoscaler
from repro.experiments.campaign import CampaignStore, run_campaign
from repro.experiments.executors import (
    DEFAULT_START_METHOD,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    TaskOutcome,
    resolve_backend,
)
from repro.experiments.parallel import FailedCell, parallel_map, run_campaign_parallel
from repro.workloads import tpch1, tpch6

BACKEND_NAMES = ["serial", "process"]


def make_backend(name: str, tmp_path) -> ExecutorBackend:
    if name == "serial":
        return SerialBackend()
    return ProcessBackend(jobs=2)


def _square(context, task):
    return task * task


def _batch_of_squares(context, batch):
    return [item * item for item in batch]


def _explode(context, task):
    raise ValueError(f"task {task} is cursed")


def _record_and_maybe_kill(context, task):
    """Append one invocation record; SIGKILL the worker once per killer."""
    directory, kind = context
    with open(os.path.join(directory, f"ran-{task}"), "a", encoding="utf-8") as fh:
        fh.write("x\n")
    if kind == "always-kill" or (
        isinstance(task, str) and task.startswith("kill")
    ):
        sentinel = os.path.join(directory, f"sentinel-{task}")
        try:
            with open(sentinel, "x"):
                pass
        except FileExistsError:
            return task  # already killed once; succeed this time
        if kind == "always-kill":
            os.remove(sentinel)  # never stop killing
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.05)  # keep innocents in flight across the crashes
    return task


@pytest.fixture
def matrix():
    return dict(
        specs={"tpch1-S": tpch1("S"), "tpch6-S": tpch6("S")},
        policies={
            "pure-reactive": PureReactiveAutoscaler,
            "wire": WireAutoscaler,
        },
        charging_units=[60.0],
        seeds=[0, 1],
    )


class TestConformance:
    """The same observable semantics from all three backends."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_results_in_task_order(self, name, tmp_path):
        backend = make_backend(name, tmp_path)
        outcomes = backend.run(_square, list(range(17)), max_attempts=1)
        assert [o.index for o in outcomes] == list(range(17))
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [i * i for i in range(17)]
        assert all(o.attempts == 1 for o in outcomes)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_streaming_callback_sees_every_outcome(self, name, tmp_path):
        backend = make_backend(name, tmp_path)
        seen: list[TaskOutcome] = []
        outcomes = backend.run(
            _square, [1, 2, 3, 4], max_attempts=1, on_result=seen.append
        )
        assert sorted(o.index for o in seen) == [0, 1, 2, 3]
        assert {o.index: o.value for o in seen} == {
            o.index: o.value for o in outcomes
        }

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_executed_failures_charged_and_isolated(self, name, tmp_path):
        backend = make_backend(name, tmp_path)
        outcomes = backend.run(_explode, ["a", "b"], max_attempts=2)
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.attempts == 2  # retried once, then reported
            assert "cursed" in outcome.error
        # the original exception crosses the boundary where picklable
        assert isinstance(outcomes[0].exception, ValueError)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_campaign_store_byte_identical_to_serial(
        self, name, tmp_path, matrix
    ):
        serial_path = tmp_path / "serial.json"
        run_campaign(CampaignStore(serial_path), **matrix)
        backend_path = tmp_path / f"via-{name}.json"
        records, executed, failed = run_campaign_parallel(
            CampaignStore(backend_path),
            **matrix,
            jobs=2,
            backend=make_backend(name, tmp_path),
        )
        assert failed == []
        assert executed == 8
        assert serial_path.read_bytes() == backend_path.read_bytes()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_parallel_map_byte_equal_rows(self, name, tmp_path):
        serial = parallel_map(_noop_double, list(range(9)), jobs=1)
        via_backend = parallel_map(
            _noop_double,
            list(range(9)),
            jobs=2,
            backend=make_backend(name, tmp_path),
        )
        assert serial == via_backend


def _noop_double(item):
    return item * 2


class TestRetryAccounting:
    """Satellite: innocent in-flight work is never charged for a crash."""

    def test_two_unrelated_worker_deaths_do_not_fail_innocents(self, tmp_path):
        # Two killer tasks each SIGKILL their worker once; the innocent
        # tasks are in flight during both crashes. The old executor
        # charged drained futures against _MAX_ATTEMPTS, so the second
        # crash spuriously failed innocents ("failed twice"); honest
        # accounting resubmits them free and everything completes.
        backend = ProcessBackend(jobs=2)
        tasks = ["kill-1", "kill-2"] + [f"ok-{i}" for i in range(6)]
        outcomes = backend.run(
            _record_and_maybe_kill,
            tasks,
            context=(str(tmp_path), "kill-once"),
            max_attempts=2,
        )
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert (tmp_path / "sentinel-kill-1").exists()
        assert (tmp_path / "sentinel-kill-2").exists()
        # every task really ran, and crash retries were not charged
        for task, outcome in zip(tasks, outcomes):
            assert (tmp_path / f"ran-{task}").exists()
            assert outcome.attempts == 1
        assert sum(o.crashes for o in outcomes) >= 2

    def test_reliably_crashing_task_converges_instead_of_livelocking(
        self, tmp_path
    ):
        # A task that kills its worker on *every* execution must exhaust
        # the free-crash cap and surface as a failed outcome — bounded
        # pool rebuilds, not an infinite rebuild loop.
        backend = ProcessBackend(jobs=2)
        outcomes = backend.run(
            _record_and_maybe_kill,
            ["kill-forever"],
            context=(str(tmp_path), "always-kill"),
            max_attempts=2,
        )
        assert len(outcomes) == 1
        assert not outcomes[0].ok
        assert "died repeatedly" in outcomes[0].error
        assert outcomes[0].crashes > 3

    def test_inline_deterministic_exception_never_retried(self):
        # Satellite: the jobs == 1 path used to blindly retry any
        # exception _MAX_ATTEMPTS times, doubling the cost of a
        # reproducible failure. parallel_map now invokes fn exactly once
        # per item on every path and raises the original exception.
        calls = []

        def boom(item):
            calls.append(item)
            raise ValueError("deterministic")

        with pytest.raises(ValueError, match="deterministic"):
            parallel_map(boom, [1, 2, 3], jobs=1)
        assert calls == [1]

    def test_process_deterministic_exception_not_retried(self, tmp_path):
        # The same contract across the process boundary, observed via
        # invocation-record files: one failing invocation, no retry.
        backend = ProcessBackend(jobs=2)
        outcomes = backend.run(
            _record_and_raise, ["x"], context=str(tmp_path), max_attempts=1
        )
        assert not outcomes[0].ok
        assert (tmp_path / "ran-x").read_text(encoding="utf-8") == "x\n"

    def test_campaign_cells_still_retry_executed_failures_once(
        self, tmp_path
    ):
        # Campaign semantics are deliberately different: a cell that
        # executed and raised is retried once before FailedCell.
        store = CampaignStore(tmp_path / "c.json")
        records, executed, failed = run_campaign_parallel(
            store,
            {"tpch6-S": tpch6("S")},
            {"bad": _BoomFactory()},
            [60.0],
            [0],
            jobs=2,
        )
        assert records == [] and executed == 0
        assert len(failed) == 1 and isinstance(failed[0], FailedCell)
        assert "boom" in failed[0].error


def _record_and_raise(context, task):
    with open(os.path.join(context, f"ran-{task}"), "a", encoding="utf-8") as fh:
        fh.write("x\n")
    raise RuntimeError("deterministic failure")


class _BoomFactory:
    def __call__(self):
        raise RuntimeError("boom")

    def __reduce__(self):
        return (_BoomFactory, ())


class TestStartMethod:
    """Satellite: the multiprocessing start method is pinned, not default."""

    def test_default_is_explicitly_resolved(self):
        assert DEFAULT_START_METHOD in ("fork", "spawn")
        backend = ProcessBackend(jobs=2)
        assert backend.start_method == DEFAULT_START_METHOD
        assert backend.mp_context.get_start_method() == DEFAULT_START_METHOD

    def test_override_is_honored(self):
        backend = ProcessBackend(jobs=2, start_method="spawn")
        assert backend.mp_context.get_start_method() == "spawn"

    def test_spawn_backend_still_byte_identical(self, tmp_path):
        # The pin is about *explicitness*; either method must produce
        # identical results, just at different startup cost.
        serial = parallel_map(_noop_double, list(range(6)), jobs=1)
        spawned = parallel_map(
            _noop_double,
            list(range(6)),
            backend=ProcessBackend(jobs=2, start_method="spawn"),
        )
        assert serial == spawned


class TestResolveBackend:
    def test_defaults(self):
        assert isinstance(resolve_backend(None, jobs=1), SerialBackend)
        process = resolve_backend(None, jobs=3)
        assert isinstance(process, ProcessBackend)
        assert process.jobs == 3

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend, jobs=8) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_backend("carrier-pigeon")
