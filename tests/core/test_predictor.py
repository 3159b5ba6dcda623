"""Tests for the five online prediction policies (§III-C)."""

from __future__ import annotations

import pytest
from controller_oracle import group_by_input_size

from repro.core import PredictionPolicy, TaskPredictor, WireConfig
from repro.dag import Task, WorkflowBuilder
from repro.engine import Monitor, TaskExecState


@pytest.fixture
def stage_workflow():
    """One stage with 6 tasks of varying sizes plus a blocked child."""
    builder = WorkflowBuilder("p")
    sizes = [100.0, 100.0, 100.0, 200.0, 200.0, 300.0]
    builder.add_stage(
        "map", count=6, runtime=[10, 11, 12, 20, 21, 30], input_sizes=sizes
    )
    return builder.build()


def complete(monitor, task_id, stage, start, duration, input_size):
    monitor.record_dispatch(task_id, stage, "vm", start, input_size, 0.0)
    monitor.record_exec_start(task_id, start)
    monitor.record_exec_end(task_id, start + duration)
    monitor.record_complete(task_id, start + duration)


class TestPolicySelection:
    def test_policy1_nothing_started(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow)
        monitor = Monitor()
        estimate, policy = predictor.estimate_execution(
            "map-0000", TaskExecState.READY, monitor, 0.0
        )
        assert policy is PredictionPolicy.NO_TASK_STARTED
        assert estimate == 0.0

    def test_policy2_running_only(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        for tid, start in (("map-0000", 0.0), ("map-0001", 4.0), ("map-0002", 8.0)):
            monitor.record_dispatch(tid, stage, "vm", start, 100.0, 0.0)
            monitor.record_exec_start(tid, start)
        estimate, policy = predictor.estimate_execution(
            "map-0003", TaskExecState.READY, monitor, 10.0
        )
        assert policy is PredictionPolicy.RUNNING_ONLY
        # elapsed times are 10, 6, 2 -> median 6
        assert estimate == pytest.approx(6.0)

    def test_policy3_blocked_task_uses_stage_median(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        for tid, dur in (("map-0000", 10.0), ("map-0001", 20.0), ("map-0002", 30.0)):
            complete(monitor, tid, stage, 0.0, dur, 100.0)
        estimate, policy = predictor.estimate_execution(
            "map-0005", TaskExecState.BLOCKED, monitor, 50.0
        )
        assert policy is PredictionPolicy.COMPLETED_UNREADY
        assert estimate == pytest.approx(20.0)

    def test_policy4_matched_size_group(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        complete(monitor, "map-0000", stage, 0.0, 10.0, 100.0)
        complete(monitor, "map-0001", stage, 0.0, 12.0, 100.0)
        complete(monitor, "map-0003", stage, 0.0, 20.0, 200.0)
        # map-0002 has input size 100 -> matches the (100,) group.
        estimate, policy = predictor.estimate_execution(
            "map-0002", TaskExecState.READY, monitor, 30.0
        )
        assert policy is PredictionPolicy.MATCHED_GROUP
        assert estimate == pytest.approx(11.0)

    def test_policy5_new_size_uses_ogd(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        complete(monitor, "map-0000", stage, 0.0, 10.0, 100.0)
        complete(monitor, "map-0003", stage, 0.0, 20.0, 200.0)
        # Train the stage model over a few intervals.
        for i in range(50):
            predictor.observe_interval(monitor, -1.0 if i == 0 else 100.0, 100.0)
        # map-0005 has size 300: unseen -> OGD extrapolation.
        estimate, policy = predictor.estimate_execution(
            "map-0005", TaskExecState.READY, monitor, 100.0
        )
        assert policy is PredictionPolicy.OGD
        assert estimate > 20.0  # extrapolates beyond the largest seen


class TestGrouping:
    def test_exact_groups(self):
        monitor = Monitor()
        complete(monitor, "a", "s", 0.0, 10.0, 100.0)
        complete(monitor, "b", "s", 0.0, 12.0, 100.0)
        complete(monitor, "c", "s", 0.0, 20.0, 250.0)
        groups = group_by_input_size(monitor.completed_in_stage("s"), rtol=0.02)
        assert len(groups) == 2
        assert groups[0][0] == 100.0
        assert sorted(groups[0][1]) == [10.0, 12.0]

    def test_rtol_merges_near_sizes(self):
        monitor = Monitor()
        complete(monitor, "a", "s", 0.0, 10.0, 100.0)
        complete(monitor, "b", "s", 0.0, 12.0, 101.0)
        groups = group_by_input_size(monitor.completed_in_stage("s"), rtol=0.02)
        assert len(groups) == 1

    def test_zero_sizes_group_together(self):
        monitor = Monitor()
        complete(monitor, "a", "s", 0.0, 10.0, 0.0)
        complete(monitor, "b", "s", 0.0, 12.0, 0.0)
        groups = group_by_input_size(monitor.completed_in_stage("s"), rtol=0.02)
        assert len(groups) == 1


class TestTransferEstimate:
    def test_zero_before_observations(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow)
        assert predictor.transfer_estimate() == 0.0

    def test_median_of_window_observations(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        # stage-in of 4s finishing at t=4, stage-out 2s finishing at t=14
        monitor.record_dispatch("map-0000", stage, "vm", 0.0, 100.0, 0.0)
        monitor.record_exec_start("map-0000", 4.0)
        monitor.record_exec_end("map-0000", 12.0)
        monitor.record_complete("map-0000", 14.0)
        predictor.observe_interval(monitor, 0.0, 20.0)
        assert predictor.transfer_estimate() == pytest.approx(3.0)  # median(4,2)

    def test_falls_back_to_last_interval_with_data(self, stage_workflow):
        predictor = TaskPredictor(stage_workflow, WireConfig(transfer_window=1))
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        monitor.record_dispatch("map-0000", stage, "vm", 0.0, 100.0, 0.0)
        monitor.record_exec_start("map-0000", 5.0)
        predictor.observe_interval(monitor, 0.0, 10.0)
        first = predictor.transfer_estimate()
        # An empty interval must not reset the estimate to zero.
        predictor.observe_interval(monitor, 10.0, 20.0)
        assert predictor.transfer_estimate() == first == pytest.approx(5.0)


class TestRunStateAssembly:
    def test_annotates_every_task(self, stage_workflow):
        from repro.engine import FrameworkMaster

        predictor = TaskPredictor(stage_workflow)
        master = FrameworkMaster(stage_workflow)
        state = predictor.build_run_state(master, Monitor(), 0.0)
        assert set(state.estimates) == set(stage_workflow.tasks)

    def test_completed_tasks_observed(self, stage_workflow):
        from repro.engine import FrameworkMaster

        predictor = TaskPredictor(stage_workflow)
        master = FrameworkMaster(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        master.mark_dispatched("map-0000")
        master.mark_executing("map-0000")
        master.mark_staging_out("map-0000")
        master.mark_completed("map-0000")
        complete(monitor, "map-0000", stage, 0.0, 10.0, 100.0)
        state = predictor.build_run_state(master, monitor, 20.0)
        estimate = state.estimate("map-0000")
        assert estimate.policy is PredictionPolicy.OBSERVED
        assert estimate.exec_estimate == pytest.approx(10.0)
        assert estimate.remaining_occupancy == 0.0

    def test_running_task_policy2_counts_full_estimate(self, stage_workflow):
        """§III-E growth arithmetic: pre-completion running tasks carry the
        whole growing estimate as remaining occupancy."""
        from repro.engine import FrameworkMaster

        predictor = TaskPredictor(stage_workflow)
        master = FrameworkMaster(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        master.mark_dispatched("map-0000")
        master.mark_executing("map-0000")
        monitor.record_dispatch("map-0000", stage, "vm", 0.0, 100.0, 0.0)
        monitor.record_exec_start("map-0000", 0.0)
        state = predictor.build_run_state(master, monitor, 30.0)
        estimate = state.estimate("map-0000")
        assert estimate.policy is PredictionPolicy.RUNNING_ONLY
        assert estimate.remaining_occupancy == pytest.approx(30.0)
        assert estimate.sunk_occupancy == pytest.approx(30.0)

    def test_completion_unknown_to_master_raises(self, stage_workflow):
        from repro.engine import FrameworkMaster

        predictor = TaskPredictor(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        complete(monitor, "map-0000", stage, 0.0, 10.0, 100.0)
        master = FrameworkMaster(stage_workflow)  # never told of the run
        with pytest.raises(RuntimeError, match="framework master counts 0"):
            predictor.build_run_state(master, monitor, 20.0)

    def test_replayed_completion_raises(self, stage_workflow):
        from repro.engine import FrameworkMaster

        predictor = TaskPredictor(stage_workflow)
        master = FrameworkMaster(stage_workflow)
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        complete(monitor, "map-0000", stage, 0.0, 10.0, 100.0)
        monitor.record_complete("map-0000", 12.0)
        with pytest.raises(RuntimeError, match="'map-0000'"):
            predictor.build_run_state(master, monitor, 20.0)

    def test_slot_holder_unknown_to_monitor_raises(self, stage_workflow):
        """A task the master has in flight but the monitor never saw
        dispatched is a master/monitor disagreement, not an estimate."""
        from repro.engine import FrameworkMaster

        predictor = TaskPredictor(stage_workflow)
        master = FrameworkMaster(stage_workflow)
        master.mark_dispatched("map-0001")
        master.mark_executing("map-0001")
        state = predictor.build_run_state(master, Monitor(), 5.0)
        assert state.estimate("map-0000").phase is TaskExecState.READY
        with pytest.raises(RuntimeError, match="'map-0001' EXECUTING"):
            state.estimate("map-0001")
        with pytest.raises(RuntimeError, match="'map-0001'"):
            list(state.incomplete_predictions())

    def test_mean_ablation_changes_aggregation(self, stage_workflow):
        monitor = Monitor()
        stage = stage_workflow.stage_of["map-0000"]
        for tid, dur in (("map-0000", 10.0), ("map-0001", 10.0), ("map-0002", 40.0)):
            complete(monitor, tid, stage, 0.0, dur, 100.0)
        median_pred = TaskPredictor(stage_workflow, WireConfig(use_median=True))
        mean_pred = TaskPredictor(stage_workflow, WireConfig(use_median=False))
        est_median, _ = median_pred.estimate_execution(
            "map-0005", TaskExecState.BLOCKED, Monitor(), 0.0
        )  # empty monitor -> policy 1, so use the populated one below
        est_median, _ = median_pred.estimate_execution(
            "map-0005", TaskExecState.BLOCKED, monitor, 50.0
        )
        est_mean, _ = mean_pred.estimate_execution(
            "map-0005", TaskExecState.BLOCKED, monitor, 50.0
        )
        assert est_median == pytest.approx(10.0)
        assert est_mean == pytest.approx(20.0)
