"""Reference implementations of the controller's run-state build.

:meth:`TaskPredictor.build_run_state` is incremental: it patches per-stage
class counts from the monitor's completion log, aggregates completed
attempts from log-fed accumulators and hands the lookahead a live
unfinished-parent map. The functions here are the historical from-scratch
versions of each piece — a full topological scan per tick, an
O(n log n) regrouping of each stage's completed attempts — kept as the
oracle the differential tests compare the incremental build against.
They read the predictor's learned state (OGD models, transfer estimate)
and write nothing back. :func:`reference_tick_telemetry` is the
historical traced tick, which re-ran Algorithm 3 and grouped every
materialized estimate by stage.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import PredictionPolicy, RunState, TaskEstimate, TaskPredictor
from repro.core.steering import resize_pool
from repro.core.predictor import _sizes_equivalent, _StageView
from repro.dag import Workflow
from repro.engine import FrameworkMaster, Monitor, TaskExecState
from repro.engine.monitor import TaskAttempt
from repro.metrics.stats import mean, median
from repro.telemetry import StagePrediction, TickTelemetry


def group_by_input_size(
    attempts: Sequence[TaskAttempt], rtol: float
) -> list[tuple[float, list[float]]]:
    """Cluster completed attempts by (approximately) equal input size.

    Returns ``(representative_size, execution_times)`` pairs sorted by
    size. Two sizes are "equivalent" (paper Policy 4's group *L*) when
    they differ by at most ``rtol`` relative to the larger of the two.
    """
    completed = sorted(
        (a for a in attempts if a.execution_time is not None),
        key=lambda a: a.input_size,
    )
    groups: list[tuple[float, list[float]]] = []
    for attempt in completed:
        size = attempt.input_size
        exec_time = attempt.execution_time
        assert exec_time is not None
        if groups and _sizes_equivalent(groups[-1][0], size, rtol):
            groups[-1][1].append(exec_time)
        else:
            groups.append((size, [exec_time]))
    return groups


def _aggregator(predictor: TaskPredictor):
    return median if predictor.config.use_median else mean


def reference_aggregates(
    predictor: TaskPredictor, stage_id: str, monitor: Monitor
) -> tuple[float | None, list[tuple[float, float]]]:
    """(aggregate completed exec time, input-size groups) by full scan."""
    completed = monitor.completed_in_stage(stage_id)
    if not completed:
        return None, []
    agg = _aggregator(predictor)
    exec_times = [a.execution_time for a in completed if a.execution_time is not None]
    median_completed = agg(exec_times)
    groups = [
        (size, agg(times))
        for size, times in group_by_input_size(
            completed, predictor.config.input_size_rtol
        )
    ]
    return median_completed, groups


def reference_stage_view(
    predictor: TaskPredictor, stage_id: str, monitor: Monitor, now: float
) -> _StageView:
    """One stage's peer aggregates, from the full-scan aggregation."""
    running = monitor.running_in_stage(stage_id)
    median_completed, groups = reference_aggregates(predictor, stage_id, monitor)
    return _StageView(
        stage_id=stage_id,
        has_completed=median_completed is not None,
        has_running=bool(running),
        median_elapsed=(
            _aggregator(predictor)([a.elapsed_execution(now) for a in running])
            if running
            else None
        ),
        median_completed=median_completed,
        groups=groups,
        group_sizes=[g[0] for g in groups],
    )


def reference_topology(workflow: Workflow, estimates) -> dict:
    """The projection topology derived from scratch from ``estimates``.

    Returns the :class:`RunState` keyword arguments ``unfinished_parents``
    (incomplete task -> number of incomplete parents), ``completed_count``
    and ``in_flight`` (slot holders in topological order).
    """
    completed: set[str] = set()
    unfinished: dict[str, int] = {}
    in_flight: list[str] = []
    for task_id in workflow.topological_order():
        phase = estimates[task_id].phase
        if phase is TaskExecState.COMPLETED:
            completed.add(task_id)
            continue
        # Topological order guarantees every completed parent is already
        # in `completed` when its child is visited.
        unfinished[task_id] = sum(
            1 for p in workflow.parents(task_id) if p not in completed
        )
        if phase.occupies_slot:
            in_flight.append(task_id)
    return {
        "unfinished_parents": unfinished,
        "completed_count": len(completed),
        "in_flight": tuple(in_flight),
    }


def reference_build_run_state(
    predictor: TaskPredictor, master: FrameworkMaster, monitor: Monitor, now: float
) -> RunState:
    """The historical full-DAG scan of :meth:`TaskPredictor.build_run_state`.

    Every task is annotated eagerly, in topological order: a completed
    task from its attempt record, an incomplete one through §III-C's
    policy selection (:meth:`TaskPredictor.estimate_execution`) over a
    stage view aggregated from scratch.
    """
    t_data = predictor.transfer_estimate()
    workflow = predictor.workflow
    views: dict[str, _StageView] = {}
    estimates: dict[str, TaskEstimate] = {}
    for task_id in workflow.topological_order():
        phase = master.state(task_id)
        stage_id = workflow.stage_of[task_id]
        if phase is TaskExecState.COMPLETED:
            attempt = monitor.current_attempt(task_id)
            estimates[task_id] = TaskEstimate(
                task_id=task_id,
                stage_id=stage_id,
                phase=phase,
                exec_estimate=attempt.execution_time or 0.0,
                policy=PredictionPolicy.OBSERVED,
                remaining_occupancy=0.0,
                sunk_occupancy=0.0,
                instance_id=attempt.instance_id,
            )
            continue
        view = views.get(stage_id)
        if view is None:
            view = views[stage_id] = reference_stage_view(
                predictor, stage_id, monitor, now
            )
        estimate, policy = predictor.estimate_execution(
            task_id, phase, monitor, now, _view=view
        )
        estimates[task_id] = predictor._annotate_incomplete(
            task_id, stage_id, phase, estimate, policy, monitor, now, t_data
        )
    return RunState(
        now=now,
        transfer_estimate=t_data,
        estimates=estimates,
        **reference_topology(workflow, estimates),
    )


def assert_same_run_state(actual: RunState, expected: RunState) -> None:
    """Exact equality of every field the controller reads off a run state."""
    assert actual.now == expected.now
    assert actual.transfer_estimate == expected.transfer_estimate
    assert list(actual.estimates) == list(expected.estimates)
    assert dict(actual.estimates.items()) == expected.estimates
    assert actual.policy_counts() == expected.policy_counts()
    assert actual.unfinished_parents == expected.unfinished_parents
    assert actual.completed_count == expected.completed_count
    assert actual.in_flight == expected.in_flight


def reference_tick_telemetry(
    run_state: RunState,
    upcoming: Sequence[float],
    charging_unit: float,
    slots: int,
    tail_threshold_fraction: float,
) -> TickTelemetry:
    """The historical traced tick: Algorithm 3 re-run on the tick's Q_task,
    and every estimate materialized to be grouped by stage."""
    target = resize_pool(
        upcoming,
        charging_unit,
        slots,
        tail_threshold_fraction=tail_threshold_fraction,
    )
    by_stage: dict[str, list[TaskEstimate]] = {}
    for estimate in run_state.estimates.values():
        if estimate.phase is TaskExecState.COMPLETED:
            continue
        by_stage.setdefault(estimate.stage_id, []).append(estimate)
    predictions = []
    for stage_id in sorted(by_stage):
        estimates = by_stage[stage_id]
        counts: dict[PredictionPolicy, int] = {}
        for estimate in estimates:
            counts[estimate.policy] = counts.get(estimate.policy, 0) + 1
        dominant = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        predictions.append(
            StagePrediction(
                stage_id=stage_id,
                model=dominant.name.lower(),
                n_tasks=len(estimates),
                mean_estimate=sum(e.exec_estimate for e in estimates)
                / len(estimates),
            )
        )
    return TickTelemetry(
        target_pool=target,
        q_task=len(upcoming),
        q_remaining=sum(upcoming),
        transfer_estimate=run_state.transfer_estimate,
        stage_predictions=tuple(predictions),
    )
