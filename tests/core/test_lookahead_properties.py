"""Property-based tests on the lookahead projection's invariants."""

from __future__ import annotations

import dataclasses

from controller_oracle import reference_topology
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LookaheadSimulator, PredictionPolicy, RunState, TaskEstimate
from repro.core.lookahead import VirtualInstance
from repro.engine import TaskExecState
from repro.workloads import random_layered_workflow


@st.composite
def projection_scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=300))
    workflow = random_layered_workflow(seed, n_layers=4, max_width=4)
    horizon = draw(st.floats(min_value=1.0, max_value=300.0))
    n_instances = draw(st.integers(min_value=1, max_value=4))
    slots = draw(st.integers(min_value=1, max_value=3))

    # Build a consistent run state: a topological prefix is completed, the
    # next few tasks run on instances, the rest are ready/blocked.
    order = workflow.topological_order()
    n_done = draw(st.integers(min_value=0, max_value=len(order) - 1))
    state = RunState(now=500.0, transfer_estimate=draw(
        st.floats(min_value=0.0, max_value=10.0)
    ))
    instances = [
        VirtualInstance(f"vm-{i}", slots=slots, available_at=500.0)
        for i in range(n_instances)
    ]
    occupants: dict[str, list[str]] = {vi.instance_id: [] for vi in instances}
    completed = set(order[:n_done])
    running: list[str] = []
    capacity = n_instances * slots
    queued: list[str] = []
    for tid in order[n_done:]:
        parents_done = all(p in completed for p in workflow.parents(tid))
        if parents_done and len(running) < capacity:
            running.append(tid)
        elif parents_done:
            queued.append(tid)
    for index, tid in enumerate(running):
        occupants[instances[index % n_instances].instance_id].append(tid)

    instances = [
        VirtualInstance(
            vi.instance_id,
            slots=vi.slots,
            available_at=vi.available_at,
            occupants=tuple(occupants[vi.instance_id]),
        )
        for vi in instances
    ]

    for tid in order:
        task = workflow.task(tid)
        if tid in completed:
            phase = TaskExecState.COMPLETED
            remaining = 0.0
        elif tid in running:
            phase = TaskExecState.EXECUTING
            remaining = task.runtime * draw(
                st.floats(min_value=0.05, max_value=1.0)
            )
        elif tid in queued:
            phase = TaskExecState.READY
            remaining = task.runtime
        else:
            phase = TaskExecState.BLOCKED
            remaining = task.runtime
        instance_id = None
        for vi in instances:
            if tid in vi.occupants:
                instance_id = vi.instance_id
        state.estimates[tid] = TaskEstimate(
            task_id=tid,
            stage_id=workflow.stage_of[tid],
            phase=phase,
            exec_estimate=task.runtime,
            policy=PredictionPolicy.MATCHED_GROUP,
            remaining_occupancy=remaining,
            sunk_occupancy=10.0 if tid in running else 0.0,
            instance_id=instance_id,
        )
    state = dataclasses.replace(state, **reference_topology(workflow, state.estimates))
    return workflow, state, instances, tuple(queued), horizon


@given(projection_scenario())
@settings(max_examples=60, deadline=None)
def test_projection_invariants(scenario):
    workflow, state, instances, queued, horizon = scenario
    load = LookaheadSimulator(workflow).project(state, instances, queued, horizon)

    incomplete = {
        tid
        for tid, e in state.estimates.items()
        if e.phase is not TaskExecState.COMPLETED
    }
    q_ids = [t.task_id for t in load.tasks]

    # Q contains only incomplete tasks, each at most once.
    assert set(q_ids) <= incomplete
    assert len(q_ids) == len(set(q_ids))

    # Remaining occupancies are non-negative and never exceed the task's
    # full predicted occupancy.
    for entry in load.tasks:
        assert entry.remaining >= 0.0
        original = state.estimates[entry.task_id]
        upper = max(
            original.remaining_occupancy,
            original.exec_estimate + 2 * state.transfer_estimate,
        )
        assert entry.remaining <= upper + 1e-9

    # Restart costs cover every provided instance and are non-negative.
    assert set(load.restart_costs) == {vi.instance_id for vi in instances}
    assert all(c >= 0.0 for c in load.restart_costs.values())

    # workflow_done implies an empty Q.
    if load.workflow_done:
        assert load.tasks == ()

    # The projection's target time is now + horizon.
    assert load.at == state.now + horizon
