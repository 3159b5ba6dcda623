"""Differential suites for the controller fast paths.

The optimized controller keeps three mechanisms that must be *invisible*
in the outputs: the lookahead simulator's in-place use of the adopted
completion topology, the vectorized Algorithm 3 crossing walk, and the
Policy-4/5 evaluation memos keyed on ``(completed-version, model
generation)``. Each suite here pits a fast path against its exact
reference under hypothesis:

1. a simulator reused across evolving tick sequences ≡ a fresh one per
   tick, each projection leaving the adopted unfinished-parent map as it
   found it, and a stale run-state replay raising;
2. ``resize_pool`` ≡ ``resize_pool_reference`` bit-for-bit, with loads
   biased toward the nasty cases (uniform cohorts, values at exact
   charging-unit multiples, zero tails);
3. memoized prediction ≡ fresh prediction across model updates — the
   content-addressed :class:`SharedEvalCache` and the per-stage sized
   memo must discard state the instant a generation counter moves.
"""

from __future__ import annotations

import numpy as np
import pytest
from controller_oracle import reference_topology
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    LookaheadSimulator,
    PredictionPolicy,
    RunState,
    TaskEstimate,
    TaskPredictor,
    resize_pool,
)
from repro.core.lookahead import VirtualInstance
from repro.core.ogd import OnlineGradientDescentModel
from repro.core.predictor import SharedEvalCache
from repro.core.steering import resize_pool_reference
from repro.dag import WorkflowBuilder
from repro.engine import Monitor, TaskExecState
from repro.workloads import random_layered_workflow

# ---------------------------------------------------------------------------
# 1. reused ≡ fresh projection
# ---------------------------------------------------------------------------


def _build_tick(draw, workflow, order, n_done, now):
    """One consistent (run_state, instances, queued, horizon) snapshot."""
    horizon = draw(st.floats(min_value=1.0, max_value=300.0))
    n_instances = draw(st.integers(min_value=1, max_value=3))
    slots = draw(st.integers(min_value=1, max_value=2))

    instances = [
        VirtualInstance(f"vm-{i}", slots=slots, available_at=now)
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

    estimates: dict[str, TaskEstimate] = {}
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
        estimates[tid] = TaskEstimate(
            task_id=tid,
            stage_id=workflow.stage_of[tid],
            phase=phase,
            exec_estimate=task.runtime,
            policy=PredictionPolicy.MATCHED_GROUP,
            remaining_occupancy=remaining,
            sunk_occupancy=10.0 if tid in running else 0.0,
            instance_id=instance_id,
        )

    state = RunState(
        now=now,
        transfer_estimate=draw(st.floats(min_value=0.0, max_value=10.0)),
        estimates=estimates,
        **reference_topology(workflow, estimates),
    )
    return state, instances, tuple(queued), horizon


@st.composite
def tick_sequences(draw):
    """A workflow plus a monotone sequence of MAPE-tick snapshots."""
    seed = draw(st.integers(min_value=0, max_value=200))
    workflow = random_layered_workflow(seed, n_layers=4, max_width=4)
    order = workflow.topological_order()
    n_ticks = draw(st.integers(min_value=2, max_value=5))
    counts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(order) - 1),
                min_size=n_ticks,
                max_size=n_ticks,
            )
        )
    )
    ticks = [
        _build_tick(draw, workflow, order, n_done, 500.0 + 100.0 * k)
        for k, n_done in enumerate(counts)
    ]
    return workflow, ticks


def _assert_same_projection(a, b):
    """Exact (bit-identical) equality of two projections."""
    assert a.at == b.at
    assert a.workflow_done == b.workflow_done
    assert a.task_ids == b.task_ids
    assert a.remaining.tolist() == b.remaining.tolist()
    assert a.restart_costs == b.restart_costs


@given(tick_sequences())
@settings(max_examples=50, deadline=None)
def test_incremental_projection_matches_from_scratch(scenario):
    """One simulator reused across ticks ≡ a fresh one per tick.

    The projection decrements the adopted unfinished-parent map in place
    and rolls the decrements back; the map must come back unchanged, or
    the next tick (and the predictor that owns it) would see a corrupted
    topology even if this tick's load happened to agree.
    """
    workflow, ticks = scenario
    reused = LookaheadSimulator(workflow)
    for state, instances, queued, horizon in ticks:
        before = dict(state.unfinished_parents)
        incremental = reused.project(state, instances, queued, horizon)
        assert state.unfinished_parents == before
        scratch = LookaheadSimulator(workflow).project(
            state, instances, queued, horizon
        )
        _assert_same_projection(incremental, scratch)


@given(tick_sequences())
@settings(max_examples=25, deadline=None)
def test_stale_run_state_replay_raises(scenario):
    """Re-projecting an old tick after the topology moved on must raise.

    The predictor hands every run state its one live unfinished-parent
    map. An old run state replayed after later completions shrank that
    map carries a completed count the map no longer matches; projecting
    from it would silently mix two ticks, so the simulator refuses.
    """
    workflow, ticks = scenario
    assume(ticks[0][0].completed_count != ticks[-1][0].completed_count)
    live: dict[str, int] = {}
    simulator = LookaheadSimulator(workflow)
    for state, instances, queued, horizon in ticks:
        live.clear()
        live.update(state.unfinished_parents)
        state.unfinished_parents = live
        simulator.project(state, instances, queued, horizon)
    state, instances, queued, horizon = ticks[0]
    with pytest.raises(ValueError, match="unfinished_parents"):
        simulator.project(state, instances, queued, horizon)


# ---------------------------------------------------------------------------
# 2. vectorized steering ≡ pure-Python reference
# ---------------------------------------------------------------------------


@st.composite
def resize_cases(draw):
    """(load, u, s) biased toward Algorithm 3's boundary behaviour.

    Loads are concatenations of blocks: uniform cohorts (the consumable
    fast-path rows), unstructured floats, and values pinned to exact
    fractions/multiples of the charging unit (crossing ties).
    """
    u = draw(st.floats(min_value=1.0, max_value=5_000.0))
    s = draw(st.integers(min_value=1, max_value=8))
    load: list[float] = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["uniform", "random", "near_unit", "zero"]))
        count = draw(st.integers(min_value=1, max_value=25))
        if kind == "uniform":
            value = draw(st.floats(min_value=0.0, max_value=2.0 * u))
            load.extend([value] * count)
        elif kind == "near_unit":
            factor = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]))
            load.extend([u * factor] * count)
        elif kind == "zero":
            load.extend([0.0] * count)
        else:
            load.extend(
                draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=10_000.0),
                        min_size=count,
                        max_size=count,
                    )
                )
            )
    return load, u, s


@given(resize_cases())
@settings(max_examples=400, deadline=None)
def test_resize_pool_matches_reference(case):
    load, u, s = case
    assert resize_pool(load, u, s) == resize_pool_reference(load, u, s)


@given(resize_cases(), st.sampled_from([0.0, 0.2, 0.5, 1.0]))
@settings(max_examples=150, deadline=None)
def test_resize_pool_matches_reference_tail_fraction(case, tail):
    load, u, s = case
    assert resize_pool(
        load, u, s, tail_threshold_fraction=tail
    ) == resize_pool_reference(load, u, s, tail_threshold_fraction=tail)


@given(resize_cases())
@settings(max_examples=100, deadline=None)
def test_resize_pool_accepts_ndarray(case):
    """The vectorized entry point takes the projection's float64 column."""
    load, u, s = case
    assert resize_pool(np.asarray(load, dtype=np.float64), u, s) == (
        resize_pool_reference(load, u, s)
    )


# ---------------------------------------------------------------------------
# 3. memoization invalidation on model movement
# ---------------------------------------------------------------------------

training_sets = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e4),
    ),
    min_size=1,
    max_size=8,
)


@given(
    rounds=st.lists(training_sets, min_size=1, max_size=6),
    sizes=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_shared_cache_exact_across_generations(rounds, sizes):
    """SharedEvalCache ≡ model.predict through any update sequence.

    The cache is content-addressed on ``(alpha0, alpha1, scale)``, so a
    gradient step — which changes the coefficients — can never serve a
    stale hit: every lookup after an update must equal a fresh predict.
    """
    model = OnlineGradientDescentModel()
    cache = SharedEvalCache()
    for training_set in rounds:
        model.update(training_set)
        for size in sizes:
            assert cache.predict(model, size) == model.predict(size)
            # the second call is a guaranteed hit; still exact
            assert cache.predict(model, size) == model.predict(size)
    assert cache.hits > 0 or len(sizes) == 0


def _stage_workflow():
    builder = WorkflowBuilder("equiv")
    builder.add_stage(
        "map",
        count=6,
        runtime=[10, 11, 12, 20, 21, 30],
        input_sizes=[100.0, 100.0, 100.0, 200.0, 200.0, 300.0],
    )
    return builder.build()


def _complete(monitor, task_id, stage, start, duration, input_size):
    monitor.record_dispatch(task_id, stage, "vm", start, input_size, 0.0)
    monitor.record_exec_start(task_id, start)
    monitor.record_exec_end(task_id, start + duration)
    monitor.record_complete(task_id, start + duration)


def test_sized_memo_invalidated_on_generation_bump():
    """The per-stage Policy-4/5 memo is discarded when any key moves."""
    workflow = _stage_workflow()
    predictor = TaskPredictor(workflow)
    monitor = Monitor()
    stage = workflow.stage_of["map-0000"]
    _complete(monitor, "map-0000", stage, 0.0, 10.0, 100.0)

    memo = predictor._sized_eval_memo(stage, monitor)
    memo[123.0] = (1.0, PredictionPolicy.OGD)
    # stable while neither the completion log nor the model moved
    assert predictor._sized_eval_memo(stage, monitor) is memo

    # OGD generation bump -> fresh, empty memo
    predictor.ogd_model(stage).update([(100.0, 10.0)])
    memo2 = predictor._sized_eval_memo(stage, monitor)
    assert memo2 is not memo
    assert memo2 == {}

    # new completion (completed-version bump) -> fresh memo again
    memo2[456.0] = (2.0, PredictionPolicy.OGD)
    _complete(monitor, "map-0001", stage, 0.0, 11.0, 100.0)
    memo3 = predictor._sized_eval_memo(stage, monitor)
    assert memo3 is not memo2
    assert memo3 == {}

    # a different monitor never shares a memo
    assert predictor._sized_eval_memo(stage, Monitor()) is not memo3


@given(
    durations=st.lists(
        st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=6
    ),
    query_size=st.floats(min_value=1.0, max_value=500.0),
)
@settings(max_examples=100, deadline=None)
def test_repeated_queries_never_change_estimates(durations, query_size):
    """Querying through the memo is invisible: a predictor asked three
    times per round agrees exactly with a twin asked once, across rounds
    that bump both the completion log and the OGD generation."""
    workflow = _stage_workflow()
    once = TaskPredictor(workflow)
    thrice = TaskPredictor(workflow)
    monitor = Monitor()
    stage = workflow.stage_of["map-0000"]
    window_start = 0.0
    for index, duration in enumerate(durations):
        tid = f"map-{index:04d}"
        size = [100.0, 100.0, 100.0, 200.0, 200.0, 300.0][index]
        _complete(monitor, tid, stage, window_start, duration, size)
        now = window_start + duration + 1.0
        once.observe_interval(monitor, window_start, now)
        thrice.observe_interval(monitor, window_start, now)
        query = "map-0005" if index < 5 else "map-0000"
        expected = once.estimate_execution(
            query, TaskExecState.READY, monitor, now
        )
        for _ in range(3):
            assert (
                thrice.estimate_execution(query, TaskExecState.READY, monitor, now)
                == expected
            )
        window_start = now
