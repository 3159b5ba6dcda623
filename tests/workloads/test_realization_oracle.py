"""Shared-structure realization against the builder-based oracle.

``reference_generate`` is ``StagedWorkflowSpec.generate`` as it was before
specs derived their DAG once: every call rebuilt the DAG through
``WorkflowBuilder``, and the resulting workflow (``ReferenceWorkflow``)
kept per-edge sets and derived every view from them. Both are kept here
verbatim; each realization of the shared-structure path must equal them
bit for bit: task records, edges, order and every derived view.
"""

from __future__ import annotations

import math
import pickle
from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.builder import WorkflowBuilder
from repro.dag.stage import Stage
from repro.dag.task import Task
from repro.dag.workflow import CycleError, Workflow
from repro.util.rng import spawn_rng
from repro.util.validation import check_non_negative
from repro.workloads import StageTemplate, StagedWorkflowSpec, table1_specs
from repro.workloads.base import _realize_runtimes
from repro.zoo.registry import calibrated_spec


class ReferenceWorkflow:
    """The pre-structure ``Workflow``, kept verbatim as the oracle.

    Parameters
    ----------
    name:
        Human-readable workflow name (e.g. ``"epigenomics-S"``).
    tasks:
        The tasks of the workflow. Task ids must be unique.
    edges:
        ``(parent_id, child_id)`` dependency pairs: the child may start only
        after the parent completes. Duplicate edges are coalesced;
        self-edges and edges naming unknown tasks are rejected.

    Raises
    ------
    CycleError
        If the dependency graph is cyclic.
    ValueError
        On duplicate task ids, unknown endpoints, or self-edges.
    """

    def __init__(
        self,
        name: str,
        tasks: Iterable[Task],
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        if not name:
            raise ValueError("workflow name must be non-empty")
        self.name = name
        self._tasks: dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self._tasks:
                raise ValueError(f"duplicate task id {task.task_id!r}")
            self._tasks[task.task_id] = task
        if not self._tasks:
            raise ValueError("workflow must contain at least one task")

        self._parents: dict[str, set[str]] = {tid: set() for tid in self._tasks}
        self._children: dict[str, set[str]] = {tid: set() for tid in self._tasks}
        for parent, child in edges:
            if parent not in self._tasks:
                raise ValueError(f"edge parent {parent!r} is not a task")
            if child not in self._tasks:
                raise ValueError(f"edge child {child!r} is not a task")
            if parent == child:
                raise ValueError(f"self-edge on task {parent!r}")
            self._parents[child].add(parent)
            self._children[parent].add(child)

        self._topological = self._compute_topological_order()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> Mapping[str, Task]:
        """Mapping of task id to :class:`Task`."""
        return dict(self._tasks)

    def task(self, task_id: str) -> Task:
        """Return the task with ``task_id``."""
        return self._tasks[task_id]

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        """Iterate tasks in topological order."""
        return (self._tasks[tid] for tid in self._topological)

    def parents(self, task_id: str) -> frozenset[str]:
        """Ids of the tasks that must complete before ``task_id`` starts."""
        return frozenset(self._parents[task_id])

    def children(self, task_id: str) -> frozenset[str]:
        """Ids of the tasks that depend on ``task_id``."""
        return frozenset(self._children[task_id])

    @cached_property
    def children_tuples(self) -> dict[str, tuple[str, ...]]:
        """Per-task children as tuples, in :meth:`children`'s iteration order.

        Built once and shared by every per-tick consumer (the predictor's
        completion-delta walk visits the children of thousands of tasks),
        avoiding a fresh frozenset copy per call. The tuple order matches
        what iterating :meth:`children` yields, so swapping a call site to
        this map cannot reorder any downstream traversal.
        """
        return {tid: tuple(frozenset(cs)) for tid, cs in self._children.items()}

    @cached_property
    def sorted_children(self) -> dict[str, tuple[str, ...]]:
        """Per-task children as sorted tuples (deterministic traversal).

        The lookahead simulator enqueues newly-ready children in sorted
        order; sharing one prebuilt map keeps that sort out of the
        per-projection hot path.
        """
        return {tid: tuple(sorted(cs)) for tid, cs in self._children.items()}

    @cached_property
    def parent_counts(self) -> dict[str, int]:
        """Per-task total parent count, shared by the tracking rebuilds."""
        return {tid: len(ps) for tid, ps in self._parents.items()}

    @cached_property
    def roots(self) -> tuple[str, ...]:
        """Task ids with no parents, in topological order."""
        return tuple(t for t in self._topological if not self._parents[t])

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        """Task ids with no children, in topological order."""
        return tuple(t for t in self._topological if not self._children[t])

    def topological_order(self) -> tuple[str, ...]:
        """All task ids in a deterministic topological order.

        Ties are broken by task id so the order is stable across runs.
        """
        return self._topological

    def _compute_topological_order(self) -> tuple[str, ...]:
        in_degree = {tid: len(ps) for tid, ps in self._parents.items()}
        # Deterministic Kahn's algorithm: the frontier is kept sorted.
        frontier = sorted(tid for tid, deg in in_degree.items() if deg == 0)
        queue = deque(frontier)
        order: list[str] = []
        while queue:
            tid = queue.popleft()
            order.append(tid)
            ready: list[str] = []
            for child in self._children[tid]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
            for child in sorted(ready):
                queue.append(child)
        if len(order) != len(self._tasks):
            unresolved = sorted(tid for tid, deg in in_degree.items() if deg > 0)
            raise CycleError(
                f"workflow {self.name!r} has a dependency cycle involving "
                f"{unresolved[:5]}"
            )
        return tuple(order)

    # ------------------------------------------------------------------
    # stage inference
    # ------------------------------------------------------------------
    @cached_property
    def stages(self) -> tuple[Stage, ...]:
        """Infer stages: groups with equal executable and predecessor stages.

        Following the paper's definition (§I), a task's stage is determined
        by its executable plus the *stages* (not individual tasks) of its
        parents, computed in topological order. Stage ids are
        ``"<executable>#<k>"`` with ``k`` disambiguating same-executable
        groups with different predecessors, numbered in topological order of
        first appearance.
        """
        task_stage: dict[str, str] = {}
        key_to_stage: dict[tuple[str, frozenset[str]], str] = {}
        members: dict[str, list[str]] = {}
        preds: dict[str, frozenset[str]] = {}
        exe_counter: dict[str, int] = {}

        for tid in self._topological:
            task = self._tasks[tid]
            parent_stages = frozenset(task_stage[p] for p in self._parents[tid])
            key = (task.executable, parent_stages)
            stage_id = key_to_stage.get(key)
            if stage_id is None:
                index = exe_counter.get(task.executable, 0)
                exe_counter[task.executable] = index + 1
                stage_id = f"{task.executable}#{index}"
                key_to_stage[key] = stage_id
                members[stage_id] = []
                preds[stage_id] = parent_stages
            task_stage[tid] = stage_id
            members[stage_id].append(tid)

        return tuple(
            Stage(
                stage_id=sid,
                executable=sid.rsplit("#", 1)[0],
                task_ids=tuple(members[sid]),
                predecessor_stage_ids=preds[sid],
            )
            for sid in members
        )

    @cached_property
    def stage_of(self) -> Mapping[str, str]:
        """Mapping of task id to its inferred stage id."""
        mapping: dict[str, str] = {}
        for stage in self.stages:
            for tid in stage.task_ids:
                mapping[tid] = stage.stage_id
        return mapping

    def stage(self, stage_id: str) -> Stage:
        """Return the stage with ``stage_id``."""
        for stage in self.stages:
            if stage.stage_id == stage_id:
                return stage
        raise KeyError(stage_id)

    # ------------------------------------------------------------------
    # aggregate properties
    # ------------------------------------------------------------------
    @cached_property
    def total_work(self) -> float:
        """Sum of all task nominal runtimes, in seconds.

        Corresponds to Table I's "aggregate task execution time".
        """
        return float(sum(t.runtime for t in self._tasks.values()))


def reference_generate(spec: StagedWorkflowSpec, seed: int = 0) -> ReferenceWorkflow:
    """Realize ``spec`` for this seed by rebuilding the whole DAG."""
    builder = WorkflowBuilder(f"{spec.name}-seed{seed}")
    previous_ids: list[str] = []
    for index, template in enumerate(spec.templates):
        rng = spawn_rng(seed, f"{spec.name}/{template.executable}/{index}")
        sizes = np.asarray(
            template.size_model.sample(template.count, rng), dtype=float
        )
        runtimes = _realize_runtimes(template, sizes, rng)
        ids = _emit_stage(builder, template, index, sizes, runtimes, previous_ids)
        previous_ids = ids
    return ReferenceWorkflow(builder.name, builder._tasks, builder._edges)


def _emit_stage(
    builder: WorkflowBuilder,
    template: StageTemplate,
    index: int,
    sizes: np.ndarray,
    runtimes: np.ndarray,
    previous_ids: list[str],
) -> list[str]:
    """Add one stage's tasks with the declared linkage."""
    prefix = f"s{index:02d}-{template.executable}"
    width = max(4, len(str(template.count - 1)))
    ids = [f"{prefix}-{i:0{width}d}" for i in range(template.count)]

    if not previous_ids or template.linkage == "all":
        parent_sets: list[list[str]] = [previous_ids] * template.count
    elif template.linkage == "one_to_one":
        if len(previous_ids) % template.count != 0:
            raise ValueError(
                f"one_to_one linkage needs predecessor count divisible by "
                f"{template.count}, got {len(previous_ids)}"
            )
        # With equal counts this is a per-chunk pipeline; with fewer
        # children each child takes an equal contiguous share.
        share = len(previous_ids) // template.count
        parent_sets = [
            previous_ids[i * share : (i + 1) * share] for i in range(template.count)
        ]
    else:  # "block": contiguous partition, remainder spread over the front
        share, extra = divmod(len(previous_ids), template.count)
        parent_sets = []
        cursor = 0
        for i in range(template.count):
            take = share + (1 if i < extra else 0)
            parent_sets.append(previous_ids[cursor : cursor + take])
            cursor += take

    for i, task_id in enumerate(ids):
        builder.add_task(
            Task(
                task_id=task_id,
                executable=template.executable,
                runtime=float(runtimes[i]),
                input_size=float(sizes[i]),
                output_size=float(sizes[i]) * template.output_fraction,
            ),
            parents=parent_sets[i],
        )
    return ids


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------
def _records(tasks) -> list[tuple]:
    """Task records with every float as its exact bit pattern."""
    rows = []
    for task in tasks:
        numbers = (task.runtime, task.input_size, task.output_size)
        assert all(type(x) is float for x in numbers)
        rows.append((task.task_id, task.executable, *(x.hex() for x in numbers)))
    return rows


def assert_matches_reference(wf: Workflow, ref: ReferenceWorkflow) -> None:
    assert wf.name == ref.name
    assert len(wf) == len(ref)
    assert _records(wf.tasks.values()) == _records(ref.tasks.values())
    assert _records(wf) == _records(ref)  # topological iteration
    assert wf.topological_order() == ref.topological_order()
    for tid in ref.tasks:
        # same members, and the same iteration order within this process
        assert tuple(wf.parents(tid)) == tuple(ref.parents(tid))
        assert tuple(wf.children(tid)) == tuple(ref.children(tid))
    assert wf.stages == ref.stages
    assert list(wf.stage_of.items()) == list(ref.stage_of.items())
    assert list(wf.children_tuples.items()) == list(ref.children_tuples.items())
    assert list(wf.sorted_children.items()) == list(ref.sorted_children.items())
    assert list(wf.parent_counts.items()) == list(ref.parent_counts.items())
    assert wf.roots == ref.roots
    assert wf.leaves == ref.leaves
    assert wf.total_work.hex() == ref.total_work.hex()
    for stage in ref.stages:
        assert wf.stage(stage.stage_id) == stage


def _fresh_specs() -> dict[str, StagedWorkflowSpec]:
    specs = dict(table1_specs())
    # a pickle round trip drops the cached structure: a fresh instance
    specs["zoo/epigenomics-small"] = pickle.loads(
        pickle.dumps(calibrated_spec("epigenomics-small"))
    )
    return specs


SPEC_NAMES = sorted(_fresh_specs())


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_first_and_repeat_realizations_match_reference(name):
    spec = _fresh_specs()[name]
    assert "structure" not in vars(spec)
    for seed in (0, 1, 7):
        ref = reference_generate(spec, seed)
        first = spec.generate(seed)
        repeat = spec.generate(seed)
        assert_matches_reference(first, ref)
        assert_matches_reference(repeat, ref)
        assert repeat.structure is first.structure is spec.structure


def test_one_to_one_divisibility_error_matches_reference():
    spec = StagedWorkflowSpec(
        "bad",
        (
            StageTemplate("a", count=3, mean_exec=1.0),
            StageTemplate("b", count=2, mean_exec=1.0, linkage="one_to_one"),
        ),
    )
    with pytest.raises(ValueError) as expected:
        reference_generate(spec, 0)
    for _ in range(2):  # nothing is cached by the failing derivation
        with pytest.raises(ValueError) as actual:
            spec.generate(0)
        assert str(actual.value) == str(expected.value)
        assert "divisible" in str(actual.value)


@st.composite
def task_graphs(draw):
    """Tasks and an edge list with repeats, in arbitrary edge order."""
    n = draw(st.integers(min_value=1, max_value=14))
    ids = [f"t{draw(st.integers(0, 999)):03d}-{i}" for i in range(n)]
    tasks = [
        Task(tid, draw(st.sampled_from("abc")), runtime=float(i + 1))
        for i, tid in enumerate(ids)
    ]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    edges = [(ids[i], ids[j]) for i, j in chosen]
    return tasks, edges


@settings(max_examples=200, deadline=None)
@given(task_graphs())
def test_workflow_from_edges_matches_reference(graph):
    tasks, edges = graph
    assert_matches_reference(
        Workflow("g", tasks, edges), ReferenceWorkflow("g", tasks, edges)
    )


# ---------------------------------------------------------------------------
# Task's fast path accepts and rejects exactly like check_non_negative
# ---------------------------------------------------------------------------
_SPECIAL = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -5e-324, -1.0, math.inf, -math.inf, math.nan, 0, 1, -1, True, False,
    np.float64(1.5), np.float64(-0.0), np.float64(math.nan), np.float64(-2.0),
]

values = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


def _outcome(call) -> tuple:
    try:
        call()
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))
    return ("ok",)


def _reference_checks(runtime, input_size, output_size) -> None:
    check_non_negative("runtime", runtime)
    check_non_negative("input_size", input_size)
    check_non_negative("output_size", output_size)


@settings(max_examples=400, deadline=None)
@given(runtime=values, input_size=values, output_size=values)
def test_task_checks_match_check_non_negative(runtime, input_size, output_size):
    assert _outcome(lambda: Task("t", "x", runtime, input_size, output_size)) == (
        _outcome(lambda: _reference_checks(runtime, input_size, output_size))
    )


@pytest.mark.parametrize("value", _SPECIAL, ids=repr)
@pytest.mark.parametrize("field", ["runtime", "input_size", "output_size"])
def test_task_special_values_match_check_non_negative(field, value):
    fields = {"runtime": 1.0, "input_size": 2.0, "output_size": 3.0, field: value}
    assert _outcome(lambda: Task("t", "x", **fields)) == _outcome(
        lambda: _reference_checks(**fields)
    )
