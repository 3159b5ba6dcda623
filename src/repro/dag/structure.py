"""The seed-independent half of a workflow DAG.

A :class:`DagStructure` holds what a workflow declares apart from its
per-task numbers: task ids, executables and dependency edges, validated
once, plus the views derived from them (topological order, stages,
per-task children maps). It references no :class:`~repro.dag.task.Task`,
so every realization of one :class:`~repro.workloads.StagedWorkflowSpec`
can share a single structure and bind only its own tasks to it (see
:class:`~repro.dag.workflow.Workflow`).

A structure is read-only after construction. Each derived view is
computed on first use and cached; the returned dicts and tuples are
shared by every workflow and run bound to the structure, so callers
must not mutate them.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable

from repro.dag.stage import Stage

__all__ = ["CycleError", "DagStructure"]


class CycleError(ValueError):
    """Raised when the declared dependencies contain a cycle."""


class DagStructure:
    """Validated task ids, executables and edges of one workflow DAG.

    Parameters
    ----------
    task_ids:
        Task ids in insertion order; they must be unique.
    executables:
        Each task's executable, aligned with ``task_ids``.
    edges:
        ``(parent_id, child_id)`` dependency pairs. Duplicate edges are
        coalesced; self-edges and edges naming unknown tasks are rejected.
    name:
        Workflow name quoted in the cycle error.

    Raises
    ------
    CycleError
        If the dependency graph is cyclic.
    ValueError
        On duplicate task ids, no tasks, unknown endpoints, or self-edges.
    """

    def __init__(
        self,
        task_ids: Iterable[str],
        executables: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        *,
        name: str = "workflow",
    ) -> None:
        parents: dict[str, list[str]] = {}
        for tid in task_ids:
            if tid in parents:
                raise ValueError(f"duplicate task id {tid!r}")
            parents[tid] = []
        if not parents:
            raise ValueError("workflow must contain at least one task")
        children: dict[str, list[str]] = {tid: [] for tid in parents}
        for parent, child in edges:
            if parent not in parents:
                raise ValueError(f"edge parent {parent!r} is not a task")
            child_parents = parents.get(child)
            if child_parents is None:
                raise ValueError(f"edge child {child!r} is not a task")
            if parent == child:
                raise ValueError(f"self-edge on task {parent!r}")
            child_parents.append(parent)
            children[parent].append(child)

        #: task ids in insertion order
        self.task_ids: tuple[str, ...] = tuple(parents)
        #: executables, aligned with :attr:`task_ids`
        self.executables: tuple[str, ...] = tuple(executables)
        if len(self.executables) != len(self.task_ids):
            raise ValueError(
                f"{len(self.executables)} executables for "
                f"{len(self.task_ids)} tasks"
            )
        #: task id -> parent ids in first-declared edge order
        self.parent_ids: dict[str, tuple[str, ...]] = {
            tid: tuple(dict.fromkeys(ps)) for tid, ps in parents.items()
        }
        #: task id -> child ids in first-declared edge order
        self.child_ids: dict[str, tuple[str, ...]] = {
            tid: tuple(dict.fromkeys(cs)) for tid, cs in children.items()
        }
        self.topological = self._topological_order(name)

    def _topological_order(self, name: str) -> tuple[str, ...]:
        in_degree = {tid: len(ps) for tid, ps in self.parent_ids.items()}
        # Deterministic Kahn's algorithm: the frontier is kept sorted.
        queue = deque(sorted(tid for tid, deg in in_degree.items() if deg == 0))
        order: list[str] = []
        child_ids = self.child_ids
        while queue:
            tid = queue.popleft()
            order.append(tid)
            ready: list[str] = []
            for child in child_ids[tid]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
            queue.extend(sorted(ready))
        if len(order) != len(in_degree):
            unresolved = sorted(tid for tid, deg in in_degree.items() if deg > 0)
            raise CycleError(
                f"workflow {name!r} has a dependency cycle involving "
                f"{unresolved[:5]}"
            )
        return tuple(order)

    # ------------------------------------------------------------------
    # set views (the iteration order of a set built edge by edge)
    # ------------------------------------------------------------------
    def parents(self, task_id: str) -> frozenset[str]:
        """Ids of the tasks that must complete before ``task_id`` starts."""
        return frozenset(set(self.parent_ids[task_id]))

    def children(self, task_id: str) -> frozenset[str]:
        """Ids of the tasks that depend on ``task_id``."""
        return frozenset(set(self.child_ids[task_id]))

    # ------------------------------------------------------------------
    # derived views, each computed at most once
    # ------------------------------------------------------------------
    @cached_property
    def children_tuples(self) -> dict[str, tuple[str, ...]]:
        """Per-task children as tuples, in :meth:`children`'s iteration order.

        Shared by every per-tick consumer (the predictor's completion-delta
        walk visits the children of thousands of tasks), avoiding a fresh
        frozenset per call. The tuple order matches what iterating
        :meth:`children` yields, so swapping a call site to this map
        cannot reorder any downstream traversal.
        """
        return {
            tid: tuple(frozenset(set(cs))) if len(cs) > 1 else cs
            for tid, cs in self.child_ids.items()
        }

    @cached_property
    def sorted_children(self) -> dict[str, tuple[str, ...]]:
        """Per-task children as sorted tuples (deterministic traversal)."""
        return {
            tid: tuple(sorted(cs)) if len(cs) > 1 else cs
            for tid, cs in self.child_ids.items()
        }

    @cached_property
    def parent_counts(self) -> dict[str, int]:
        """Per-task total parent count."""
        return {tid: len(ps) for tid, ps in self.parent_ids.items()}

    @cached_property
    def roots(self) -> tuple[str, ...]:
        """Task ids with no parents, in topological order."""
        parent_ids = self.parent_ids
        return tuple(t for t in self.topological if not parent_ids[t])

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        """Task ids with no children, in topological order."""
        child_ids = self.child_ids
        return tuple(t for t in self.topological if not child_ids[t])

    @cached_property
    def topo_index(self) -> dict[str, int]:
        """Task id -> position in the topological order."""
        return {tid: k for k, tid in enumerate(self.topological)}

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
        executable_of = dict(zip(self.task_ids, self.executables))
        parent_ids = self.parent_ids
        task_stage: dict[str, str] = {}
        key_to_stage: dict[tuple[str, frozenset[str]], str] = {}
        members: dict[str, list[str]] = {}
        preds: dict[str, frozenset[str]] = {}
        exe_counter: dict[str, int] = {}

        for tid in self.topological:
            executable = executable_of[tid]
            parent_stages = frozenset([task_stage[p] for p in parent_ids[tid]])
            key = (executable, parent_stages)
            stage_id = key_to_stage.get(key)
            if stage_id is None:
                index = exe_counter.get(executable, 0)
                exe_counter[executable] = index + 1
                stage_id = f"{executable}#{index}"
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
    def stage_of(self) -> dict[str, str]:
        """Mapping of task id to its inferred stage id."""
        mapping: dict[str, str] = {}
        for stage in self.stages:
            mapping.update(dict.fromkeys(stage.task_ids, stage.stage_id))
        return mapping

    def stage(self, stage_id: str) -> Stage:
        """Return the stage with ``stage_id``."""
        for stage in self.stages:
            if stage.stage_id == stage_id:
                return stage
        raise KeyError(stage_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DagStructure(tasks={len(self.task_ids)})"
