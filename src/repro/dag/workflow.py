"""Workflow DAG: tasks, dependency edges, stage inference.

A :class:`Workflow` is an immutable, validated DAG of
:class:`~repro.dag.task.Task` objects with data-flow dependency edges. It is
the static structure WIRE's lookahead simulator walks (paper §II-C property
2: "the load flows of a run are predictable"). Its seed-independent half is
a :class:`~repro.dag.structure.DagStructure` that realizations of one spec
share.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.dag.stage import Stage
from repro.dag.structure import CycleError, DagStructure
from repro.dag.task import Task

__all__ = ["CycleError", "Workflow"]


class Workflow:
    """An immutable task DAG: a shared structure plus this run's tasks.

    The seed-independent half — ids, executables, edges and every view
    derived from them — lives in a :class:`~repro.dag.structure.
    DagStructure` (:attr:`structure`) that realizations of one spec
    share; the workflow itself holds only its name and its
    :class:`Task` records.

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
        tasks = list(tasks)
        structure = DagStructure(
            [task.task_id for task in tasks],
            [task.executable for task in tasks],
            edges,
            name=name,
        )
        self._bind(name, structure, tasks)

    @classmethod
    def realize(
        cls, name: str, structure: DagStructure, tasks: Sequence[Task]
    ) -> Workflow:
        """A workflow of ``tasks`` on an already validated ``structure``.

        ``tasks`` must follow ``structure.task_ids`` one to one, with the
        structure's executables; the edges are not checked again. This is
        how :meth:`~repro.workloads.StagedWorkflowSpec.generate` binds each
        seed's tasks to the structure its spec derived once.
        """
        if not name:
            raise ValueError("workflow name must be non-empty")
        if len(tasks) != len(structure.task_ids):
            raise ValueError(
                f"{len(tasks)} tasks for a structure of "
                f"{len(structure.task_ids)} tasks"
            )
        workflow = cls.__new__(cls)
        workflow._bind(name, structure, tasks)
        return workflow

    def _bind(
        self, name: str, structure: DagStructure, tasks: Sequence[Task]
    ) -> None:
        self.name = name
        self._structure = structure
        self._tasks: dict[str, Task] = dict(zip(structure.task_ids, tasks))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def structure(self) -> DagStructure:
        """The seed-independent DAG this workflow's tasks are bound to."""
        return self._structure

    @property
    def tasks(self) -> Mapping[str, Task]:
        """Read-only mapping of task id to :class:`Task`, in insertion order."""
        return MappingProxyType(self._tasks)

    def task(self, task_id: str) -> Task:
        """Return the task with ``task_id``."""
        return self._tasks[task_id]

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        """Iterate tasks in topological order."""
        tasks = self._tasks
        return (tasks[tid] for tid in self._structure.topological)

    def parents(self, task_id: str) -> frozenset[str]:
        """Ids of the tasks that must complete before ``task_id`` starts."""
        return self._structure.parents(task_id)

    def children(self, task_id: str) -> frozenset[str]:
        """Ids of the tasks that depend on ``task_id``."""
        return self._structure.children(task_id)

    @property
    def children_tuples(self) -> dict[str, tuple[str, ...]]:
        """Per-task children as tuples, in :meth:`children`'s iteration order."""
        return self._structure.children_tuples

    @property
    def sorted_children(self) -> dict[str, tuple[str, ...]]:
        """Per-task children as sorted tuples (deterministic traversal)."""
        return self._structure.sorted_children

    @property
    def parent_counts(self) -> dict[str, int]:
        """Per-task total parent count, shared by the tracking rebuilds."""
        return self._structure.parent_counts

    @property
    def roots(self) -> tuple[str, ...]:
        """Task ids with no parents, in topological order."""
        return self._structure.roots

    @property
    def leaves(self) -> tuple[str, ...]:
        """Task ids with no children, in topological order."""
        return self._structure.leaves

    def topological_order(self) -> tuple[str, ...]:
        """All task ids in a deterministic topological order.

        Ties are broken by task id so the order is stable across runs.
        """
        return self._structure.topological

    # ------------------------------------------------------------------
    # stage inference
    # ------------------------------------------------------------------
    @property
    def stages(self) -> tuple[Stage, ...]:
        """Inferred stages (see :attr:`DagStructure.stages`)."""
        return self._structure.stages

    @property
    def stage_of(self) -> Mapping[str, str]:
        """Mapping of task id to its inferred stage id."""
        return self._structure.stage_of

    def stage(self, stage_id: str) -> Stage:
        """Return the stage with ``stage_id``."""
        return self._structure.stage(stage_id)

    # ------------------------------------------------------------------
    # aggregate properties
    # ------------------------------------------------------------------
    @cached_property
    def total_work(self) -> float:
        """Sum of all task nominal runtimes, in seconds.

        Corresponds to Table I's "aggregate task execution time".
        """
        return float(sum(t.runtime for t in self._tasks.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workflow({self.name!r}, tasks={len(self._tasks)}, "
            f"stages={len(self.stages)})"
        )
