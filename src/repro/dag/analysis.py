"""Structural analysis of workflow DAGs.

The paper motivates WIRE with the observation that "the available
parallelism (width) of a workflow may vary dramatically as it runs" (§I).
These helpers quantify that: level widths, critical-path length, and an
ideal parallelism profile used by tests and by the oracle baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.workflow import Workflow

__all__ = [
    "ParallelismProfile",
    "critical_path_length",
    "critical_path_tasks",
    "depth",
    "ideal_parallelism_profile",
    "level_widths",
    "max_width",
]


def _levels(workflow: Workflow) -> dict[str, int]:
    """Longest-path depth (in edges) of every task from the roots."""
    level: dict[str, int] = {}
    parent_ids = workflow.structure.parent_ids
    for tid in workflow.topological_order():
        parents = parent_ids[tid]
        level[tid] = 0 if not parents else 1 + max(level[p] for p in parents)
    return level


def depth(workflow: Workflow) -> int:
    """Number of levels on the longest root-to-leaf path (>= 1)."""
    return max(_levels(workflow).values()) + 1


def level_widths(workflow: Workflow) -> list[int]:
    """Task count at each longest-path level, index 0 = roots."""
    levels = _levels(workflow)
    widths = [0] * (max(levels.values()) + 1)
    for lvl in levels.values():
        widths[lvl] += 1
    return widths


def max_width(workflow: Workflow) -> int:
    """Largest level width — an upper bound on useful parallelism."""
    return max(level_widths(workflow))


def critical_path_length(workflow: Workflow) -> float:
    """Length (seconds of nominal runtime) of the heaviest dependency path.

    This is the workflow's minimum possible makespan with unlimited
    instances and free, instantaneous data transfers.
    """
    finish: dict[str, float] = {}
    parent_ids = workflow.structure.parent_ids
    for tid in workflow.topological_order():
        start = max((finish[p] for p in parent_ids[tid]), default=0.0)
        finish[tid] = start + workflow.task(tid).runtime
    return max(finish.values())


def critical_path_tasks(workflow: Workflow) -> list[str]:
    """Task ids along one heaviest path, root to leaf."""
    finish: dict[str, float] = {}
    best_parent: dict[str, str | None] = {}
    for tid in workflow.topological_order():
        task = workflow.task(tid)
        parent, start = None, 0.0
        for p in sorted(workflow.parents(tid)):
            if finish[p] > start:
                parent, start = p, finish[p]
        finish[tid] = start + task.runtime
        best_parent[tid] = parent
    end = max(finish, key=lambda t: (finish[t], t))
    path: list[str] = []
    cursor: str | None = end
    while cursor is not None:
        path.append(cursor)
        cursor = best_parent[cursor]
    path.reverse()
    return path


@dataclass(frozen=True)
class ParallelismProfile:
    """Step function of runnable parallelism over idealized time.

    ``times[i]`` is the start of a segment during which ``widths[i]`` tasks
    run concurrently, under the idealization of unlimited instances and
    zero transfer cost (every task starts the moment its parents finish).
    """

    times: tuple[float, ...]
    widths: tuple[int, ...]

    def width_at(self, t: float) -> int:
        """Concurrent task count at idealized time ``t``."""
        width = 0
        for start, w in zip(self.times, self.widths):
            if start <= t:
                width = w
            else:
                break
        return width

    @property
    def peak(self) -> int:
        """Maximum concurrent task count."""
        return max(self.widths, default=0)


def ideal_parallelism_profile(workflow: Workflow) -> ParallelismProfile:
    """Compute the unlimited-resources parallelism profile.

    Every task starts as soon as all parents complete; the profile counts
    tasks running at each instant. Used by tests (sanity bounds on engine
    makespans) and the oracle autoscaler.
    """
    start: dict[str, float] = {}
    finish: dict[str, float] = {}
    for tid in workflow.topological_order():
        task = workflow.task(tid)
        s = max((finish[p] for p in workflow.parents(tid)), default=0.0)
        start[tid] = s
        finish[tid] = s + task.runtime
    # Sweep events: +1 at start, -1 at finish. Zero-runtime tasks still
    # register a start/finish pair at the same instant; process finishes
    # first at equal times so they never inflate the width.
    events: list[tuple[float, int]] = []
    for tid in workflow.tasks:
        events.append((start[tid], 1))
        events.append((finish[tid], -1))
    events.sort(key=lambda e: (e[0], e[1]))
    times: list[float] = []
    widths: list[int] = []
    width = 0
    i = 0
    while i < len(events):
        t = events[i][0]
        while i < len(events) and events[i][0] == t:
            width += events[i][1]
            i += 1
        times.append(t)
        widths.append(width)
    return ParallelismProfile(times=tuple(times), widths=tuple(widths))
