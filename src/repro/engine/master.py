"""Framework master: task lifecycle and dependency tracking.

Stand-in for the Pegasus WMS / HTCondor DAG manager: it "guards the order
of task executions" (paper §II-C) by tracking, for every task, how many
parents are still unfinished, and transitioning tasks through their
lifecycle states as the engine reports events. It owns no timing — the
discrete-event simulator drives it.
"""

from __future__ import annotations

import enum

from repro.dag.workflow import Workflow

__all__ = ["FrameworkMaster", "TaskExecState"]


class TaskExecState(enum.Enum):
    """Lifecycle of one task within a run."""

    BLOCKED = "blocked"  # some parent not yet completed
    READY = "ready"  # runnable; waiting in the scheduler queue
    STAGING_IN = "staging_in"  # slot assigned; transferring input
    EXECUTING = "executing"  # computing
    STAGING_OUT = "staging_out"  # transferring output
    COMPLETED = "completed"  # done; children may fire

    @property
    def occupies_slot(self) -> bool:
        """Whether a task in this state holds an instance slot."""
        return self in (
            TaskExecState.STAGING_IN,
            TaskExecState.EXECUTING,
            TaskExecState.STAGING_OUT,
        )


_IN_FLIGHT = (
    TaskExecState.STAGING_IN,
    TaskExecState.EXECUTING,
    TaskExecState.STAGING_OUT,
)


class FrameworkMaster:
    """Tracks task states and readiness for one workflow run."""

    def __init__(self, workflow: Workflow) -> None:
        self.workflow = workflow
        structure = workflow.structure
        #: task id -> state, in topological order
        self._state: dict[str, TaskExecState] = dict.fromkeys(
            structure.topological, TaskExecState.BLOCKED
        )
        self._state.update(dict.fromkeys(structure.roots, TaskExecState.READY))
        self._unfinished_parents: dict[str, int] = dict(structure.parent_counts)
        self._attempts: dict[str, int] = dict.fromkeys(structure.task_ids, 0)
        self._sorted_children = structure.sorted_children
        self._completed_count = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def state(self, task_id: str) -> TaskExecState:
        """Current lifecycle state of ``task_id``."""
        return self._state[task_id]

    @property
    def states(self) -> dict[str, TaskExecState]:
        """Read-only view of every task's state (bulk consumers; do not
        mutate — the run-state build reads it once per MAPE tick)."""
        return self._state

    @property
    def completed_count(self) -> int:
        """Number of tasks that have completed so far."""
        return self._completed_count

    def attempts(self, task_id: str) -> int:
        """How many times ``task_id`` has been dispatched."""
        return self._attempts[task_id]

    def initially_ready(self) -> tuple[str, ...]:
        """Root task ids, in topological order — the run's first queue."""
        return self.workflow.roots

    def is_done(self) -> bool:
        """Whether every task has completed."""
        return self._completed_count == len(self.workflow)

    def count(self, state: TaskExecState) -> int:
        """Number of tasks currently in ``state``."""
        return sum(1 for s in self._state.values() if s is state)

    def state_counts(self) -> dict[TaskExecState, int]:
        """Tasks per lifecycle state, in one pass (telemetry snapshot)."""
        counts = dict.fromkeys(TaskExecState, 0)
        for state in self._state.values():
            counts[state] += 1
        return counts

    def in_flight_tasks(self) -> list[str]:
        """Ids of tasks currently occupying slots, sorted."""
        return sorted(
            tid for tid, s in self._state.items() if s in _IN_FLIGHT
        )

    def unstarted_in_stage(self, stage_id: str) -> list[str]:
        """Tasks of ``stage_id`` not yet dispatched (BLOCKED or READY)."""
        stage = self.workflow.stage(stage_id)
        return [
            tid
            for tid in stage.task_ids
            if self._state[tid] in (TaskExecState.BLOCKED, TaskExecState.READY)
        ]

    def stage_completed(self, stage_id: str) -> bool:
        """Whether every task of ``stage_id`` has completed."""
        stage = self.workflow.stage(stage_id)
        return all(
            self._state[tid] is TaskExecState.COMPLETED for tid in stage.task_ids
        )

    # ------------------------------------------------------------------
    # transitions (called by the engine)
    # ------------------------------------------------------------------
    def _expect(self, task_id: str, *allowed: TaskExecState) -> None:
        state = self._state[task_id]
        if state not in allowed:
            raise RuntimeError(
                f"task {task_id!r} is {state.value}, expected one of "
                f"{[s.value for s in allowed]}"
            )

    def mark_dispatched(self, task_id: str) -> None:
        """READY -> STAGING_IN; counts a new attempt."""
        self._expect(task_id, TaskExecState.READY)
        self._state[task_id] = TaskExecState.STAGING_IN
        self._attempts[task_id] += 1

    def mark_executing(self, task_id: str) -> None:
        """STAGING_IN -> EXECUTING."""
        self._expect(task_id, TaskExecState.STAGING_IN)
        self._state[task_id] = TaskExecState.EXECUTING

    def mark_staging_out(self, task_id: str) -> None:
        """EXECUTING -> STAGING_OUT."""
        self._expect(task_id, TaskExecState.EXECUTING)
        self._state[task_id] = TaskExecState.STAGING_OUT

    def mark_completed(self, task_id: str) -> list[str]:
        """STAGING_OUT -> COMPLETED; returns children that just became ready.

        Newly ready children are returned in sorted order for determinism;
        the caller enqueues them with the scheduler.
        """
        self._expect(task_id, TaskExecState.STAGING_OUT)
        self._state[task_id] = TaskExecState.COMPLETED
        self._completed_count += 1
        newly_ready: list[str] = []
        for child in self._sorted_children[task_id]:
            self._unfinished_parents[child] -= 1
            if self._unfinished_parents[child] == 0:
                self._state[child] = TaskExecState.READY
                newly_ready.append(child)
        return newly_ready

    def mark_killed(self, task_id: str) -> None:
        """Any in-flight state -> READY (the attempt's work is lost).

        Used when the steering policy terminates an instance with running
        tasks (Algorithm 2 line 12: "terminate s_j, resubmit the running
        tasks on s_j"). The caller requeues the task.
        """
        self._expect(task_id, *_IN_FLIGHT)
        self._state[task_id] = TaskExecState.READY
