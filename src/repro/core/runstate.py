"""WIRE's run state: the belief the controller maintains about a run.

Paper §III-B: the MAPE components "maintain a *run state* that tracks the
worker instance pool and annotates the workflow DAG with the completed or
predicted minimum execution times for a subset of tasks in the run,
proceeding as a wavefront through the DAG as the workflow executes."

The run state is rebuilt at every tick from fresh monitoring data — it is
WIRE's *belief*, deliberately separate from the engine's ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.engine.master import TaskExecState

__all__ = ["PredictionPolicy", "RunState", "TaskEstimate"]


class PredictionPolicy(enum.IntEnum):
    """Which of §III-C's rules produced an estimate.

    Values 1-5 match the paper's numbering; OBSERVED marks a completed
    task whose execution time is known exactly rather than predicted.
    """

    OBSERVED = 0
    NO_TASK_STARTED = 1
    RUNNING_ONLY = 2
    COMPLETED_UNREADY = 3
    MATCHED_GROUP = 4
    OGD = 5


@dataclass(frozen=True, slots=True)
class TaskEstimate:
    """One task's annotation in the run state.

    ``exec_estimate`` is the predicted (or observed) total execution time;
    ``remaining_occupancy`` is the conservative minimum remaining slot
    occupancy from the snapshot time, including predicted data transfers —
    the quantity the lookahead simulator and Algorithm 3 consume.
    ``sunk_occupancy`` is the occupancy already consumed by the current
    attempt (the restart-cost basis, §III-B2).
    """

    task_id: str
    stage_id: str
    phase: TaskExecState
    exec_estimate: float
    policy: PredictionPolicy
    remaining_occupancy: float
    sunk_occupancy: float = 0.0
    instance_id: str | None = None


@dataclass
class RunState:
    """The controller's annotated snapshot at one MAPE tick.

    The topology fields (``completed_count``, ``in_flight``,
    ``unfinished_parents``) are filled in by the predictor's
    :meth:`~repro.core.predictor.TaskPredictor.build_run_state`, and the
    lookahead simulator projects from them as they are: a run state
    without them, or with a stale unfinished-parent map, makes the
    projection raise ``ValueError``. A ``RunState`` built by hand for
    anything other than projection can leave them ``None``.
    """

    now: float
    transfer_estimate: float
    estimates: dict[str, TaskEstimate] = field(default_factory=dict)
    #: total completed tasks at this tick (None: unknown)
    completed_count: int | None = None
    #: tasks currently occupying slots, in topological order (None: unknown)
    in_flight: tuple[str, ...] | None = None
    #: live reference to the predictor's incomplete-task -> unfinished
    #: parent count map at this tick (None: unknown). Consumers must
    #: treat it as read-only between ticks; the lookahead simulator
    #: adopts it directly, and rolls back any temporary projection
    #: decrements through its undo log.
    unfinished_parents: "dict[str, int] | None" = None
    #: policy tally pre-counted during the run-state build (internal
    #: cache consumed by :meth:`policy_counts`)
    _policy_counts: dict[PredictionPolicy, int] | None = None

    def estimate(self, task_id: str) -> TaskEstimate:
        """The annotation for ``task_id``."""
        return self.estimates[task_id]

    def wavefront(self) -> list[TaskEstimate]:
        """All incomplete-task annotations, sorted by task id."""
        return sorted(
            (e for e in self.estimates.values() if e.phase is not TaskExecState.COMPLETED),
            key=lambda e: e.task_id,
        )

    def policy_counts(self) -> dict[PredictionPolicy, int]:
        """How many estimates each policy produced (diagnostics, Fig 4)."""
        if self._policy_counts is not None:
            return dict(self._policy_counts)
        counts: dict[PredictionPolicy, int] = {}
        for estimate in self.estimates.values():
            counts[estimate.policy] = counts.get(estimate.policy, 0) + 1
        return counts

    def state_size_bytes(self) -> int:
        """Approximate footprint of the annotations (§IV-F overhead).

        Counts the numeric payload per annotation (three floats, two small
        enums, an id reference), mirroring what a C implementation would
        keep; Python object overhead is not the paper's claim.
        """
        return 40 * len(self.estimates) + 16
