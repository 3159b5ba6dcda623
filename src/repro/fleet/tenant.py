"""Per-tenant run state and results.

Each tenant in a fleet run is a full single-workflow control stack —
its own :class:`~repro.engine.master.FrameworkMaster`, monitor, and
FIFO task queue — sharing only the site, pool, billing clock and event
queue with the other tenants. Task ids inside a tenant's structures are
*local* (as generated by the workload); on the shared pool and event
queue they are *scoped* (``"t03:stage_2_7"``) so two tenants running
the same workload cannot collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag.analysis import critical_path_length
from repro.engine.simulator import WorkflowRun
from repro.fleet.arrivals import Submission

__all__ = ["TenantResult", "TenantRun"]


@dataclass(eq=False, kw_only=True)
class TenantRun(WorkflowRun):
    """Live state of one tenant inside a fleet simulation.

    A :class:`~repro.engine.simulator.WorkflowRun` with scoped task ids
    and the per-tenant extras a :class:`~repro.fleet.result.FleetResult`
    reports.
    """

    index: int
    submission: Submission
    critical_path: float = field(init=False)
    #: simulation time the tenant was admitted (roots became queueable);
    #: equals ``submitted_at`` unless an admission cap held it back
    started_at: float | None = None
    finished_at: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.critical_path = critical_path_length(self.workflow)

    @property
    def tenant_id(self) -> str:
        return self.submission.tenant_id

    @property
    def label(self) -> str:
        return self.tenant_id

    @property
    def priority(self) -> int:
        return self.submission.priority

    @property
    def submitted_at(self) -> float:
        return self.submission.submit_time

    def scoped(self, local_task_id: str) -> str:
        """Pool-/event-queue-side id for one of this tenant's tasks."""
        return f"{self.tenant_id}:{local_task_id}"

    @property
    def is_done(self) -> bool:
        return self.master.is_done()


@dataclass(frozen=True)
class TenantResult:
    """Final per-tenant metrics of a fleet run.

    ``slowdown`` is the workflow's response time (finish − submit,
    including any admission wait) normalized by its zero-contention
    critical path length — the standard workload-of-workflows fairness
    metric. ``attributed_*`` split the shared bill proportionally to
    each tenant's busy slot-seconds on every instance.
    """

    tenant_id: str
    workload: str
    priority: int
    submitted_at: float
    finished_at: float
    makespan: float
    critical_path: float
    slowdown: float
    queue_wait_mean: float
    tasks: int
    restarts: int
    attributed_cost: float
    attributed_units: float
    attributed_wasted_seconds: float
    completed: bool
