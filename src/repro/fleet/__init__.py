"""Multi-tenant workflow fleet: shared-site simulation with global WIRE.

WIRE (CLUSTER 2021) sizes a pool for one workflow at a time; this
package scales the reproduction to a *workload of workflows* (Ilyushkin
et al., arXiv:1905.10270): a stream of submissions — Poisson, bursty, or
trace-driven — shares one :class:`~repro.cloud.site.CloudSite`, pool,
and billing clock. Each tenant keeps its own per-stage predictors and
lookahead; a global steering step concatenates the per-tenant ``Q_task``
forecasts and runs Algorithms 2/3 once on the summed load. Pluggable
allocation policies (FIFO, fair-share, priority) decide which tenant
each free slot feeds, and the shared bill is attributed back to tenants
proportionally to their busy slot-seconds per instance.

Entry points: :func:`~repro.fleet.harness.run_fleet` (one call does it
all), :class:`~repro.fleet.engine.FleetSimulation` (the engine itself),
and the ``repro fleet`` CLI subcommand.
"""

from repro.fleet.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    Submission,
    TraceArrivals,
)
from repro.fleet.autoscalers import (
    FleetAutoscaler,
    FleetObservation,
    FleetReactiveAutoscaler,
    FleetStaticAutoscaler,
    GlobalWireAutoscaler,
    fleet_autoscaler,
    fleet_autoscaler_factories,
)
from repro.fleet.engine import FleetSimulation
from repro.fleet.harness import (
    DEFAULT_FLEET_WORKLOADS,
    fleet_workload_catalog,
    make_arrivals,
    resume_fleet,
    run_fleet,
)
from repro.fleet.policies import (
    AllocationPolicy,
    FairSharePolicy,
    FifoPolicy,
    PriorityPolicy,
    allocation_policy,
)
from repro.fleet.result import FleetResult
from repro.fleet.tenant import TenantResult, TenantRun

__all__ = [
    "AllocationPolicy",
    "ArrivalProcess",
    "BurstyArrivals",
    "DEFAULT_FLEET_WORKLOADS",
    "FairSharePolicy",
    "FifoPolicy",
    "FleetAutoscaler",
    "FleetObservation",
    "FleetReactiveAutoscaler",
    "FleetResult",
    "FleetSimulation",
    "FleetStaticAutoscaler",
    "GlobalWireAutoscaler",
    "PoissonArrivals",
    "PriorityPolicy",
    "Submission",
    "TenantResult",
    "TenantRun",
    "TraceArrivals",
    "allocation_policy",
    "fleet_autoscaler",
    "fleet_autoscaler_factories",
    "fleet_workload_catalog",
    "make_arrivals",
    "resume_fleet",
    "run_fleet",
]
