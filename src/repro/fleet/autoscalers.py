"""Global pool-sizing policies for the shared-site fleet.

The single-workflow autoscalers receive an :class:`~repro.engine.control.
Observation` bound to one master/monitor pair; a fleet tick instead hands
the policy a :class:`FleetObservation` over *all* active tenants. The
headline policy is :class:`GlobalWireAutoscaler`: every tenant keeps its
own per-stage predictors and lookahead (the paper's §III-B components,
unchanged), and the global steering step concatenates the per-tenant
``Q_task`` forecasts into one summed load before running Algorithms 2/3
once for the whole site. Static and reactive shared-site baselines
complete the comparison set.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cloud.billing import BillingModel
from repro.cloud.instance import Instance
from repro.cloud.pool import InstancePool
from repro.cloud.site import CloudSite
from repro.core.config import WireConfig
from repro.core.lookahead import LookaheadSimulator, VirtualInstance
from repro.core.predictor import SharedEvalCache, TaskPredictor
from repro.core.runstate import RunState
from repro.core.steering import SteeringPolicy, steer_inputs_for
from repro.engine.control import NO_CHANGE, ScalingDecision, TerminationOrder
from repro.engine.master import TaskExecState
from repro.fleet.tenant import TenantRun
from repro.telemetry.records import TickTelemetry

__all__ = [
    "FleetAutoscaler",
    "FleetObservation",
    "FleetReactiveAutoscaler",
    "FleetStaticAutoscaler",
    "GlobalWireAutoscaler",
    "fleet_autoscaler",
    "fleet_autoscaler_factories",
]


@dataclass
class FleetObservation:
    """Snapshot handed to a fleet autoscaler at a control tick.

    ``tenants`` are the *active* tenants (admitted, not finished) in
    arrival order; ``owner`` maps every scoped task id on the shared pool
    back to its ``(tenant, local_task_id)`` pair so a policy can reason
    about an instance's occupants across tenant boundaries.
    """

    now: float
    window_start: float
    tenants: tuple[TenantRun, ...]
    waiting_count: int
    pool: InstancePool
    billing: BillingModel
    site: CloudSite
    owner: Mapping[str, tuple[TenantRun, str]]
    draining_ids: frozenset[str] = field(default_factory=frozenset)
    monitor_blackout: bool = False

    @property
    def charging_unit(self) -> float:
        return self.billing.charging_unit

    @property
    def lag(self) -> float:
        return self.site.lag

    def steerable_instances(self) -> list[Instance]:
        """RUNNING instances not already scheduled for termination."""
        return [
            i
            for i in self.pool.running()
            if i.instance_id not in self.draining_ids
        ]

    def effective_pool_size(self) -> int:
        return len(self.steerable_instances()) + len(self.pool.pending())

    def runnable_task_count(self) -> int:
        """Ready or in-flight tasks summed over the active tenants."""
        total = 0
        for tenant in self.tenants:
            master = tenant.master
            total += (
                master.count(TaskExecState.READY)
                + master.count(TaskExecState.STAGING_IN)
                + master.count(TaskExecState.EXECUTING)
                + master.count(TaskExecState.STAGING_OUT)
            )
        return total


class FleetAutoscaler(ABC):
    """A shared-site pool-sizing policy driven by fleet observations."""

    #: short name used in CLI flags and reports
    name: str = "fleet-autoscaler"

    @abstractmethod
    def plan(self, obs: FleetObservation) -> ScalingDecision:
        """Compute pool changes for the upcoming interval."""

    def initial_pool_size(self, site: CloudSite) -> int:
        """Instances to provision before the first arrival (default: one)."""
        return min(1, site.max_instances)

    def tick_telemetry(self) -> TickTelemetry | None:
        """Controller detail of the last tick (traced runs only)."""
        return None


class GlobalWireAutoscaler(FleetAutoscaler):
    """WIRE generalized to summed predicted load over N tenants.

    Per tenant: the unmodified §III-B pipeline — observe the interval,
    rebuild the run state, project one control interval ahead. The
    projection sees (a) the real steerable instances *as this tenant
    experiences them* (one virtual host per real instance carrying its
    tasks, sized to exactly those slots) and (b) a synthetic host holding
    the tenant's fair share of the site's free capacity, so concurrent
    tenants don't all claim the same free slots in their private
    projections. The per-tenant ``Q_task`` lists are then concatenated in
    arrival order and Algorithms 2/3 run once on the summed load.
    """

    name = "global-wire"

    def __init__(self, config: WireConfig | None = None) -> None:
        self.config = config or WireConfig()
        self._steering = SteeringPolicy(self.config.restart_threshold_fraction)
        #: tenant_id -> (predictor, lookahead); tenants bind lazily on
        #: their first observed tick and keep their models run-long
        self._states: dict[str, tuple[TaskPredictor, LookaheadSimulator]] = {}
        #: one content-addressed OGD evaluation cache for the whole
        #: fleet: tenants running the same genome at the same model state
        #: reuse each other's Policy 5 predictions across ticks
        self._shared_cache = SharedEvalCache()
        #: the latest tick's summed Q_task, converted only for a traced tick
        self._last_upcoming: np.ndarray | None = None
        self._last_transfer = 0.0
        self.blackout_ticks = 0
        self.blackout_holds = 0

    def _bind(self, tenant: TenantRun) -> tuple[TaskPredictor, LookaheadSimulator]:
        state = self._states.get(tenant.tenant_id)
        if state is None:
            state = (
                TaskPredictor(
                    tenant.workflow, self.config, shared_cache=self._shared_cache
                ),
                LookaheadSimulator(tenant.workflow),
            )
            self._states[tenant.tenant_id] = state
        return state

    def plan(self, obs: FleetObservation) -> ScalingDecision:
        steerable = obs.steerable_instances()
        pending = obs.pool.pending()
        slots_per_instance = obs.site.itype.slots

        # Fair split of the site's currently-free capacity across the
        # active tenants, so each private projection plans against its
        # share rather than the whole headroom. Earlier arrivals take the
        # remainder slots (deterministic).
        free_capacity = sum(i.free_slots for i in steerable) + (
            len(pending) * slots_per_instance
        )
        n = len(obs.tenants)
        shares: dict[str, int] = {}
        if n:
            base, rem = divmod(free_capacity, n)
            for pos, tenant in enumerate(obs.tenants):
                shares[tenant.tenant_id] = base + (1 if pos < rem else 0)

        if obs.monitor_blackout:
            self.blackout_ticks += 1

        upcoming_parts: list[np.ndarray] = []
        run_states: dict[str, RunState] = {}
        transfer_estimates: list[float] = []
        for tenant in obs.tenants:
            predictor, lookahead = self._bind(tenant)
            # A tenant that arrived mid-window has no data before its
            # submission; clamp the observation window to it.
            window_start = max(obs.window_start, tenant.submitted_at)
            if not obs.monitor_blackout:
                predictor.observe_interval(tenant.monitor, window_start, obs.now)
            run_state = predictor.build_run_state(
                tenant.master, tenant.monitor, obs.now
            )
            run_states[tenant.tenant_id] = run_state
            transfer_estimates.append(run_state.transfer_estimate)

            # The tenant's private view of the shared pool: each real
            # instance appears only as the slots its own tasks hold, plus
            # one synthetic host for its share of the free capacity.
            virtual: list[VirtualInstance] = []
            for instance in steerable:
                locals_here = sorted(
                    local
                    for scoped in instance.occupants
                    for owner, local in (obs.owner[scoped],)
                    if owner is tenant
                )
                if locals_here:
                    virtual.append(
                        VirtualInstance(
                            instance_id=instance.instance_id,
                            slots=len(locals_here),
                            available_at=obs.now,
                            occupants=tuple(locals_here),
                        )
                    )
            share = shares.get(tenant.tenant_id, 0)
            if share > 0:
                virtual.append(
                    VirtualInstance(
                        instance_id=f"~{tenant.tenant_id}",
                        slots=share,
                        available_at=obs.now,
                    )
                )
            load = lookahead.project(
                run_state,
                virtual,
                tenant.scheduler.snapshot(),
                horizon=obs.lag,
            )
            upcoming_parts.append(load.remaining)

        # per-tenant Q_task columns concatenated in arrival order — the
        # summed fleet load as one flat float64 vector
        upcoming = (
            np.concatenate(upcoming_parts)
            if upcoming_parts
            else np.empty(0, dtype=np.float64)
        )

        # Restart cost c_j at the charge boundary, maxed over *all*
        # occupants regardless of owning tenant: releasing an instance
        # kills every tenant's tasks on it alike.
        def estimate_of(scoped: str):
            tenant, local = obs.owner[scoped]
            return run_states[tenant.tenant_id].estimates[local]

        steer_inputs = steer_inputs_for(
            steerable, obs.billing, obs.now, estimate_of
        )

        self._last_upcoming = upcoming
        self._last_transfer = (
            sum(transfer_estimates) / len(transfer_estimates)
            if transfer_estimates
            else 0.0
        )

        decision = self._steering.decide(
            now=obs.now,
            upcoming_remaining=upcoming,
            instances=steer_inputs,
            pending_count=len(pending),
            charging_unit=obs.charging_unit,
            lag=obs.lag,
            slots_per_instance=slots_per_instance,
            min_instances=max(1, obs.site.min_instances),
            max_instances=obs.site.max_instances,
        )
        # Same blackout rule as the single-workflow controller: never
        # shrink on a stale model.
        if obs.monitor_blackout and decision.terminations:
            self.blackout_holds += 1
            decision = NO_CHANGE
        return decision

    def tick_telemetry(self) -> TickTelemetry | None:
        if self._last_upcoming is None:
            return None
        upcoming = self._last_upcoming.tolist()
        return TickTelemetry(
            # Algorithm 3's p from the tick's own steering call
            target_pool=self._steering.last_target,
            q_task=len(upcoming),
            q_remaining=sum(upcoming),
            transfer_estimate=self._last_transfer,
        )


class FleetStaticAutoscaler(FleetAutoscaler):
    """Whole site up for the whole fleet run (shared full-site baseline)."""

    name = "global-static"

    def initial_pool_size(self, site: CloudSite) -> int:
        return site.max_instances

    def plan(self, obs: FleetObservation) -> ScalingDecision:
        return NO_CHANGE


class FleetReactiveAutoscaler(FleetAutoscaler):
    """One slot per runnable task summed over tenants, immediate releases."""

    name = "global-reactive"

    def plan(self, obs: FleetObservation) -> ScalingDecision:
        slots = obs.site.itype.slots
        load = obs.runnable_task_count()
        target = max(
            max(1, obs.site.min_instances),
            min(math.ceil(load / slots), obs.site.max_instances),
        )
        current = obs.effective_pool_size()
        if target > current:
            return ScalingDecision(launch=target - current)
        if target == current:
            return ScalingDecision()
        candidates = sorted(
            obs.steerable_instances(),
            key=lambda i: (len(i.occupants), i.instance_id),
        )
        orders = tuple(
            TerminationOrder(instance_id=i.instance_id, at=obs.now)
            for i in candidates[: current - target]
        )
        return ScalingDecision(terminations=orders)


_FACTORIES: dict[str, type[FleetAutoscaler]] = {
    GlobalWireAutoscaler.name: GlobalWireAutoscaler,
    FleetStaticAutoscaler.name: FleetStaticAutoscaler,
    FleetReactiveAutoscaler.name: FleetReactiveAutoscaler,
}


def fleet_autoscaler_factories() -> dict[str, type[FleetAutoscaler]]:
    """Name -> zero-arg factory for every shared-site policy."""
    return dict(_FACTORIES)


def fleet_autoscaler(name: str) -> FleetAutoscaler:
    """Instantiate a fleet policy by CLI name."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        options = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown fleet autoscaler {name!r} (options: {options})")
