"""Multi-tenant discrete-event fleet engine.

Runs N concurrent workflow submissions on ONE shared
:class:`~repro.cloud.site.CloudSite` / pool / billing clock, driven by a
single :class:`~repro.engine.events.EventQueue`. It is the same
:class:`~repro.engine.simulator.EngineCore` the single-workflow
:class:`~repro.engine.simulator.Simulation` runs on — one event loop,
one set of instance, task, chaos and decision handlers — driving one
:class:`~repro.fleet.tenant.TenantRun` per submission instead of one
plain run. What the fleet adds on top:

- an arrival loop (``WORKFLOW_ARRIVAL`` events admit tenants, optionally
  gated by an admission cap),
- a slot-allocation step (an :class:`~repro.fleet.policies.
  AllocationPolicy` decides which tenant's queue feeds each free slot),
- a global steering tick (a :class:`~repro.fleet.autoscalers.
  FleetAutoscaler` sizes the shared pool from the summed per-tenant
  forecasts),
- finalization into a :class:`~repro.fleet.result.FleetResult` with the
  shared bill attributed back to tenants.

Task ids are *scoped* (``"t03:stage_2_7"``) on the shared pool and event
queue and *local* inside each tenant's structures; the core's ownership
map translates.

Determinism mirrors the single-workflow engine: every stochastic model
draws from a per-tenant labelled sub-stream, simultaneous events fire in
scheduling order, and all tie-breaks bottom out on arrival index, so a
fleet run is a pure function of its configuration and seed.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cloud.faults import ChaosSpec
from repro.cloud.site import CloudSite
from repro.dag.workflow import Workflow
from repro.engine.events import EventKind
from repro.engine.faults import FaultModel
from repro.engine.runtime import TaskRuntimeModel
from repro.engine.scheduler import FifoScheduler
from repro.engine.simulator import EngineCore, run_streams
from repro.engine.transfer import DataTransferModel
from repro.fleet.arrivals import Submission
from repro.fleet.autoscalers import FleetAutoscaler, FleetObservation
from repro.fleet.policies import AllocationPolicy
from repro.fleet.result import FleetResult
from repro.fleet.tenant import TenantResult, TenantRun
from repro.telemetry.records import FleetTickRecord, TenantRecord
from repro.telemetry.tracer import Tracer
from repro.util.rng import RngStream

__all__ = ["FleetSimulation"]


def _realize(workload: object, seed: int) -> Workflow:
    """Turn a workload object into a concrete workflow.

    Accepts a :class:`Workflow` (used as-is), anything with a
    ``generate(seed)`` method (the ``StagedWorkflowSpec`` protocol), or a
    plain callable taking a seed.
    """
    if isinstance(workload, Workflow):
        return workload
    generate = getattr(workload, "generate", None)
    if callable(generate):
        return generate(seed)
    if callable(workload):
        return workload(seed)
    raise TypeError(
        f"cannot realize workload of type {type(workload).__name__}: expected "
        "a Workflow, an object with generate(seed), or a callable"
    )


class FleetSimulation(EngineCore):
    """One multi-tenant fleet run under one global autoscaling policy.

    Parameters
    ----------
    submissions:
        The arrival stream (from an :class:`~repro.fleet.arrivals.
        ArrivalProcess`, or hand-built).
    workloads:
        Name -> workload mapping resolving each submission's ``workload``
        field; values may be concrete workflows, spec objects with
        ``generate(seed)``, or seed-taking callables.
    site, autoscaler, policy, charging_unit:
        Where to run, the global pool-sizing policy, the slot-allocation
        policy, and the billing unit *u* in seconds.
    max_active:
        Admission cap: at most this many tenants hold slots concurrently;
        excess arrivals wait and are admitted in allocation-policy order.
        ``None`` (default) admits everyone on arrival.
    chaos:
        Cloud-fault injection (:mod:`repro.cloud.faults`); revocations
        kill whichever tenants occupy the doomed instance.
    validate:
        Runtime invariant checking (:mod:`repro.validate`), with the
        same zero-cost-when-disabled contract as the single-workflow
        engine: ``None``/``False`` (default) stores no checker and pays
        one ``is not None`` check per event; ``True`` attaches a default
        raise-mode checker; a checker instance is used as-is.

    Other parameters mirror :class:`~repro.engine.simulator.Simulation`;
    ``boost_k`` sets every tenant's first-*k* stage boost.
    """

    kind = "fleet"

    def __init__(
        self,
        submissions: Sequence[Submission],
        workloads: Mapping[str, object],
        site: CloudSite,
        autoscaler: FleetAutoscaler,
        policy: AllocationPolicy,
        charging_unit: float,
        *,
        transfer_model: DataTransferModel | None = None,
        runtime_model: TaskRuntimeModel | None = None,
        fault_model: FaultModel | None = None,
        controller_period: float | None = None,
        boost_k: int = 5,
        launch_jitter: float = 0.0,
        seed: int = 0,
        max_time: float = 1e8,
        max_active: int | None = None,
        tracer: Tracer | None = None,
        chaos: ChaosSpec | None = None,
        validate: object = None,
    ) -> None:
        if not submissions:
            raise ValueError("a fleet needs at least one submission")
        if max_active is not None and max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        rng = RngStream(seed=seed, label="fleet")
        super().__init__(
            rng,
            site,
            autoscaler,
            charging_unit,
            transfer_model=transfer_model,
            runtime_model=runtime_model,
            fault_model=fault_model,
            controller_period=controller_period,
            launch_jitter=launch_jitter,
            max_time=max_time,
            tracer=tracer,
            metrics=None,
            chaos=chaos,
            validate=validate,
        )
        self.policy = policy
        self.max_active = max_active
        # Tenant queue waits feed FleetResult, so they are always tracked.
        self._track_ready = True

        # Realize every tenant up front: workflows, per-tenant RNG
        # sub-streams, and the scoped-id ownership entries.
        self.tenants: list[TenantRun] = self.runs
        for index, submission in enumerate(sorted(
            submissions, key=lambda s: (s.submit_time, s.tenant_id)
        )):
            try:
                workload = workloads[submission.workload]
            except KeyError:
                raise ValueError(
                    f"submission {submission.tenant_id!r} names unknown "
                    f"workload {submission.workload!r}"
                )
            self._add_run(
                TenantRun(
                    index=index,
                    submission=submission,
                    workflow=_realize(workload, submission.workflow_seed),
                    scheduler=FifoScheduler(boost_k=boost_k),
                    **run_streams(rng.child(submission.tenant_id)),
                )
            )

        self._active: dict[int, TenantRun] = {}
        self._waiting: list[TenantRun] = []

    def run(
        self,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: object = None,
        stop_after_checkpoint: bool = False,
    ) -> FleetResult | None:
        """Execute every submission to completion and return measurements.

        With ``checkpoint_every=N`` the full engine state is serialized
        to ``checkpoint_path`` (see :mod:`repro.checkpoint`) at every
        N-th controller tick — a deterministic cut point: the MAPE epoch
        barrier, after the tick's decision is applied and validated.
        ``stop_after_checkpoint=True`` returns ``None`` right after the
        first checkpoint is written (the CI resume job uses this to
        simulate an interrupted run). Calling ``run()`` on a restored
        simulation continues from the cut; the completed run is
        byte-identical to an uninterrupted one.
        """
        return self._drive(checkpoint_every, checkpoint_path, stop_after_checkpoint)

    def _label(self) -> str:
        return f"fleet:{len(self.tenants)}"

    # ------------------------------------------------------------------
    # arrivals / admission
    # ------------------------------------------------------------------
    def _start(self) -> None:
        for tenant in self.tenants:
            self.events.push(
                tenant.submitted_at, EventKind.WORKFLOW_ARRIVAL, tenant.index
            )

    def _on_workflow_arrival(self, index: int) -> None:
        tenant = self.tenants[index]
        if self.max_active is not None and len(self._active) >= self.max_active:
            self._waiting.append(tenant)
            return
        self._activate(tenant)
        self._dispatch()

    def _activate(self, tenant: TenantRun) -> None:
        tenant.started_at = self._now
        self._active[tenant.index] = tenant
        super()._activate(tenant)

    def _run_finished(self, tenant: TenantRun) -> None:
        super()._run_finished(tenant)
        tenant.finished_at = self._now
        del self._active[tenant.index]
        # Fill freed admission slots in allocation-policy order.
        while self._waiting and (
            self.max_active is None or len(self._active) < self.max_active
        ):
            waiting = self.policy.choose(self._waiting)
            self._waiting.remove(waiting)
            self._activate(waiting)

    # ------------------------------------------------------------------
    # the allocation-policy step
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return bool(self._active)

    def _next_run(self) -> TenantRun | None:
        candidates = [
            tenant
            for tenant in self._active.values()
            if len(tenant.scheduler) > 0
        ]
        if not candidates:
            return None
        return self.policy.choose(candidates)

    # ------------------------------------------------------------------
    # global steering
    # ------------------------------------------------------------------
    def _observe(self, window_start: float, blackout: bool) -> FleetObservation:
        return FleetObservation(
            now=self._now,
            window_start=window_start,
            tenants=tuple(self._active[index] for index in sorted(self._active)),
            waiting_count=len(self._waiting),
            pool=self.pool,
            billing=self.billing,
            site=self.site,
            owner=self._owner,
            draining_ids=frozenset(self._draining),
            monitor_blackout=blackout,
        )

    def _emit_tick(
        self,
        launched: int,
        terminated: int,
        pool_before: int,
        observation: FleetObservation,
    ) -> None:
        active = observation.tenants
        branch = "grow" if launched > 0 else ("shrink" if terminated > 0 else "hold")
        extra = self.autoscaler.tick_telemetry()
        detail: dict = {}
        if extra is not None:
            detail = dict(
                target_pool=extra.target_pool,
                q_task=extra.q_task,
                q_remaining=extra.q_remaining,
            )
        self.tracer.emit(
            FleetTickRecord(
                tick=self._ticks - 1,
                now=self._now,
                active_tenants=len(active),
                waiting_tenants=len(self._waiting),
                queued_tasks=sum(len(t.scheduler) for t in active),
                pool_before=pool_before,
                pool_after=self.pool.active_size() - len(self._draining),
                launched=launched,
                terminated=terminated,
                branch=branch,
                **detail,
            )
        )

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def _finalize(self, completed: bool) -> FleetResult:
        makespan = self._last_completion if completed else self._now
        self._teardown(makespan)

        # Proportional cost attribution: each instance's bill splits
        # across tenants by their busy slot-seconds on it; instances that
        # never ran a task have no share key and bill to the operator.
        attributed_cost = [0.0] * len(self.tenants)
        attributed_units = [0.0] * len(self.tenants)
        attributed_wasted = [0.0] * len(self.tenants)
        unattributed_cost = 0.0
        for instance in self.pool:
            if instance.started_at is None:
                continue  # cancelled pending launch: never billed
            iid = instance.instance_id
            cost = self.billing.cost(instance, makespan)
            units = self.billing.units_charged(instance, makespan)
            wasted = self.billing.wasted_time(instance, makespan)
            shares = {
                tenant.index: self._run_busy[(iid, tenant.index)]
                for tenant in self.tenants
                if self._run_busy.get((iid, tenant.index), 0.0) > 0.0
            }
            total_busy = sum(shares.values())
            if total_busy <= 0.0:
                unattributed_cost += cost
                continue
            for index, busy in shares.items():
                fraction = busy / total_busy
                attributed_cost[index] += fraction * cost
                attributed_units[index] += fraction * units
                attributed_wasted[index] += fraction * wasted

        tenant_results = []
        for tenant in self.tenants:
            finished = tenant.finished_at if tenant.finished_at is not None else makespan
            started = tenant.started_at if tenant.started_at is not None else finished
            response = max(0.0, finished - tenant.submitted_at)
            slowdown = (
                response / tenant.critical_path if tenant.critical_path > 0 else 0.0
            )
            queue_wait_mean = (
                sum(tenant.queue_waits) / len(tenant.queue_waits)
                if tenant.queue_waits
                else 0.0
            )
            tenant_results.append(
                TenantResult(
                    tenant_id=tenant.tenant_id,
                    workload=tenant.submission.workload,
                    priority=tenant.priority,
                    submitted_at=tenant.submitted_at,
                    finished_at=finished,
                    makespan=max(0.0, finished - started),
                    critical_path=tenant.critical_path,
                    slowdown=slowdown,
                    queue_wait_mean=queue_wait_mean,
                    tasks=len(tenant.workflow),
                    restarts=tenant.monitor.total_restarts(),
                    attributed_cost=attributed_cost[tenant.index],
                    attributed_units=attributed_units[tenant.index],
                    attributed_wasted_seconds=attributed_wasted[tenant.index],
                    completed=tenant.finished_at is not None,
                )
            )

        result = FleetResult(
            autoscaler_name=self.autoscaler.name,
            allocation_policy=self.policy.name,
            charging_unit=self.billing.charging_unit,
            seed=self._seed,
            n_tenants=len(self.tenants),
            makespan=makespan,
            completed=completed,
            total_units=self.pool.total_units(makespan),
            total_cost=self.pool.total_cost(makespan),
            wasted_seconds=self.pool.total_wasted_time(makespan),
            unattributed_cost=unattributed_cost,
            utilization=self._utilization(makespan),
            peak_instances=max((c for _, c in self._timeline), default=0),
            instances_launched=len(self.pool),
            restarts=sum(t.monitor.total_restarts() for t in self.tenants),
            ticks=self._ticks,
            events_processed=self._events_processed,
            cloud_faults=dict(self._cloud_faults),
            tenants=tuple(tenant_results),
            controller_cpu_seconds=self._controller_seconds,
        )
        if self._trace:
            for tr in tenant_results:
                self.tracer.emit(
                    TenantRecord(
                        now=makespan,
                        tenant_id=tr.tenant_id,
                        workload=tr.workload,
                        priority=tr.priority,
                        submitted_at=tr.submitted_at,
                        finished_at=tr.finished_at,
                        makespan=tr.makespan,
                        slowdown=tr.slowdown,
                        queue_wait_mean=tr.queue_wait_mean,
                        tasks=tr.tasks,
                        restarts=tr.restarts,
                        attributed_cost=tr.attributed_cost,
                        attributed_units=tr.attributed_units,
                        attributed_wasted_seconds=tr.attributed_wasted_seconds,
                        completed=tr.completed,
                    )
                )
            self._emit_summary(result)
        return result
