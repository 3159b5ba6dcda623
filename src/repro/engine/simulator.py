"""Discrete-event workflow execution engine.

This is the repo's stand-in for "Pegasus WMS/HTCondor running on ExoGENI":
it executes workflow runs on an elastic pool of simulated worker
instances, invoking an autoscaler every control period (the MAPE cadence,
paper §III-A) and applying its decisions with the site's provisioning lag.

One core, :class:`EngineCore`, owns the event loop, the instance and
task lifecycles, cloud-fault injection and decision application. It
drives any number of :class:`WorkflowRun` objects — one workflow's
framework master, monitor and task queue each — through a single
ownership map from pool-side task ids to ``(run, local id)``. Two thin
engines sit on it: :class:`Simulation` drives one run under an
:class:`~repro.engine.control.Autoscaler` with unscoped ids, and
:class:`~repro.fleet.engine.FleetSimulation` drives a workload of them
on a shared site.

Determinism: all randomness flows from a single seed through labelled
sub-streams (:mod:`repro.util.rng`), and simultaneous events fire in
scheduling order, so a run is a pure function of
``(workflow, site, autoscaler, charging_unit, models, seed)``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.billing import BillingModel
from repro.cloud.faults import ChaosInjector, ChaosSpec
from repro.cloud.instance import Instance, InstanceState
from repro.cloud.pool import InstancePool
from repro.cloud.provisioner import Provisioner
from repro.cloud.site import CloudSite
from repro.dag.workflow import Workflow
from repro.engine.control import Autoscaler, Observation, ScalingDecision
from repro.engine.events import Event, EventKind, EventQueue
from repro.engine.faults import FaultModel, NoFaults
from repro.engine.master import FrameworkMaster, TaskExecState
from repro.engine.monitor import Monitor
from repro.engine.runtime import NominalRuntimeModel, TaskRuntimeModel
from repro.engine.scheduler import FifoScheduler
from repro.engine.transfer import DataTransferModel, NoTransferModel
from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.telemetry.records import (
    CloudFaultRecord,
    ControlTickRecord,
    InstanceEventRecord,
    RunMetaRecord,
    RunSummaryRecord,
    TaskAttemptRecord,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.util.rng import RngStream
from repro.util.validation import check_positive

__all__ = ["EngineCore", "RunResult", "Simulation", "WorkflowRun"]


def _make_validator(validate: object):
    """Normalize the ``validate=`` argument of the engines.

    ``None``/``False`` -> no validator (the zero-cost path); ``True`` ->
    a default raise-mode checker; anything else is assumed to be a
    checker instance and used as-is. The import is deferred so runs that
    never validate never load :mod:`repro.validate`.
    """
    if validate is None or validate is False:
        return None
    if validate is True:
        from repro.validate.checker import InvariantChecker

        return InvariantChecker()
    return validate


def run_streams(rng: RngStream) -> dict[str, np.random.Generator]:
    """The three per-run model streams, derived under ``rng``."""
    return {
        "rng_transfer": rng.child("transfer").generator(),
        "rng_runtime": rng.child("runtime").generator(),
        "rng_faults": rng.child("faults").generator(),
    }


@dataclass(eq=False, kw_only=True)
class WorkflowRun:
    """Live control stack of one workflow inside an engine run.

    Its own framework master, monitor and task queue; the site, pool,
    billing clock and event queue belong to the engine. Task ids inside
    these structures are *local*; :meth:`scoped` gives the pool- and
    event-queue-side id, which for a plain run is the local id itself.
    """

    workflow: Workflow
    rng_transfer: np.random.Generator
    rng_runtime: np.random.Generator
    rng_faults: np.random.Generator
    #: position in the engine's run list (keys busy-share attribution)
    index: int = 0
    scheduler: FifoScheduler = field(default_factory=FifoScheduler)
    master: FrameworkMaster = field(init=False)
    monitor: Monitor = field(init=False)
    #: slots currently held on the pool (fair-share signal)
    occupied_slots: int = 0
    #: local task id -> time it became runnable; filled only when the
    #: engine tracks queue waits
    ready_at: dict[str, float] = field(default_factory=dict)
    queue_waits: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.master = FrameworkMaster(self.workflow)
        self.monitor = Monitor()

    @property
    def label(self) -> str:
        """Prefix for checker messages ("" for a plain run)."""
        return ""

    def scoped(self, local_task_id: str) -> str:
        """Pool-/event-queue-side id for one of this run's tasks."""
        return local_task_id


@dataclass
class RunResult:
    """Everything measured from one workflow run."""

    workflow_name: str
    autoscaler_name: str
    charging_unit: float
    #: completion time of the last task (simulation seconds)
    makespan: float
    #: False when the run hit ``max_time`` before finishing
    completed: bool
    #: total charging units billed (Fig 5's "resource cost")
    total_units: int
    #: total monetary cost (units x price)
    total_cost: float
    #: paid-but-unused instance seconds
    wasted_seconds: float
    #: busy slot-seconds / paid slot-seconds, in [0, 1]
    utilization: float
    #: largest number of simultaneously RUNNING instances
    peak_instances: int
    #: total instances ever launched
    instances_launched: int
    #: task attempts killed by pool shrinks
    restarts: int
    #: MAPE iterations executed
    ticks: int
    #: wall-clock seconds spent inside autoscaler.plan() (§IV-F overhead)
    controller_cpu_seconds: float
    #: autoscaler-reported state footprint in bytes (None if untracked)
    controller_state_bytes: int | None
    #: discrete events processed by the engine loop (perf accounting)
    events_processed: int
    #: (time, running instance count) at every pool change
    pool_timeline: list[tuple[float, int]]
    #: full task attempt records
    monitor: Monitor = field(repr=False)
    #: cloud-fault injection tallies by fault class (empty when chaos is
    #: disabled; see :mod:`repro.cloud.faults`)
    cloud_faults: dict[str, int] = field(default_factory=dict)

    @property
    def total_task_seconds(self) -> float:
        """Aggregate completed execution seconds (Table I's aggregate)."""
        return sum(
            a.execution_time or 0.0
            for a in self.monitor.all_attempts()
            if a.is_completed
        )


class EngineCore:
    """The event loop, lifecycles and decision application of both engines.

    A subclass registers its :class:`WorkflowRun` objects with
    :meth:`_add_run` and supplies what genuinely differs between engines:
    starting the runs (:meth:`_start`), which run feeds a free slot
    (:meth:`_has_work`/:meth:`_next_run`), the controller's observation
    and tick record (:meth:`_observe`/:meth:`_emit_tick`), and
    finalization into a result (:meth:`_finalize`).

    Parameters are those of :class:`Simulation`; ``rng`` is the engine's
    root stream (its seed is the run's seed), under which the
    launch-jitter and chaos streams derive.
    Each engine class names its checkpoint header ``kind``
    (see :mod:`repro.checkpoint`).
    """

    def __init__(
        self,
        rng: RngStream,
        site: CloudSite,
        autoscaler,
        charging_unit: float,
        *,
        transfer_model: DataTransferModel | None,
        runtime_model: TaskRuntimeModel | None,
        fault_model: FaultModel | None,
        controller_period: float | None,
        launch_jitter: float,
        max_time: float,
        tracer: Tracer | None,
        metrics: MetricsRegistry | None,
        chaos: ChaosSpec | None,
        validate: object,
    ) -> None:
        check_positive("charging_unit", charging_unit)
        check_positive("max_time", max_time)
        self.site = site
        self.autoscaler = autoscaler
        self.billing = BillingModel(charging_unit)
        self.transfer_model = transfer_model or NoTransferModel()
        self.runtime_model = runtime_model or NominalRuntimeModel()
        self.fault_model = fault_model or NoFaults()
        self.period = controller_period if controller_period is not None else site.lag
        check_positive("controller_period", self.period)
        # The paper's lag is "the *maximum* delay to launch or release an
        # instance" (§III-A); with jitter j, an ordered instance becomes
        # usable after lag * (1 - j*U[0,1)) — up to j earlier than the
        # worst case the controller plans around.
        if not 0.0 <= launch_jitter <= 1.0:
            raise ValueError(
                f"launch_jitter must be in [0, 1], got {launch_jitter!r}"
            )
        self.launch_jitter = launch_jitter
        self.max_time = max_time
        self._seed = rng.seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        #: whether runs record when tasks become ready (queue waits);
        #: a plain run pays for it only when traced
        self._track_ready = self._trace
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._metrics_on = self.metrics.enabled
        self._rng_launch = rng.child("launch").generator()

        # Cloud-fault injection: the injector exists only when a fault
        # class is actually enabled, so `self._chaos_injector is None` is
        # the zero-cost disabled path (mirroring the `self._trace` guard).
        self.chaos = chaos
        if chaos is not None and chaos.enabled:
            self._chaos_injector: ChaosInjector | None = ChaosInjector(
                chaos, rng.child("chaos").generator()
            )
        else:
            self._chaos_injector = None
        # Invariant checking mirrors the chaos contract: the checker
        # exists only when requested, so `self.validator is None` is the
        # zero-cost disabled path (lazy import keeps repro.validate out
        # of undecorated runs entirely).
        self.validator = _make_validator(validate)
        #: fault-class -> occurrence count (stays empty without chaos)
        self._cloud_faults: dict[str, int] = {}
        #: pending-instance id -> provisioning attempt number, for
        #: launches that will come back failed
        self._provision_attempts: dict[str, int] = {}

        self.pool = InstancePool(site.itype, self.billing)
        self.provisioner = Provisioner(site, self.pool)
        self.events = EventQueue()
        self.runs: list[WorkflowRun] = []
        #: pool-side task id -> (owning run, local task id)
        self._owner: dict[str, tuple[WorkflowRun, str]] = {}
        #: runs not yet finished; the loop ends when it reaches zero
        self._unfinished = 0

        self._started = False
        self._now = 0.0
        self._events_processed = 0
        self._draining: set[str] = set()
        self._pending_task_event: dict[str, Event] = {}
        #: pool-side task id -> slot assignment time (busy-share attribution)
        self._assign_at: dict[str, float] = {}
        #: (instance_id, run index) -> busy slot-seconds accrued
        self._run_busy: dict[tuple[str, int], float] = {}
        self._timeline: list[tuple[float, int]] = []
        self._last_completion = 0.0
        self._ticks = 0
        self._controller_seconds = 0.0
        self._last_tick_time = 0.0
        #: start of a monitoring window whose records were blacked out
        #: and are still awaiting delivery (delayed-records mode only)
        self._observe_from: float | None = None

    def _add_run(self, run: WorkflowRun) -> None:
        self.runs.append(run)
        self._unfinished += 1
        for local in run.workflow.tasks:
            self._owner[run.scoped(local)] = (run, local)

    # ------------------------------------------------------------------
    # engine-specific hooks
    # ------------------------------------------------------------------
    def _label(self) -> str:
        """``workflow`` field of the run's RunMetaRecord."""
        raise NotImplementedError

    def _start(self) -> None:
        """Make the runs' work visible at t=0 (activate, or schedule arrivals)."""
        raise NotImplementedError

    def _has_work(self) -> bool:
        """Cheap pre-check: may any run have a queued task?"""
        raise NotImplementedError

    def _next_run(self) -> WorkflowRun | None:
        """The run whose queue feeds the next free slot (None: nothing queued)."""
        raise NotImplementedError

    def _observe(self, window_start: float, blackout: bool):
        """The controller's observation at this tick."""
        raise NotImplementedError

    def _emit_tick(
        self, launched: int, terminated: int, pool_before: int, observation
    ) -> None:
        """Emit the per-tick controller record (tick already applied)."""
        raise NotImplementedError

    def _finalize(self, completed: bool):
        """Tear the pool down and build the engine's result."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _drive(
        self,
        checkpoint_every: int | None,
        checkpoint_path: object,
        stop_after_checkpoint: bool,
    ):
        """Run the event loop to completion and finalize.

        ``checkpoint_every=N`` serializes the engine to
        ``checkpoint_path`` at every N-th controller tick — a
        deterministic cut point, after the tick's decision is applied and
        validated (see :mod:`repro.checkpoint`);
        ``stop_after_checkpoint=True`` returns ``None`` right after the
        first checkpoint. A restored engine continues where it stopped
        and finishes byte-identical to an uninterrupted run.
        """
        if checkpoint_every is not None:
            check_positive("checkpoint_every", checkpoint_every)
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires a checkpoint_path")
            from repro.checkpoint import save_checkpoint
        validator = self.validator
        if not self._started:
            self._started = True
            self._bootstrap()
            if validator is not None:
                validator.begin_run(self)
        completed = True
        while self._unfinished:
            if not self.events:
                raise RuntimeError(
                    "event queue drained before the run completed "
                    f"(at t={self._now}); the pool can no longer make progress"
                )
            event = self.events.pop()
            if event.time > self.max_time:
                completed = False
                break
            self._now = event.time
            self._events_processed += 1
            self._handle(event)
            if validator is not None:
                validator.after_event(self, event)
            if (
                checkpoint_every is not None
                and event.kind is EventKind.CONTROLLER_TICK
                and self._ticks > 0
                and self._ticks % checkpoint_every == 0
                and self._unfinished
            ):
                save_checkpoint(self, checkpoint_path)
                if stop_after_checkpoint:
                    return None
        result = self._finalize(completed)
        if validator is not None:
            validator.check_final(self, result)
        return result

    # ------------------------------------------------------------------
    # setup / teardown
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        if self._trace:
            self.tracer.emit(
                RunMetaRecord(
                    workflow=self._label(),
                    policy=self.autoscaler.name,
                    charging_unit=self.billing.charging_unit,
                    seed=self._seed,
                    site=self.site.name,
                    max_instances=self.site.max_instances,
                    lag=self.site.lag,
                    period=self.period,
                    n_tasks=sum(len(run.workflow) for run in self.runs),
                    n_stages=sum(len(run.workflow.stages) for run in self.runs),
                    slots_per_instance=self.site.itype.slots,
                    runtime_model=getattr(
                        self.runtime_model, "name", type(self.runtime_model).__name__
                    ),
                )
            )
        initial = self.autoscaler.initial_pool_size(self.site)
        initial = max(self.site.min_instances, min(initial, self.site.max_instances))
        for _ in range(initial):
            instance = self.pool.create(now=0.0)
            instance.mark_running(0.0)
            if self._chaos_injector is not None:
                self._chaos_instance_started(instance)
            if self._trace:
                iid = instance.instance_id
                self.tracer.emit(
                    InstanceEventRecord(now=0.0, instance_id=iid, event="requested")
                )
                self.tracer.emit(
                    InstanceEventRecord(now=0.0, instance_id=iid, event="provisioned")
                )
        if self._metrics_on:
            self.metrics.counter("instance.launched").inc(initial)
        self._record_pool_change(0.0)
        self._start()
        self.events.push(self.period, EventKind.CONTROLLER_TICK)

    def _activate(self, run: WorkflowRun) -> None:
        """Queue ``run``'s root tasks."""
        for local in run.master.initially_ready():
            if self._track_ready:
                run.ready_at[local] = self._now
            run.scheduler.push(local, run.workflow.stage_of[local])

    def _run_finished(self, run: WorkflowRun) -> None:
        self._unfinished -= 1

    def _teardown(self, makespan: float) -> None:
        """Tear down whatever is still up; the run is over."""
        for instance in self.pool:
            if instance.state is InstanceState.RUNNING:
                for scoped in sorted(instance.occupants):
                    # Only possible on an incomplete (timed-out) run.
                    run, local = self._owner[scoped]
                    run.monitor.record_kill(local, makespan)
                    if self._trace:
                        self._emit_attempt(run, local, scoped, "killed", makespan)
                    self._release(instance, run, scoped, makespan)
                end = max(makespan, instance.started_at or 0.0)
                instance.mark_terminated(end)
                if self._trace:
                    self._emit_instance_end(instance, end, "terminated")
            elif instance.state is InstanceState.PENDING:
                # Never became usable; never billed.
                instance.cancel_pending()
                if self._trace:
                    self.tracer.emit(
                        InstanceEventRecord(
                            now=makespan,
                            instance_id=instance.instance_id,
                            event="cancelled",
                        )
                    )

    def _utilization(self, makespan: float) -> float:
        """Busy slot-seconds over paid slot-seconds, capped at 1."""
        busy = sum(
            a.occupancy_elapsed(makespan)
            for run in self.runs
            for a in run.monitor.all_attempts()
        )
        paid_slot_seconds = sum(
            self.billing.units_charged(i, makespan)
            * self.billing.charging_unit
            * i.itype.slots
            for i in self.pool
        )
        utilization = busy / paid_slot_seconds if paid_slot_seconds > 0 else 0.0
        return min(1.0, utilization)

    def _emit_summary(self, result) -> None:
        self.tracer.emit(
            RunSummaryRecord(
                makespan=result.makespan,
                completed=result.completed,
                total_units=result.total_units,
                total_cost=result.total_cost,
                wasted_seconds=result.wasted_seconds,
                utilization=result.utilization,
                peak_instances=result.peak_instances,
                instances_launched=result.instances_launched,
                restarts=result.restarts,
                ticks=result.ticks,
            )
        )

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------
    def _handle(self, event: Event) -> None:
        # the three per-task events come first: they are most of the load
        kind = event.kind
        if kind is EventKind.STAGE_IN_DONE:
            self._on_stage_in_done(event.payload)
        elif kind is EventKind.EXEC_DONE:
            self._on_exec_done(event.payload)
        elif kind is EventKind.STAGE_OUT_DONE:
            self._on_stage_out_done(event.payload)
        elif kind is EventKind.INSTANCE_READY:
            self._on_instance_ready(event.payload)
        elif kind is EventKind.INSTANCE_TERMINATE:
            self._on_instance_terminate(event.payload)
        elif kind is EventKind.TASK_FAILED:
            self._on_task_failed(event.payload)
        elif kind is EventKind.CONTROLLER_TICK:
            self._on_controller_tick()
        elif kind is EventKind.INSTANCE_REVOKED:
            self._on_instance_revoked(event.payload)
        elif kind is EventKind.PROVISION_FAILED:
            self._on_provision_failed(event.payload)
        elif kind is EventKind.PROVISION_RETRY:
            self._on_provision_retry(event.payload)
        elif kind is EventKind.WORKFLOW_ARRIVAL:
            # only an engine that schedules arrivals defines this handler
            self._on_workflow_arrival(event.payload)
        else:  # pragma: no cover - exhaustive enum
            raise RuntimeError(f"unknown event kind {event.kind}")

    # ------------------------------------------------------------------
    # instance lifecycle
    # ------------------------------------------------------------------
    def _on_instance_ready(self, instance_id: str) -> None:
        instance = self.pool.get(instance_id)
        instance.mark_running(self._now)
        if self._chaos_injector is not None:
            self._chaos_instance_started(instance)
        if self._trace:
            self.tracer.emit(
                InstanceEventRecord(
                    now=self._now, instance_id=instance_id, event="provisioned"
                )
            )
        self._record_pool_change(self._now)
        self._dispatch()

    def _release(
        self, instance: Instance, run: WorkflowRun, scoped: str, now: float
    ) -> None:
        """Free ``scoped``'s slot, crediting its busy time to ``run``."""
        assigned = self._assign_at.pop(scoped, None)
        if assigned is not None:
            key = (instance.instance_id, run.index)
            self._run_busy[key] = self._run_busy.get(key, 0.0) + (now - assigned)
        # release (not bulk-clear) so the pool's placement and free-slot
        # indexes stay consistent
        instance.release(scoped, now)
        run.occupied_slots -= 1

    def _kill_occupant(
        self, instance: Instance, scoped: str, *, failed: bool = False
    ) -> None:
        """Kill one occupant, requeue it with its run, free the slot."""
        run, local = self._owner[scoped]
        pending = self._pending_task_event.pop(scoped, None)
        if pending is not None:
            self.events.cancel(pending)
        run.monitor.record_kill(local, self._now, failed=failed)
        if self._trace:
            self._emit_attempt(
                run, local, scoped, "failed" if failed else "killed", self._now
            )
        if self._track_ready:
            run.ready_at[local] = self._now
        run.master.mark_killed(local)
        run.scheduler.push(local, run.workflow.stage_of[local], requeue=True)
        self._release(instance, run, scoped, self._now)

    def _on_instance_terminate(self, instance_id: str) -> None:
        instance = self.pool.get(instance_id)
        for scoped in sorted(instance.occupants):
            self._kill_occupant(instance, scoped)
        instance.mark_terminated(self._now)
        if self._chaos_injector is not None:
            # a planned release retracts any not-yet-fired revocation
            self.events.cancel_for_payload(
                instance_id, kind=EventKind.INSTANCE_REVOKED
            )
        if self._trace:
            self._emit_instance_end(instance, self._now, "terminated")
        self._draining.discard(instance_id)
        self._record_pool_change(self._now)
        self._dispatch()

    # ------------------------------------------------------------------
    # cloud-fault handlers (reachable only with an enabled ChaosSpec)
    # ------------------------------------------------------------------
    def _chaos_instance_started(self, instance: Instance) -> None:
        """Per-instance chaos draws, made once when it becomes RUNNING.

        Draw order is fixed (straggler roll, then revocation sample) so a
        run is a pure function of ``(seed, spec)``.
        """
        injector = self._chaos_injector
        assert injector is not None
        factor = injector.straggler_factor()
        iid = instance.instance_id
        if factor != 1.0:
            instance.slowdown = factor
            self._count_fault("stragglers")
            if self._trace:
                self.tracer.emit(
                    CloudFaultRecord(
                        now=self._now,
                        fault="straggler",
                        instance_id=iid,
                        slowdown=factor,
                    )
                )
        delay = injector.revocation_delay()
        if delay is not None:
            # The provider will preempt this instance unless the run (or
            # a planned release) gets there first.
            self.events.push(
                self._now + delay, EventKind.INSTANCE_REVOKED, iid
            )

    def _on_instance_revoked(self, instance_id: str) -> None:
        """The provider preempts ``instance_id`` (spot-style revocation).

        Mirrors a planned termination — occupants are killed and requeued,
        whichever runs they belong to — except the instance had no say:
        any scheduled release is retracted, the instance is flagged
        ``revoked``, and billing stops at the revocation boundary
        (``mark_terminated(now)`` caps the billable uptime).
        """
        instance = self.pool.get(instance_id)
        if instance.state is not InstanceState.RUNNING:
            return  # defensive: planned releases cancel revocation events
        killed = 0
        lost_occupancy = 0.0
        for scoped in sorted(instance.occupants):
            run, local = self._owner[scoped]
            lost_occupancy += run.monitor.current_attempt(
                local
            ).occupancy_elapsed(self._now)
            self._kill_occupant(instance, scoped)
            killed += 1
        if instance_id in self._draining:
            self.events.cancel_for_payload(
                instance_id, kind=EventKind.INSTANCE_TERMINATE
            )
            self._draining.discard(instance_id)
        instance.revoked = True
        instance.mark_terminated(self._now)
        self._count_fault("revocations")
        if killed:
            self._count_fault("revocation_task_kills", killed)
        if self._metrics_on:
            self.metrics.counter("cloud.revocations").inc()
        if self._trace:
            self._emit_instance_end(instance, self._now, "revoked")
            _, _, _, _, wasted = self.pool.instance_utilization(
                instance, self._now
            )
            self.tracer.emit(
                CloudFaultRecord(
                    now=self._now,
                    fault="revocation",
                    instance_id=instance_id,
                    tasks_killed=killed,
                    wasted_seconds=wasted,
                    lost_occupancy=lost_occupancy,
                )
            )
        self._record_pool_change(self._now)
        self._dispatch()

    def _on_provision_failed(self, instance_id: str) -> None:
        """An ordered launch came back failed after its lag.

        The pending instance is cancelled (never billed) and, within the
        retry budget, a replacement is ordered after exponential backoff.
        """
        injector = self._chaos_injector
        assert injector is not None
        attempt = self._provision_attempts.pop(instance_id, 1)
        self.pool.get(instance_id).cancel_pending()
        self._count_fault("provision_failures")
        if self._trace:
            self.tracer.emit(
                InstanceEventRecord(
                    now=self._now, instance_id=instance_id, event="cancelled"
                )
            )
            self.tracer.emit(
                CloudFaultRecord(
                    now=self._now,
                    fault="provision_failure",
                    instance_id=instance_id,
                    attempt=attempt,
                )
            )
        retry = injector.spec.retry
        if attempt <= retry.max_retries:
            backoff = retry.delay(attempt)
            self._count_fault("provision_retries")
            if self._trace:
                self.tracer.emit(
                    CloudFaultRecord(
                        now=self._now,
                        fault="provision_retry",
                        instance_id=instance_id,
                        attempt=attempt,
                        backoff=backoff,
                    )
                )
            self.events.push(
                self._now + backoff, EventKind.PROVISION_RETRY, attempt + 1
            )
        else:
            self._count_fault("provision_abandoned")
            if self._trace:
                self.tracer.emit(
                    CloudFaultRecord(
                        now=self._now,
                        fault="provision_abandoned",
                        instance_id=instance_id,
                        attempt=attempt,
                    )
                )

    def _on_provision_retry(self, attempt: int) -> None:
        """Backoff elapsed: re-issue one launch as attempt ``attempt``."""
        orders = self.provisioner.order_launches(1, self._now)
        if not orders:
            # The site cap (or a competing MAPE grow) absorbed the slot;
            # the controller will re-plan capacity on a later tick.
            self._count_fault("provision_retries_dropped")
            return
        if self._metrics_on:
            self.metrics.counter("instance.launched").inc()
        self._issue_launch(orders[0], attempt=attempt)

    def _count_fault(self, key: str, n: int = 1) -> None:
        self._cloud_faults[key] = self._cloud_faults.get(key, 0) + n

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def _on_stage_in_done(self, scoped: str) -> None:
        run, local = self._owner[scoped]
        run.master.mark_executing(local)
        run.monitor.record_exec_start(local, self._now)
        instance = self.pool.instance_of_task(scoped)
        assert instance is not None, f"executing task {scoped} has no instance"
        task = run.workflow.task(local)
        attempt = run.master.attempts(local)
        duration = self.runtime_model.execution_time(
            task, instance, attempt, run.rng_runtime
        )
        if self._chaos_injector is not None and instance.slowdown != 1.0:
            # Straggler stretch applied outside the runtime model so the
            # model's RNG draw sequence is identical with chaos off; the
            # fault model below sees the stretched (real) duration.
            duration *= instance.slowdown
        failure = self.fault_model.failure_offset(
            task, instance, attempt, duration, run.rng_faults
        )
        if failure is not None and failure < duration:
            self._pending_task_event[scoped] = self.events.push(
                self._now + failure, EventKind.TASK_FAILED, scoped
            )
        else:
            self._pending_task_event[scoped] = self.events.push(
                self._now + duration, EventKind.EXEC_DONE, scoped
            )

    def _on_exec_done(self, scoped: str) -> None:
        run, local = self._owner[scoped]
        run.master.mark_staging_out(local)
        run.monitor.record_exec_end(local, self._now)
        duration = self.transfer_model.stage_out_time(
            run.workflow.task(local), run.rng_transfer
        )
        self._pending_task_event[scoped] = self.events.push(
            self._now + duration, EventKind.STAGE_OUT_DONE, scoped
        )

    def _on_stage_out_done(self, scoped: str) -> None:
        run, local = self._owner[scoped]
        self._pending_task_event.pop(scoped, None)
        run.monitor.record_complete(local, self._now)
        if self._trace:
            self._emit_attempt(run, local, scoped, "completed", self._now)
        if self._metrics_on:
            attempt = run.monitor.current_attempt(local)
            self.metrics.counter("task.completed").inc()
            if attempt.execution_time is not None:
                self.metrics.histogram("task.runtime_seconds").observe(
                    attempt.execution_time
                )
        instance = self.pool.instance_of_task(scoped)
        assert instance is not None, f"completing task {scoped} has no instance"
        self._release(instance, run, scoped, self._now)
        self._last_completion = self._now
        for child in run.master.mark_completed(local):
            if self._track_ready:
                run.ready_at[child] = self._now
            run.scheduler.push(child, run.workflow.stage_of[child])
        if run.master.is_done():
            self._run_finished(run)
        self._dispatch()

    def _on_task_failed(self, scoped: str) -> None:
        """An attempt died mid-execution: the framework resubmits it."""
        instance = self.pool.instance_of_task(scoped)
        assert instance is not None, f"failed task {scoped} has no instance"
        self._kill_occupant(instance, scoped, failed=True)
        self._dispatch()

    # ------------------------------------------------------------------
    # controller tick
    # ------------------------------------------------------------------
    def _on_controller_tick(self) -> None:
        if not self._unfinished:
            return
        blackout = False
        window_start = self._last_tick_time
        if self._chaos_injector is not None:
            blackout = self._chaos_injector.blackout()
            if blackout:
                self._count_fault("blackouts")
                if self._trace:
                    self.tracer.emit(
                        CloudFaultRecord(now=self._now, fault="monitor_blackout")
                    )
                # Delayed-records mode remembers where the starved window
                # began so the next clear tick can observe all of it at
                # once; dropped-records mode remembers nothing — those
                # windows are simply never offered to the predictor.
                if (
                    self._observe_from is None
                    and not self._chaos_injector.spec.blackout_drops
                ):
                    self._observe_from = self._last_tick_time
            elif self._observe_from is not None:
                window_start = self._observe_from
                self._observe_from = None
        observation = self._observe(window_start, blackout)
        pool_before = self.pool.active_size() - len(self._draining)
        started = _time.perf_counter()
        decision = self.autoscaler.plan(observation)
        elapsed = _time.perf_counter() - started
        self._controller_seconds += elapsed
        self._ticks += 1
        self._last_tick_time = self._now
        terminated = self._apply_decision(decision)
        if self._trace:
            self._emit_tick(decision.launch, terminated, pool_before, observation)
        if self._metrics_on:
            self.metrics.histogram("controller.plan_seconds").observe(elapsed)
            self.metrics.gauge("pool.running").set(self.pool.running_count())
        self.events.push(self._now + self.period, EventKind.CONTROLLER_TICK)

    # ------------------------------------------------------------------
    # decision application
    # ------------------------------------------------------------------
    def _apply_decision(self, decision: ScalingDecision) -> int:
        """Apply launches/terminations; returns terminations accepted.

        The count can be smaller than ``len(decision.terminations)`` —
        orders for draining/terminated instances or below the site floor
        are skipped — so telemetry reports what actually happened.
        """
        if decision.launch > 0:
            if self._metrics_on:
                self.metrics.counter("instance.launched").inc(decision.launch)
            for order in self.provisioner.order_launches(decision.launch, self._now):
                self._issue_launch(order)
        applied = 0
        remaining = self.pool.active_size() - len(self._draining)
        for order in decision.terminations:
            if order.instance_id in self._draining:
                continue  # already scheduled for release
            instance = self.pool.get(order.instance_id)
            if instance.state is not InstanceState.RUNNING:
                continue
            if remaining <= self.site.min_instances:
                break
            at = max(order.at, self._now)
            self._draining.add(order.instance_id)
            self.events.push(at, EventKind.INSTANCE_TERMINATE, order.instance_id)
            remaining -= 1
            applied += 1
        return applied

    def _issue_launch(self, order, attempt: int = 1) -> None:
        """Schedule the arrival of one ordered launch.

        With chaos enabled the order is subjected to a provisioning
        outcome roll: it may come back failed after its lag (entering the
        retry/backoff path) or arrive late by the timeout factor.
        ``attempt`` numbers the order within a retry chain (1 = first
        try).
        """
        ready_at = order.ready_at
        if self.launch_jitter > 0.0:
            lag = order.ready_at - self._now
            ready_at = self._now + lag * (
                1.0 - self.launch_jitter * float(self._rng_launch.random())
            )
        iid = order.instance.instance_id
        if self._trace:
            self.tracer.emit(
                InstanceEventRecord(
                    now=self._now, instance_id=iid, event="requested"
                )
            )
        injector = self._chaos_injector
        if injector is None:
            self.events.push(ready_at, EventKind.INSTANCE_READY, iid)
            return
        outcome = injector.provision_outcome(self._now)
        if outcome == "fail":
            # The failure is only *detected* once the lag has elapsed —
            # a real site reports a launch error, not instant rejection.
            self._provision_attempts[iid] = attempt
            self.events.push(ready_at, EventKind.PROVISION_FAILED, iid)
        elif outcome == "timeout":
            factor = injector.spec.provision_timeout_factor
            delayed = self._now + (ready_at - self._now) * factor
            self._count_fault("provision_timeouts")
            if self._trace:
                self.tracer.emit(
                    CloudFaultRecord(
                        now=self._now,
                        fault="provision_timeout",
                        instance_id=iid,
                        attempt=attempt,
                    )
                )
            self.events.push(delayed, EventKind.INSTANCE_READY, iid)
        else:
            self.events.push(ready_at, EventKind.INSTANCE_READY, iid)

    # ------------------------------------------------------------------
    # task dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Feed free slots from the runs' queues.

        Each slot goes to the fullest running, non-draining instance:
        packing tightly (fewest free slots first) keeps marginal
        instances empty so the steering policy can release them cheaply.
        The pool serves it from its free-slot index rather than a scan
        over every instance ever launched.
        """
        while self._has_work():
            instance = self.pool.best_dispatchable(self._draining)
            if instance is None:
                return
            run = self._next_run()
            if run is None:
                return
            local = run.scheduler.pop()
            assert local is not None
            scoped = run.scoped(local)
            task = run.workflow.task(local)
            instance.assign(scoped, self._now)
            run.occupied_slots += 1
            self._assign_at[scoped] = self._now
            run.master.mark_dispatched(local)
            ready = run.ready_at.pop(local, None)
            if ready is not None:
                run.queue_waits.append(self._now - ready)
            run.monitor.record_dispatch(
                local,
                run.workflow.stage_of[local],
                instance.instance_id,
                self._now,
                task.input_size,
                task.output_size,
                ready_time=ready,
            )
            duration = self._stage_in_duration(run, task, instance)
            self._pending_task_event[scoped] = self.events.push(
                self._now + duration, EventKind.STAGE_IN_DONE, scoped
            )

    def _stage_in_duration(self, run: WorkflowRun, task, instance: Instance) -> float:
        """Sample the stage-in time, with placement awareness when the
        transfer model supports it (see LocalityTransferModel)."""
        placed = getattr(self.transfer_model, "stage_in_time_placed", None)
        if placed is None:
            return self.transfer_model.stage_in_time(task, run.rng_transfer)
        return placed(
            task,
            self._local_input_fraction(run, task, instance),
            run.rng_transfer,
        )

    def _local_input_fraction(
        self, run: WorkflowRun, task, instance: Instance
    ) -> float:
        """Fraction of input bytes produced on ``instance`` by parents."""
        parents = run.workflow.parents(task.task_id)
        if not parents:
            return 0.0
        total = 0.0
        local = 0.0
        for parent_id in parents:
            parent = run.workflow.task(parent_id)
            total += parent.output_size
            attempts = run.monitor.attempts(parent_id)
            final = next((a for a in reversed(attempts) if a.is_completed), None)
            if final is not None and final.instance_id == instance.instance_id:
                local += parent.output_size
        if total <= 0.0:
            return 0.0
        return local / total

    # ------------------------------------------------------------------
    # trace emission (call sites are guarded by ``self._trace``)
    # ------------------------------------------------------------------
    def _emit_attempt(
        self, run: WorkflowRun, local: str, scoped: str, outcome: str, now: float
    ) -> None:
        """Emit the closing record for a task attempt.

        Called after the monitor closed the attempt (complete/kill), so
        the derived timings below are final.
        """
        attempt = run.monitor.current_attempt(local)
        self.tracer.emit(
            TaskAttemptRecord(
                now=now,
                task_id=scoped,
                stage_id=attempt.stage_id,
                attempt=attempt.attempt,
                instance_id=attempt.instance_id,
                outcome=outcome,
                queue_wait=attempt.queue_wait,
                stage_in=attempt.stage_in_time,
                runtime=attempt.execution_time,
                stage_out=attempt.stage_out_time,
                occupancy=attempt.occupancy_elapsed(now),
                input_size=attempt.input_size,
            )
        )

    def _emit_instance_end(self, instance: Instance, now: float, event: str) -> None:
        """Emit a terminal instance event with its final billing summary."""
        units, paid, busy, idle, wasted = self.pool.instance_utilization(
            instance, now
        )
        self.tracer.emit(
            InstanceEventRecord(
                now=now,
                instance_id=instance.instance_id,
                event=event,
                units_charged=units,
                paid_seconds=paid,
                busy_slot_seconds=busy,
                idle_fraction=idle,
                wasted_seconds=wasted,
            )
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _record_pool_change(self, now: float) -> None:
        count = self.pool.running_count()
        if self._timeline and self._timeline[-1][0] == now:
            self._timeline[-1] = (now, count)
        else:
            self._timeline.append((now, count))


class Simulation(EngineCore):
    """One workflow run under one autoscaling policy.

    Parameters
    ----------
    workflow, site, autoscaler:
        What to run, where, and under which pool-sizing policy.
    charging_unit:
        Billing unit *u* in seconds.
    transfer_model, runtime_model:
        Ground-truth generators for transfers and execution times.
    controller_period:
        MAPE iteration period; defaults to the site's lag as the paper
        prescribes (§III-A).
    boost_k:
        First-*k* per-stage priority boost (paper: 5).
    seed:
        Root seed for all stochastic models.
    max_time:
        Safety horizon; the run is marked incomplete if it exceeds this.
    tracer:
        Structured trace destination (:mod:`repro.telemetry`). Defaults to
        the shared null tracer; every emission site is guarded by a single
        cached boolean, so untraced runs pay one attribute check per
        *potential* record, never record construction.
    metrics:
        Counter/gauge/histogram registry; defaults to the shared no-op
        registry with the same cached-boolean fast path.
    chaos:
        Cloud-fault injection spec (:mod:`repro.cloud.faults`). ``None``
        or a disabled spec leaves the run bit-identical to one with no
        chaos wiring at all: no chaos RNG sub-stream is derived (child
        streams are label-hashed, so the other streams are unaffected
        either way), no chaos events are scheduled, and every chaos call
        site is guarded by a single ``is not None`` check.
    validate:
        Runtime invariant checking (:mod:`repro.validate`). ``None`` or
        ``False`` (default) disables it with the same zero-cost contract
        as chaos — one ``is not None`` check per event, bit-identical
        results. ``True`` attaches a default raise-mode
        :class:`~repro.validate.checker.InvariantChecker`; an explicit
        checker instance is used as-is (pass ``mode="collect"`` to
        gather violations instead of stopping at the first).
    """

    kind = "single"

    def __init__(
        self,
        workflow: Workflow,
        site: CloudSite,
        autoscaler: Autoscaler,
        charging_unit: float,
        *,
        transfer_model: DataTransferModel | None = None,
        runtime_model: TaskRuntimeModel | None = None,
        fault_model: FaultModel | None = None,
        controller_period: float | None = None,
        boost_k: int = 5,
        scheduler: FifoScheduler | None = None,
        launch_jitter: float = 0.0,
        seed: int = 0,
        max_time: float = 1e8,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        chaos: ChaosSpec | None = None,
        validate: object = None,
    ) -> None:
        rng = RngStream(seed=seed, label="simulation")
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
            metrics=metrics,
            chaos=chaos,
            validate=validate,
        )
        self.workflow = workflow
        # A custom scheduler models §III-D's dispatch-order drift; the
        # default is the FIFO order the steering policy assumes.
        self._run = WorkflowRun(
            workflow=workflow,
            scheduler=scheduler if scheduler is not None else FifoScheduler(
                boost_k=boost_k
            ),
            **run_streams(rng),
        )
        self._add_run(self._run)
        self.master = self._run.master
        self.monitor = self._run.monitor
        self.scheduler = self._run.scheduler

    def run(
        self,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: object = None,
        stop_after_checkpoint: bool = False,
    ) -> RunResult | None:
        """Execute the workflow to completion and return measurements.

        ``checkpoint_every=N`` serializes the engine to
        ``checkpoint_path`` at every N-th controller tick (see
        :mod:`repro.checkpoint`); ``stop_after_checkpoint=True`` returns
        ``None`` right after the first checkpoint. A restored simulation
        continues where it stopped and finishes byte-identical to an
        uninterrupted run.
        """
        return self._drive(checkpoint_every, checkpoint_path, stop_after_checkpoint)

    def _label(self) -> str:
        return self.workflow.name

    def _start(self) -> None:
        self._activate(self._run)
        self._dispatch()

    def _has_work(self) -> bool:
        return len(self.scheduler) > 0

    def _next_run(self) -> WorkflowRun:
        return self._run

    def _observe(self, window_start: float, blackout: bool) -> Observation:
        return Observation(
            now=self._now,
            window_start=window_start,
            workflow=self.workflow,
            master=self.master,
            monitor=self.monitor,
            pool=self.pool,
            billing=self.billing,
            site=self.site,
            queued_task_ids=self.scheduler.snapshot(),
            draining_ids=frozenset(self._draining),
            monitor_blackout=blackout,
        )

    def _emit_tick(
        self, launched: int, terminated: int, pool_before: int, observation
    ) -> None:
        counts = self.master.state_counts()
        in_flight = sum(counts[s] for s in TaskExecState if s.occupies_slot)
        branch = "grow" if launched > 0 else ("shrink" if terminated > 0 else "hold")
        extra = self.autoscaler.tick_telemetry()
        controller_detail: dict = {}
        if extra is not None:
            controller_detail = dict(
                target_pool=extra.target_pool,
                q_task=extra.q_task,
                q_remaining=extra.q_remaining,
                transfer_estimate=extra.transfer_estimate,
                stage_predictions=extra.stage_predictions,
            )
        self.tracer.emit(
            ControlTickRecord(
                tick=self._ticks - 1,
                now=self._now,
                pool_before=pool_before,
                pool_after=self.pool.active_size() - len(self._draining),
                launched=launched,
                terminated=terminated,
                branch=branch,
                ready_tasks=counts[TaskExecState.READY],
                in_flight_tasks=in_flight,
                completed_tasks=counts[TaskExecState.COMPLETED],
                **controller_detail,
            )
        )

    def _finalize(self, completed: bool) -> RunResult:
        makespan = self._last_completion if completed else self._now
        self._teardown(makespan)
        result = RunResult(
            workflow_name=self.workflow.name,
            autoscaler_name=self.autoscaler.name,
            charging_unit=self.billing.charging_unit,
            makespan=makespan,
            completed=completed,
            total_units=self.pool.total_units(makespan),
            total_cost=self.pool.total_cost(makespan),
            wasted_seconds=self.pool.total_wasted_time(makespan),
            utilization=self._utilization(makespan),
            peak_instances=max((c for _, c in self._timeline), default=0),
            instances_launched=len(self.pool),
            restarts=self.monitor.total_restarts(),
            ticks=self._ticks,
            controller_cpu_seconds=self._controller_seconds,
            controller_state_bytes=self.autoscaler.state_size_bytes(),
            events_processed=self._events_processed,
            pool_timeline=list(self._timeline),
            monitor=self.monitor,
            cloud_faults=dict(self._cloud_faults),
        )
        if self._trace:
            self._emit_summary(result)
        return result
