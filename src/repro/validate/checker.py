"""Runtime invariant checker for the simulation engines.

:class:`InvariantChecker` hooks into :class:`~repro.engine.simulator.
Simulation` and :class:`~repro.fleet.engine.FleetSimulation` through the
``validate=`` constructor argument. Both run on the same
:class:`~repro.engine.simulator.EngineCore`, so the checker reads one
shape: the engine's ``runs`` (each with its own master, monitor and
queue), its ownership map, and its per-run busy shares. It follows the
repo's zero-cost-when-disabled contract (the chaos/telemetry pattern): a run
constructed without ``validate`` stores ``None`` and the engine loop pays
a single ``is not None`` check per event — no checker object, no extra
RNG draws, bit-identical results.

With a checker attached the engine calls three hooks:

- ``after_event(sim, event)`` — after every handled event: event-time
  monotonicity, plus (``deep`` mode) a full recomputation of the pool's
  slot indexes. On ``CONTROLLER_TICK`` events the heavier sweeps run
  too: billing consistency for every instance, monitor incremental
  aggregates vs brute force, attempt/instance liveness, and per-run
  busy shares and slot counters.
- ``check_final(sim, result)`` — after finalization: billing frozen past
  the horizon, task conservation, result sanity, and (on a
  :class:`~repro.fleet.result.FleetResult`) cost attribution.
- ``begin_run(sim)`` — before the event loop: pool-side task ids are
  disjoint across runs.

``mode="raise"`` (default) raises :class:`~repro.validate.invariants.
InvariantError` on the first violation; ``mode="collect"`` accumulates
them in :attr:`violations` so a differential-replay run can finish and
report everything it saw.
"""

from __future__ import annotations

from typing import Any

from repro.cloud.instance import InstanceState
from repro.engine.events import Event, EventKind
from repro.fleet.result import FleetResult
from repro.validate.invariants import (
    InvariantError,
    Violation,
    check_billing_instance,
    check_fleet_attribution,
    check_monitor_aggregates,
    check_pool_slots,
    check_task_conservation,
    committed_units,
)

__all__ = ["InvariantChecker"]

#: horizon margin (in charging units) for the billing-frozen final check
_FROZEN_HORIZON_UNITS = 7


class InvariantChecker:
    """Engine-agnostic runtime invariant checker.

    Parameters
    ----------
    mode:
        ``"raise"`` stops the run at the first violation (debugging);
        ``"collect"`` records all violations in :attr:`violations` and
        lets the run finish (differential replay).
    deep:
        When True (default) the pool's slot indexes are recomputed after
        *every* event; when False only at controller ticks. Deep mode
        pins index drift to the exact event that caused it.
    """

    def __init__(self, *, mode: str = "raise", deep: bool = True) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        self.mode = mode
        self.deep = deep
        self.violations: list[Violation] = []
        self.events_checked = 0
        self.ticks_checked = 0
        self._last_event_time: float | None = None
        #: instance id -> committed units at the previous billing sweep
        #: (the monotone quantity; see invariants.committed_units)
        self._last_units: dict[str, int] = {}
        #: instance id -> units_charged observed at/after termination
        self._frozen_units: dict[str, int] = {}

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def begin_run(self, sim: Any) -> None:
        """Pre-loop structural check: task ids are disjoint across runs."""
        self._emit(self._check_ownership(sim))

    def after_event(self, sim: Any, event: Event) -> None:
        """Per-event boundary checks; heavier sweeps at controller ticks."""
        self.events_checked += 1
        violations: list[Violation] = []
        if (
            self._last_event_time is not None
            and event.time < self._last_event_time
        ):
            violations.append(
                Violation(
                    "events.time_monotone",
                    event.time,
                    f"event {event.kind.name} fired at {event.time}, before "
                    f"the previous event's {self._last_event_time}",
                    {
                        "kind": event.kind.name,
                        "previous": self._last_event_time,
                    },
                )
            )
        self._last_event_time = event.time
        now = sim._now
        if self.deep:
            violations += check_pool_slots(sim.pool, now)
        if event.kind is EventKind.CONTROLLER_TICK:
            self.ticks_checked += 1
            if not self.deep:
                violations += check_pool_slots(sim.pool, now)
            violations += self._billing_sweep(sim, now)
            violations += self._monitor_sweep(sim, now)
            violations += self._liveness_sweep(sim, now)
            violations += self._run_sweep(sim, now)
        self._emit(violations)

    def check_final(self, sim: Any, result: Any) -> None:
        """Post-finalization checks on the torn-down run and its result."""
        now = sim._now
        makespan = result.makespan
        violations = check_pool_slots(sim.pool, now)
        violations += self._billing_sweep(sim, makespan)
        violations += self._monitor_sweep(sim, makespan)
        # Billing must be frozen: re-evaluating every (now terminated)
        # instance far past the horizon must charge nothing more.
        horizon = makespan + _FROZEN_HORIZON_UNITS * sim.billing.charging_unit
        for instance in sim.pool:
            if instance.state is not InstanceState.TERMINATED:
                violations.append(
                    Violation(
                        "instances.terminated_at_finalize",
                        makespan,
                        f"instance {instance.instance_id} still "
                        f"{instance.state.value} after finalization",
                        {"instance": instance.instance_id},
                    )
                )
                continue
            violations += check_billing_instance(
                sim.billing,
                instance,
                horizon,
                units_at_termination=sim.billing.units_charged(
                    instance, makespan
                ),
            )
        violations += self._conservation(sim, makespan)
        violations += self._result_sanity(result, makespan)
        violations += self._run_sweep(sim, makespan)
        if isinstance(result, FleetResult):
            violations += check_fleet_attribution(
                result.total_cost,
                [t.attributed_cost for t in result.tenants],
                result.unattributed_cost,
                makespan,
            )
        self._emit(violations)

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def _billing_sweep(self, sim: Any, now: float) -> list[Violation]:
        violations: list[Violation] = []
        billing = sim.billing
        for instance in sim.pool:
            iid = instance.instance_id
            violations += check_billing_instance(
                billing,
                instance,
                now,
                last_units=self._last_units.get(iid),
                units_at_termination=self._frozen_units.get(iid),
            )
            self._last_units[iid] = committed_units(billing, instance, now)
            if (
                instance.state is InstanceState.TERMINATED
                and iid not in self._frozen_units
            ):
                self._frozen_units[iid] = billing.units_charged(instance, now)
        return violations

    def _monitor_sweep(self, sim: Any, now: float) -> list[Violation]:
        violations: list[Violation] = []
        for run in sim.runs:
            violations += check_monitor_aggregates(run.monitor, now, label=run.label)
        return violations

    def _liveness_sweep(self, sim: Any, now: float) -> list[Violation]:
        """Every in-flight attempt runs on a live instance it occupies.

        This is the "no attempt on a TERMINATED/revoked instance" task
        invariant: a kill path that forgot to close the attempt (or to
        vacate the slot) leaves an in-flight attempt pointing at a dead
        or foreign instance.
        """
        violations: list[Violation] = []
        for run in sim.runs:
            tag = f"{run.label}: " if run.label else ""
            for running in run.monitor._running_by_stage.values():
                for attempt in running.values():
                    scoped = run.scoped(attempt.task_id)
                    placed = sim.pool._task_instance.get(scoped)
                    if placed != attempt.instance_id:
                        violations.append(
                            Violation(
                                "tasks.inflight_placement",
                                now,
                                f"{tag}in-flight attempt of {attempt.task_id} "
                                f"claims instance {attempt.instance_id} but "
                                f"the pool places it on {placed}",
                                {
                                    "task": attempt.task_id,
                                    "attempt_instance": attempt.instance_id,
                                    "pool_instance": placed,
                                },
                            )
                        )
                        continue
                    instance = sim.pool.get(attempt.instance_id)
                    if instance.state is not InstanceState.RUNNING:
                        violations.append(
                            Violation(
                                "tasks.inflight_on_dead_instance",
                                now,
                                f"{tag}attempt of {attempt.task_id} is still "
                                f"in flight on {instance.state.value} "
                                f"instance {attempt.instance_id}"
                                + (" (revoked)" if instance.revoked else ""),
                                {
                                    "task": attempt.task_id,
                                    "instance": attempt.instance_id,
                                    "state": instance.state.value,
                                },
                            )
                        )
        return violations

    def _run_sweep(self, sim: Any, now: float) -> list[Violation]:
        """Per-run cross-structure checks.

        - each instance's ``busy_slot_seconds`` equals the summed
          per-run busy shares a fleet's attribution step splits its bill
          by (so attribution draws from the same integral billing does);
        - each run's ``occupied_slots`` counter matches its actual slot
          occupancy across the pool.
        """
        violations: list[Violation] = []
        per_instance: dict[str, float] = {}
        for (iid, _), busy in sim._run_busy.items():
            per_instance[iid] = per_instance.get(iid, 0.0) + busy
        for instance in sim.pool:
            iid = instance.instance_id
            # In-flight occupancy is not yet accrued on either side, so
            # the settled integrals must agree exactly.
            settled = per_instance.get(iid, 0.0)
            if abs(settled - instance.busy_slot_seconds) > 1e-6 * max(
                1.0, instance.busy_slot_seconds
            ):
                violations.append(
                    Violation(
                        "runs.busy_attribution",
                        now,
                        f"instance {iid} accrued {instance.busy_slot_seconds}"
                        f" busy slot-seconds but run shares sum to "
                        f"{settled}; cost attribution would split the bill "
                        "by a different integral than billing charged",
                        {
                            "instance": iid,
                            "instance_busy": instance.busy_slot_seconds,
                            "tenant_sum": settled,
                        },
                    )
                )
        occupancy: dict[int, int] = {}
        for scoped in sim.pool._task_instance:
            owner = sim._owner.get(scoped)
            if owner is None:
                continue  # a foreign id: pool.placement_index reports it
            index = owner[0].index
            occupancy[index] = occupancy.get(index, 0) + 1
        for run in sim.runs:
            actual = occupancy.get(run.index, 0)
            if run.occupied_slots != actual:
                violations.append(
                    Violation(
                        "runs.occupied_slots",
                        now,
                        f"run {run.label or run.index} counter claims "
                        f"{run.occupied_slots} occupied slots but the "
                        f"pool holds {actual} of its tasks",
                        {
                            "run": run.label or run.index,
                            "counter": run.occupied_slots,
                            "actual": actual,
                        },
                    )
                )
        return violations

    def _check_ownership(self, sim: Any) -> list[Violation]:
        expected = sum(len(run.workflow) for run in sim.runs)
        if len(sim._owner) != expected:
            return [
                Violation(
                    "runs.task_ids_disjoint",
                    0.0,
                    f"ownership index holds {len(sim._owner)} scoped ids "
                    f"for {expected} run tasks; scoped ids collide "
                    "across runs",
                    {"owned": len(sim._owner), "expected": expected},
                )
            ]
        return []

    def _conservation(self, sim: Any, makespan: float) -> list[Violation]:
        # A run completes exactly when its master does: the engine ends
        # a run at its last completion and never before.
        violations: list[Violation] = []
        for run in sim.runs:
            violations += check_task_conservation(
                run.workflow.tasks,
                run.monitor,
                makespan,
                completed_run=run.master.is_done(),
                label=run.label,
            )
        return violations

    def _result_sanity(self, result: Any, makespan: float) -> list[Violation]:
        violations: list[Violation] = []
        if result.wasted_seconds < -1e-6:
            violations.append(
                Violation(
                    "result.wasted_non_negative",
                    makespan,
                    f"wasted_seconds {result.wasted_seconds} < 0",
                    {"wasted_seconds": result.wasted_seconds},
                )
            )
        if not 0.0 <= result.utilization <= 1.0:
            violations.append(
                Violation(
                    "result.utilization_range",
                    makespan,
                    f"utilization {result.utilization} outside [0, 1]",
                    {"utilization": result.utilization},
                )
            )
        if result.total_cost < 0.0 or result.total_units < 0:
            violations.append(
                Violation(
                    "result.cost_non_negative",
                    makespan,
                    f"cost {result.total_cost} / units {result.total_units} "
                    "negative",
                    {
                        "total_cost": result.total_cost,
                        "total_units": result.total_units,
                    },
                )
            )
        return violations

    # ------------------------------------------------------------------
    # violation routing
    # ------------------------------------------------------------------
    def _emit(self, violations: list[Violation]) -> None:
        if not violations:
            return
        if self.mode == "raise":
            raise InvariantError(violations[0])
        self.violations.extend(violations)
