"""Pure invariant checks over engine state.

Each function inspects one subsystem — the instance pool's incremental
indexes, the billing model, the monitor's incremental aggregates, task
conservation, fleet cost attribution — and returns a list of
:class:`Violation` records (empty when the invariant holds). The
functions are deliberately *recomputations*: they rebuild the quantity
under test from first principles (the instances' ``occupants`` sets, the
full attempt history) and compare it against the hand-maintained index
the hot path actually serves, so a drifted index is caught even when
both "look plausible" in isolation.

:class:`~repro.validate.checker.InvariantChecker` orchestrates these at
event/tick boundaries; they are also usable directly in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, is_
from typing import Any

from repro.cloud.billing import _BOUNDARY_EPS, BillingModel
from repro.cloud.instance import Instance, InstanceState
from repro.cloud.pool import InstancePool
from repro.engine.monitor import Monitor, TaskAttempt

__all__ = [
    "InvariantError",
    "Violation",
    "check_billing_instance",
    "committed_units",
    "check_fleet_attribution",
    "check_monitor_aggregates",
    "check_pool_slots",
    "check_task_conservation",
    "occupancy_integral",
]

#: absolute slack for float comparisons on simulation-time quantities
#: (times are sums of many float additions; 1e-6 s is far below any
#: charging unit yet far above accumulated ulp noise)
_TIME_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    ``invariant`` is a stable dotted name (``"pool.free_slot_index"``,
    ``"billing.units_monotone"``, ...) that tests and the fuzz harness
    key on; ``context`` is JSON-serializable detail for the repro dump.
    """

    invariant: str
    time: float
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "context": self.context,
        }


class InvariantError(AssertionError):
    """Raised by a raise-mode checker on the first violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(
            f"[{violation.invariant}] at t={violation.time}: "
            f"{violation.message}"
        )
        self.violation = violation


# ----------------------------------------------------------------------
# pool / slot accounting
# ----------------------------------------------------------------------
def check_pool_slots(pool: InstancePool, now: float) -> list[Violation]:
    """Slot accounting: the pool's incremental indexes == recomputation.

    Rebuilds the free-slot buckets, the task-placement map, and the
    RUNNING/PENDING id sets from each instance's authoritative
    ``state``/``occupants`` and compares them against the indexes the
    dispatch hot path serves (PR 1's optimization), plus per-instance
    capacity and busy-accounting preconditions.
    """
    violations: list[Violation] = []
    running, pending = InstanceState.RUNNING, InstanceState.PENDING
    expected_running: set[str] = set()
    expected_pending: set[str] = set()
    expected_buckets: dict[int, set[str]] = {}
    expected_placement: dict[str, str] = {}
    expected_free = 0
    for instance in pool._instances.values():
        iid = instance.instance_id
        state = instance.state
        occupants = instance.occupants
        if occupants:
            slots = instance.itype.slots
            held = len(occupants)
            if held > slots:
                violations.append(
                    Violation(
                        "slots.capacity",
                        now,
                        f"instance {iid} holds {held} occupants on {slots} slots",
                        {"instance": iid, "occupants": sorted(occupants)},
                    )
                )
            if state is not running:
                violations.append(
                    Violation(
                        "slots.occupied_not_running",
                        now,
                        f"{state.value} instance {iid} still holds "
                        f"occupants {sorted(occupants)}",
                        {"instance": iid, "state": state.value},
                    )
                )
            assign_drift = instance._assign_times.keys() != occupants
            for task_id in occupants:
                expected_placement[task_id] = iid
        else:
            # slots are positive (InstanceType checks), so an empty
            # instance is within capacity; its assign times must be empty
            held = 0
            assign_drift = bool(instance._assign_times)
        if assign_drift:
            violations.append(
                Violation(
                    "slots.assign_times",
                    now,
                    f"instance {iid} occupants and busy-accounting assign "
                    "times disagree (a slot was assigned or vacated "
                    "without a timestamp, undercounting busy_slot_seconds)",
                    {
                        "instance": iid,
                        "occupants": sorted(occupants),
                        "assign_times": sorted(instance._assign_times),
                    },
                )
            )
        busy = instance.busy_slot_seconds
        if busy < -_TIME_TOL:
            violations.append(
                Violation(
                    "slots.busy_non_negative",
                    now,
                    f"instance {iid} busy_slot_seconds {busy} < 0",
                    {"instance": iid, "busy": busy},
                )
            )
        if state is running:
            expected_running.add(iid)
            free = instance.itype.slots - held
            if free > 0:
                expected_free += free
                bucket = expected_buckets.get(free)
                if bucket is None:
                    expected_buckets[free] = {iid}
                else:
                    bucket.add(iid)
        elif state is pending:
            expected_pending.add(iid)

    if expected_running != pool._running_ids:
        violations.append(
            Violation(
                "pool.state_index",
                now,
                "RUNNING id set drifted from instance states",
                {
                    "missing": sorted(expected_running - pool._running_ids),
                    "stale": sorted(pool._running_ids - expected_running),
                },
            )
        )
    if expected_pending != pool._pending_ids:
        violations.append(
            Violation(
                "pool.state_index",
                now,
                "PENDING id set drifted from instance states",
                {
                    "missing": sorted(expected_pending - pool._pending_ids),
                    "stale": sorted(pool._pending_ids - expected_pending),
                },
            )
        )
    # the non-empty buckets must equal the recomputed ones, compared in
    # place rather than copied
    nonempty = 0
    buckets_drifted = False
    for free, bucket in pool._buckets.items():
        if bucket:
            nonempty += 1
            if expected_buckets.get(free) != bucket:
                buckets_drifted = True
                break
    if buckets_drifted or nonempty != len(expected_buckets):
        actual_buckets = {
            free: set(bucket) for free, bucket in pool._buckets.items() if bucket
        }
        violations.append(
            Violation(
                "pool.free_slot_index",
                now,
                "free-slot buckets drifted from occupants recomputation",
                {
                    "expected": {
                        str(k): sorted(v) for k, v in expected_buckets.items()
                    },
                    "actual": {
                        str(k): sorted(v) for k, v in actual_buckets.items()
                    },
                },
            )
        )
    if pool._task_instance != expected_placement:
        extra = set(pool._task_instance) - set(expected_placement)
        missing = set(expected_placement) - set(pool._task_instance)
        moved = {
            t
            for t in set(pool._task_instance) & set(expected_placement)
            if pool._task_instance[t] != expected_placement[t]
        }
        violations.append(
            Violation(
                "pool.placement_index",
                now,
                "task-placement map drifted from occupants recomputation",
                {
                    "stale": sorted(extra),
                    "missing": sorted(missing),
                    "moved": sorted(moved),
                },
            )
        )
    actual_free = pool.free_slots()
    if actual_free != expected_free:
        violations.append(
            Violation(
                "pool.free_slot_total",
                now,
                f"pool.free_slots() == {actual_free} but occupants "
                f"recomputation gives {expected_free}",
                {"actual": actual_free, "expected": expected_free},
            )
        )
    return violations


# ----------------------------------------------------------------------
# billing
# ----------------------------------------------------------------------
def committed_units(
    billing: BillingModel, instance: Instance, now: float
) -> int:
    """Units the instance owes *no matter what happens next*.

    A running instance's ``units_charged`` includes a provisional unit
    the moment a boundary passes — provisional because a release at
    exactly that boundary (Algorithm 2's whole point) rescinds it. The
    committed count is what terminating right now would owe: this is the
    quantity that is monotone non-decreasing over an instance's life,
    while the provisional count may legitimately drop by one at a
    boundary-exact release.
    """
    if instance.started_at is None:
        return 0
    uptime = instance.uptime(now)
    return max(
        1, math.ceil((uptime - _BOUNDARY_EPS) / billing.charging_unit)
    )


def check_billing_instance(
    billing: BillingModel,
    instance: Instance,
    now: float,
    *,
    last_units: int | None = None,
    units_at_termination: int | None = None,
) -> list[Violation]:
    """Billing consistency for one instance as of ``now``.

    - :func:`committed_units` is monotone non-decreasing (vs
      ``last_units``, the committed count recorded at the previous
      check), and ``units_charged`` never undercuts it;
    - a terminated instance is never charged past the termination
      boundary (vs ``units_at_termination``);
    - a never-started instance is charged nothing and is "paid" only
      through its request time;
    - a running instance is always paid through ``now``, its next charge
      lies in ``(0, u]``, and ``next_charge_time == paid_until`` — the
      reconciled charge-boundary convention;
    - ``wasted_time`` is non-negative.
    """
    violations: list[Violation] = []
    iid = instance.instance_id
    u = billing.charging_unit
    units = billing.units_charged(instance, now)
    committed = committed_units(billing, instance, now)
    if last_units is not None and committed < last_units:
        violations.append(
            Violation(
                "billing.units_monotone",
                now,
                f"instance {iid} committed units fell from {last_units} "
                f"to {committed}; billing went backwards",
                {"instance": iid, "before": last_units, "after": committed},
            )
        )
    if units < committed:
        violations.append(
            Violation(
                "billing.undercharged",
                now,
                f"instance {iid} units_charged {units} is below its "
                f"committed count {committed}",
                {"instance": iid, "units": units, "committed": committed},
            )
        )
    if units_at_termination is not None and units != units_at_termination:
        violations.append(
            Violation(
                "billing.charged_after_termination",
                now,
                f"terminated instance {iid} units moved from "
                f"{units_at_termination} to {units}; billing must stop at "
                "the termination/revocation boundary",
                {
                    "instance": iid,
                    "at_termination": units_at_termination,
                    "now": units,
                },
            )
        )
    wasted = billing.wasted_time(instance, now)
    if wasted < -_TIME_TOL:
        violations.append(
            Violation(
                "billing.wasted_non_negative",
                now,
                f"instance {iid} wasted_time {wasted} < 0",
                {"instance": iid, "wasted": wasted},
            )
        )
    if instance.started_at is None:
        if units != 0:
            violations.append(
                Violation(
                    "billing.never_started_free",
                    now,
                    f"never-started instance {iid} charged {units} units",
                    {"instance": iid, "units": units},
                )
            )
        paid = billing.paid_until(instance, now)
        if abs(paid - instance.requested_at) > _TIME_TOL:
            violations.append(
                Violation(
                    "billing.pending_paid_until",
                    now,
                    f"never-started instance {iid} claims paid_until="
                    f"{paid}, expected its requested_at "
                    f"{instance.requested_at}",
                    {"instance": iid, "paid_until": paid},
                )
            )
        return violations
    if instance.state is InstanceState.RUNNING:
        paid = billing.paid_until(instance, now)
        if paid < now - _TIME_TOL:
            violations.append(
                Violation(
                    "billing.paid_through_now",
                    now,
                    f"running instance {iid} paid only through {paid} "
                    f"< now {now}: the unit in progress was never charged",
                    {"instance": iid, "paid_until": paid},
                )
            )
        r = billing.time_to_next_charge(instance, now)
        if not 0.0 < r <= u + _TIME_TOL:
            violations.append(
                Violation(
                    "billing.next_charge_range",
                    now,
                    f"running instance {iid} time_to_next_charge {r} "
                    f"outside (0, {u}]",
                    {"instance": iid, "r": r},
                )
            )
        next_charge = billing.next_charge_time(instance, now)
        if abs(next_charge - paid) > _TIME_TOL + 2e-9 * max(1.0, abs(paid)):
            violations.append(
                Violation(
                    "billing.boundary_consistency",
                    now,
                    f"running instance {iid}: next_charge_time "
                    f"{next_charge} != paid_until {paid}; units_charged "
                    "and time_to_next_charge apply different charge-"
                    "boundary conventions",
                    {
                        "instance": iid,
                        "next_charge_time": next_charge,
                        "paid_until": paid,
                    },
                )
            )
    return violations


# ----------------------------------------------------------------------
# monitor aggregates
# ----------------------------------------------------------------------
def check_monitor_aggregates(
    monitor: Monitor, now: float, *, label: str = ""
) -> list[Violation]:
    """Incremental monitor aggregates == brute-force recomputation.

    Guards PR 1's hot-path optimization: ``completed_in_stage`` /
    ``running_in_stage`` / ``transfer_times_between`` are served from
    hand-maintained indexes; here they are recomputed from the full
    per-stage attempt history (the authoritative record) and compared
    element-for-element, order included.
    """
    violations: list[Violation] = []
    tag = f"{label}: " if label else ""
    for stage_id, attempts in monitor._by_stage.items():
        expected_completed = [a for a in attempts if a.is_completed]
        actual_completed = monitor.completed_in_stage(stage_id)
        if not _same_objects(expected_completed, actual_completed):
            violations.append(
                Violation(
                    "monitor.completed_in_stage",
                    now,
                    f"{tag}stage {stage_id}: incremental completed list "
                    "drifted from the attempt-history scan",
                    {
                        "stage": stage_id,
                        "expected": [a.task_id for a in expected_completed],
                        "actual": [a.task_id for a in actual_completed],
                    },
                )
            )
        expected_running = [a for a in attempts if a.in_flight]
        actual_running = monitor.running_in_stage(stage_id)
        if not _same_objects(expected_running, actual_running):
            violations.append(
                Violation(
                    "monitor.running_in_stage",
                    now,
                    f"{tag}stage {stage_id}: incremental in-flight list "
                    "drifted from the attempt-history scan",
                    {
                        "stage": stage_id,
                        "expected": [a.task_id for a in expected_running],
                        "actual": [a.task_id for a in actual_running],
                    },
                )
            )
    expected_transfers = _reference_transfer_times(monitor, -1.0, now)
    actual_transfers = monitor.transfer_times_between(-1.0, now)
    if expected_transfers != actual_transfers:
        violations.append(
            Violation(
                "monitor.transfer_observations",
                now,
                f"{tag}incremental transfer-observation log drifted from "
                "the attempt-history scan",
                {
                    "expected_n": len(expected_transfers),
                    "actual_n": len(actual_transfers),
                },
            )
        )
    return violations


def _same_objects(expected: list, actual: list) -> bool:
    """The two lists hold the same objects, by identity, in order."""
    return len(expected) == len(actual) and all(map(is_, expected, actual))


#: an attempt's position in the historical all-attempts scan
_SCAN_ORDER = attrgetter("_task_order", "attempt")


def _reference_transfer_times(
    monitor: Monitor, t0: float, t1: float
) -> list[float]:
    """The historical full-scan implementation of transfer_times_between:
    attempts in first-dispatch order, stage-in before stage-out within an
    attempt, keeping durations that finished in ``(t0, t1]``."""
    ordered: list[TaskAttempt] = sorted(
        monitor.all_attempts(), key=_SCAN_ORDER
    )
    durations: list[float] = []
    for attempt in ordered:
        if attempt.exec_start is not None and t0 < attempt.exec_start <= t1:
            durations.append(attempt.stage_in_time or 0.0)
        if (
            attempt.complete_time is not None
            and t0 < attempt.complete_time <= t1
        ):
            durations.append(attempt.stage_out_time or 0.0)
    return durations


# ----------------------------------------------------------------------
# task conservation
# ----------------------------------------------------------------------
def check_task_conservation(
    task_ids,
    monitor: Monitor,
    now: float,
    *,
    completed_run: bool = True,
    label: str = "",
) -> list[Violation]:
    """Every task completes exactly once; attempt accounting balances.

    On a completed run each DAG task must have exactly one completed
    attempt, every other attempt must be killed (a restart), and no
    attempt may be simultaneously completed and killed or still in
    flight after finalization.
    """
    violations: list[Violation] = []
    tag = f"{label}: " if label else ""
    for task_id in task_ids:
        attempts = monitor.attempts(task_id)
        completed = [a for a in attempts if a.is_completed]
        if completed_run and len(completed) != 1:
            violations.append(
                Violation(
                    "tasks.completed_once",
                    now,
                    f"{tag}task {task_id} completed {len(completed)} times "
                    "on a completed run (expected exactly once)",
                    {"task": task_id, "completions": len(completed)},
                )
            )
        elif not completed_run and len(completed) > 1:
            violations.append(
                Violation(
                    "tasks.completed_once",
                    now,
                    f"{tag}task {task_id} completed {len(completed)} times",
                    {"task": task_id, "completions": len(completed)},
                )
            )
        for attempt in attempts:
            if attempt.is_completed and attempt.is_killed:
                violations.append(
                    Violation(
                        "tasks.attempt_accounting",
                        now,
                        f"{tag}task {task_id} attempt {attempt.attempt} is "
                        "both completed and killed",
                        {"task": task_id, "attempt": attempt.attempt},
                    )
                )
            elif attempt.in_flight:
                violations.append(
                    Violation(
                        "tasks.attempt_accounting",
                        now,
                        f"{tag}task {task_id} attempt {attempt.attempt} "
                        "still in flight after finalization",
                        {"task": task_id, "attempt": attempt.attempt},
                    )
                )
    return violations


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def check_fleet_attribution(
    total_cost: float,
    attributed_costs,
    unattributed_cost: float,
    now: float,
) -> list[Violation]:
    """Per-tenant cost shares (plus the operator's unattributed share)
    must sum to the pool's bill."""
    share_sum = sum(attributed_costs) + unattributed_cost
    tol = 1e-6 * max(1.0, abs(total_cost))
    if abs(share_sum - total_cost) > tol:
        return [
            Violation(
                "fleet.cost_shares",
                now,
                f"attributed {sum(attributed_costs)} + unattributed "
                f"{unattributed_cost} = {share_sum} != pool bill "
                f"{total_cost}",
                {
                    "attributed": list(attributed_costs),
                    "unattributed": unattributed_cost,
                    "total_cost": total_cost,
                },
            )
        ]
    return []


def occupancy_integral(
    monitor: Monitor, instance_id: str, now: float
) -> float:
    """Hand-computed busy-slot integral of one instance from the attempt
    record: sum over attempts placed on it of (end − dispatch), where end
    is completion, kill, or ``now`` for in-flight attempts. The engine's
    timed assign/release pairs must accumulate exactly this into
    ``Instance.busy_slot_seconds``."""
    return sum(
        a.occupancy_elapsed(now)
        for a in monitor.all_attempts()
        if a.instance_id == instance_id
    )
