"""Targeted corruption tests for the pure invariant checks.

Each test hand-builds a small consistent structure, verifies the check
passes, then applies *one* corruption and asserts the matching invariant
(and only a sensible set) trips. This is the checker checking the
checker: a rewrite of an invariant that silently stops detecting its
bug class fails here.

``reference_check_pool_slots`` is the straightforward pool check the
checker shipped with, its body kept verbatim as an oracle: it copies every
occupant set and recomputes ``free_slots()`` freely. The production
:func:`check_pool_slots` avoids those copies, so every pool check below
also asserts the same ``Violation`` list (invariant, time, message,
context, order) as the reference, on the hand-built corruptions and on
hypothesis-generated ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.billing import BillingModel
from repro.cloud.instance import Instance, InstanceState, InstanceType
from repro.cloud.pool import InstancePool
from repro.engine.monitor import Monitor
from repro.validate import (
    InvariantError,
    Violation,
    check_billing_instance,
    check_fleet_attribution,
    check_monitor_aggregates,
    check_pool_slots,
    check_task_conservation,
    committed_units,
    occupancy_integral,
)
from repro.validate.invariants import _TIME_TOL


def names(violations) -> set[str]:
    return {v.invariant for v in violations}


def make_pool(slots: int = 2) -> InstancePool:
    return InstancePool(InstanceType(name="t", slots=slots), BillingModel(60.0))


def running_instance(pool: InstancePool, now: float = 0.0) -> Instance:
    inst = pool.create(now)
    inst.mark_running(now)
    return inst


# ----------------------------------------------------------------------
# pool / slot accounting
# ----------------------------------------------------------------------
def reference_check_pool_slots(
    pool: InstancePool, now: float
) -> list[Violation]:
    """The straightforward pool check, kept as the oracle for
    :func:`check_pool_slots`: same checks, violations and order."""
    violations: list[Violation] = []
    expected_running: set[str] = set()
    expected_pending: set[str] = set()
    expected_buckets: dict[int, set[str]] = {}
    expected_placement: dict[str, str] = {}
    for instance in pool:
        iid = instance.instance_id
        slots = instance.itype.slots
        if len(instance.occupants) > slots:
            violations.append(
                Violation(
                    "slots.capacity",
                    now,
                    f"instance {iid} holds {len(instance.occupants)} "
                    f"occupants on {slots} slots",
                    {"instance": iid, "occupants": sorted(instance.occupants)},
                )
            )
        if instance.state is not InstanceState.RUNNING and instance.occupants:
            violations.append(
                Violation(
                    "slots.occupied_not_running",
                    now,
                    f"{instance.state.value} instance {iid} still holds "
                    f"occupants {sorted(instance.occupants)}",
                    {"instance": iid, "state": instance.state.value},
                )
            )
        if set(instance.occupants) != set(instance._assign_times):
            violations.append(
                Violation(
                    "slots.assign_times",
                    now,
                    f"instance {iid} occupants and busy-accounting assign "
                    "times disagree (a slot was assigned or vacated "
                    "without a timestamp, undercounting busy_slot_seconds)",
                    {
                        "instance": iid,
                        "occupants": sorted(instance.occupants),
                        "assign_times": sorted(instance._assign_times),
                    },
                )
            )
        if instance.busy_slot_seconds < -_TIME_TOL:
            violations.append(
                Violation(
                    "slots.busy_non_negative",
                    now,
                    f"instance {iid} busy_slot_seconds "
                    f"{instance.busy_slot_seconds} < 0",
                    {"instance": iid, "busy": instance.busy_slot_seconds},
                )
            )
        if instance.state is InstanceState.RUNNING:
            expected_running.add(iid)
            free = slots - len(instance.occupants)
            if free > 0:
                expected_buckets.setdefault(free, set()).add(iid)
        elif instance.state is InstanceState.PENDING:
            expected_pending.add(iid)
        for task_id in instance.occupants:
            expected_placement[task_id] = iid

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
    actual_buckets = {
        free: set(bucket) for free, bucket in pool._buckets.items() if bucket
    }
    if actual_buckets != expected_buckets:
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
    expected_free = sum(
        free * len(bucket) for free, bucket in expected_buckets.items()
    )
    if pool.free_slots() != expected_free:
        violations.append(
            Violation(
                "pool.free_slot_total",
                now,
                f"pool.free_slots() == {pool.free_slots()} but occupants "
                f"recomputation gives {expected_free}",
                {"actual": pool.free_slots(), "expected": expected_free},
            )
        )
    return violations


def pool_check(pool: InstancePool, now: float) -> list[Violation]:
    """``check_pool_slots``, asserted equal to the reference."""
    found = check_pool_slots(pool, now)
    assert found == reference_check_pool_slots(pool, now)
    return found


class TestPoolSlots:
    def test_clean_pool_passes(self):
        pool = make_pool()
        a = running_instance(pool)
        running_instance(pool)
        pool.create(5.0)  # a PENDING straggler
        a.assign("t1", 1.0)
        assert pool_check(pool, 10.0) == []

    def test_over_capacity(self):
        pool = make_pool(slots=1)
        inst = running_instance(pool)
        inst.assign("t1", 1.0)
        # bypass assign() to overfill the slot set
        inst.occupants.add("t2")
        assert "slots.capacity" in names(pool_check(pool, 10.0))

    def test_occupants_on_non_running_instance(self):
        pool = make_pool()
        inst = running_instance(pool)
        inst.assign("t1", 1.0)
        # bypass mark_terminated's occupants guard
        inst.state = InstanceState.TERMINATED
        found = names(pool_check(pool, 10.0))
        assert "slots.occupied_not_running" in found

    def test_assign_without_timestamp(self):
        pool = make_pool()
        inst = running_instance(pool)
        inst.assign("t1", 1.0)
        # lose the busy-accounting record while keeping the occupant:
        # exactly what an untimed assign on the engine path would do
        del inst._assign_times["t1"]
        assert "slots.assign_times" in names(pool_check(pool, 10.0))

    def test_negative_busy_accumulator(self):
        pool = make_pool()
        inst = running_instance(pool)
        inst.busy_slot_seconds = -1.0
        assert "slots.busy_non_negative" in names(pool_check(pool, 10.0))

    def test_bucket_drift(self):
        pool = make_pool()
        inst = running_instance(pool)
        pool._buckets[2].discard(inst.instance_id)
        found = names(pool_check(pool, 10.0))
        assert "pool.free_slot_index" in found
        assert "pool.free_slot_total" in found

    def test_stale_running_id(self):
        pool = make_pool()
        running_instance(pool)
        pool._running_ids.add("vm-9999")
        assert "pool.state_index" in names(pool_check(pool, 10.0))

    def test_placement_ghost(self):
        pool = make_pool()
        inst = running_instance(pool)
        pool._task_instance["ghost"] = inst.instance_id
        assert "pool.placement_index" in names(pool_check(pool, 10.0))

    def test_placement_moved(self):
        pool = make_pool()
        a = running_instance(pool)
        b = running_instance(pool)
        a.assign("t1", 1.0)
        pool._task_instance["t1"] = b.instance_id
        found = pool_check(pool, 10.0)
        assert "pool.placement_index" in names(found)
        moved = next(
            v for v in found if v.invariant == "pool.placement_index"
        )
        assert moved.context["moved"] == ["t1"]


# ----------------------------------------------------------------------
# billing
# ----------------------------------------------------------------------
class _LyingBilling(BillingModel):
    """BillingModel whose overridden quantities inject one specific lie."""

    def __init__(self, u: float, **lies) -> None:
        super().__init__(u)
        self._lies = lies

    def units_charged(self, instance, now):
        if "units" in self._lies:
            return self._lies["units"]
        return super().units_charged(instance, now)

    def paid_until(self, instance, now):
        if "paid_until" in self._lies:
            return self._lies["paid_until"]
        return super().paid_until(instance, now)

    def next_charge_time(self, instance, now):
        if "next_charge" in self._lies:
            return self._lies["next_charge"]
        return super().next_charge_time(instance, now)

    def wasted_time(self, instance, now):
        if "wasted" in self._lies:
            return self._lies["wasted"]
        return super().wasted_time(instance, now)


def make_running(started_at: float = 0.0) -> Instance:
    inst = Instance(
        instance_id="v",
        itype=InstanceType(name="t", slots=1),
        requested_at=started_at,
    )
    inst.mark_running(started_at)
    return inst


class TestCommittedUnits:
    def test_never_started_owes_nothing(self):
        inst = Instance(
            instance_id="v",
            itype=InstanceType(name="t", slots=1),
            requested_at=0.0,
        )
        assert committed_units(BillingModel(60.0), inst, 100.0) == 0

    def test_first_unit_committed_immediately(self):
        assert committed_units(BillingModel(60.0), make_running(), 0.0) == 1
        assert committed_units(BillingModel(60.0), make_running(), 30.0) == 1

    def test_boundary_exact_release_still_owes_k_units(self):
        # at exactly t=60 a release owes 1 unit, not the provisional 2
        billing = BillingModel(60.0)
        assert committed_units(billing, make_running(), 60.0) == 1
        assert committed_units(billing, make_running(), 60.1) == 2

    @given(
        u=st.floats(min_value=0.5, max_value=10_000, allow_nan=False),
        e1=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        e2=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_monotone_in_time(self, u, e1, e2):
        billing = BillingModel(u)
        inst = make_running(0.0)
        lo, hi = sorted((e1, e2))
        assert committed_units(billing, inst, lo) <= committed_units(
            billing, inst, hi
        )

    @given(
        u=st.floats(min_value=0.5, max_value=10_000, allow_nan=False),
        elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_never_exceeds_units_charged(self, u, elapsed):
        """The provisional count is an upper bound on the committed one."""
        billing = BillingModel(u)
        inst = make_running(0.0)
        assert committed_units(billing, inst, elapsed) <= billing.units_charged(
            inst, elapsed
        )


class TestBillingInstance:
    def test_clean_running_instance_passes(self):
        billing = BillingModel(60.0)
        inst = make_running(0.0)
        assert check_billing_instance(billing, inst, 95.0) == []

    @given(
        u=st.floats(min_value=0.5, max_value=10_000, allow_nan=False),
        start=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_real_billing_never_trips(self, u, start, elapsed):
        """The real BillingModel satisfies every per-instance invariant
        at arbitrary observation times (the checker must be quiet on
        correct code)."""
        billing = BillingModel(u)
        inst = make_running(start)
        now = start + elapsed
        assert check_billing_instance(
            billing, inst, now, last_units=committed_units(billing, inst, now)
        ) == []

    def test_monotonicity_violation(self):
        billing = BillingModel(60.0)
        found = check_billing_instance(
            billing, make_running(0.0), 30.0, last_units=5
        )
        assert "billing.units_monotone" in names(found)

    def test_undercharge(self):
        billing = _LyingBilling(60.0, units=0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.undercharged" in names(found)

    def test_charge_after_termination(self):
        billing = BillingModel(60.0)
        inst = make_running(0.0)
        inst.mark_terminated(90.0)
        # frozen at 2 units; claim only 1 was owed at termination
        found = check_billing_instance(
            billing, inst, 500.0, units_at_termination=1
        )
        assert "billing.charged_after_termination" in names(found)

    def test_never_started_charged(self):
        billing = _LyingBilling(60.0, units=7)
        inst = Instance(
            instance_id="v",
            itype=InstanceType(name="t", slots=1),
            requested_at=5.0,
        )
        assert "billing.never_started_free" in names(
            check_billing_instance(billing, inst, 100.0)
        )

    def test_pending_paid_until(self):
        billing = _LyingBilling(60.0, paid_until=99.0)
        inst = Instance(
            instance_id="v",
            itype=InstanceType(name="t", slots=1),
            requested_at=5.0,
        )
        assert "billing.pending_paid_until" in names(
            check_billing_instance(billing, inst, 100.0)
        )

    def test_unpaid_running_time(self):
        billing = _LyingBilling(60.0, paid_until=10.0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.paid_through_now" in names(found)

    def test_boundary_convention_drift(self):
        billing = _LyingBilling(60.0, next_charge=45.0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.boundary_consistency" in names(found)

    def test_negative_waste(self):
        billing = _LyingBilling(60.0, wasted=-3.0)
        found = check_billing_instance(billing, make_running(0.0), 30.0)
        assert "billing.wasted_non_negative" in names(found)


# ----------------------------------------------------------------------
# monitor aggregates
# ----------------------------------------------------------------------
def populated_monitor() -> Monitor:
    monitor = Monitor()
    for i, task in enumerate(("a", "b", "c")):
        monitor.record_dispatch(task, "s0", "vm-1", float(i), 1e6, 1e6)
        monitor.record_exec_start(task, float(i) + 1.0)
    for task in ("a", "b"):
        monitor.record_exec_end(task, 10.0)
        monitor.record_complete(task, 11.0)
    return monitor


class TestMonitorAggregates:
    def test_clean_monitor_passes(self):
        assert check_monitor_aggregates(populated_monitor(), 20.0) == []

    def test_completed_index_drift(self):
        monitor = populated_monitor()
        monitor._completed_by_stage["s0"].pop()
        found = check_monitor_aggregates(monitor, 20.0)
        assert "monitor.completed_in_stage" in names(found)

    def test_running_index_drift(self):
        monitor = populated_monitor()
        monitor._running_by_stage["s0"].clear()
        found = check_monitor_aggregates(monitor, 20.0)
        assert "monitor.running_in_stage" in names(found)

    def test_transfer_log_drift(self):
        monitor = populated_monitor()
        monitor._transfer_obs.pop()
        found = check_monitor_aggregates(monitor, 20.0)
        assert "monitor.transfer_observations" in names(found)

    def test_label_prefixes_messages(self):
        monitor = populated_monitor()
        monitor._completed_by_stage["s0"].pop()
        found = check_monitor_aggregates(monitor, 20.0, label="tenant-3")
        assert any(v.message.startswith("tenant-3: ") for v in found)


# ----------------------------------------------------------------------
# task conservation
# ----------------------------------------------------------------------
class TestTaskConservation:
    def test_completed_run_clean(self):
        monitor = populated_monitor()
        monitor.record_exec_end("c", 12.0)
        monitor.record_complete("c", 13.0)
        assert check_task_conservation(["a", "b", "c"], monitor, 20.0) == []

    def test_missing_completion(self):
        monitor = populated_monitor()
        monitor.record_kill("c", 12.0)
        found = check_task_conservation(["a", "b", "c"], monitor, 20.0)
        assert "tasks.completed_once" in names(found)

    def test_incomplete_run_tolerates_missing_but_not_double(self):
        monitor = populated_monitor()
        monitor.record_kill("c", 12.0)
        assert (
            check_task_conservation(
                ["a", "b", "c"], monitor, 20.0, completed_run=False
            )
            == []
        )
        # double completion is wrong on any run
        monitor.attempts("a")[0].complete_time = 11.0
        monitor.record_dispatch("a", "s0", "vm-1", 14.0, 1e6, 1e6)
        monitor.record_complete("a", 15.0)
        found = check_task_conservation(
            ["a", "b", "c"], monitor, 20.0, completed_run=False
        )
        assert "tasks.completed_once" in names(found)

    def test_completed_and_killed_attempt(self):
        monitor = populated_monitor()
        monitor.record_exec_end("c", 12.0)
        monitor.record_complete("c", 13.0)
        monitor.attempts("a")[0].killed_at = 11.0
        found = check_task_conservation(["a", "b", "c"], monitor, 20.0)
        assert "tasks.attempt_accounting" in names(found)

    def test_inflight_after_finalization(self):
        monitor = populated_monitor()  # "c" is still in flight
        found = check_task_conservation(["a", "b"], monitor, 20.0)
        # "c" not in task_ids -> clean; now include it
        assert found == []
        found = check_task_conservation(["a", "b", "c"], monitor, 20.0)
        assert "tasks.attempt_accounting" in names(found)


# ----------------------------------------------------------------------
# fleet attribution + occupancy integral
# ----------------------------------------------------------------------
class TestFleetAttribution:
    def test_balanced_shares_pass(self):
        assert check_fleet_attribution(100.0, [40.0, 50.0], 10.0, 5.0) == []

    def test_leaked_share_trips(self):
        found = check_fleet_attribution(100.0, [40.0, 50.0], 0.0, 5.0)
        assert names(found) == {"fleet.cost_shares"}

    def test_zero_cost_fleet_passes(self):
        assert check_fleet_attribution(0.0, [], 0.0, 5.0) == []


class TestOccupancyIntegral:
    def test_completed_killed_and_inflight_attempts(self):
        monitor = Monitor()
        monitor.record_dispatch("a", "s0", "vm-1", 10.0, 0.0, 0.0)
        monitor.record_complete("a", 25.0)  # 15 s
        monitor.record_dispatch("b", "s0", "vm-1", 10.0, 0.0, 0.0)
        monitor.record_kill("b", 20.0)  # 10 s
        monitor.record_dispatch("b", "s0", "vm-2", 21.0, 0.0, 0.0)  # elsewhere
        monitor.record_dispatch("c", "s0", "vm-1", 25.0, 0.0, 0.0)  # in flight
        assert occupancy_integral(monitor, "vm-1", 30.0) == pytest.approx(
            15.0 + 10.0 + 5.0
        )
        assert occupancy_integral(monitor, "vm-2", 30.0) == pytest.approx(9.0)
        assert occupancy_integral(monitor, "vm-9", 30.0) == 0.0


# ----------------------------------------------------------------------
# violation plumbing
# ----------------------------------------------------------------------
class TestViolation:
    def test_to_json_round_trips(self):
        v = Violation("pool.free_slot_index", 12.5, "drift", {"x": 1})
        assert v.to_json() == {
            "invariant": "pool.free_slot_index",
            "time": 12.5,
            "message": "drift",
            "context": {"x": 1},
        }

    def test_invariant_error_carries_violation(self):
        v = Violation("billing.undercharged", 3.0, "short by one unit")
        err = InvariantError(v)
        assert err.violation is v
        assert "billing.undercharged" in str(err)
        assert isinstance(err, AssertionError)


# ----------------------------------------------------------------------
# property: timed assign/release bookkeeping stays consistent
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # which task slot
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        ),
        max_size=30,
    )
)
@settings(max_examples=100)
def test_random_assign_release_keeps_pool_invariants(ops):
    """Any legal timed assign/release interleaving leaves the pool clean
    and accrues exactly the hand-tracked busy integral."""
    pool = make_pool(slots=4)
    inst = running_instance(pool)
    now = 0.0
    expected_busy = 0.0
    held: dict[str, float] = {}
    for slot, dt in ops:
        now += dt
        task = f"task-{slot}"
        if task in held:
            inst.release(task, now)
            expected_busy += now - held.pop(task)
        else:
            inst.assign(task, now)
            held[task] = now
    assert pool_check(pool, now) == []
    assert inst.busy_slot_seconds == pytest.approx(expected_busy)


# ----------------------------------------------------------------------
# property: generated pool corruptions, production check == reference
# ----------------------------------------------------------------------
STATES = list(InstanceState)

#: per instance: its final state, tasks assigned, and how many of them
#: are released again
pool_specs = st.lists(
    st.tuples(
        st.sampled_from(["pending", "running", "terminated"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    max_size=8,
)

#: corruptions, each applied behind the pool's back
CORRUPTIONS = [
    "extra_occupant",
    "missing_occupant",
    "drop_assign_time",
    "renamed_assign_time",
    "flip_state",
    "stale_bucket",
    "drop_bucket",
    "stale_running_id",
    "drop_running_id",
    "stale_pending_id",
    "stale_placement",
    "moved_placement",
    "drop_placement",
    "negative_busy",
]

#: a corruption's target instance and free parameter
targets = st.tuples(st.integers(0, 7), st.integers(0, 11))

#: further corruptions stacked on the first
corruptions = st.lists(
    st.tuples(
        st.sampled_from(CORRUPTIONS), st.integers(0, 7), st.integers(0, 11)
    ),
    max_size=3,
)


def build_pool(specs) -> tuple[InstancePool, float]:
    """A consistent pool built through the public API only."""
    pool = make_pool(slots=3)
    now = 0.0
    task = 0
    for state, assigned, released in specs:
        now += 1.0
        inst = pool.create(now)
        if state == "pending":
            continue
        inst.mark_running(now)
        tasks = [f"t{task + k}" for k in range(assigned)]
        task += assigned
        for task_id in tasks:
            now += 0.5
            inst.assign(task_id, now)
        for task_id in tasks[:released]:
            now += 0.5
            inst.release(task_id, now)
        if state == "terminated":
            for task_id in tasks[released:]:
                inst.release(task_id, now)
            inst.mark_terminated(now)
    return pool, now


def corrupt(pool: InstancePool, corruptions) -> None:
    for kind, pick, n in corruptions:
        instances = list(pool)
        if not instances:
            return
        inst = instances[pick % len(instances)]
        iid = inst.instance_id
        if kind == "extra_occupant":
            inst.occupants.update(f"x{n}-{k}" for k in range(1 + n % 4))
        elif kind == "missing_occupant" and inst.occupants:
            inst.occupants.discard(sorted(inst.occupants)[0])
        elif kind == "drop_assign_time" and inst._assign_times:
            del inst._assign_times[sorted(inst._assign_times)[0]]
        elif kind == "renamed_assign_time" and inst._assign_times:
            task = sorted(inst._assign_times)[0]
            inst._assign_times[f"y{n}"] = inst._assign_times.pop(task)
        elif kind == "flip_state":
            inst.state = STATES[n % len(STATES)]
        elif kind == "stale_bucket":
            pool._buckets.setdefault(1 + n % 4, set()).add(iid)
        elif kind == "drop_bucket":
            for bucket in pool._buckets.values():
                bucket.discard(iid)
        elif kind == "stale_running_id":
            pool._running_ids.add(f"vm-ghost-{n}")
        elif kind == "drop_running_id":
            pool._running_ids.discard(iid)
        elif kind == "stale_pending_id":
            pool._pending_ids.add(iid)
        elif kind == "stale_placement":
            pool._task_instance[f"ghost{n}"] = iid
        elif kind == "moved_placement" and pool._task_instance:
            task = sorted(pool._task_instance)[n % len(pool._task_instance)]
            pool._task_instance[task] = iid
        elif kind == "drop_placement" and pool._task_instance:
            del pool._task_instance[sorted(pool._task_instance)[0]]
        elif kind == "negative_busy":
            inst.busy_slot_seconds = -_TIME_TOL * (2 + n)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=60, deadline=None)
@given(specs=pool_specs, target=targets, more=corruptions)
def test_generated_corruptions_match_reference(kind, specs, target, more):
    pool, now = build_pool(specs)
    assert pool_check(pool, now) == []
    corrupt(pool, [(kind, *target), *more])
    pool_check(pool, now)
