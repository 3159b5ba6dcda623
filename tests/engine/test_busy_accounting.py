"""Busy-slot accounting audit (satellite of the invariant-checker PR).

``Instance.busy_slot_seconds`` is accumulated by timed ``assign`` /
``release`` pairs on the engine hot path and is the basis for telemetry
idle fractions and fleet cost attribution. These tests pin it against
:func:`repro.validate.occupancy_integral` — the hand-computed occupancy
integral rebuilt from the monitor's attempt record — on every engine
path that vacates slots: normal completion, task-fault kills, and
cloud-fault revocations (the path that historically dropped intervals by
releasing slots without a timestamp).
"""

from __future__ import annotations

import pytest

from repro.autoscalers import PureReactiveAutoscaler, WireAutoscaler
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.cloud.instance import Instance, InstanceState
from repro.cloud.site import InstanceType
from repro.engine.faults import RandomFaults
from repro.engine.simulator import Simulation
from repro.experiments.harness import default_transfer_model
from repro.fleet.arrivals import PoissonArrivals
from repro.fleet.autoscalers import fleet_autoscaler
from repro.fleet.engine import FleetSimulation
from repro.fleet.policies import allocation_policy
from repro.validate import occupancy_integral
from repro.workloads import chain_workflow, single_stage_workflow, table1_specs


def _run(workload: str, policy_factory, *, seed: int = 0, **kwargs):
    """Run one single-workflow simulation, returning (sim, result)."""
    workflow = table1_specs()[workload].generate(seed)
    sim = Simulation(
        workflow,
        exogeni_site(),
        policy_factory(),
        60.0,
        transfer_model=default_transfer_model(),
        seed=seed,
        **kwargs,
    )
    return sim, sim.run()


def _assert_busy_matches_integral(sim, makespan: float) -> None:
    """Every instance's accumulator equals its attempt-record integral."""
    for instance in sim.pool:
        expected = occupancy_integral(sim.monitor, instance.instance_id, makespan)
        assert instance.busy_slot_seconds == pytest.approx(
            expected, abs=1e-6
        ), (
            f"instance {instance.instance_id} accrued "
            f"{instance.busy_slot_seconds} busy slot-seconds but the "
            f"attempt record integrates to {expected}"
        )


class TestSingleEngine:
    def test_clean_run(self):
        sim, result = _run("tpch6-S", WireAutoscaler)
        assert result.completed
        _assert_busy_matches_integral(sim, result.makespan)
        # the run actually occupied slots
        assert sum(i.busy_slot_seconds for i in sim.pool) > 0.0

    def test_task_fault_kill_path(self):
        sim, result = _run(
            "genome-S",
            WireAutoscaler,
            seed=3,
            fault_model=RandomFaults(probability=0.1, max_attempt=5),
        )
        assert result.completed
        killed = [a for a in sim.monitor.all_attempts() if a.is_killed]
        assert killed, "fault model injected no kills; test exercises nothing"
        _assert_busy_matches_integral(sim, result.makespan)

    def test_revocation_path(self):
        sim, result = _run(
            "tpch6-S",
            PureReactiveAutoscaler,
            seed=1,
            chaos=parse_chaos_spec("revocations=8,stragglers=0.2"),
        )
        assert result.completed
        revoked = [i for i in sim.pool if i.revoked]
        assert revoked, "chaos injected no revocations; pick another seed"
        _assert_busy_matches_integral(sim, result.makespan)

    def test_restart_occupancy_counts_both_attempts(self):
        sim, result = _run(
            "tpch6-S",
            PureReactiveAutoscaler,
            seed=1,
            chaos=parse_chaos_spec("revocations=8,stragglers=0.2"),
        )
        assert result.restarts > 0
        # a restarted task's killed attempt and its completing attempt
        # both contribute occupancy — the totals must still reconcile
        total = sum(i.busy_slot_seconds for i in sim.pool)
        integral = sum(
            a.occupancy_elapsed(result.makespan)
            for a in sim.monitor.all_attempts()
        )
        assert total == pytest.approx(integral, abs=1e-6)


class TestFleetEngine:
    def _run_fleet(self, *, seed: int = 1, chaos=None):
        catalog = {
            "wide": lambda seed: single_stage_workflow(6, 120.0),
            "deep": lambda seed: chain_workflow(4, 60.0),
        }
        submissions = PoissonArrivals(12.0, 3, ("wide", "deep")).generate(seed)
        sim = FleetSimulation(
            submissions,
            catalog,
            exogeni_site(),
            fleet_autoscaler("global-wire"),
            allocation_policy("fair-share"),
            900.0,
            seed=seed,
            chaos=chaos,
        )
        return sim, sim.run()

    def test_tenant_busy_shares_sum_to_instance_accumulator(self):
        sim, result = self._run_fleet()
        assert result.completed
        per_instance: dict[str, float] = {}
        for (iid, _), busy in sim._run_busy.items():
            per_instance[iid] = per_instance.get(iid, 0.0) + busy
        for instance in sim.pool:
            assert per_instance.get(
                instance.instance_id, 0.0
            ) == pytest.approx(instance.busy_slot_seconds, abs=1e-6)

    def test_tenant_busy_shares_under_revocation(self):
        sim, result = self._run_fleet(
            seed=2, chaos=parse_chaos_spec("revocations=8,stragglers=0.2")
        )
        assert any(i.revoked for i in sim.pool), (
            "chaos injected no revocations; pick another seed"
        )
        per_instance: dict[str, float] = {}
        for (iid, _), busy in sim._run_busy.items():
            per_instance[iid] = per_instance.get(iid, 0.0) + busy
        for instance in sim.pool:
            assert per_instance.get(
                instance.instance_id, 0.0
            ) == pytest.approx(instance.busy_slot_seconds, abs=1e-6)

    def test_tenant_busy_matches_monitor_integral(self):
        sim, result = self._run_fleet()
        for tenant in sim.tenants:
            integral = sum(
                a.occupancy_elapsed(result.makespan)
                for a in tenant.monitor.all_attempts()
            )
            share = sum(
                busy
                for (_, idx), busy in sim._run_busy.items()
                if idx == tenant.index
            )
            assert share == pytest.approx(integral, abs=1e-6)


class TestInstanceAccounting:
    """Unit-level: the timed assign/release contract on a bare Instance."""

    def _instance(self) -> Instance:
        itype = InstanceType(name="t", slots=2)
        inst = Instance("i-0", itype, requested_at=0.0)
        inst.mark_running(0.0)
        return inst

    def test_timed_pair_accrues_interval(self):
        inst = self._instance()
        inst.assign("a", 10.0)
        inst.release("a", 25.0)
        assert inst.busy_slot_seconds == pytest.approx(15.0)
        assert inst._assign_times == {}

    def test_untimed_assign_accrues_nothing(self):
        # untimed pairs are the documented standalone-test escape hatch:
        # no timestamp, no accrual — and no stale entry left behind
        inst = self._instance()
        inst.assign("a")
        inst.release("a", 25.0)
        assert inst.busy_slot_seconds == 0.0
        assert inst._assign_times == {}

    def test_occupants_and_assign_times_stay_in_lockstep(self):
        inst = self._instance()
        inst.assign("a", 1.0)
        inst.assign("b", 2.0)
        assert set(inst.occupants) == set(inst._assign_times)
        inst.release("a", 3.0)
        assert set(inst.occupants) == set(inst._assign_times) == {"b"}

    def test_concurrent_occupants_sum(self):
        inst = self._instance()
        inst.assign("a", 0.0)
        inst.assign("b", 5.0)
        inst.release("a", 10.0)
        inst.release("b", 10.0)
        assert inst.busy_slot_seconds == pytest.approx(10.0 + 5.0)
        assert inst.state is InstanceState.RUNNING
