"""Tests for the shared-site fleet simulation engine."""

from __future__ import annotations

import pytest

from repro.cloud.faults import parse_chaos_spec
from repro.fleet import PoissonArrivals, TraceArrivals, run_fleet


def _fleet(small_catalog, **kwargs):
    kwargs.setdefault(
        "arrivals", PoissonArrivals(12.0, 3, ("wide", "deep"))
    )
    kwargs.setdefault("workload_catalog", small_catalog)
    kwargs.setdefault("charging_unit", 900.0)
    return run_fleet(**kwargs)


class TestCompletion:
    def test_all_tenants_finish(self, small_catalog):
        result = _fleet(small_catalog, seed=1)
        assert result.completed
        assert result.n_tenants == 3
        assert all(t.completed for t in result.tenants)
        assert all(t.makespan > 0 for t in result.tenants)

    def test_total_tasks_conserved(self, small_catalog):
        result = _fleet(small_catalog, seed=1)
        # wide=6 tasks, deep=4 tasks, round-robin wide/deep/wide
        assert sum(t.tasks for t in result.tenants) == 6 + 4 + 6

    @pytest.mark.parametrize("policy", ["fifo", "fair-share", "priority"])
    @pytest.mark.parametrize(
        "autoscaler", ["global-wire", "global-static", "global-reactive"]
    )
    def test_every_policy_autoscaler_pair(self, small_catalog, policy, autoscaler):
        result = _fleet(
            small_catalog, policy=policy, autoscaler=autoscaler, seed=2
        )
        assert result.completed
        assert result.allocation_policy == policy
        assert result.autoscaler_name == autoscaler


class TestDeterminism:
    def test_same_seed_byte_identical_summary(self, small_catalog):
        a = _fleet(small_catalog, seed=5).to_summary_json()
        b = _fleet(small_catalog, seed=5).to_summary_json()
        assert a == b

    def test_different_seed_differs(self, small_catalog):
        a = _fleet(small_catalog, seed=5).to_summary_json()
        b = _fleet(small_catalog, seed=6).to_summary_json()
        assert a != b

    def test_trace_bytes_identical(self, small_catalog, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            _fleet(small_catalog, seed=5, trace_path=path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAttribution:
    def test_attributed_cost_sums_to_total(self, small_catalog):
        result = _fleet(small_catalog, seed=3)
        attributed = sum(t.attributed_cost for t in result.tenants)
        assert attributed + result.unattributed_cost == pytest.approx(
            result.total_cost
        )

    def test_slowdown_at_least_one(self, small_catalog):
        result = _fleet(small_catalog, seed=3)
        for tenant in result.tenants:
            assert tenant.slowdown >= 1.0
            assert tenant.queue_wait_mean >= 0.0


class TestAdmissionControl:
    def test_max_active_serializes_tenants(self, small_catalog):
        burst = TraceArrivals((0.0, 0.0, 0.0), ("wide",))
        free = _fleet(small_catalog, arrivals=burst, seed=4)
        capped = _fleet(small_catalog, arrivals=burst, seed=4, max_active=1)
        assert capped.completed
        # With one tenant admitted at a time the later tenants queue
        # behind whole workflows, so the fleet takes at least as long.
        assert capped.makespan >= free.makespan
        # The admission wait is charged to response time (slowdown), not
        # to per-task queue waits: a held-back tenant has no ready tasks.
        assert capped.mean_slowdown >= free.mean_slowdown
        starts = sorted(
            (t.finished_at - t.makespan, t.finished_at) for t in capped.tenants
        )
        for (_, prev_end), (next_start, _) in zip(starts, starts[1:]):
            assert next_start >= prev_end


class TestChaos:
    def test_chaos_fleet_loses_no_tasks(self, small_catalog):
        chaos = parse_chaos_spec(
            "revocations=0.5,stragglers=0.3,pfail=0.2,blackouts=0.2"
        )
        result = _fleet(small_catalog, seed=9, chaos=chaos)
        assert result.completed
        assert all(t.completed for t in result.tenants)
        assert sum(t.tasks for t in result.tenants) == 6 + 4 + 6

    def test_chaos_fleet_deterministic(self, small_catalog):
        chaos = parse_chaos_spec("revocations=0.5,stragglers=0.3")
        a = _fleet(small_catalog, seed=9, chaos=chaos).to_summary_json()
        b = _fleet(small_catalog, seed=9, chaos=chaos).to_summary_json()
        assert a == b


class TestTelemetry:
    def test_trace_has_fleet_and_tenant_records(self, small_catalog, tmp_path):
        from repro.telemetry import FleetTickRecord, TenantRecord, read_jsonl

        path = tmp_path / "fleet.jsonl"
        _fleet(small_catalog, seed=1, trace_path=path)
        records = read_jsonl(path)
        ticks = [r for r in records if isinstance(r, FleetTickRecord)]
        tenants = [r for r in records if isinstance(r, TenantRecord)]
        assert ticks
        assert len(tenants) == 3
        assert {t.tenant_id for t in tenants} == {"t00", "t01", "t02"}


class TestOneTenantEquivalence:
    """A one-tenant fleet submitted at t=0 runs exactly like Simulation.

    Deterministic models only (nominal runtimes, no transfers, no faults,
    no chaos): the two engines derive their RNG streams under different
    labels, so stochastic models would draw different numbers. The fleet
    handles one extra event, the tenant's arrival.
    """

    @pytest.mark.parametrize("workload", ["genome-S", "tpch6-S", "pagerank-S"])
    @pytest.mark.parametrize("charging_unit", [60.0, 900.0])
    @pytest.mark.parametrize(
        "single_policy, fleet_policy",
        [("full-site", "global-static"), ("pure-reactive", "global-reactive")],
    )
    def test_fleet_of_one_matches_simulation(
        self, workload, charging_unit, single_policy, fleet_policy
    ):
        from repro.autoscalers import PureReactiveAutoscaler, full_site
        from repro.cloud import exogeni_site
        from repro.engine import NominalRuntimeModel, Simulation
        from repro.fleet import (
            FifoPolicy,
            FleetSimulation,
            Submission,
            fleet_autoscaler,
        )
        from repro.workloads import table1_specs

        site = exogeni_site()
        workflow = table1_specs()[workload].generate(0)
        single_autoscaler = (
            full_site(site)
            if single_policy == "full-site"
            else PureReactiveAutoscaler()
        )
        single = Simulation(
            workflow,
            site,
            single_autoscaler,
            charging_unit,
            runtime_model=NominalRuntimeModel(),
        ).run()
        fleet = FleetSimulation(
            [Submission("t00", workload, 0.0, 0)],
            {workload: workflow},
            site,
            fleet_autoscaler(fleet_policy),
            FifoPolicy(),
            charging_unit,
            runtime_model=NominalRuntimeModel(),
        ).run()
        assert fleet.makespan == single.makespan
        assert fleet.total_units == single.total_units
        assert fleet.restarts == single.restarts
        assert fleet.ticks == single.ticks
        assert fleet.events_processed == single.events_processed + 1


class TestBoostK:
    def test_boost_k_reaches_every_tenant_scheduler(self):
        from repro.cloud import exogeni_site
        from repro.fleet import (
            FifoPolicy,
            FleetSimulation,
            Submission,
            fleet_autoscaler,
        )
        from repro.workloads import table1_specs

        workflow = table1_specs()["genome-S"].generate(0)

        def summary(boost_k):
            sim = FleetSimulation(
                [Submission("t00", "genome-S", 0.0, 0)],
                {"genome-S": workflow},
                exogeni_site(),
                fleet_autoscaler("global-wire"),
                FifoPolicy(),
                60.0,
                boost_k=boost_k,
            )
            assert all(t.scheduler.boost_k == boost_k for t in sim.tenants)
            return sim.run().to_summary_json()

        assert summary(0) != summary(5)
