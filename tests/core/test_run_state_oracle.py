"""The incremental run-state build ≡ the historical full scan, every tick.

Each engine-driven run here swaps in a predictor that, at every MAPE
tick, also builds the run state by the reference full scan
(:func:`controller_oracle.reference_build_run_state`) and asserts the two
agree exactly: estimates (all materialized, in order), the policy tally,
the unfinished-parent topology, the completed count and the in-flight
set. Covered: single WIRE runs, the clairvoyant oracle, a three-tenant
fleet under global WIRE steering and a run whose instances are revoked.
"""

from __future__ import annotations

import pytest
from controller_oracle import assert_same_run_state, reference_build_run_state

import repro.fleet.autoscalers as fleet_autoscalers
from repro.autoscalers import OracleAutoscaler, WireAutoscaler
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.core import TaskPredictor
from repro.dag import WorkflowBuilder
from repro.engine.simulator import Simulation
from repro.experiments.harness import default_transfer_model
from repro.fleet import (
    FleetSimulation,
    PoissonArrivals,
    allocation_policy,
    fleet_autoscaler,
    fleet_workload_catalog,
)
from repro.workloads import table1_specs


def checked(base: type[TaskPredictor]) -> type[TaskPredictor]:
    """``base`` with every run-state build compared against the full scan."""

    class Checked(base):
        builds = 0

        def build_run_state(self, master, monitor, now):
            state = super().build_run_state(master, monitor, now)
            expected = reference_build_run_state(self, master, monitor, now)
            assert_same_run_state(state, expected)
            type(self).builds += 1
            return state

    return Checked


def _run(wf_name, autoscaler, u, seed, **kwargs):
    return Simulation(
        table1_specs()[wf_name].generate(seed),
        exogeni_site(),
        autoscaler,
        u,
        transfer_model=default_transfer_model(),
        seed=seed,
        **kwargs,
    ).run()


class _CheckedWire(WireAutoscaler):
    def _make_predictor(self, workflow):
        self.predictor_class = checked(TaskPredictor)
        return self.predictor_class(workflow, self.config)


@pytest.mark.parametrize(
    "wf_name, u, seed",
    [
        ("genome-S", 60.0, 0),
        ("genome-S", 900.0, 1),
        ("pagerank-S", 60.0, 0),
        ("tpch1-S", 900.0, 0),
    ],
)
def test_single_run_matches_full_scan(wf_name, u, seed):
    autoscaler = _CheckedWire()
    result = _run(wf_name, autoscaler, u, seed)
    assert result.completed
    assert autoscaler.predictor_class.builds == result.ticks > 1


def test_near_equal_sizes_match_full_scan():
    """Distinct input sizes within ``input_size_rtol`` share a Policy 4 group.

    Table I's workflows repeat sizes exactly, so this run jitters each
    map's size by under 1% around three centres: the groups then hold
    several distinct sizes, and the per-size sorted lists are merged.
    """
    sizes = [centre * (1.0 + 0.002 * k) for centre in (1e8, 3e8, 9e8) for k in range(8)]
    builder = WorkflowBuilder("jittered")
    maps = builder.add_stage(
        "map", len(sizes), [size / 4e6 for size in sizes], input_sizes=sizes
    )
    builder.add_stage("reduce", 4, 30.0, parents=maps, input_sizes=1e7)
    autoscaler = _CheckedWire()
    result = Simulation(
        builder.build(),
        exogeni_site(),
        autoscaler,
        60.0,
        transfer_model=default_transfer_model(),
        seed=0,
    ).run()
    assert result.completed
    assert autoscaler.predictor_class.builds == result.ticks > 1


def test_oracle_run_matches_full_scan():
    """The oracle's own topological build ≡ the full scan over its truth."""

    class CheckedOracle(OracleAutoscaler):
        def _make_predictor(self, workflow):
            self.predictor_class = checked(type(super()._make_predictor(workflow)))
            return self.predictor_class(workflow, self.config)

    autoscaler = CheckedOracle()
    result = _run("genome-S", autoscaler, 60.0, 0)
    assert autoscaler.predictor_class.builds == result.ticks > 1


def test_revocation_run_matches_full_scan():
    """Revoked instances kill their tasks; the build tracks the requeues."""
    autoscaler = _CheckedWire()
    result = _run(
        "genome-S",
        autoscaler,
        60.0,
        2,
        chaos=parse_chaos_spec("revocations=6,stragglers=0.3"),
    )
    assert result.cloud_faults.get("revocation_task_kills", 0) > 0
    assert autoscaler.predictor_class.builds == result.ticks > 1


def test_fleet_run_matches_full_scan(monkeypatch):
    """Three tenants, each with its own predictor, under global WIRE."""
    predictor_class = checked(TaskPredictor)
    monkeypatch.setattr(fleet_autoscalers, "TaskPredictor", predictor_class)
    arrivals = PoissonArrivals(4.0, 3, ("tpch6-S", "genome-S"))
    fleet = FleetSimulation(
        arrivals.generate(0),
        fleet_workload_catalog(),
        exogeni_site(),
        fleet_autoscaler("global-wire"),
        allocation_policy("fair-share"),
        60.0,
        transfer_model=default_transfer_model(),
        seed=0,
    )
    result = fleet.run()
    assert result.completed and result.n_tenants == 3
    assert predictor_class.builds >= result.ticks > 1
