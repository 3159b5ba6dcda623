"""The traced tick ≡ its historical form, at every tick.

:meth:`MapeController.tick_telemetry` takes Algorithm 3's target from the
tick's own steering call and its stage predictions from
:meth:`RunState.incomplete_predictions`. The reference
(:func:`controller_oracle.reference_tick_telemetry`) re-runs Algorithm 3
on the tick's Q_task and materializes every estimate to group it. Each
run below compares the two at every traced tick: the records must be
equal and every float bit-equal.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from controller_oracle import reference_tick_telemetry

from repro.autoscalers import OracleAutoscaler, WireAutoscaler
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.core import PredictionPolicy
from repro.core.steering import resize_pool
from repro.engine import TaskExecState
from repro.engine.simulator import Simulation
from repro.experiments.harness import default_transfer_model
from repro.fleet import (
    FleetSimulation,
    PoissonArrivals,
    allocation_policy,
    fleet_workload_catalog,
)
from repro.fleet.autoscalers import GlobalWireAutoscaler
from repro.telemetry import MemorySink, Tracer
from repro.workloads import table1_specs


def _bits(telemetry) -> tuple:
    """Every field, floats as hex: equal only if bit-equal."""
    return (
        telemetry.target_pool,
        telemetry.q_task,
        float(telemetry.q_remaining).hex(),
        float(telemetry.transfer_estimate).hex(),
        tuple(
            (p.stage_id, p.model, p.n_tasks, float(p.mean_estimate).hex())
            for p in telemetry.stage_predictions
        ),
    )


def compared(base):
    """``base`` with every traced tick checked against the reference."""

    class Compared(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.compared_ticks = 0
            self.lazy_ticks = 0

        def plan(self, obs):
            self._obs_units = (obs.charging_unit, obs.site.itype.slots)
            return super().plan(obs)

        def tick_telemetry(self):
            run_state = self._last_run_state
            data = getattr(run_state.estimates, "_data", None)
            held = None if data is None else len(data)
            actual = super().tick_telemetry()
            if data is not None:
                # the lazy walk builds no estimate
                assert len(data) == held
                self.lazy_ticks += 1
            upcoming = self._last_upcoming
            if isinstance(upcoming, np.ndarray):
                upcoming = upcoming.tolist()
            expected = reference_tick_telemetry(
                run_state,
                upcoming,
                *self._obs_units,
                self._steering.restart_threshold_fraction,
            )
            assert actual == expected
            assert _bits(actual) == _bits(expected)
            self.compared_ticks += 1
            return actual

    return Compared


def _run(wf_name, autoscaler, seed=0, **kwargs):
    return Simulation(
        table1_specs()[wf_name].generate(seed),
        exogeni_site(),
        autoscaler,
        60.0,
        transfer_model=default_transfer_model(),
        seed=seed,
        tracer=Tracer(MemorySink()),
        **kwargs,
    ).run()


@pytest.mark.parametrize("wf_name", ["genome-S", "pagerank-S"])
def test_wire_ticks_match_reference(wf_name):
    controller = compared(WireAutoscaler)()
    result = _run(wf_name, controller)
    assert result.completed
    assert controller.compared_ticks == controller.lazy_ticks == result.ticks > 1


@pytest.mark.parametrize("wf_name", ["genome-S", "pagerank-S"])
def test_oracle_ticks_match_reference(wf_name):
    """The oracle's plain-dict run state is grouped from its values."""
    controller = compared(OracleAutoscaler)()
    result = _run(wf_name, controller)
    assert result.completed
    assert controller.compared_ticks == result.ticks > 1
    assert controller.lazy_ticks == 0


def test_blackout_ticks_match_reference():
    controller = compared(WireAutoscaler)()
    result = _run(
        "genome-S",
        controller,
        seed=2,
        chaos=parse_chaos_spec("blackouts=0.5,revocations=2,stragglers=0.3"),
    )
    assert controller.blackout_ticks > 0
    assert result.cloud_faults["revocation_task_kills"] > 0
    assert controller.compared_ticks == result.ticks > 1


def test_overridden_estimate_takes_precedence():
    """An estimate set through ``__setitem__`` is read as it stands."""

    class Overriding(compared(WireAutoscaler)):
        overrides = 0

        def plan(self, obs):
            decision = super().plan(obs)
            estimates = self._last_run_state.estimates
            incomplete = [
                tid
                for tid, phase in obs.master.states.items()
                if phase is not TaskExecState.COMPLETED
            ]
            if incomplete:
                task_id = incomplete[-1]
                estimates[task_id] = dataclasses.replace(
                    estimates[task_id],
                    exec_estimate=estimates[task_id].exec_estimate * 3.0 + 0.1,
                    policy=PredictionPolicy.OGD,
                )
                type(self).overrides += 1
            return decision

    controller = Overriding()
    result = _run("genome-S", controller)
    assert result.completed
    assert Overriding.overrides > 1
    assert controller.compared_ticks == result.ticks


def test_fleet_target_matches_reference():
    """Global WIRE's traced target is Algorithm 3 on the summed Q_task."""

    class Checked(GlobalWireAutoscaler):
        compared_ticks = 0

        def plan(self, obs):
            self._obs_units = (obs.charging_unit, obs.site.itype.slots)
            return super().plan(obs)

        def tick_telemetry(self):
            actual = super().tick_telemetry()
            upcoming = self._last_upcoming.tolist()
            assert actual.target_pool == resize_pool(
                upcoming,
                *self._obs_units,
                tail_threshold_fraction=self._steering.restart_threshold_fraction,
            )
            type(self).compared_ticks += 1
            return actual

    arrivals = PoissonArrivals(4.0, 3, ("tpch6-S", "genome-S"))
    result = FleetSimulation(
        arrivals.generate(0),
        fleet_workload_catalog(),
        exogeni_site(),
        Checked(),
        allocation_policy("fair-share"),
        60.0,
        transfer_model=default_transfer_model(),
        seed=0,
        tracer=Tracer(MemorySink()),
    ).run()
    assert result.completed
    assert Checked.compared_ticks == result.ticks > 1
