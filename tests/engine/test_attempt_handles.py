"""Finished task attempts leave no cyclic garbage behind.

Each in-flight attempt is an ``AttemptHandle`` that points at its queued
event while that event carries the handle as payload. The engine breaks
that cycle when the attempt completes, fails, is killed or is torn down;
otherwise every finished attempt would wait for the cyclic collector and
a genome-scale run's peak memory would grow. Under ``DEBUG_SAVEALL`` the
collector keeps whatever it finds unreachable in ``gc.garbage``, so no
handle and no event may show up there. The engine itself stays alive
across the check, so only garbage made during the run counts.
"""

from __future__ import annotations

import gc

import pytest

from repro.autoscalers import WireAutoscaler
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.engine import Event, RandomFaults, Simulation
from repro.engine.simulator import AttemptHandle
from repro.experiments.harness import default_transfer_model
from repro.workloads import table1_specs


def run_collecting_garbage(sim: Simulation):
    """Run ``sim``; return its result and the cyclic garbage it left."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = sim.run()
        gc.collect()
        garbage = [obj for obj in gc.garbage if isinstance(obj, (AttemptHandle, Event))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return result, garbage


def genome_s(**kwargs) -> Simulation:
    return Simulation(
        table1_specs()["genome-S"].generate(0),
        exogeni_site(),
        WireAutoscaler(),
        60.0,
        transfer_model=default_transfer_model(),
        seed=0,
        **kwargs,
    )


@pytest.mark.parametrize(
    "kwargs, check",
    [
        # at u=60 WIRE releases instances with attempts still on them
        pytest.param({}, lambda r: r.restarts > 0, id="wire"),
        pytest.param(
            {"chaos": parse_chaos_spec("revocations=2")},
            lambda r: r.cloud_faults.get("revocation_task_kills", 0) > 0,
            id="revocations",
        ),
        pytest.param(
            {"fault_model": RandomFaults(probability=0.3, max_attempt=3)},
            lambda r: r.monitor.total_failures() > 0,
            id="failed-attempts",
        ),
    ],
)
def test_no_handle_or_event_in_cyclic_garbage(kwargs, check):
    sim = genome_s(**kwargs)
    result, garbage = run_collecting_garbage(sim)
    assert result.completed
    assert check(result), "the run did not exercise the path under test"
    assert garbage == []
    assert sim._inflight == {}


def test_timed_out_run_tears_its_attempts_down():
    sim = genome_s(max_time=600.0)
    result, garbage = run_collecting_garbage(sim)
    assert not result.completed
    assert result.restarts > 0, "no attempt was in flight at the horizon"
    assert garbage == []
    assert sim._inflight == {}
