"""Robustness to imperfect prediction (paper §IV-E, finding 3).

"The WIRE solution is robust to imperfect prediction. For all sample
workflows, there exist stages with 1-6 tasks, at which the prediction
accuracy is more likely to be low. ... WIRE can capture and apply the
observed performance variations within a stage agilely, which is
sufficient to attain low cost even with imperfect prediction."

This experiment makes the claim quantitative on axes the paper could not
sweep on a live testbed: multiplicative runtime noise (co-located
interference, §II-B), injected task faults, and — since the cloud-fault
layer landed — whole-cloud degradations (instance revocation,
provisioning failures, stragglers, monitor blackouts) via
:class:`~repro.cloud.faults.ChaosSpec`. For each degradation level it
runs wire and full-site and reports wire's cost advantage and slowdown —
robustness means the cost advantage survives as predictions get worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.autoscalers import WireAutoscaler, full_site
from repro.cloud.faults import NO_CHAOS, ChaosSpec
from repro.cloud.site import CloudSite, exogeni_site
from repro.engine.faults import NoFaults, RandomFaults
from repro.engine.runtime import PerturbedRuntimeModel
from repro.engine.simulator import Simulation
from repro.experiments.executors import ExecutorBackend
from repro.experiments.harness import default_transfer_model
from repro.experiments.parallel import parallel_map
from repro.workloads import table1_specs
from repro.workloads.base import StagedWorkflowSpec

__all__ = ["RobustnessRow", "robustness_experiment"]


@dataclass(frozen=True)
class RobustnessRow:
    """Wire vs full-site under one degradation level on one workload."""

    workflow: str
    noise_cv: float
    fault_probability: float
    wire_units: int
    static_units: int
    wire_makespan: float
    static_makespan: float
    wire_restarts: int
    #: compact ChaosSpec label for the cell ("none" without cloud faults)
    chaos_label: str = "none"
    #: instance revocations injected into the wire run
    wire_revocations: int = 0
    #: monitor-blackout ticks injected into the wire run
    wire_blackouts: int = 0

    @property
    def cost_advantage(self) -> float:
        """full-site units / wire units (> 1 means wire is cheaper)."""
        return self.static_units / max(self.wire_units, 1)

    @property
    def slowdown(self) -> float:
        """wire makespan / full-site makespan."""
        return self.wire_makespan / self.static_makespan


def _run_robustness_cell(params: tuple) -> RobustnessRow:
    """Worker entry point: wire vs full-site for one degradation cell.

    ``params`` is a flat tuple of plain picklable values (the spec, the
    levels, the frozen :class:`ChaosSpec`, the site), so the grid fans
    out over :func:`~repro.experiments.parallel.parallel_map` with
    worker cells identical to inline ones. Both policy factories are
    rebuilt inside the worker — nothing unpicklable crosses.
    """
    wf_name, spec, cv, fault_p, chaos, charging_unit, seed, the_site = params
    results = {}
    for factory in (WireAutoscaler, lambda: full_site(the_site)):
        result = Simulation(
            spec.generate(seed),
            the_site,
            factory(),
            charging_unit,
            transfer_model=default_transfer_model(),
            runtime_model=PerturbedRuntimeModel(cv=cv),
            fault_model=(
                RandomFaults(probability=fault_p) if fault_p > 0 else NoFaults()
            ),
            seed=seed,
            chaos=chaos,
        ).run()
        results[result.autoscaler_name] = result
    wire = results["wire"]
    static = results["full-site"]
    return RobustnessRow(
        workflow=wf_name,
        noise_cv=cv,
        fault_probability=fault_p,
        wire_units=wire.total_units,
        static_units=static.total_units,
        wire_makespan=wire.makespan,
        static_makespan=static.makespan,
        wire_restarts=wire.restarts,
        chaos_label=chaos.label(),
        wire_revocations=wire.cloud_faults.get("revocations", 0),
        wire_blackouts=wire.cloud_faults.get("blackouts", 0),
    )


def robustness_experiment(
    specs: Mapping[str, StagedWorkflowSpec] | None = None,
    *,
    noise_levels: Sequence[float] = (0.0, 0.2, 0.5),
    fault_levels: Sequence[float] = (0.0, 0.1),
    chaos_levels: Sequence[ChaosSpec] = (NO_CHAOS,),
    charging_unit: float = 60.0,
    seed: int = 0,
    site: CloudSite | None = None,
    jobs: int = 1,
    backend: str | ExecutorBackend | None = None,
) -> list[RobustnessRow]:
    """Sweep degradation levels; returns one row per (workload, level).

    Noise, task faults, and cloud faults are swept jointly along the
    diagonal-free grid (every noise level crossed with every fault level
    crossed with every :class:`ChaosSpec`). The default chaos axis is the
    single disabled spec, preserving the pre-chaos grid shape. Cells are
    independent seeded simulations, so the grid fans out over
    :func:`~repro.experiments.parallel.parallel_map` (``jobs``,
    ``backend``); row order is the serial nested-loop order regardless
    of scheduling.
    """
    the_site = site or exogeni_site()
    if specs is None:
        # Two representative workloads keep the sweep fast by default.
        all_specs = table1_specs()
        specs = {k: all_specs[k] for k in ("tpch1-L", "pagerank-S")}
    cells = [
        (wf_name, spec, cv, fault_p, chaos, charging_unit, seed, the_site)
        for wf_name, spec in sorted(specs.items())
        for cv in noise_levels
        for fault_p in fault_levels
        for chaos in chaos_levels
    ]
    return parallel_map(
        _run_robustness_cell, cells, jobs=jobs, backend=backend
    )
