"""Convenience entry point tying the fleet pieces together.

:func:`run_fleet` is what the CLI, the experiments layer, and the tests
call: it resolves workload names, builds the arrival process, and runs a
:class:`~repro.fleet.engine.FleetSimulation` with the paper's default
models (the same defaults the single-workflow harness uses).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from repro.cloud.faults import ChaosSpec
from repro.cloud.site import CloudSite, exogeni_site
from repro.fleet.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.fleet.autoscalers import FleetAutoscaler, fleet_autoscaler
from repro.fleet.engine import FleetSimulation
from repro.fleet.policies import AllocationPolicy, allocation_policy
from repro.fleet.result import FleetResult
from repro.telemetry.sinks import JsonlSink
from repro.telemetry.tracer import Tracer

__all__ = [
    "DEFAULT_FLEET_WORKLOADS",
    "fleet_workload_catalog",
    "make_arrivals",
    "resume_fleet",
    "run_fleet",
]

#: default workload mix for CLI/experiment fleet runs: two small Table I
#: profiles with very different shapes (deep staged scan vs. wide
#: iterative), cycled round-robin over arrivals
DEFAULT_FLEET_WORKLOADS: tuple[str, ...] = ("tpch6-S", "pagerank-S")


def fleet_workload_catalog() -> dict[str, object]:
    """Every workload name a fleet submission may reference.

    Delegates to the central registry (:mod:`repro.zoo.registry`): Table
    I profiles resolve to their spec (realized per-tenant with the
    submission's workflow seed), montage to a seed-taking generator
    adapter, and ``zoo/<instance>`` names to lazily-calibrated specs.
    All entries are picklable, so the catalog crosses sweep-worker
    process boundaries.
    """
    from repro.zoo.registry import workload_catalog

    return workload_catalog()


def make_arrivals(
    arrival: str,
    *,
    rate: float = 4.0,
    n: int = 4,
    burst_size: int = 2,
    gap: float = 1800.0,
    times: Sequence[float] | None = None,
    workloads: Sequence[str] = DEFAULT_FLEET_WORKLOADS,
) -> ArrivalProcess:
    """Build an arrival process from CLI-style parameters."""
    if arrival == "poisson":
        return PoissonArrivals(rate, n, workloads)
    if arrival == "bursty":
        n_bursts = max(1, -(-n // burst_size))  # ceil(n / burst_size)
        return BurstyArrivals(burst_size, n_bursts, gap, workloads)
    if arrival == "trace":
        if not times:
            raise ValueError("trace arrivals need explicit --times")
        return TraceArrivals(times, workloads)
    raise ValueError(
        f"unknown arrival process {arrival!r} (options: bursty, poisson, trace)"
    )


def run_fleet(
    *,
    arrivals: ArrivalProcess,
    policy: AllocationPolicy | str = "fair-share",
    autoscaler: FleetAutoscaler | str = "global-wire",
    charging_unit: float = 900.0,
    seed: int = 0,
    site: CloudSite | None = None,
    workload_catalog: Mapping[str, object] | None = None,
    transfer_model=None,
    runtime_model=None,
    fault_model=None,
    max_time: float = 1e8,
    max_active: int | None = None,
    trace_path: str | Path | None = None,
    chaos: ChaosSpec | None = None,
    validate: object = None,
    checkpoint_every: int | None = None,
    checkpoint_path: str | Path | None = None,
    stop_after_checkpoint: bool = False,
) -> FleetResult | None:
    """Run one fleet simulation end to end and return its result.

    ``validate`` is forwarded to :class:`FleetSimulation` — ``True`` for
    a default raise-mode invariant checker, or a configured
    :class:`~repro.validate.InvariantChecker` instance.
    ``checkpoint_every``/``checkpoint_path`` serialize the engine every
    N controller ticks (:mod:`repro.checkpoint`); with
    ``stop_after_checkpoint`` the run returns ``None`` right after the
    first checkpoint — resume it with :func:`resume_fleet`.
    """
    if isinstance(policy, str):
        policy = allocation_policy(policy)
    if isinstance(autoscaler, str):
        autoscaler = fleet_autoscaler(autoscaler)
    site = site if site is not None else exogeni_site()
    catalog = (
        dict(workload_catalog)
        if workload_catalog is not None
        else fleet_workload_catalog()
    )
    submissions = arrivals.generate(seed)

    sink = JsonlSink(trace_path) if trace_path is not None else None
    tracer = Tracer(sink) if sink is not None else None
    try:
        sim = FleetSimulation(
            submissions,
            catalog,
            site,
            autoscaler,
            policy,
            charging_unit,
            transfer_model=transfer_model,
            runtime_model=runtime_model,
            fault_model=fault_model,
            seed=seed,
            max_time=max_time,
            max_active=max_active,
            tracer=tracer,
            chaos=chaos,
            validate=validate,
        )
        return sim.run(
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            stop_after_checkpoint=stop_after_checkpoint,
        )
    finally:
        if sink is not None:
            sink.close()


def resume_fleet(
    checkpoint: str | Path,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path: str | Path | None = None,
    stop_after_checkpoint: bool = False,
) -> FleetResult | None:
    """Restore a checkpointed fleet run and drive it to completion.

    The checkpoint carries the whole engine — configuration, event
    queue, RNG streams, predictor state, invariant checker, telemetry
    cursor — so no other parameters are needed; the completed run is
    byte-identical to one that was never interrupted. Pass
    ``checkpoint_every``/``checkpoint_path`` to keep checkpointing the
    resumed run (defaults to not writing further checkpoints).
    """
    from repro.checkpoint import CheckpointError, load_checkpoint

    sim = load_checkpoint(checkpoint)
    if not isinstance(sim, FleetSimulation):
        raise CheckpointError(
            f"{checkpoint} holds a {type(sim).__name__}, not a fleet run"
        )
    try:
        return sim.run(
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            stop_after_checkpoint=stop_after_checkpoint,
        )
    finally:
        sim.tracer.close()
