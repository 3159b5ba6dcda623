"""Fleet arrival-rate sweep: contention response of the shared site.

The fleet analogue of the §IV experiments: hold the workload mix, the
allocation policy, and the global autoscaler fixed, and sweep the
Poisson arrival rate. As the rate climbs, tenants overlap more, the
summed ``Q_task`` grows, and the per-tenant slowdown / queue-wait curves
show how gracefully each policy absorbs contention (the workload-of-
workflows methodology of Ilyushkin et al., arXiv:1905.10270).

Cells are independent seeded simulations, so the sweep fans out over
:func:`~repro.experiments.parallel.parallel_map`; serial and parallel
runs produce identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cloud.faults import ChaosSpec
from repro.experiments.executors import ExecutorBackend
from repro.experiments.parallel import parallel_map
from repro.fleet.arrivals import PoissonArrivals
from repro.fleet.harness import DEFAULT_FLEET_WORKLOADS, run_fleet
from repro.util.formatting import format_duration, render_table

__all__ = ["FleetSweepRow", "fleet_experiment", "render_fleet_sweep"]


@dataclass(frozen=True)
class FleetSweepRow:
    """One (arrival rate, seed) cell of the fleet sweep."""

    #: mean arrival rate (workflows per hour)
    rate: float
    policy: str
    autoscaler: str
    seed: int
    n_tenants: int
    makespan: float
    total_cost: float
    peak_instances: int
    mean_slowdown: float
    mean_queue_wait: float
    completed: bool


def _run_sweep_cell(params: tuple) -> FleetSweepRow:
    """Worker entry point: one fleet run for one sweep cell.

    ``params`` is a flat tuple of plain values (plus the frozen
    ``ChaosSpec``) so the cell pickles across the process boundary and a
    worker run is identical to an inline one.
    """
    rate, n, workloads, policy, autoscaler, charging_unit, seed, chaos = params
    result = run_fleet(
        arrivals=PoissonArrivals(rate, n, workloads),
        policy=policy,
        autoscaler=autoscaler,
        charging_unit=charging_unit,
        seed=seed,
        chaos=chaos,
    )
    return FleetSweepRow(
        rate=rate,
        policy=result.allocation_policy,
        autoscaler=result.autoscaler_name,
        seed=seed,
        n_tenants=result.n_tenants,
        makespan=result.makespan,
        total_cost=result.total_cost,
        peak_instances=result.peak_instances,
        mean_slowdown=result.mean_slowdown,
        mean_queue_wait=result.mean_queue_wait,
        completed=result.completed,
    )


def fleet_experiment(
    rates: Sequence[float],
    *,
    n: int = 4,
    workloads: Sequence[str] = DEFAULT_FLEET_WORKLOADS,
    policy: str = "fair-share",
    autoscaler: str = "global-wire",
    charging_unit: float = 900.0,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    chaos: ChaosSpec | None = None,
    backend: str | ExecutorBackend | None = None,
) -> list[FleetSweepRow]:
    """Sweep the Poisson arrival rate; one row per ``(rate, seed)`` cell.

    Rows come back sorted by ``(rate, seed)`` whatever the worker (or
    backend) completion order, so serial ≡ process output.
    """
    if not rates:
        raise ValueError("at least one arrival rate is required")
    cells = [
        (float(rate), n, tuple(workloads), policy, autoscaler,
         charging_unit, seed, chaos)
        for rate in rates
        for seed in seeds
    ]
    rows = parallel_map(
        _run_sweep_cell, cells, jobs=jobs, backend=backend
    )
    return sorted(rows, key=lambda r: (r.rate, r.seed))


def render_fleet_sweep(rows: Sequence[FleetSweepRow]) -> str:
    """Render sweep rows as the CLI's text table."""
    if not rows:
        return "no fleet sweep rows"
    first = rows[0]
    return render_table(
        ["rate/h", "seed", "tenants", "makespan", "peak", "cost",
         "mean slowdown", "mean queue wait", "done"],
        [
            [
                f"{row.rate:g}",
                row.seed,
                row.n_tenants,
                format_duration(row.makespan),
                row.peak_instances,
                f"{row.total_cost:.0f}",
                f"{row.mean_slowdown:.2f}x",
                f"{row.mean_queue_wait:.1f}s",
                "yes" if row.completed else "NO",
            ]
            for row in rows
        ],
        title=(
            f"fleet sweep — {first.policy} / {first.autoscaler} "
            f"(n = {first.n_tenants} per cell)"
        ),
    )
