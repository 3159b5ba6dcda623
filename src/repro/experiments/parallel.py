"""Campaign/sweep fan-out over the pluggable executor layer.

:func:`~repro.experiments.campaign.run_campaign` fills the §IV matrix one
cell at a time; the cells are fully independent (each is one seeded
simulation), so the matrix parallelizes embarrassingly. This module is
the thin façade that adapts the two fan-out shapes the experiments use —
:func:`parallel_map` for generic sweeps and
:func:`run_campaign_parallel` for persistent campaign stores — onto
:mod:`repro.experiments.executors`, which owns the actual execution
(inline, or a persistent process pool with a pinned start method).

Determinism: a cell's simulation depends only on its ``(workflow,
policy, charging_unit, seed)`` key — never on scheduling order or which
worker ran it — so every backend produces a byte-identical
store to a serial run (records are persisted in sorted key order).

Failure semantics differ by shape, deliberately:

* :func:`parallel_map` treats a worker exception as deterministic and
  raises it immediately — the same ``fn`` invocation count at ``jobs=1``
  and ``jobs=N``, never paying twice for a reproducible failure. Only
  crash-like failures (a worker process dying) are retried, free of
  charge, by the backend.
* :func:`run_campaign_parallel` isolates failures per cell: an
  executed-and-failed cell is retried once (attempts are charged only
  when the cell itself ran and raised) and then reported as a
  :class:`FailedCell` rather than aborting the remaining matrix.

Policy factories are sent to workers by pickling when possible; the
standard §IV-C factories from
:func:`~repro.experiments.harness.policy_factories` are closures (not
picklable), so those are shipped by *name* and rebuilt inside the worker
against the campaign's site.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.cloud.faults import ChaosSpec
from repro.cloud.site import CloudSite, exogeni_site
from repro.engine.control import Autoscaler
from repro.experiments.campaign import (
    CampaignStore,
    CellKey,
    CellRecord,
    cell_trace_path,
    missing_cells,
    record_from_result,
)
from repro.experiments.executors import (
    ExecutorBackend,
    SerialBackend,
    TaskOutcome,
    resolve_backend,
)
from repro.experiments.harness import policy_factories, run_setting
from repro.workloads.base import StagedWorkflowSpec

__all__ = ["FailedCell", "parallel_map", "run_campaign_parallel"]

#: one campaign cell may execute-and-fail at most this many times in total
_MAX_ATTEMPTS = 2


def _run_batch(fn, batch: list) -> list:
    """Worker entry point for one :func:`parallel_map` chunk."""
    return [fn(item) for item in batch]


def parallel_map(
    fn,
    items: Sequence,
    *,
    jobs: int = 1,
    chunk: int | None = None,
    backend: str | ExecutorBackend | None = None,
) -> list:
    """Fan a picklable function over independent items, order-preserving.

    The generic sibling of :func:`run_campaign_parallel` for experiments
    whose cells aren't campaign records (e.g. the fleet arrival-rate
    sweep). Results come back in ``items`` order regardless of which
    worker finished first, so every backend is result-identical for
    deterministic ``fn``.

    Items ship in chunks of ``chunk`` per task (default: the smallest
    size that still gives every worker four waves of work, the
    work-stealing sweet spot for heterogeneous item durations), so the
    future round-trip amortizes across the batch instead of repeating
    per item. An exception raised by ``fn`` is deterministic and raises
    immediately — ``fn`` runs exactly once per item on every backend —
    while crash-like worker deaths are retried free by the backend.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if chunk is not None and chunk < 1:
        raise ValueError("chunk must be >= 1")
    the_backend = resolve_backend(backend, jobs=jobs)
    if isinstance(the_backend, SerialBackend) or len(items) <= 1:
        the_backend = SerialBackend()
        batches = [list(items)] if items else []
    else:
        if chunk is None:
            # four waves of chunks per worker, using the backend's own
            # worker count when it carries one (an explicit instance)
            wave_jobs = max(getattr(the_backend, "jobs", 0) or jobs, 1)
            chunk = max(1, -(-len(items) // (wave_jobs * 4)))
        batches = [list(items[i : i + chunk]) for i in range(0, len(items), chunk)]
    outcomes = the_backend.run(_run_batch, batches, context=fn, max_attempts=1)
    for outcome in outcomes:
        if not outcome.ok:
            if outcome.exception is not None:
                raise outcome.exception
            raise RuntimeError(
                f"parallel_map chunk {outcome.index} failed: {outcome.error}"
            )
    return [result for outcome in outcomes for result in outcome.value]


@dataclass(frozen=True)
class FailedCell:
    """A matrix cell that failed on all its charged attempts."""

    key: CellKey
    error: str


def _factory_payload(
    name: str, factory: Callable[[], Autoscaler]
) -> tuple[str, bytes | str]:
    """How to ship one policy factory to a worker.

    Returns ``("pickle", blob)`` when the factory round-trips through
    pickle, else ``("name", policy_name)`` for the worker to rebuild via
    :func:`policy_factories`. Anything neither picklable nor a standard
    policy name cannot cross the process boundary.
    """
    try:
        return ("pickle", pickle.dumps(factory))
    except Exception:
        pass
    if name in policy_factories(include_oracle=True):
        return ("name", name)
    raise ValueError(
        f"policy factory {name!r} is not picklable and is not a standard "
        "policy name; use the serial backend or make the factory "
        "picklable (e.g. a class or a module-level function)"
    )


def _run_cell(
    key: CellKey,
    spec: StagedWorkflowSpec,
    payload: tuple[str, bytes | str | Callable[[], Autoscaler]],
    site: CloudSite,
    trace_dir: str | None = None,
    chaos: ChaosSpec | None = None,
    validate: object = None,
) -> CellRecord:
    """Execute one cell, return its summary record.

    Each cell traces to its own key-derived file, so concurrent workers
    never share a file handle and a retried attempt overwrites cleanly.
    ``chaos`` is plain frozen data, so it crosses the process boundary by
    ordinary pickling and the cell's fault draws are identical to an
    inline run's.
    """
    mode, blob = payload
    if mode == "direct":  # serial backend: no process boundary to cross
        factory = blob
    elif mode == "pickle":
        factory = pickle.loads(blob)  # type: ignore[arg-type]
    else:
        factory = policy_factories(site, include_oracle=True)[blob]
    result = run_setting(
        spec,
        factory,
        key.charging_unit,
        seed=key.seed,
        site=site,
        trace_path=(
            cell_trace_path(trace_dir, key) if trace_dir is not None else None
        ),
        chaos=chaos,
        validate=validate,
    )
    return record_from_result(key, result)


def _cell_worker(context: tuple, key: CellKey) -> CellRecord:
    """Backend worker entry point: one cell against the shared context.

    The context tuple (specs, factory payloads, site, trace dir, chaos,
    validate) crosses the process boundary once per worker via the
    backend's context-shipping channel instead of being re-pickled for
    every submitted cell.
    """
    specs, payloads, site, trace_dir, chaos, validate = context
    return _run_cell(
        key,
        specs[key.workflow],
        payloads[key.policy],
        site,
        trace_dir,
        chaos,
        validate,
    )


def run_campaign_parallel(
    store: CampaignStore,
    specs: Mapping[str, StagedWorkflowSpec],
    policies: Mapping[str, Callable[[], Autoscaler]],
    charging_units: Sequence[float],
    seeds: Sequence[int],
    *,
    site: CloudSite | None = None,
    jobs: int = 1,
    save_every: int = 8,
    trace_dir: str | Path | None = None,
    chaos: ChaosSpec | None = None,
    validate: object = None,
    backend: str | ExecutorBackend | None = None,
) -> tuple[list[CellRecord], int, list[FailedCell]]:
    """Fill the matrix's missing cells through an executor backend.

    Returns ``(all records, #new, failed cells)``. ``backend=None``
    picks ``serial`` at ``jobs=1`` and the process pool otherwise.
    Whatever runs the cells, the resulting store is
    byte-identical to a serial
    :func:`~repro.experiments.campaign.run_campaign` over the same
    matrix. The store is saved after every ``save_every`` completions
    and always flushed on return or on any exception. ``trace_dir``
    gives every executed cell its own JSONL telemetry file (written by
    the worker that ran the cell); the per-cell trace bytes match a
    serial run's because the engine is deterministic per cell key.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if save_every < 1:
        raise ValueError("save_every must be >= 1")
    the_site = site or exogeni_site()
    the_trace_dir = str(trace_dir) if trace_dir is not None else None
    todo = missing_cells(store, specs, policies, charging_units, seeds)
    the_backend = resolve_backend(backend, jobs=jobs)
    if backend is None and len(todo) <= 1:
        the_backend = SerialBackend()  # a pool for one cell is pure overhead
    if isinstance(the_backend, SerialBackend):
        payloads: dict[str, tuple] = {
            name: ("direct", factory) for name, factory in policies.items()
        }
    else:
        payloads = {
            name: _factory_payload(name, factory)
            for name, factory in policies.items()
        }
    context = (dict(specs), payloads, the_site, the_trace_dir, chaos, validate)

    executed = 0
    failed: list[FailedCell] = []

    def on_result(outcome: TaskOutcome) -> None:
        nonlocal executed
        if outcome.ok:
            store.put(outcome.value)
            executed += 1
            if store.dirty >= save_every:
                store.save()
        else:
            failed.append(FailedCell(todo[outcome.index], outcome.error))

    try:
        the_backend.run(
            _cell_worker,
            todo,
            context=context,
            max_attempts=_MAX_ATTEMPTS,
            on_result=on_result,
        )
    finally:
        store.flush()
    failed.sort(
        key=lambda f: (f.key.workflow, f.key.policy, f.key.charging_unit, f.key.seed)
    )
    return store.records(), executed, failed
