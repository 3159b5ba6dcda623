"""The benchmark's five workloads and the output check of every run.

A workload is a fixed list of cells derived from the seed ``S``; one
*pass* runs every cell once, in a fixed order, and returns one
:class:`Run` per cell plus a digest of the pass's output. Runs are
deterministic, so every pass of a workload must reproduce the first
pass's fingerprints exactly, traced or not.

Entry points are looked up through their packages at call time
(``experiments.run_setting``), so the traced pass's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import repro.experiments as experiments
import repro.fleet as fleet
from repro.cloud.faults import parse_chaos_spec
from repro.cloud.site import exogeni_site
from repro.experiments.campaign import CampaignStore
from repro.workloads import table1_specs

import layers

__all__ = ["WORKLOADS", "Pass", "Run", "fingerprint", "make"]

#: the paper's shortest and longest §IV-B charging units
UNITS = (60.0, 900.0)
#: the §IV-C settings compared with WIRE
BASELINES = ("pure-reactive", "reactive-conserving", "full-site")
CHAOS = "revocations=2,pfail=0.3,stragglers=0.2,blackouts=0.1"
CAMPAIGN_WORKFLOWS = ("genome-S", "tpch6-S", "pagerank-S", "tpch1-S")
CAMPAIGN_UNITS = (60.0, 900.0, 1800.0, 3600.0)

#: name -> (why, timed passes when no time budget is given)
WORKLOADS: dict[str, tuple[str, int]] = {
    "genome-wire": (
        "genome-L under WIRE: the event loop is ~80% of wall and the controller the rest",
        25,
    ),
    "genome-baselines": (
        "genome-L under the three baselines: the same events with almost no controller",
        17,
    ),
    "fleet-wire": (
        "24 tenants on FleetSimulation with per-tenant predictors and global steering",
        25,
    ),
    "chaos-checked": (
        "cloud faults, the invariant checker and JSONL traces on S-scale runs",
        10,
    ),
    "campaign-s": (
        "the 128-cell S-scale campaign matrix: per-run fixed costs and store rewrites",
        10,
    ),
}


@dataclass(frozen=True)
class Run:
    """One observed run (a campaign cell counts as one run)."""

    cell: str
    wall_s: float
    events: int
    units: int
    makespan: float
    fingerprint: str
    ok: bool
    trace_bytes: int = 0


@dataclass(frozen=True)
class Pass:
    runs: list[Run]
    digest: str


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _failed(cell: str) -> Run:
    traceback.print_exc()
    return Run(cell, 0.0, 0, 0, 0.0, "error", False)


def fingerprint(result) -> str:
    """Bit-exact summary of one single-workflow run."""
    attempts = sum(1 for _ in result.monitor.all_attempts())
    return " ".join(
        [
            result.makespan.hex(),
            result.total_cost.hex(),
            result.wasted_seconds.hex(),
            str(result.total_units),
            str(result.restarts),
            str(result.ticks),
            str(attempts),
            str(result.events_processed),
        ]
    )


class SettingWorkload:
    """Cells of ``run_setting(workflow, policy, unit, seed)``."""

    def __init__(self, cells, tmp: Path, *, checked: bool = False) -> None:
        self.cells = cells
        self.tmp = tmp
        self.checked = checked
        self.site = exogeni_site()
        self.specs = table1_specs()
        self.factories = experiments.policy_factories(self.site)
        self.chaos = parse_chaos_spec(CHAOS) if checked else None

    def run_pass(self) -> Pass:
        runs = [self._run(*cell) for cell in self.cells]
        return Pass(runs, _sha("\n".join(r.fingerprint for r in runs).encode()))

    def _run(self, workflow: str, policy: str, unit: float, seed: int) -> Run:
        cell = f"{workflow}/{policy}/u{unit:g}/s{seed}"
        extra = {}
        trace = None
        if self.checked:
            trace = self.tmp / f"{workflow}.s{seed}.jsonl"
            extra = dict(chaos=self.chaos, validate=True, trace_path=trace)
        start = time.perf_counter()
        try:
            result = experiments.run_setting(
                self.specs[workflow],
                self.factories[policy],
                unit,
                seed=seed,
                site=self.site,
                **extra,
            )
        except Exception:  # a failed run is counted, and the benchmark goes on
            return _failed(cell)
        wall = time.perf_counter() - start
        fp = fingerprint(result)
        trace_bytes = 0
        if trace is not None:
            data = trace.read_bytes()
            trace_bytes = len(data)
            fp += " " + _sha(data)
        return Run(
            cell,
            wall,
            result.events_processed,
            result.total_units,
            result.makespan,
            fp,
            result.completed,
            trace_bytes,
        )


class FleetWorkload:
    """``run_fleet`` over 24 Poisson arrivals, one cell per seed."""

    def __init__(self, seeds) -> None:
        self.seeds = seeds
        self.arrivals = fleet.make_arrivals("poisson", rate=12.0, n=24)

    def run_pass(self) -> Pass:
        runs = []
        for seed in self.seeds:
            cell = f"fleet/global-wire/u900/s{seed}"
            start = time.perf_counter()
            try:
                result = fleet.run_fleet(
                    arrivals=self.arrivals,
                    policy="fair-share",
                    autoscaler="global-wire",
                    charging_unit=900.0,
                    seed=seed,
                )
            except Exception:  # a failed run is counted, and the benchmark goes on
                runs.append(_failed(cell))
                continue
            wall = time.perf_counter() - start
            runs.append(
                Run(
                    cell,
                    wall,
                    result.events_processed,
                    result.total_units,
                    result.makespan,
                    _sha(result.to_summary_json().encode()),
                    result.completed,
                )
            )
        return Pass(runs, _sha("\n".join(r.fingerprint for r in runs).encode()))


class _TimedStore(CampaignStore):
    """Stamps every ``put``, so each cell's time is the gap between puts."""

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.stamps: list[float] = []
        self.puts = []

    def put(self, record) -> None:
        self.stamps.append(time.perf_counter())
        self.puts.append(record)
        super().put(record)


class CampaignWorkload:
    """One ``run_campaign_parallel`` call into a fresh store per pass."""

    def __init__(self, seeds, tmp: Path) -> None:
        self.seeds = seeds
        self.path = tmp / "campaign.json"
        self.site = exogeni_site()
        specs = table1_specs()
        self.specs = {name: specs[name] for name in CAMPAIGN_WORKFLOWS}
        self.factories = experiments.policy_factories(self.site)
        #: engine events per cell in campaign order, from the first pass
        self.events: list[int] | None = None

    def run_pass(self) -> Pass:
        if self.events is not None:
            return self._campaign()
        # The store keeps no event counts: the first (untimed) pass reads
        # them off run_setting's results. Runs are deterministic, and the
        # output check holds every later pass to this one.
        results = []
        run_setting = experiments.run_setting

        def capture(*args, **kwargs):
            result = run_setting(*args, **kwargs)
            results.append(result.events_processed)
            return result

        patches = layers.Patches()
        patches.function(run_setting, capture)
        try:
            done = self._campaign()
        finally:
            patches.restore()
        self.events = results
        return done

    def _campaign(self) -> Pass:
        self.path.unlink(missing_ok=True)
        store = _TimedStore(self.path)
        start = time.perf_counter()
        try:
            _, _, failed = experiments.run_campaign_parallel(
                store,
                self.specs,
                self.factories,
                CAMPAIGN_UNITS,
                self.seeds,
                site=self.site,
                jobs=1,
            )
        except Exception:  # a failed pass is counted, and the benchmark goes on
            return Pass([_failed("campaign")], "error")
        runs = []
        previous = start
        for index, (stamp, record) in enumerate(zip(store.stamps, store.puts)):
            events = self.events[index] if self.events is not None else 0
            runs.append(
                Run(
                    f"{record.workflow}/{record.policy}/u{record.charging_unit:g}"
                    f"/s{record.seed}",
                    stamp - previous,
                    events,
                    record.total_units,
                    record.makespan,
                    json.dumps(asdict(record), sort_keys=True),
                    record.completed,
                )
            )
            previous = stamp
        runs.extend(Run(str(f.key), 0.0, 0, 0, 0.0, "error", False) for f in failed)
        return Pass(runs, _sha(self.path.read_bytes()))


def make(name: str, seed: int, tmp: Path):
    """Build workload ``name`` for seed ``S = seed``."""
    s = seed
    if name == "genome-wire":
        cells = [("genome-L", "wire", u, s + k) for u in UNITS for k in (0, 1)]
        return SettingWorkload(cells, tmp)
    if name == "genome-baselines":
        cells = [("genome-L", p, u, s) for p in BASELINES for u in UNITS]
        return SettingWorkload(cells, tmp)
    if name == "fleet-wire":
        return FleetWorkload([s + k for k in range(4)])
    if name == "chaos-checked":
        # Faults make a run's cost depend on its seed by up to ~30%; twelve
        # seeds per pass keep the pass's cost nearly independent of S.
        cells = [
            (w, "wire", 60.0, s + k) for w in ("genome-S", "pagerank-S") for k in range(12)
        ]
        return SettingWorkload(cells, tmp, checked=True)
    if name == "campaign-s":
        return CampaignWorkload([s, s + 1], tmp)
    raise ValueError(f"unknown workload {name!r} (options: {', '.join(WORKLOADS)})")
