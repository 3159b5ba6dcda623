#!/usr/bin/env python
"""Engine performance benchmark / regression gate.

Measures the discrete-event engine on Fig-5-scale (Table I "L")
workloads — events/sec, tasks/sec, controller µs/tick — plus a small
campaign wall-clock comparison at ``--jobs 1`` vs ``--jobs N``, and
writes the results to ``BENCH_engine.json`` at the repo root.

Modes:

    PYTHONPATH=src python tools/perfbench.py            # measure + write
    PYTHONPATH=src python tools/perfbench.py --check    # regression gate

``--check`` re-measures the engine scenarios and exits nonzero if any
scenario's events/sec regressed more than ``--threshold`` (default 30%),
or any controller time (per-scenario ``controller_us_per_tick`` and the
fleet's ``fleet_controller_us_per_tick``) grew more than
``--controller-threshold`` (default 2x), against the committed
``BENCH_engine.json`` — a coarse tripwire for accidentally reverting a
hot-path optimization, deliberately tolerant of machine-to-machine noise.

A further gate rides on the same threshold: the campaign
``parallel_speedup``, measured for the ``process`` executor backend
against a serial reference — *skipped with
a GitHub Actions ``::notice`` when the host exposes fewer visible CPUs
than campaign workers*, because a speedup measured on an oversubscribed
host reflects queueing, not scaling, and gating on it flakes. The
absolute ≥1.2x floor at ``--jobs 2`` lives in
``benchmarks/bench_fanout.py``, which CI runs on a multi-core runner.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_controller import FULL_FLEET_TENANTS, measure_fleet  # noqa: E402

from repro.cloud.site import exogeni_site  # noqa: E402
from repro.experiments import (  # noqa: E402
    CampaignStore,
    policy_factories,
    run_campaign_parallel,
    run_setting,
)
from repro.experiments.executors import (  # noqa: E402
    ExecutorBackend,
    ProcessBackend,
)
from repro.workloads import table1_specs  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_engine.json"

#: Fig-5-scale single-run scenarios: (name, workload, policy, charging unit)
SCENARIOS = [
    ("genome-L/wire/u60", "genome-L", "wire", 60.0),
    ("genome-L/wire/u900", "genome-L", "wire", 900.0),
    ("pagerank-L/wire/u60", "pagerank-L", "wire", 60.0),
    ("tpch1-L/wire/u60", "tpch1-L", "wire", 60.0),
]

#: Seed-engine wall clocks for the scenarios above (min of 3, measured on
#: the pre-overhaul engine at commit 119f502 on this repo's reference
#: container). Event counts are identical by construction — the overhaul
#: is bit-identical — so seed events/sec = events / seed wall.
SEED_WALL_S = {
    "genome-L/wire/u60": 0.4364,
    "genome-L/wire/u900": 0.8910,
    "pagerank-L/wire/u60": 0.0834,
    "tpch1-L/wire/u60": 0.0276,
}

#: Pre-overhaul controller cost (µs per MAPE tick, best of 3) measured on
#: the same reference container immediately before the incremental /
#: vectorized steering rewrite — the "before" column for the controller
#: speedup the rewrite is gated on.
SEED_CONTROLLER_US = {
    "genome-L/wire/u60": 9744.9,
    "genome-L/wire/u900": 10900.7,
}

#: Small campaign matrix for the jobs=1 vs jobs=N wall-clock comparison.
CAMPAIGN_WORKLOADS = ("tpch1-S", "tpch6-S", "pagerank-S", "genome-S")
CAMPAIGN_POLICIES = ("wire", "pure-reactive")
CAMPAIGN_UNITS = (60.0,)
CAMPAIGN_SEEDS = (0, 1)

#: Parallel executor backends the campaign comparison measures, each
#: against the same serial reference wall clock.
CAMPAIGN_BACKENDS = ("process",)


def campaign_backend(name: str, jobs: int, tmp_dir: Path) -> ExecutorBackend:
    """One measurable backend instance (its scratch state under ``tmp_dir``)."""
    if name == "process":
        return ProcessBackend(jobs=jobs)
    raise ValueError(f"unknown campaign backend {name!r}")


def measure_scenarios(repetitions: int = 3) -> dict[str, dict]:
    """Run each scenario ``repetitions`` times; keep the fastest wall."""
    site = exogeni_site()
    specs = table1_specs()
    factories = policy_factories(site)
    out: dict[str, dict] = {}
    for name, workload, policy, unit in SCENARIOS:
        best = None
        best_ctl = None
        result = None
        for _ in range(repetitions):
            start = time.perf_counter()
            result = run_setting(
                specs[workload], factories[policy], unit, seed=0, site=site
            )
            wall = time.perf_counter() - start
            best = wall if best is None else min(best, wall)
            ctl = 1e6 * result.controller_cpu_seconds / max(1, result.ticks)
            best_ctl = ctl if best_ctl is None else min(best_ctl, ctl)
        assert result is not None and best is not None and best_ctl is not None
        tasks = sum(1 for _ in result.monitor.all_attempts())
        out[name] = {
            "wall_s": round(best, 6),
            "events": result.events_processed,
            "tasks": tasks,
            "ticks": result.ticks,
            "events_per_sec": round(result.events_processed / best, 1),
            "tasks_per_sec": round(tasks / best, 1),
            "controller_us_per_tick": round(best_ctl, 1),
        }
        print(
            f"  {name}: {best:.3f}s  "
            f"{out[name]['events_per_sec']:.0f} ev/s  "
            f"{out[name]['controller_us_per_tick']:.0f} us/tick"
        )
    return out


def measure_campaign(jobs: int, tmp_dir: Path) -> dict:
    """Wall-clock one small campaign: serial, then each parallel backend.

    The serial run is the reference; at ``jobs > 1`` every backend in
    :data:`CAMPAIGN_BACKENDS` runs the same matrix at ``jobs`` workers
    and records its own ``parallel_speedup`` under ``backends``. The
    flat ``jobs1_wall_s`` / ``jobs{N}_wall_s`` keys (the latter the
    process backend's wall) keep the record's historical shape.
    """
    site = exogeni_site()
    specs = {k: v for k, v in table1_specs().items() if k in CAMPAIGN_WORKLOADS}

    def one_run(label: str, n: int, backend: ExecutorBackend | None) -> float:
        store_path = tmp_dir / f"perfbench_campaign_{label}.json"
        store_path.unlink(missing_ok=True)
        policies = {
            k: v for k, v in policy_factories(site).items() if k in CAMPAIGN_POLICIES
        }
        start = time.perf_counter()
        _, executed, failed = run_campaign_parallel(
            CampaignStore(store_path),
            specs,
            policies,
            CAMPAIGN_UNITS,
            CAMPAIGN_SEEDS,
            site=site,
            jobs=n,
            backend=backend,
        )
        wall = time.perf_counter() - start
        store_path.unlink(missing_ok=True)
        if failed:
            raise RuntimeError(f"campaign cells failed: {failed}")
        print(f"  campaign ({executed} cells, {label}): {wall:.2f}s")
        return round(wall, 3)

    out: dict = {"jobs1_wall_s": one_run("jobs1", 1, None)}
    if jobs != 1:
        backends: dict[str, dict] = {}
        for name in CAMPAIGN_BACKENDS:
            wall = one_run(f"{name}-j{jobs}", jobs, campaign_backend(name, jobs, tmp_dir))
            backends[name] = {
                "wall_s": wall,
                "parallel_speedup": round(out["jobs1_wall_s"] / wall, 2),
            }
        out[f"jobs{jobs}_wall_s"] = backends["process"]["wall_s"]
        out["backends"] = backends
    return out


def host_info(jobs: int) -> dict:
    """Honest host facts, so BENCH numbers are interpretable.

    ``cpus`` is the machine's logical CPU count; ``cpus_visible`` is what
    this process may actually use (CPU affinity / container quota). When
    the campaign ran more workers than visible CPUs, the parallel-speedup
    figure measures oversubscription, not scaling — say so in the record
    instead of leaving a mysterious sub-1.0 speedup behind.
    """
    cpus = os.cpu_count() or 1
    try:
        visible = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        visible = cpus
    info: dict = {"cpus": cpus, "cpus_visible": visible, "campaign_jobs": jobs}
    if jobs > visible:
        info["warning"] = (
            f"campaign ran {jobs} workers on {visible} visible CPUs; "
            "parallel_speedup reflects oversubscription, not scaling"
        )
    return info


def measure_fleet_controller(repetitions: int) -> dict:
    """Best-of-``repetitions`` global-steering cost for the fleet bench."""
    row = measure_fleet(FULL_FLEET_TENANTS, rounds=repetitions)
    out = {
        "tenants": FULL_FLEET_TENANTS,
        "ticks": row["ticks"],
        "fleet_controller_us_per_tick": round(row["controller_us_per_tick"], 1),
    }
    print(
        f"  {row['name']}: "
        f"{out['fleet_controller_us_per_tick']:.0f} us/tick"
    )
    return out


def run_measure(jobs: int, repetitions: int) -> dict:
    import tempfile

    print("engine scenarios:")
    engine = measure_scenarios(repetitions)
    print("fleet controller:")
    fleet = measure_fleet_controller(repetitions)
    print("campaign:")
    with tempfile.TemporaryDirectory() as tmp:
        campaign = measure_campaign(jobs, Path(tmp))
    speedups = {
        name: round(SEED_WALL_S[name] / engine[name]["wall_s"], 2)
        for name in SEED_WALL_S
        if name in engine
    }
    ctl_speedups = {
        name: round(
            SEED_CONTROLLER_US[name] / engine[name]["controller_us_per_tick"], 2
        )
        for name in SEED_CONTROLLER_US
        if name in engine
    }
    jobs_key = f"jobs{jobs}_wall_s"
    payload = {
        "host": host_info(jobs),
        "engine": engine,
        "fleet": fleet,
        "seed_baseline_wall_s": SEED_WALL_S,
        "seed_controller_us_per_tick": SEED_CONTROLLER_US,
        "speedup_vs_seed": speedups,
        "controller_speedup_vs_seed": ctl_speedups,
        "campaign": {
            "jobs": jobs,
            **campaign,
            "parallel_speedup": (
                round(campaign["jobs1_wall_s"] / campaign[jobs_key], 2)
                if jobs_key in campaign and jobs != 1
                else 1.0
            ),
        },
    }
    return payload


def run_check(
    jobs: int, repetitions: int, threshold: float, ctl_threshold: float = 1.0
) -> int:
    if not BENCH_PATH.exists():
        print(f"no committed baseline at {BENCH_PATH}; run without --check first")
        return 2
    committed = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    baseline = committed["engine"]
    print("engine scenarios:")
    current = measure_scenarios(repetitions)
    failures = []
    for name, measured in current.items():
        if name not in baseline:
            continue
        base_eps = baseline[name]["events_per_sec"]
        now_eps = measured["events_per_sec"]
        ratio = now_eps / base_eps
        status = "ok" if ratio >= 1.0 - threshold else "REGRESSED"
        print(f"  {name}: {now_eps:.0f} ev/s vs baseline {base_eps:.0f} ({ratio:.2f}x) {status}")
        if ratio < 1.0 - threshold:
            failures.append(name)
        # Controller gate: a generous multiple, because controller time
        # is far noisier than whole-run wall clock on shared hosts — the
        # tripwire is for reintroducing a per-tick quadratic (a 4-10x
        # jump), not for host weather.
        base_ctl = baseline[name].get("controller_us_per_tick")
        if base_ctl:
            now_ctl = measured["controller_us_per_tick"]
            cratio = now_ctl / base_ctl
            cstatus = "ok" if cratio <= 1.0 + ctl_threshold else "REGRESSED"
            print(
                f"  {name}: controller {now_ctl:.0f} us/tick vs baseline "
                f"{base_ctl:.0f} ({cratio:.2f}x) {cstatus}"
            )
            if cratio > 1.0 + ctl_threshold:
                failures.append(f"{name} (controller)")
    base_fleet = committed.get("fleet", {}).get("fleet_controller_us_per_tick")
    if base_fleet:
        print("fleet controller:")
        now_fleet = measure_fleet_controller(repetitions)[
            "fleet_controller_us_per_tick"
        ]
        fratio = now_fleet / base_fleet
        fstatus = "ok" if fratio <= 1.0 + ctl_threshold else "REGRESSED"
        print(
            f"  fleet: {now_fleet:.0f} us/tick vs baseline {base_fleet:.0f} "
            f"({fratio:.2f}x) {fstatus}"
        )
        if fratio > 1.0 + ctl_threshold:
            failures.append("fleet (controller)")
    base_campaign = committed.get("campaign", {})
    base_speedup = base_campaign.get("parallel_speedup")
    bench_jobs = int(base_campaign.get("jobs", jobs))
    # Per-backend baselines, where the committed record has them; an old
    # record gates only the top-level (process) figure.
    backend_baselines = {
        name: row["parallel_speedup"]
        for name, row in base_campaign.get("backends", {}).items()
        if row.get("parallel_speedup", 0) > 1.0
    }
    if not backend_baselines and base_speedup and base_speedup > 1.0:
        backend_baselines = {"process": base_speedup}
    if backend_baselines and bench_jobs > 1:
        # Compare at the baseline's worker count — a speedup at jobs=4
        # against a baseline at jobs=2 gates nothing meaningful.
        visible = host_info(bench_jobs)["cpus_visible"]
        if visible < bench_jobs:
            msg = (
                f"skipping parallel_speedup gate: baseline used "
                f"{bench_jobs} campaign workers but this host exposes only "
                f"{visible} visible CPUs — the measurement would reflect "
                "oversubscription, not scaling"
            )
            print(f"::notice title=perfbench::{msg}")
            print(f"  campaign: {msg}")
        else:
            import tempfile

            print("campaign:")
            with tempfile.TemporaryDirectory() as tmp:
                campaign = measure_campaign(bench_jobs, Path(tmp))
            measured = {
                name: row["parallel_speedup"]
                for name, row in campaign.get("backends", {}).items()
            }
            for name, base in sorted(backend_baselines.items()):
                if name not in measured:
                    continue
                pratio = measured[name] / base
                pstatus = "ok" if pratio >= 1.0 - threshold else "REGRESSED"
                print(
                    f"  campaign[{name}]: parallel_speedup "
                    f"{measured[name]:.2f}x vs baseline {base:.2f}x "
                    f"({pratio:.2f}x) {pstatus}"
                )
                if pratio < 1.0 - threshold:
                    failures.append(f"campaign ({name} parallel_speedup)")
    if failures:
        print(f"FAIL: perf regressed beyond thresholds on: {', '.join(failures)}")
        return 1
    print("PASS: no perf regression beyond thresholds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_engine.json instead of rewriting it",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="worker processes for the campaign comparison",
    )
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="--check fails when events/sec drops more than this fraction",
    )
    parser.add_argument(
        "--controller-threshold",
        type=float,
        default=1.0,
        help="--check fails when controller us/tick grows more than this "
        "fraction (default 1.0 = 2x, tolerant of host noise)",
    )
    parser.add_argument(
        "--out", default=str(BENCH_PATH), help="output path (measure mode)"
    )
    args = parser.parse_args(argv)
    if args.check:
        return run_check(
            args.jobs, args.repetitions, args.threshold, args.controller_threshold
        )
    payload = run_measure(args.jobs, args.repetitions)
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
