"""WIRE benchmark: five workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python benchmarks/wirebench/run.py --seed 0 [--workload NAME]
        [--seconds N] [--trace 0|1 | --traced] [--out FILE] [--spans FILE]

Each workload runs in fresh child processes (``measure.py``), one at a
time, single-threaded. Without ``--trace`` the benchmark sets the
workload up five times (four set-up-only children, then the measuring
child) and reports the median ``setup_s`` with the measuring child's
untraced end-to-end metrics. ``--trace 1`` (or ``--traced``) instead
reports the per-layer metrics of a pass with every layer boundary
wrapped (see ``layers.py``).

The timed phase runs the workload's fixed pass count, or whole passes
until ``--seconds`` have elapsed. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics
declared in ``BENCHMARK.json`` for the mode. The exit code is 0 only
when every run reproduced its expected output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
#: set-ups per workload; ``setup_s`` is their median
SETUPS = 5
#: a child that runs longer than this has hung
CHILD_TIMEOUT_S = 170


def _child(request: dict) -> dict:
    """Run ``measure.py`` in a fresh single-threaded process."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    request = dict(request, started=time.time())
    done = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), json.dumps(request)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{request['name']} ({request['mode']}) exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, trace: bool, seconds, spans) -> dict:
    """Every child of one workload, folded into one report."""
    request = {"name": name, "seed": seed, "seconds": seconds}
    if trace:
        reports = [_child(dict(request, mode="trace", spans=spans))]
    else:
        reports = [_child(dict(request, mode="setup")) for _ in range(SETUPS - 1)]
        reports.append(_child(dict(request, mode="measure")))
    report = reports[-1]
    setups = [r["setup_s"] for r in reports]
    if not trace:
        report["metrics"]["setup_s"] = {
            "value": statistics.median(setups),
            "unit": "s",
            "samples": len(setups),
        }
    report["setups_s"] = setups
    report["attempted"] = sum(r["attempted"] for r in reports)
    report["failed"] = sum(r["failed"] for r in reports)
    # Every child must reproduce the same warm-up output.
    if any(r["digest"] != report["digest"] for r in reports):
        report["failed"] += report["reference_runs"]
    return report


def _expected_check(reports: dict, seed: int, update: bool) -> None:
    """Hold seed 0's warm-up digests to ``expected.json``."""
    if seed != 0:
        return
    expected = json.loads(EXPECTED.read_text("utf-8")) if EXPECTED.exists() else {}
    if update:
        expected.update({name: r["digest"] for name, r in reports.items()})
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", "utf-8")
        return
    for name, report in reports.items():
        if expected.get(name) != report["digest"]:
            print(f"{name}: output digest differs from expected.json", file=sys.stderr)
            report["failed"] += report["reference_runs"]


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(reports: dict) -> dict:
    any_report = next(iter(reports.values()))
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": any_report["python"],
        "numpy": any_report["numpy"],
        "commit": _commit(),
    }


def _print_report(name: str, report: dict, declared: dict) -> None:
    print(
        f"== {name}  seed {report['seed']}  {report['mode']}  "
        f"passes {report['passes']}  attempted {report['attempted']}  "
        f"failed {report['failed']}"
    )
    for metric, entry in report["metrics"].items():
        mark = "*" if metric in declared else " "
        print(
            f"  {mark} {metric:<40} {entry['value']:>14.6g} {entry['unit']:<9}"
            f" n={entry['samples']}"
        )
    if "self_ms" in report:
        print("  self ms per run, by span:")
        for span, ms in report["self_ms"].items():
            print(f"    {span:<40} {ms:>10.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="time budget of the timed phase (default: fixed passes)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--spans", help="traced mode: write every span as JSONL")
    parser.add_argument(
        "--update-expected",
        action="store_true",
        help="record seed 0's output digests in expected.json",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (options: {', '.join(WORKLOADS)})")
    if args.update_expected and args.seed != 0:
        parser.error("--update-expected records seed 0 only")
    trace = bool(args.trace or args.traced)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    spans = str(Path(args.spans).resolve()) if args.spans and trace else None
    if spans:
        Path(spans).write_text("", "utf-8")

    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = {}
    for name in names:
        try:
            reports[name] = run_workload(name, args.seed, trace, args.seconds, spans)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    _expected_check(reports, args.seed, args.update_expected)
    for name, report in reports.items():
        _print_report(name, report, declared)

    if args.out:
        payload = {
            "host": host_facts(reports),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": trace,
            "workloads": reports,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", "utf-8")

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}."
        for metric, unit in declared.items():
            entry = report["metrics"][metric]
            if entry["unit"] != unit:
                raise ValueError(f"{metric}: unit {entry['unit']} is not {unit}")
            metrics[prefix + metric] = {"value": entry["value"], "unit": unit}
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
