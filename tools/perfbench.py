#!/usr/bin/env python
"""Performance record and regression gate, read off wirebench.

Runs ``benchmarks/wirebench/run.py --seed 0`` twice as subprocesses, once
untraced and once with ``--traced``, each with its default pass counts.
From the two reports it builds one record, keyed by workload under
``engine``: the end-to-end metrics that ``BENCHMARK.json`` declares, and
the traced self ms per run of every span under ``layers``. The record
also holds wirebench's host facts and commit. This tool has no timing
loop of its own.

Modes::

    python tools/perfbench.py                    # measure + write BENCH_engine.json
    python tools/perfbench.py --check            # regression gate
    python tools/perfbench.py --check --threshold 0.6 --out ci-bench.json

``--check`` re-measures the same way and exits

- 2 when no ``BENCH_engine.json`` is committed;
- 1 when either wirebench run exits nonzero or reports ``correct: false``,
  or when a declared end-to-end metric on any workload is worse than its
  committed value by more than its ``BENCHMARK.json`` bound;
- 0 otherwise.

``--threshold F`` replaces every bound with ``F``, for hosts other than
the one the baseline was measured on. ``--out`` names where the fresh
record goes: by default ``BENCH_engine.json`` when measuring, and
nowhere under ``--check``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_engine.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
WIREBENCH = ROOT / "benchmarks" / "wirebench" / "run.py"


def run_wirebench(traced: bool) -> dict:
    """One wirebench invocation: exit code, closing JSON line and report."""
    mode = ["--traced"] if traced else []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        done = subprocess.run(
            [sys.executable, str(WIREBENCH), "--seed", "0", "--out", str(out), *mode],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            summary = None
        report = json.loads(out.read_text("utf-8")) if out.exists() else None
    return {"returncode": done.returncode, "summary": summary, "report": report}


def run_problems(untraced: dict, traced: dict) -> list[str]:
    """Why either wirebench run cannot be read; empty when both can."""
    problems = []
    for label, run in (("untraced", untraced), ("traced", traced)):
        summary = run["summary"]
        if run["returncode"] != 0:
            problems.append(f"wirebench ({label}) exited with {run['returncode']}")
        elif not isinstance(summary, dict) or summary.get("correct") is not True:
            problems.append(f"wirebench ({label}) reported correct: false")
        elif run["report"] is None:
            problems.append(f"wirebench ({label}) wrote no report")
    return problems


def build_record(benchmark: dict, untraced: dict, traced: dict) -> dict:
    """The ``BENCH_engine.json`` record from an untraced and a traced report."""
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    engine = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        measured = untraced["workloads"][workload]["metrics"]
        row = {name: measured[name]["value"] for name in metrics}
        row["layers"] = {
            span: round(ms, 3)
            for span, ms in traced["workloads"][workload]["self_ms"].items()
        }
        engine[workload] = row
    return {"host": untraced["host"], "seed": untraced["seed"], "engine": engine}


def regressions(
    benchmark: dict, baseline: dict, record: dict, threshold: float | None = None
) -> list[str]:
    """Print every declared comparison; return the ``workload metric`` over bound.

    ``threshold``, when given, replaces every metric's bound.
    """
    failures = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        base_row = baseline["engine"].get(workload, {})
        for metric in benchmark["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            bound = metric["bound"] if threshold is None else threshold
            label = f"{workload} {name}"
            now = record["engine"][workload][name]
            base = base_row.get(name)
            if base is None:
                print(f"  {label}: {now:.6g} {unit}, no committed value  REGRESSED")
                failures.append(label)
                continue
            change = now / base - 1.0
            worse = -change if metric["better"] == "higher" else change
            bad = worse > bound
            print(
                f"  {label}: {now:.6g} {unit} vs baseline {base:.6g} "
                f"({change:+.1%}, bound {bound:.0%})"
                f"  {'REGRESSED' if bad else 'ok'}"
            )
            if bad:
                failures.append(label)
    return failures


def _write(record: dict, path: Path) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_engine.json instead of rewriting it",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        help="replace every BENCHMARK.json bound with this fraction",
    )
    parser.add_argument(
        "--out", help="where the fresh record goes (default: BENCH_engine.json when measuring)"
    )
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK_PATH.read_text("utf-8"))
    if args.check and not BENCH_PATH.exists():
        print(f"no committed baseline at {BENCH_PATH}; run without --check first")
        return 2
    untraced, traced = run_wirebench(False), run_wirebench(True)
    problems = run_problems(untraced, traced)
    if problems:
        print(f"FAIL: {'; '.join(problems)}")
        return 1
    record = build_record(benchmark, untraced["report"], traced["report"])
    if not args.check:
        _write(record, Path(args.out or BENCH_PATH))
        return 0
    baseline = json.loads(BENCH_PATH.read_text("utf-8"))
    failures = regressions(benchmark, baseline, record, args.threshold)
    if args.out:
        _write(record, Path(args.out))
    if failures:
        print(f"FAIL: worse than the baseline beyond the bound on: {', '.join(failures)}")
        return 1
    print("PASS: every declared end-to-end metric is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
