"""One workload in one fresh process: set up, warm up, then measure.

``run.py`` starts this file once per measurement, each time in a fresh
single-threaded process, and reads one JSON object from the last line
of its standard output. Modes:

- ``setup``: set up and warm up, report ``setup_s`` and the warm-up
  digest;
- ``measure``: the same, then the untraced timed phase, reporting the
  end-to-end metrics;
- ``trace``: the same set-up, then untraced and traced passes in turn,
  reporting the per-layer metrics.

The timed phase runs whole passes, closed loop. It stops after
``passes`` passes or, given ``seconds``, after the first pass that ends
past that budget.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy

import layers
import workloads

ROOT = Path(__file__).resolve().parents[2]


class Checker:
    """Holds every pass to the warm-up pass and counts failed runs."""

    def __init__(self, reference: workloads.Pass) -> None:
        self.reference = reference
        self.attempted = len(reference.runs)
        self.failed = sum(1 for run in reference.runs if not run.ok)

    def check(self, done: workloads.Pass) -> None:
        expected = self.reference.runs
        bad = sum(
            1
            for index, run in enumerate(done.runs)
            if not run.ok
            or index >= len(expected)
            or run.fingerprint != expected[index].fingerprint
        )
        if not bad and done.digest != self.reference.digest:
            bad = len(done.runs)
        self.attempted += len(done.runs)
        self.failed += bad


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _done(elapsed: float, passes: int, seconds: float | None, limit: int | None) -> bool:
    """Whole passes: ``limit`` of them, or until ``seconds`` have elapsed."""
    if seconds is not None:
        return elapsed >= seconds
    return passes >= (limit or 1)


def measure(
    name: str,
    seed: int,
    mode: str,
    *,
    seconds: float | None = None,
    passes: int | None = None,
    started: float | None = None,
    spans: str | None = None,
) -> dict:
    """Run one workload in this process and return its report."""
    started = time.time() if started is None else started
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".wirebench-") as tmp:
        workload = workloads.make(name, seed, Path(tmp))
        reference = workload.run_pass()
        setup_s = time.time() - started
        checker = Checker(reference)
        report = {
            "workload": name,
            "seed": seed,
            "mode": mode,
            "setup_s": setup_s,
            "digest": reference.digest,
            "reference_runs": len(reference.runs),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
        if mode == "measure":
            limit = passes or workloads.WORKLOADS[name][1]
            report.update(_timed_phase(workload, checker, seconds, limit))
            report["metrics"]["setup_s"] = _metric(setup_s, "s", 1)
        elif mode == "trace":
            report.update(_traced_phase(workload, checker, seconds, passes, name, spans))
        elif mode != "setup":
            raise ValueError(f"unknown mode {mode!r}")
    report["attempted"] = checker.attempted
    report["failed"] = checker.failed
    if mode == "measure":
        report["metrics"]["fail_ratio"] = _metric(
            checker.failed / checker.attempted, "ratio", checker.attempted
        )
    return report


def _timed_phase(workload, checker: Checker, seconds, limit) -> dict:
    """Untraced passes, closed loop.

    Besides medians and rates over the phase, it reports best-of-N
    figures (``.best``): each cell's fastest run, and the fastest pass.
    A shared host slows everything on it by tens of percent for seconds
    at a time; a best-of-N figure moves with the program's own cost and
    much less with that drift.
    """
    walls: list[float] = []
    fastest: dict[str, float] = {}
    runs = events = passes = 0
    best_rate = 0.0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        done = workload.run_pass()
        wall = time.perf_counter() - began
        checker.check(done)
        done_events = sum(run.events for run in done.runs)
        for run in done.runs:
            if run.ok:
                walls.append(run.wall_s)
                fastest[run.cell] = min(fastest.get(run.cell, run.wall_s), run.wall_s)
        runs += len(done.runs)
        events += done_events
        best_rate = max(best_rate, done_events / wall)
        passes += 1
        if _done(time.perf_counter() - start, passes, seconds, limit):
            break
    phase = time.perf_counter() - start
    reference = checker.reference.runs
    if len(walls) < 2:
        raise RuntimeError("the timed phase completed fewer than two runs")
    metrics = {
        "run_ms.p50": _metric(1e3 * statistics.median(walls), "ms", len(walls)),
        "run_ms.p90": _metric(
            1e3 * statistics.quantiles(walls, n=10)[-1], "ms", len(walls)
        ),
        "run_ms.best": _metric(
            1e3 * statistics.geometric_mean(fastest.values()), "ms", len(walls)
        ),
        "runs_per_s": _metric(runs / phase, "runs/s", runs),
        "events_per_s": _metric(events / phase, "events/s", runs),
        "events_per_s.best": _metric(best_rate, "events/s", passes),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        ),
        "sim_units": _metric(sum(r.units for r in reference), "units", len(reference)),
        "sim_makespan_s": _metric(
            statistics.median(r.makespan for r in reference), "sim_s", len(reference)
        ),
    }
    return {"metrics": metrics, "passes": passes}


def _traced_phase(workload, checker: Checker, seconds, limit, name, spans_path) -> dict:
    untraced: list[float] = []
    traced: list[float] = []
    recorder = layers.Recorder([] if spans_path else None)
    passes = 0
    start = time.perf_counter()
    while True:
        done = workload.run_pass()
        checker.check(done)
        untraced.extend(run.wall_s for run in done.runs if run.ok)
        patches = layers.install(recorder)
        try:
            done = workload.run_pass()
        finally:
            patches.restore()
        checker.check(done)
        traced.extend(run.wall_s for run in done.runs if run.ok)
        recorder.counts["telemetry.bytes"] += sum(run.trace_bytes for run in done.runs)
        passes += 1
        if _done(time.perf_counter() - start, passes, seconds, limit):
            break
    values = layers.layer_metrics(recorder, passes)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(
        untraced
    )
    values["trace.wrapper_ns_per_call"] = layers.wrapper_ns_per_call()
    if spans_path:
        with open(spans_path, "a", encoding="utf-8") as out:
            for sid, parent, span, begin, end in recorder.spans:
                out.write(
                    json.dumps(
                        {
                            "workload": name,
                            "id": sid,
                            "parent": parent,
                            "name": span,
                            "start_ns": begin,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
    samples = int(recorder.counts["runs"])
    return {
        "metrics": {
            metric: _metric(value, layers.METRICS[metric], samples)
            for metric, value in values.items()
        },
        "self_ms": layers.self_time_table(recorder),
        "passes": passes,
    }


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    report = measure(**request)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
