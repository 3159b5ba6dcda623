"""The perf record and gate (tools/perfbench.py), fed synthetic wirebench reports.

No test here runs wirebench: ``run_wirebench`` is replaced by a stub that
returns hand-built runs shaped like ``run.py --out`` reports.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
HOST = {"nproc": 2, "affinity": [0, 1], "python": "3.11.7", "numpy": "2.4.6", "commit": "abc"}


@pytest.fixture(scope="module")
def perfbench():
    spec = importlib.util.spec_from_file_location(
        "perfbench", ROOT / "tools" / "perfbench.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def _run(traced: bool, scale: float = 1.0, correct: bool = True, returncode: int = 0) -> dict:
    """One synthetic wirebench run: every declared metric is ``scale`` × 100."""
    workloads = {}
    for name in WORKLOADS:
        if traced:
            workloads[name] = {
                "metrics": {"core.ticks": {"value": 28.0, "unit": "count", "samples": 4}},
                "self_ms": {"engine.run": 30.81234, "cloud.pool": 10.8},
            }
        else:
            workloads[name] = {
                "metrics": {
                    metric: {"value": 100.0 * scale, "unit": "ms", "samples": 5}
                    for metric in [*METRICS, "run_ms.p50"]
                }
            }
    report = {"host": HOST, "seed": 0, "seconds": None, "trace": traced, "workloads": workloads}
    summary = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": {}}
    return {"returncode": returncode, "summary": summary, "report": report}


@pytest.fixture
def gate(perfbench, monkeypatch, tmp_path):
    """``perfbench.main`` against a 100-everywhere baseline and stubbed runs."""
    baseline = tmp_path / "BENCH_engine.json"
    record = perfbench.build_record(
        BENCHMARK, _run(False)["report"], _run(True)["report"]
    )
    baseline.write_text(json.dumps(record), encoding="utf-8")
    monkeypatch.setattr(perfbench, "BENCH_PATH", baseline)

    def main(*argv: str, untraced: dict, traced: dict | None = None) -> int:
        runs = {False: untraced, True: traced or _run(True)}
        monkeypatch.setattr(perfbench, "run_wirebench", runs.__getitem__)
        return perfbench.main(["--check", *argv])

    return main


def test_record_from_untraced_and_traced_reports(perfbench):
    record = perfbench.build_record(
        BENCHMARK, _run(False, scale=1.5)["report"], _run(True)["report"]
    )
    assert record["host"] == HOST
    assert record["seed"] == 0
    assert sorted(record["engine"]) == sorted(WORKLOADS)
    for row in record["engine"].values():
        # only the declared end-to-end metrics, plus the traced self times
        assert sorted(row) == sorted([*METRICS, "layers"])
        assert all(row[metric] == 150.0 for metric in METRICS)
        assert row["layers"] == {"engine.run": 30.812, "cloud.pool": 10.8}


def test_check_passes_within_bound(gate, capsys):
    # +4% is inside every bound; peak_rss_mb's 0.05 is the tightest
    assert gate(untraced=_run(False, scale=1.04)) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_fails_on_regression(gate, capsys):
    """Beyond its bound, the failure names the workload and the metric."""
    untraced = _run(False)
    metrics = untraced["report"]["workloads"]["genome-wire"]["metrics"]
    metrics["run_ms.best"]["value"] = 121.0  # bound 0.20
    assert gate(untraced=untraced) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "genome-wire run_ms.best" in out.splitlines()[-1]
    assert "fleet-wire" not in out.splitlines()[-1]


def test_check_fails_on_a_workload_missing_from_the_baseline(perfbench, gate, capsys):
    baseline = json.loads(perfbench.BENCH_PATH.read_text(encoding="utf-8"))
    del baseline["engine"]["campaign-s"]
    perfbench.BENCH_PATH.write_text(json.dumps(baseline), encoding="utf-8")
    assert gate(untraced=_run(False)) == 1
    assert "campaign-s run_ms.best" in capsys.readouterr().out.splitlines()[-1]


def test_threshold_replaces_the_bounds(gate):
    # 1.5x breaks every declared bound but not --threshold 0.6 ...
    assert gate(untraced=_run(False, scale=1.5)) == 1
    assert gate("--threshold", "0.6", untraced=_run(False, scale=1.5)) == 0
    # ... and a tight threshold tightens peak_rss_mb's 0.05 and the rest
    assert gate("--threshold", "0.01", untraced=_run(False, scale=1.04)) == 1


def test_check_out_writes_the_fresh_record(gate, tmp_path):
    out = tmp_path / "ci-bench.json"
    assert gate("--out", str(out), untraced=_run(False, scale=1.04)) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["engine"]["campaign-s"]["setup_s"] == 104.0


def test_check_requires_committed_baseline(perfbench, monkeypatch, tmp_path):
    monkeypatch.setattr(perfbench, "BENCH_PATH", tmp_path / "missing.json")

    def no_run(traced: bool) -> dict:
        raise AssertionError("a missing baseline must fail before measuring")

    monkeypatch.setattr(perfbench, "run_wirebench", no_run)
    assert perfbench.main(["--check"]) == 2


@pytest.mark.parametrize(
    "untraced, traced",
    [
        (_run(False, correct=False, returncode=0), None),
        (_run(False), _run(True, correct=False, returncode=0)),
        (_run(False, returncode=1), None),
    ],
    ids=["untraced-incorrect", "traced-incorrect", "untraced-exit-1"],
)
def test_incorrect_wirebench_run_exits_1(gate, capsys, untraced, traced):
    assert gate(untraced=untraced, traced=traced) == 1
    assert "FAIL: wirebench" in capsys.readouterr().out


def test_committed_bench_covers_every_declared_metric():
    payload = json.loads((ROOT / "BENCH_engine.json").read_text(encoding="utf-8"))
    assert sorted(payload["engine"]) == sorted(WORKLOADS)
    for name, row in payload["engine"].items():
        for metric in METRICS:
            assert row[metric] > 0, (name, metric)
        assert row["layers"], name
    assert payload["host"]["commit"]

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)

    # the seed-relative keys of the old record (seed_* and *_vs_seed)
    stale = [k for k in keys(payload) if "seed" in k and k != "seed"]
    assert not stale
