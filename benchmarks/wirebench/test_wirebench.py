"""Self-test of the WIRE benchmark at a reduced run count (one timed pass).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/wirebench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import measure
import run
import workloads
from repro.core import mape
from repro.engine.events import EventQueue
from repro.engine.simulator import Simulation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def invocations(tmp_path_factory):
    """``run.py`` untraced and traced over all five workloads."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "SETUPS", 1)
        for trace in ("0", "1"):
            path = tmp_path_factory.mktemp("wirebench") / "report.json"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--seconds", "0", "--trace", trace, "--out", str(path)])
            report = json.loads(path.read_text("utf-8"))
            out[trace] = (code, stdout.getvalue(), report)
    return out


def test_benchmark_json_matches_the_benchmark():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in BENCH["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for metric in BENCH["per_layer"]:
        assert layers.METRICS[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_printed_with_its_unit(invocations, trace):
    code, stdout, report = invocations[trace]
    assert code == 0
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    blocks = stdout.split("== ")[1:]
    assert [block.split()[0] for block in blocks] == list(workloads.WORKLOADS)
    for block in blocks:
        for metric in declared:
            line = rf"\* {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])} +n=\d+"
            assert re.search(line, block), (block.split()[0], metric["name"])
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert len(result["metrics"]) == len(declared) * len(workloads.WORKLOADS)
    for name, entry in result["metrics"].items():
        assert NAME.match(name) and set(entry) == {"value", "unit"}
    assert report["host"]["nproc"] >= 1


def test_declared_timings_are_measured_on_every_workload(invocations):
    """A declared time must be a nonzero measurement wherever it is read."""
    times = {"ms", "us", "ns", "s"}
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        report = invocations[trace][2]
        for name, workload in report["workloads"].items():
            for metric in BENCH[section]:
                if metric["unit"] in times:
                    assert workload["metrics"][metric["name"]]["value"] > 0, (
                        name, metric["name"]
                    )


def test_traced_output_equals_untraced_and_expected(invocations):
    expected = json.loads((HERE / "expected.json").read_text("utf-8"))
    untraced = invocations["0"][2]["workloads"]
    traced = invocations["1"][2]["workloads"]
    for name in workloads.WORKLOADS:
        assert traced[name]["failed"] == 0
        assert traced[name]["digest"] == untraced[name]["digest"] == expected[name]


def test_corrupted_fingerprint_counts_as_a_failure(monkeypatch):
    real = workloads.fingerprint
    calls = []

    def corrupt_sixth(result):
        calls.append(1)
        value = real(result)
        return value + " corrupted" if len(calls) == 6 else value

    monkeypatch.setattr(workloads, "fingerprint", corrupt_sixth)
    report = measure.measure("chaos-checked", 0, "measure", passes=1)
    assert report["failed"] == 1
    assert report["attempted"] == 2 * report["reference_runs"]
    assert report["metrics"]["fail_ratio"]["value"] == 1 / report["attempted"]


def test_patches_restore_every_original():
    originals = (EventQueue.pop, Simulation.run, mape.steer_inputs_for)
    patches = layers.install(layers.Recorder())
    try:
        assert (EventQueue.pop, Simulation.run, mape.steer_inputs_for) != originals
    finally:
        patches.restore()
    assert (EventQueue.pop, Simulation.run, mape.steer_inputs_for) == originals


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wirebench")
    done = subprocess.run(
        [sys.executable, "benchmarks/wirebench/run.py", "--workload", "fleet-wire"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
