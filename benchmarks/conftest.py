"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables/figures and writes
the rendered rows to ``benchmarks/results/<name>.txt`` (also echoed to
stdout) so a ``pytest benchmarks/ --benchmark-only`` run leaves the full
evaluation on disk. Heavy experiments run exactly once per benchmark via
``benchmark.pedantic`` — the interesting output is the table, not the
timing distribution.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: repetitions per (workflow, policy, u) cell; the paper uses 3-7.
BENCH_REPETITIONS = int(os.environ.get("REPRO_BENCH_REPS", "2"))


@pytest.fixture
def save_report():
    """Write a rendered report to benchmarks/results/ and echo it."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to {path}]")

    return _save
