"""Bit-identical equivalence against the seed engine.

``golden_engine_results.json`` pins exact measurements (hex-encoded
floats — no tolerance) from the engine *before* the hot-path overhaul
(free-slot index, incremental monitor aggregates, lookahead heap,
predictor caches). Every optimization must preserve the documented
deterministic ordering — same ``(time, kind-priority, seq)`` event
semantics, same FIFO/packing tie-breaks — so any drift in these
fingerprints is a correctness bug, not a tolerance issue.

Regenerate (only for an *intended*, reviewed semantic change):

    PYTHONPATH=src python tools/gen_golden_engine.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden_engine_results.json"


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def load_generator():
    import importlib.util

    root = Path(__file__).resolve().parent.parent.parent
    spec = importlib.util.spec_from_file_location(
        "gen_golden_engine", root / "tools" / "gen_golden_engine.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


# A fast subset runs in the default suite; the full 66-scenario sweep is
# what tools/gen_golden_engine.py covers and bench runs exercise.
FAST_SCENARIOS = [
    "genome-S/wire/u60/s0",
    "genome-S/wire/u900/s1",
    "genome-S/pure-reactive/u60/s0",
    "genome-S/reactive-conserving/u60/s0",
    "genome-S/full-site/u900/s0",
    "tpch6-S/wire/u60/s1",
    "tpch6-S/reactive-conserving/u900/s0",
    "pagerank-S/wire/u60/s0",
    "pagerank-S/pure-reactive/u900/s1",
    "tpch1-S/wire/u60/s0",
    "tpch1-S/full-site/u60/s1",
    "genome-S/wire/faults",
    "tpch6-S/wire/jitter",
]


class TestGoldenEquivalence:
    @pytest.fixture(scope="class")
    def generator(self):
        return load_generator()

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden()

    @pytest.fixture(scope="class")
    def simulations(self, generator):
        return dict(generator.scenarios())

    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_run_matches_seed_fingerprint(
        self, name, golden, simulations, generator
    ):
        assert name in golden, f"golden file is missing scenario {name}"
        result = simulations[name].run()
        assert generator.fingerprint(result) == golden[name]

    def test_golden_covers_full_matrix(self, golden, generator):
        # 4 workloads x 4 policies x 2 units x 2 seeds + faults + jitter
        runs = [k for k in golden if not k.startswith(generator.PIN_PREFIXES)]
        assert len(runs) == 66


class TestBytePins:
    """Fleet summary JSON, JSONL trace and workflow JSON bytes, pinned by SHA-256."""

    def test_pins_hold(self):
        generator = load_generator()
        golden = load_golden()
        pinned = {
            k: v for k, v in golden.items() if k.startswith(generator.PIN_PREFIXES)
        }
        # 8 fleet summaries + 3 single-run traces + 2 fleet traces
        # + 8 Table I specs x 2 seeds
        assert len(pinned) == 29
        assert generator.pins() == pinned
