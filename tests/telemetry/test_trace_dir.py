"""Merging trace directories (read_jsonl_dir + CLI).

A multi-run campaign leaves one JSONL file per run; ``repro trace
summarize <dir>`` must stitch them into one record stream in timestamp
order instead of refusing directories (the earlier behaviour was an
unhandled IsADirectoryError).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.telemetry import read_jsonl, read_jsonl_dir


def traced_fleet(tmp_path, name="whole.jsonl"):
    trace = tmp_path / name
    assert (
        main(
            [
                "fleet",
                "--rate",
                "8",
                "--n",
                "3",
                "--seed",
                "4",
                "--trace",
                str(trace),
            ]
        )
        == 0
    )
    return trace


def split_round_robin(trace, out_dir, ways=3):
    """Deal a trace's lines across ``ways`` files, preserving order."""
    out_dir.mkdir()
    lines = trace.read_text(encoding="utf-8").splitlines()
    for i in range(ways):
        shard_lines = lines[i::ways]
        (out_dir / f"shard-{i}.jsonl").write_text(
            "\n".join(shard_lines) + "\n", encoding="utf-8"
        )


class TestReadJsonlDir:
    def test_merge_recovers_every_record(self, tmp_path, capsys):
        trace = traced_fleet(tmp_path)
        capsys.readouterr()
        split_round_robin(trace, tmp_path / "shards")
        whole = read_jsonl(trace)
        merged = read_jsonl_dir(tmp_path / "shards")
        assert len(merged) == len(whole)
        assert sorted(r.kind for r in merged) == sorted(r.kind for r in whole)

    def test_merge_is_timestamp_ordered(self, tmp_path, capsys):
        trace = traced_fleet(tmp_path)
        capsys.readouterr()
        split_round_robin(trace, tmp_path / "shards")
        merged = read_jsonl_dir(tmp_path / "shards")
        assert merged[0].kind == "run_meta"
        assert merged[-1].kind == "run_summary"
        times = [r.now for r in merged if getattr(r, "now", None) is not None]
        assert times == sorted(times)

    def test_empty_directory_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="no .jsonl trace files"):
            read_jsonl_dir(tmp_path / "empty")


class TestCliSummarizeDirectory:
    def test_directory_summary_matches_single_file(self, tmp_path, capsys):
        trace = traced_fleet(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        single = capsys.readouterr().out
        split_round_robin(trace, tmp_path / "shards")
        assert main(["trace", "summarize", str(tmp_path / "shards")]) == 0
        merged = capsys.readouterr().out
        assert "per-tenant metrics" in merged
        assert merged == single

    def test_empty_directory_exits_cleanly(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "summarize", str(tmp_path / "empty")])
        assert excinfo.value.code != 0
        assert "no .jsonl trace files" in str(excinfo.value)
