"""Differential oracle for the trace encoder.

``TraceRecord.to_json`` builds its dict from cached field names and
``JsonlSink`` encodes it with a prebuilt C-accelerated encoder. The
reference below is the straightforward path they replace —
``dataclasses.asdict`` plus ``json.dump(..., sort_keys=True,
separators=(",", ":"))`` — and every record type must produce an equal
dict and a byte-equal JSONL line through both.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.telemetry import ControlTickRecord, JsonlSink, StagePrediction
from repro.telemetry.records import _RECORD_TYPES


def reference_to_json(record) -> dict:
    payload = asdict(record)
    payload["kind"] = record.kind
    return payload


def reference_line(record) -> str:
    buffer = io.StringIO()
    json.dump(
        reference_to_json(record), buffer, sort_keys=True, separators=(",", ":")
    )
    buffer.write("\n")
    return buffer.getvalue()


FLOATS = (0.1 + 0.2, 1e-7, 1e16, -0.0, np.float64(0.1), np.float64(-2.5e-9))
STRINGS = ("vm-é", "タスク-7", 'quote"back\\slash', "sep tab\t", "ok")
PREDICTIONS = (
    StagePrediction("stage-α", "ogd", 3, 0.1 + 0.2),
    StagePrediction("s2", "observed", 0, np.float64(1e16)),
)


def build(cls, profile: int, *, optional_none: bool):
    """One instance of ``cls`` with every field typed from its annotation.

    ``profile`` rotates which float and string samples land in which
    field; ``optional_none`` leaves every ``X | None`` field ``None``.
    """
    values = {}
    for i, f in enumerate(fields(cls)):
        hint = str(f.type)
        k = profile + i
        if optional_none and "None" in hint:
            values[f.name] = None
        elif hint.startswith("tuple"):
            values[f.name] = PREDICTIONS
        elif hint.startswith("bool"):
            values[f.name] = bool(k % 2)
        elif hint.startswith("int"):
            values[f.name] = k - 3
        elif hint.startswith("float"):
            values[f.name] = FLOATS[k % len(FLOATS)]
        elif hint.startswith("str"):
            values[f.name] = STRINGS[k % len(STRINGS)]
        else:
            raise AssertionError(f"{cls.__name__}.{f.name}: untyped {hint}")
    return cls(**values)


CASES = [
    pytest.param(
        cls, profile, none, id=f"{kind}-p{profile}-{'none' if none else 'set'}"
    )
    for kind, cls in sorted(_RECORD_TYPES.items())
    for profile in range(len(FLOATS))
    for none in (False, True)
]


@pytest.mark.parametrize("cls, profile, optional_none", CASES)
def test_record_matches_asdict_and_json_dump(
    cls, profile, optional_none, tmp_path
):
    record = build(cls, profile, optional_none=optional_none)
    expected = reference_to_json(record)
    assert record.to_json() == expected
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(record)
    assert path.read_bytes() == reference_line(record).encode("utf-8")


def test_control_tick_predictions_are_a_tuple_of_dicts():
    record = build(ControlTickRecord, 0, optional_none=False)
    payload = record.to_json()
    assert payload["stage_predictions"] == reference_to_json(record)[
        "stage_predictions"
    ]
    assert type(payload["stage_predictions"]) is tuple
    assert [type(p) for p in payload["stage_predictions"]] == [dict, dict]


def test_every_float_sample_reaches_the_encoder():
    # Each float sample lands in some float field across the profiles, so
    # the byte comparison above covers repr-level float formatting.
    wanted = {"0.30000000000000004", "1e-07", "1e+16", "-0.0"}
    seen = set()
    for cls in _RECORD_TYPES.values():
        for profile in range(len(FLOATS)):
            line = reference_line(build(cls, profile, optional_none=False))
            seen.update(text for text in wanted if text in line)
    assert seen == wanted


def test_multi_record_file_matches_reference(tmp_path):
    records = [
        build(cls, profile, optional_none=bool(profile % 2))
        for profile in range(3)
        for cls in _RECORD_TYPES.values()
    ]
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        for record in records:
            sink.emit(record)
    expected = "".join(reference_line(r) for r in records)
    assert path.read_bytes() == expected.encode("utf-8")
