"""Differential oracle for the trace encoder.

``TraceRecord.to_json`` builds its dict from cached field names, and
``JsonlSink`` spells each line from a per-class plan (sorted field
names, one ``attrgetter``, json's own spelling of str, float, int, bool
and None). The reference below is the straightforward path they replace
— ``dataclasses.asdict`` plus ``json.dump(..., sort_keys=True,
separators=(",", ":"))`` — and every record type must produce an equal
dict and a byte-equal JSONL line through both.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.telemetry import (
    ControlTickRecord,
    JsonlSink,
    StagePrediction,
    TaskAttemptRecord,
    TraceRecord,
)
from repro.telemetry.records import _RECORD_TYPES
from repro.telemetry.sinks import _LINE_PLANS, _encode_line


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


def build(
    cls,
    profile: int,
    *,
    optional_none: bool,
    floats=FLOATS,
    strings=STRINGS,
    predictions=PREDICTIONS,
):
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
            values[f.name] = predictions
        elif hint.startswith("bool"):
            values[f.name] = bool(k % 2)
        elif hint.startswith("int"):
            values[f.name] = k - 3
        elif hint.startswith("float"):
            values[f.name] = floats[k % len(floats)]
        elif hint.startswith("str"):
            values[f.name] = strings[k % len(strings)]
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


# ----------------------------------------------------------------------
# the per-class line plan
# ----------------------------------------------------------------------
NAN, INF = float("nan"), float("inf")
#: floats json spells specially or that only look alike: NaN, ±Infinity,
#: a signed zero, numpy scalars of each, and ordinary values
EDGE_FLOATS = (
    NAN,
    INF,
    -INF,
    -0.0,
    np.float64(NAN),
    np.float64(-INF),
    np.float64(-0.0),
    np.float64(2.5e-300),
    5e-324,
    1.7976931348623157e308,
    123.0,
)
#: ids with non-ASCII, astral-plane and control characters
EDGE_STRINGS = (
    "vm-é",
    "ctl\x00\x01\x1f\x7f",
    "line\nbreak\r\x08\x0c",
    "astral-\U0001f680",
    "\u2028sep\u2029",
    "",
    'q"\\/',
)
EDGE_PREDICTIONS = (
    StagePrediction("stage-\x00", "ogd", 2, NAN),
    StagePrediction("stage-α", "observed", 0, np.float64(-INF)),
    StagePrediction("s", "running_only", 1, -0.0),
)

EDGE_CASES = [
    pytest.param(
        cls, profile, none, id=f"{kind}-p{profile}-{'none' if none else 'set'}"
    )
    for kind, cls in sorted(_RECORD_TYPES.items())
    for profile in range(len(EDGE_FLOATS))
    for none in (False, True)
]


def build_edge(cls, profile: int, *, optional_none: bool):
    return build(
        cls,
        profile,
        optional_none=optional_none,
        floats=EDGE_FLOATS,
        strings=EDGE_STRINGS,
        predictions=EDGE_PREDICTIONS,
    )


def test_every_record_type_has_a_line_plan():
    assert set(_LINE_PLANS) == set(_RECORD_TYPES.values())


@pytest.mark.parametrize("cls, profile, optional_none", EDGE_CASES)
def test_line_plan_matches_json_dump_on_edge_values(
    cls, profile, optional_none, tmp_path
):
    record = build_edge(cls, profile, optional_none=optional_none)
    expected = reference_line(record)
    assert _encode_line(record) == expected
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(record)
    assert path.read_bytes() == expected.encode("utf-8")


def test_every_edge_sample_reaches_the_encoder():
    """Each edge float and string is spelled somewhere across the cases,
    and bools and nulls appear too."""
    wanted = {
        "NaN",
        "Infinity",
        "-Infinity",
        "-0.0",
        "2.5e-300",
        "5e-324",
        "1.7976931348623157e+308",
        "\\u0000",
        "\\u007f",
        "\\n",
        "\\ud83d\\ude80",
        "\\u2028",
        "\\u00e9",
        "true",
        "false",
        "null",
    }
    seen = set()
    for cls in _RECORD_TYPES.values():
        for profile in range(len(EDGE_FLOATS)):
            for none in (False, True):
                line = _encode_line(build_edge(cls, profile, optional_none=none))
                seen.update(text for text in wanted if text in line)
    assert seen == wanted


def test_unplanned_record_goes_through_to_json(tmp_path):
    """A record class of another package keeps its own ``to_json``."""

    class Custom(TraceRecord):
        kind = "custom"

        def to_json(self):
            return {"kind": self.kind, "b": [1, NAN], "a": "é"}

    assert _encode_line(Custom()) == '{"a":"\\u00e9","b":[1,NaN],"kind":"custom"}\n'


def test_subclass_of_a_record_type_is_not_planned():
    """A subclass may add a field, so only the exact types are planned."""

    class Extended(TaskAttemptRecord):
        pass

    record = Extended(
        now=1.0,
        task_id="t",
        stage_id="s",
        attempt=1,
        instance_id="vm",
        outcome="completed",
    )
    assert type(record) not in _LINE_PLANS
    assert _encode_line(record) == reference_line(record)


def test_unencodable_value_still_raises():
    record = TaskAttemptRecord(
        now=1.0,
        task_id=object(),
        stage_id="s",
        attempt=1,
        instance_id="vm",
        outcome="completed",
    )
    with pytest.raises(TypeError, match="not JSON serializable"):
        _encode_line(record)
