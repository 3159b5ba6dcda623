"""Pluggable trace sinks.

A sink receives fully-built :class:`~repro.telemetry.records.TraceRecord`
objects from a :class:`~repro.telemetry.tracer.Tracer` and decides what
to do with them: drop (``NullSink``), buffer in a bounded ring
(``MemorySink``), or append to a JSONL file (``JsonlSink``). Sinks are
deliberately dumb — all filtering happens before emission, on the
tracer's enabled fast path — so the cost of a disabled trace is a single
attribute check per potential record.
"""

from __future__ import annotations

import io
import json
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

from repro.telemetry.records import (
    _RECORD_TYPES,
    StagePrediction,
    TraceRecord,
    _field_dict,
    record_from_json,
)

__all__ = [
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "TraceSink",
    "read_jsonl",
    "read_jsonl_dir",
]


class TraceSink(ABC):
    """Destination for trace records."""

    @abstractmethod
    def emit(self, record: TraceRecord) -> None:
        """Accept one record. Must not mutate or retain engine state."""

    def close(self) -> None:
        """Flush and release resources. Idempotent."""


class NullSink(TraceSink):
    """Discards everything; the default when tracing is off."""

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover - no-op
        pass


class MemorySink(TraceSink):
    """Bounded in-memory ring buffer of records.

    ``maxlen=None`` keeps everything (tests); a bound keeps long runs
    from growing without limit while retaining the most recent records.
    """

    def __init__(self, maxlen: int | None = None) -> None:
        self._records: deque[TraceRecord] = deque(maxlen=maxlen)

    def emit(self, record: TraceRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> list[TraceRecord]:
        """The buffered records, oldest first."""
        return list(self._records)

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """Buffered records whose ``kind`` tag matches."""
        return [r for r in self._records if r.kind == kind]

    def clear(self) -> None:
        self._records.clear()


def _nested(value: Any) -> dict[str, Any]:
    """A tick's :class:`StagePrediction` as its field dict, the form
    ``ControlTickRecord.to_json`` gives it."""
    if type(value) is StagePrediction:
        return _field_dict(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


#: one JSONL line body: sorted keys, compact separators. ``encode`` takes
#: CPython's C encoder (``json.dump`` never does) and yields the same bytes.
_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_nested
).encode

_FLOAT_REPR = float.__repr__
#: json's spelling of the non-finite floats
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = _FLOAT_REPR(value)
    return _NON_FINITE.get(text, text)


#: exact-type formatters that spell a value as ``json`` does; any other
#: type goes through ``_ENCODE``
_SCALAR: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _line_plan(cls: type) -> tuple[Callable[[Any], tuple], str]:
    """One record class's line: a getter of its values in sorted key
    order (``kind`` included) and the line around them, one ``%s`` each."""
    names = sorted([f.name for f in fields(cls)] + ["kind"])
    template = ",".join(
        encode_basestring_ascii(name).replace("%", "%%") + ":%s" for name in names
    )
    return attrgetter(*names), "{" + template + "}\n"


_LINE_PLANS = {cls: _line_plan(cls) for cls in _RECORD_TYPES.values()}


def _encode_line(record: TraceRecord) -> str:
    """``record`` as one JSONL line: ``_ENCODE(record.to_json())`` plus a
    newline, byte for byte.

    The record types in this package are spelled field by field from a
    per-class plan, without building the dict or an encoder per record;
    any other record goes through ``to_json``.
    """
    plan = _LINE_PLANS.get(type(record))
    if plan is None:
        return _ENCODE(record.to_json()) + "\n"
    get, template = plan
    spell = _SCALAR.get
    return template % tuple([spell(type(v), _ENCODE)(v) for v in get(record)])


class JsonlSink(TraceSink):
    """Appends one JSON object per record to a file.

    Lines are serialized with sorted keys and compact separators so a
    trace is byte-deterministic for a deterministic run. The file handle
    opens on the first emit (a tracer constructed but never used leaves
    no file behind) and is flushed on :meth:`close`; emitting after
    :meth:`close` raises ``ValueError`` rather than reopening (and so
    truncating) the file.
    """

    #: set by close(); a class default, so sinks checkpointed before the
    #: flag existed still resume
    _closed = False

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: io.TextIOWrapper | None = None
        self._emitted = 0
        #: byte offset to resume at (set on unpickle; see __getstate__)
        self._resume_offset: int | None = None

    def emit(self, record: TraceRecord) -> None:
        if self._file is None:
            self._open()
        self._file.write(_encode_line(record))
        self._emitted += 1

    def _open(self) -> None:
        if self._closed:
            raise ValueError(f"trace sink {self.path} is closed")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._resume_offset is not None:
            # Resuming a checkpointed run: everything the interrupted
            # run wrote after the cut is dropped, then appends continue
            # at the recorded offset — the resumed trace ends up
            # byte-identical to an uninterrupted one.
            if not self.path.exists() and self._resume_offset > 0:
                raise FileNotFoundError(
                    f"cannot resume trace {self.path}: the file written "
                    "before the checkpoint is gone"
                )
            if self.path.exists():
                with self.path.open("r+b") as raw:
                    raw.truncate(self._resume_offset)
            self._file = self.path.open("a", encoding="utf-8")
            self._resume_offset = None
        else:
            self._file = self.path.open("w", encoding="utf-8")

    def __getstate__(self) -> dict:
        """Pickle support for checkpointing: detach the file handle.

        The flushed byte offset rides along as the telemetry cursor;
        :meth:`_open` truncates back to it on the first emit after
        restore. The live sink is left untouched — a run that
        checkpoints mid-flight keeps writing through its open handle.
        """
        state = self.__dict__.copy()
        if self._file is not None:
            self._file.flush()
            state["_resume_offset"] = self._file.buffer.tell()
        state["_file"] = None
        return state

    @property
    def emitted(self) -> int:
        """Number of records written so far."""
        return self._emitted

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._closed = True

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[TraceRecord]:
    """Parse a JSONL trace file back into typed records."""
    records: list[TraceRecord] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_json(json.loads(line)))
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace record: {exc}"
                ) from exc
    return records


def read_jsonl_dir(path: str | Path) -> list[TraceRecord]:
    """Merge every ``*.jsonl`` trace in a directory, in timestamp order.

    A multi-run campaign leaves one JSONL file per run;
    this stitches them into a single record sequence the summarizer can
    consume. Records sort by their ``now`` field; ``run_meta`` records
    (no timestamp) lead and ``run_summary`` records trail, and the sort
    is stable with files visited in sorted-name order, so the merge is
    deterministic. Raises :class:`FileNotFoundError` when the directory
    holds no ``*.jsonl`` files, and propagates :func:`read_jsonl`'s
    :class:`ValueError` (with file/line pinpoint) on malformed records.
    """
    directory = Path(path)
    files = sorted(directory.glob("*.jsonl"))
    if not files:
        raise FileNotFoundError(
            f"no .jsonl trace files in directory {directory}"
        )
    merged: list[TraceRecord] = []
    for file in files:
        merged.extend(read_jsonl(file))

    def _order(record: TraceRecord) -> tuple[int, float]:
        now = getattr(record, "now", None)
        if now is None:
            # run_meta opens a trace, run_summary closes one
            return (0, 0.0) if record.kind == "run_meta" else (2, 0.0)
        return (1, now)

    merged.sort(key=_order)
    return merged
