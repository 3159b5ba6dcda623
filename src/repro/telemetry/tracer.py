"""The tracer: the engine's single telemetry entry point.

Design constraints (tentpole requirements):

- **Low overhead when off.** The engine's hot paths guard every emission
  with ``if tracer.enabled:`` so a disabled tracer costs one attribute
  load per potential record — record construction itself is skipped.
  ``tests/telemetry/test_overhead.py`` pins that structure; no wall-clock
  budget is gated. CI's ``tools/perfbench.py --check --threshold 0.6``
  only trips on a >60% events/sec drop against ``BENCH_engine.json``.
- **Zero behavioral footprint.** Tracing is pure observation: it reads
  engine state after decisions are made and never touches RNG streams,
  so a traced run is bit-identical to an untraced one (asserted against
  the golden-fingerprint suite).
"""

from __future__ import annotations

from repro.telemetry.records import TraceRecord
from repro.telemetry.sinks import NullSink, TraceSink

__all__ = ["NULL_TRACER", "Tracer"]


class Tracer:
    """Routes records to one sink, with a cheap disabled fast path."""

    __slots__ = ("sink", "enabled")

    def __init__(self, sink: TraceSink | None = None) -> None:
        self.sink: TraceSink = sink if sink is not None else NullSink()
        #: False iff the sink is a NullSink; hot paths branch on this
        #: before building a record.
        self.enabled: bool = not isinstance(self.sink, NullSink)

    def emit(self, record: TraceRecord) -> None:
        """Forward one record to the sink (no-op when disabled)."""
        if self.enabled:
            self.sink.emit(record)

    def close(self) -> None:
        """Close the underlying sink. Idempotent."""
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Shared disabled tracer; the engine default. Never close it.
NULL_TRACER = Tracer(NullSink())
