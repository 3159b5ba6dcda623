"""Discrete-event primitives.

The engine advances simulated time through a priority queue of events.
Ordering is ``(time, kind priority, seq)``: at equal timestamps, task
lifecycle progress and instance arrivals fire before instance
terminations, and controller ticks observe last. The kind ordering is
load-bearing — WIRE releases instances exactly at their charge boundary,
and a task predicted to finish "by the boundary" must complete before the
termination fires or it would be killed at 100% sunk cost. The ``seq``
insertion counter breaks remaining ties, keeping runs bit-reproducible.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Event", "EventKind", "EventQueue"]


class EventKind(enum.Enum):
    """All event types the workflow engine understands."""

    INSTANCE_READY = "instance_ready"  # a PENDING instance becomes usable
    INSTANCE_TERMINATE = "instance_terminate"  # a scheduled release fires
    STAGE_IN_DONE = "stage_in_done"  # a task finished staging input data
    EXEC_DONE = "exec_done"  # a task finished computing
    STAGE_OUT_DONE = "stage_out_done"  # a task finished writing output
    TASK_FAILED = "task_failed"  # an attempt died mid-execution (fault)
    CONTROLLER_TICK = "controller_tick"  # a MAPE iteration begins
    INSTANCE_REVOKED = "instance_revoked"  # the provider preempts an instance
    PROVISION_FAILED = "provision_failed"  # an ordered launch came back failed
    PROVISION_RETRY = "provision_retry"  # backoff elapsed; re-issue a launch
    WORKFLOW_ARRIVAL = "workflow_arrival"  # a tenant submits a workflow (fleet)

    @property
    def priority(self) -> int:
        """Same-timestamp ordering class (lower fires first)."""
        return _PRIORITY[self]


#: same-timestamp ordering classes (lower fires first); a flat table so
#: the per-push cost is one dict hit instead of an enum property call
_PRIORITY = {kind: 0 for kind in EventKind}
_PRIORITY[EventKind.INSTANCE_TERMINATE] = 1
# A revocation at time t must not beat a completion at time t: the task
# legitimately finished before the provider pulled the plug. Same
# ordering class as a planned release.
_PRIORITY[EventKind.INSTANCE_REVOKED] = 1
_PRIORITY[EventKind.CONTROLLER_TICK] = 2


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence.

    ``payload`` identifies the subject (a task id, an instance id, ...).
    Events carry no behaviour; the simulator dispatches on ``kind``.
    """

    time: float
    seq: int
    kind: EventKind
    payload: Any = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")


@dataclass
class EventQueue:
    """A deterministic min-heap of events.

    Cancellation is lazy (cancelled events stay heap-resident until
    popped) and idempotent: cancelling an event that was already popped,
    or cancelling twice, is a no-op, so ``__len__`` stays exact.
    """

    _heap: list[tuple[float, int, int, Event]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)
    _cancelled: set[int] = field(default_factory=set)
    #: seqs currently in the heap and not cancelled
    _live: set[int] = field(default_factory=set)
    #: live events grouped by payload, so cancelling everything that
    #: belongs to one subject (e.g. a revoked instance) is O(events on
    #: that subject) instead of a full-heap scan; unhashable payloads
    #: are simply not indexed
    _by_payload: dict[Any, set[Event]] = field(default_factory=dict)

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return it (its ``seq`` allows cancellation)."""
        event = Event(time=time, seq=next(self._counter), kind=kind, payload=payload)
        heapq.heappush(
            self._heap, (event.time, _PRIORITY[kind], event.seq, event)
        )
        self._live.add(event.seq)
        try:
            self._by_payload.setdefault(payload, set()).add(event)
        except TypeError:
            pass  # unhashable payload: not payload-cancellable
        return event

    def _unindex(self, event: Event) -> None:
        try:
            bucket = self._by_payload.get(event.payload)
        except TypeError:
            return
        if bucket is not None:
            bucket.discard(event)
            if not bucket:
                del self._by_payload[event.payload]

    def cancel(self, event: Event) -> None:
        """Mark ``event`` so it is skipped when popped (lazy deletion).

        Cancelling an event that was already popped (or already
        cancelled) is a no-op: only seqs still live in the heap enter the
        cancelled set, so the size bookkeeping cannot drift.
        """
        if event.seq in self._live:
            self._live.discard(event.seq)
            self._cancelled.add(event.seq)
            self._unindex(event)

    def cancel_for_payload(
        self, payload: Any, kind: EventKind | None = None
    ) -> int:
        """Cancel every live event whose payload equals ``payload``.

        Returns the number of events cancelled. When ``kind`` is given,
        only events of that kind are cancelled. This is how a revoked
        instance retracts its queued completions/terminations without
        scanning the whole heap.
        """
        bucket = self._by_payload.get(payload)
        if not bucket:
            return 0
        victims = [
            event
            for event in bucket
            if kind is None or event.kind is kind
        ]
        for event in victims:
            self.cancel(event)
        return len(victims)

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            if event.seq in self._cancelled:
                self._cancelled.discard(event.seq)
                continue
            self._live.discard(event.seq)
            self._unindex(event)
            return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        while self._heap:
            time, _, seq, _ = self._heap[0]
            if seq in self._cancelled:
                heapq.heappop(self._heap)
                self._cancelled.discard(seq)
                continue
            return time
        return None

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)
