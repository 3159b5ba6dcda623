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
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any

__all__ = ["Event", "EventKind", "EventQueue", "EventState"]


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

    #: same-timestamp ordering class (lower fires first); set on each
    #: member below, so a push reads an attribute instead of hashing an
    #: enum member (``Enum.__hash__`` is Python code)
    priority: int


for _kind in EventKind:
    _kind.priority = 0
EventKind.INSTANCE_TERMINATE.priority = 1
# A revocation at time t must not beat a completion at time t: the task
# legitimately finished before the provider pulled the plug. Same
# ordering class as a planned release.
EventKind.INSTANCE_REVOKED.priority = 1
EventKind.CONTROLLER_TICK.priority = 2
del _kind


class EventState(enum.Enum):
    """Where an event is in its life; only a QUEUED event will fire."""

    QUEUED = "queued"
    CANCELLED = "cancelled"
    POPPED = "popped"


_QUEUED = EventState.QUEUED
_CANCELLED = EventState.CANCELLED
_POPPED = EventState.POPPED


@dataclass(slots=True, eq=False)
class Event:
    """One scheduled occurrence.

    ``payload`` identifies the subject (an attempt handle, an instance
    id, ...). Events carry no behaviour; the simulator dispatches on
    ``kind``. ``state`` is the one mutable field: the queue moves it
    from QUEUED to CANCELLED or POPPED. Events compare by identity.
    """

    time: float
    seq: int
    kind: EventKind
    payload: Any = None
    state: EventState = _QUEUED


class EventQueue:
    """A deterministic min-heap of events.

    Cancellation is lazy (a cancelled event stays heap-resident until it
    reaches the top) and idempotent: cancelling an event that was already
    popped, or cancelling twice, is a no-op, so ``len()`` stays exact.
    The heap is the only index; the live count is a plain integer.
    """

    __slots__ = ("_heap", "_seq", "_size")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        #: seq of the next push (the deterministic tie-breaker)
        self._seq = 0
        #: events queued and not cancelled
        self._size = 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return it (the handle for :meth:`cancel`)."""
        if not time >= 0.0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(
                f"event time must be a number >= 0, got {time!r} "
                f"for {kind.name} event with payload {payload!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, kind, payload)
        heappush(self._heap, (time, kind.priority, seq, event))
        self._size += 1
        return event

    def cancel(self, event: Event) -> None:
        """Mark ``event`` so it is skipped when it reaches the top.

        Only a queued event is affected: cancelling one that was already
        popped or cancelled is a no-op.
        """
        if event.state is _QUEUED:
            event.state = _CANCELLED
            self._size -= 1

    def cancel_for_payload(
        self, payload: Any, kind: EventKind | None = None
    ) -> int:
        """Cancel every queued event whose payload equals ``payload``.

        Returns the number of events cancelled. When ``kind`` is given,
        only events of that kind are cancelled. A scan of the heap: the
        engine keeps its own handles to the events it may retract and
        cancels those directly.
        """
        victims = [
            event
            for _, _, _, event in self._heap
            if event.state is _QUEUED
            and (kind is None or event.kind is kind)
            and event.payload == payload
        ]
        for event in victims:
            event.state = _CANCELLED
        self._size -= len(victims)
        return len(victims)

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.state is _QUEUED:
                event.state = _POPPED
                self._size -= 1
                return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].state is _QUEUED:
                return entry[0]
            heappop(heap)
        return None

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
