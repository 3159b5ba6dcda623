"""Differential test of the heap-only ``EventQueue`` against its predecessor.

``ReferenceEventQueue`` and ``ReferenceEvent`` are the event queue as it
was before the queue became a plain heap: frozen events, a live-seq set, a
cancelled-seq set and a payload index. They are kept here verbatim (only
renamed) as the oracle. On any sequence of pushes, cancels, payload
cancels, pops, peeks, size queries and pickle round trips, both queues must
pop the same ``(time, kind, seq, payload)`` order and return the same
values.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import EventKind, EventQueue

#: the predecessor's same-timestamp ordering table
_PRIORITY = {kind: 0 for kind in EventKind}
_PRIORITY[EventKind.INSTANCE_TERMINATE] = 1
_PRIORITY[EventKind.INSTANCE_REVOKED] = 1
_PRIORITY[EventKind.CONTROLLER_TICK] = 2



@dataclass(frozen=True, slots=True)
class ReferenceEvent:
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
class ReferenceEventQueue:
    """A deterministic min-heap of events.

    Cancellation is lazy (cancelled events stay heap-resident until
    popped) and idempotent: cancelling an event that was already popped,
    or cancelling twice, is a no-op, so ``__len__`` stays exact.
    """

    _heap: list[tuple[float, int, int, ReferenceEvent]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)
    _cancelled: set[int] = field(default_factory=set)
    #: seqs currently in the heap and not cancelled
    _live: set[int] = field(default_factory=set)
    #: live events grouped by payload, so cancelling everything that
    #: belongs to one subject (e.g. a revoked instance) is O(events on
    #: that subject) instead of a full-heap scan; unhashable payloads
    #: are simply not indexed
    _by_payload: dict[Any, set[ReferenceEvent]] = field(default_factory=dict)

    def push(self, time: float, kind: EventKind, payload: Any = None) -> ReferenceEvent:
        """Schedule an event and return it (its ``seq`` allows cancellation)."""
        event = ReferenceEvent(time=time, seq=next(self._counter), kind=kind, payload=payload)
        heapq.heappush(
            self._heap, (event.time, _PRIORITY[kind], event.seq, event)
        )
        self._live.add(event.seq)
        try:
            self._by_payload.setdefault(payload, set()).add(event)
        except TypeError:
            pass  # unhashable payload: not payload-cancellable
        return event

    def _unindex(self, event: ReferenceEvent) -> None:
        try:
            bucket = self._by_payload.get(event.payload)
        except TypeError:
            return
        if bucket is not None:
            bucket.discard(event)
            if not bucket:
                del self._by_payload[event.payload]

    def cancel(self, event: ReferenceEvent) -> None:
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

    def pop(self) -> ReferenceEvent:
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


# ----------------------------------------------------------------------
# the differential test
# ----------------------------------------------------------------------
#: equal times are common (the sampled values), so kind priority and seq
#: decide many pops
TIMES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
KINDS = st.sampled_from(list(EventKind))
#: hashable payloads; 1, 1.0 and True are equal, and so one payload class
PAYLOADS = st.sampled_from([None, "i-0", "i-1", "t/a", 1, 1.0, True, ("t", 2)])

OPS = st.one_of(
    st.tuples(
        st.just("push"),
        TIMES,
        KINDS,
        st.one_of(PAYLOADS, st.just(["unhashable"])),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("cancel_for_payload"), PAYLOADS, st.one_of(st.none(), KINDS)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek_time")),
    st.tuples(st.just("len")),
    st.tuples(st.just("pickle")),
)


def snapshot(event) -> tuple:
    return (event.time, event.kind, event.seq, repr(event.payload))


def pop_outcome(queue) -> tuple:
    try:
        return snapshot(queue.pop())
    except IndexError:
        return ("empty",)


def drain(queue) -> list[tuple]:
    out = []
    while queue:
        out.append(snapshot(queue.pop()))
    return out


@given(ops=st.lists(OPS, max_size=80))
@settings(max_examples=300, deadline=None)
def test_matches_reference(ops):
    ref, new = ReferenceEventQueue(), EventQueue()
    # the events each push returned, in push order (cancel targets); a
    # target may be queued, popped or already cancelled
    ref_events: list = []
    new_events: list = []
    for op in ops:
        name = op[0]
        if name == "push":
            _, time, kind, payload = op
            pushed_ref = ref.push(time, kind, payload)
            pushed_new = new.push(time, kind, payload)
            assert snapshot(pushed_new) == snapshot(pushed_ref)
            ref_events.append(pushed_ref)
            new_events.append(pushed_new)
        elif name == "cancel":
            if ref_events:
                index = op[1] % len(ref_events)
                assert new.cancel(new_events[index]) == ref.cancel(ref_events[index])
        elif name == "cancel_for_payload":
            _, payload, kind = op
            assert new.cancel_for_payload(payload, kind=kind) == ref.cancel_for_payload(
                payload, kind=kind
            )
        elif name == "pop":
            assert pop_outcome(new) == pop_outcome(ref)
        elif name == "peek_time":
            assert new.peek_time() == ref.peek_time()
        elif name == "len":
            assert bool(new) is bool(ref)
        else:
            # the queue travels with the events that point into it, as in
            # an engine checkpoint
            ref, ref_events = pickle.loads(pickle.dumps((ref, ref_events)))
            new, new_events = pickle.loads(pickle.dumps((new, new_events)))
        assert len(new) == len(ref)
    assert drain(new) == drain(ref)


def test_equal_times_fire_by_kind_then_seq():
    ops = [
        (EventKind.CONTROLLER_TICK, None),
        (EventKind.INSTANCE_TERMINATE, "vm-1"),
        (EventKind.EXEC_DONE, "a"),
        (EventKind.INSTANCE_REVOKED, "vm-2"),
        (EventKind.STAGE_OUT_DONE, "b"),
    ]
    ref, new = ReferenceEventQueue(), EventQueue()
    for kind, payload in ops:
        ref.push(4.0, kind, payload)
        new.push(4.0, kind, payload)
    order = drain(new)
    assert order == drain(ref)
    assert [kind for _, kind, _, _ in order] == [
        EventKind.EXEC_DONE,
        EventKind.STAGE_OUT_DONE,
        EventKind.INSTANCE_TERMINATE,
        EventKind.INSTANCE_REVOKED,
        EventKind.CONTROLLER_TICK,
    ]


@pytest.mark.parametrize("kind", [None, EventKind.INSTANCE_REVOKED])
def test_cancel_for_payload_skips_popped_and_cancelled(kind):
    ref, new = ReferenceEventQueue(), EventQueue()
    for queue in (ref, new):
        first = queue.push(1.0, EventKind.INSTANCE_REVOKED, "vm-1")
        second = queue.push(2.0, EventKind.INSTANCE_REVOKED, "vm-1")
        queue.push(3.0, EventKind.INSTANCE_REVOKED, "vm-1")
        queue.push(4.0, EventKind.INSTANCE_TERMINATE, "vm-1")
        assert queue.pop() is first
        queue.cancel(second)
    assert new.cancel_for_payload("vm-1", kind=kind) == ref.cancel_for_payload(
        "vm-1", kind=kind
    )
    assert drain(new) == drain(ref)
