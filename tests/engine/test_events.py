"""Tests for the discrete-event queue."""

from __future__ import annotations

import pytest

from repro.engine import EventKind, EventQueue


class TestOrdering:
    def test_pops_by_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.EXEC_DONE, "b")
        q.push(1.0, EventKind.EXEC_DONE, "a")
        assert q.pop().payload == "a"
        assert q.pop().payload == "b"

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, "first")
        q.push(1.0, EventKind.EXEC_DONE, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(3.0, EventKind.CONTROLLER_TICK)
        assert q.peek_time() == 3.0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, EventKind.EXEC_DONE, "x")

    def test_nan_time_rejected(self):
        # a NaN compares false both ways, so it would break heap order
        # without any error; the message names the event it came from
        q = EventQueue()
        q.push(2.0, EventKind.EXEC_DONE, "later")
        with pytest.raises(ValueError, match=r"EXEC_DONE.*'t-7'"):
            q.push(float("nan"), EventKind.EXEC_DONE, "t-7")
        assert len(q) == 1
        q.push(1.0, EventKind.EXEC_DONE, "sooner")
        assert [q.pop().payload, q.pop().payload] == ["sooner", "later"]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        keep = q.push(1.0, EventKind.EXEC_DONE, "keep")
        drop = q.push(0.5, EventKind.EXEC_DONE, "drop")
        q.cancel(drop)
        assert q.pop().payload == "keep"

    def test_len_accounts_for_cancellation(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        assert len(q) == 1
        q.cancel(e)
        assert len(q) == 0
        assert not q

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        q.push(2.0, EventKind.EXEC_DONE)
        q.cancel(e)
        assert q.peek_time() == 2.0

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.EXEC_DONE)
        assert q


class TestCancellationBookkeeping:
    """Regression: cancel() must be idempotent against popped and
    double-cancelled seqs — the historical implementation grew its
    cancelled set unboundedly and corrupted ``len()`` in those cases."""

    def test_cancel_after_pop_is_a_noop(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE, "x")
        q.push(2.0, EventKind.EXEC_DONE, "y")
        assert q.pop() is e
        q.cancel(e)  # already popped: must not affect the live event
        assert len(q) == 1
        assert q.pop().payload == "y"
        assert len(q) == 0

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        q.push(2.0, EventKind.EXEC_DONE)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 1
        assert q.pop().time == 2.0
        assert not q

    def test_cancel_then_pop_then_cancel_again(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE)
        live = q.push(2.0, EventKind.EXEC_DONE)
        q.cancel(e)
        assert q.pop() is live
        q.cancel(e)  # seq long gone
        assert len(q) == 0
        with pytest.raises(IndexError):
            q.pop()

    def test_len_never_negative_under_mixed_ops(self):
        q = EventQueue()
        events = [q.push(float(i), EventKind.EXEC_DONE) for i in range(10)]
        for e in events[:5]:
            q.cancel(e)
            q.cancel(e)
        for e in events[:3]:
            q.cancel(e)
        assert len(q) == 5
        popped = [q.pop() for _ in range(5)]
        assert [e.time for e in popped] == [5.0, 6.0, 7.0, 8.0, 9.0]
        for e in popped:
            q.cancel(e)
        assert len(q) == 0
        assert not q


class TestCancelForPayload:
    """Cancelling by payload: a scan of the queued events."""

    def test_cancels_every_event_with_payload(self):
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, "i-0")
        q.push(2.0, EventKind.STAGE_OUT_DONE, "i-0")
        survivor = q.push(3.0, EventKind.EXEC_DONE, "i-1")
        assert q.cancel_for_payload("i-0") == 2
        assert len(q) == 1
        assert q.pop() is survivor

    def test_kind_filter_only_hits_matching_kind(self):
        q = EventQueue()
        terminate = q.push(5.0, EventKind.INSTANCE_TERMINATE, "i-0")
        q.push(6.0, EventKind.INSTANCE_REVOKED, "i-0")
        assert q.cancel_for_payload("i-0", kind=EventKind.INSTANCE_REVOKED) == 1
        assert len(q) == 1
        assert q.pop() is terminate

    def test_unknown_payload_is_a_noop(self):
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, "i-0")
        assert q.cancel_for_payload("never-seen") == 0
        assert len(q) == 1

    def test_popped_events_leave_the_index(self):
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, "i-0")
        q.push(2.0, EventKind.EXEC_DONE, "i-0")
        q.pop()
        assert q.cancel_for_payload("i-0") == 1
        assert len(q) == 0

    def test_cancelled_events_leave_the_index(self):
        q = EventQueue()
        e = q.push(1.0, EventKind.EXEC_DONE, "i-0")
        q.push(2.0, EventKind.EXEC_DONE, "i-0")
        q.cancel(e)
        assert q.cancel_for_payload("i-0") == 1
        assert len(q) == 0

    def test_unhashable_payload_still_queues(self):
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, ["not", "hashable"])
        assert q.pop().payload == ["not", "hashable"]

    def test_reused_payload_after_cancel_for_payload(self):
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, "i-0")
        q.cancel_for_payload("i-0")
        q.push(2.0, EventKind.EXEC_DONE, "i-0")
        assert q.cancel_for_payload("i-0") == 1
        assert len(q) == 0

    def test_unhashable_payload_is_cancellable(self):
        # push accepts any payload, so cancelling by one must work too
        q = EventQueue()
        q.push(1.0, EventKind.EXEC_DONE, ["x"])
        q.push(2.0, EventKind.STAGE_OUT_DONE, ["x"])
        survivor = q.push(3.0, EventKind.EXEC_DONE, ["y"])
        assert q.cancel_for_payload(["x"]) == 2
        assert q.cancel_for_payload(["x"], kind=EventKind.EXEC_DONE) == 0
        assert len(q) == 1
        assert q.pop() is survivor
