"""Round-trips for the individual pieces a checkpoint is made of.

Whole-engine resume (test_checkpoint.py) proves the composition; these
tests pin the components, so a pickling regression points at the
culprit instead of at "the fleet diverged".
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cloud.faults import ChaosInjector, ChaosSpec
from repro.core.ogd import OnlineGradientDescentModel
from repro.engine.events import EventKind, EventQueue
from repro.experiments import CampaignStore
from repro.experiments.campaign import CellRecord
from repro.metrics.stats import MovingMedian


def drain(queue) -> list[tuple[float, int, str]]:
    out = []
    while queue:
        event = queue.pop()
        out.append((event.time, event.seq, str(event.payload)))
    return out


class TestEventQueuePickle:
    def build(self) -> EventQueue:
        q = EventQueue()
        a = q.push(10.0, EventKind.EXEC_DONE, "t00/w0/s0/x")
        q.push(10.0, EventKind.INSTANCE_TERMINATE, "i-1")
        q.push(5.0, EventKind.STAGE_IN_DONE, "t01/w0/s0/y")
        q.push(20.0, EventKind.CONTROLLER_TICK)
        q.push(7.0, EventKind.EXEC_DONE, "i-2")
        q.cancel(a)  # lazy-cancelled event stays heap-resident
        q.cancel_for_payload("i-2")  # cancelled through a heap scan
        return q

    def test_pop_order_survives_pickle(self):
        reference = self.build()
        restored = pickle.loads(pickle.dumps(self.build()))
        assert len(restored) == len(reference)
        assert drain(restored) == drain(reference)

    def test_cancelled_events_stay_cancelled(self):
        restored = pickle.loads(pickle.dumps(self.build()))
        payloads = [p for _, _, p in drain(restored)]
        assert "t00/w0/s0/x" not in payloads
        assert "i-2" not in payloads

    def test_sequence_counter_resumes(self):
        # new pushes after restore must continue the global seq stream,
        # not restart it — seqs are the bit-reproducibility tiebreaker
        original = self.build()
        restored = pickle.loads(pickle.dumps(original))
        e_orig = original.push(30.0, EventKind.EXEC_DONE, "later")
        e_rest = restored.push(30.0, EventKind.EXEC_DONE, "later")
        assert e_rest.seq == e_orig.seq
        assert e_rest.seq > max(s for _, s, _ in drain(self.build()))


class TestOgdStateDict:
    def trained(self) -> OnlineGradientDescentModel:
        model = OnlineGradientDescentModel()
        model.update([(1e6, 10.0), (2e6, 18.0)])
        model.update([(3e6, 30.0)])
        return model

    def test_round_trip_is_exact(self):
        model = self.trained()
        clone = OnlineGradientDescentModel()
        clone.load_state_dict(model.state_dict())
        assert clone.state_dict() == model.state_dict()
        assert clone.predict(2.5e6) == model.predict(2.5e6)

    def test_generation_counter_round_trips(self):
        # generation keys the prediction memos; a restored model must
        # not rewind it or memoized results would go stale undetected
        model = self.trained()
        clone = OnlineGradientDescentModel()
        clone.load_state_dict(model.state_dict())
        assert clone.generation == model.generation == 2

    def test_missing_key_rejected(self):
        state = self.trained().state_dict()
        del state["scale"]
        with pytest.raises(ValueError, match="missing"):
            OnlineGradientDescentModel().load_state_dict(state)

    def test_invalid_values_rejected(self):
        model = OnlineGradientDescentModel()
        bad = model.state_dict() | {"updates": -1}
        with pytest.raises(ValueError):
            model.load_state_dict(bad)


class TestMovingMedianStateDict:
    def test_round_trip(self):
        mm = MovingMedian(window=3)
        for v in (1.0, 5.0, 2.0, 9.0):
            mm.push(v)
        clone = MovingMedian()
        clone.load_state_dict(mm.state_dict())
        assert clone.value() == mm.value()
        assert clone.state_dict() == mm.state_dict()
        # the restored deque must keep its maxlen: one more push evicts
        clone.push(4.0)
        mm.push(4.0)
        assert clone.value() == mm.value()


class TestChaosInjectorPickle:
    def spec(self) -> ChaosSpec:
        return ChaosSpec(
            revocation_rate=1.0,
            straggler_probability=0.4,
            provision_failure=0.3,
        )

    def test_rng_stream_resumes_exactly(self):
        spec = self.spec()
        reference = ChaosInjector(spec, np.random.default_rng(42))
        subject = ChaosInjector(spec, np.random.default_rng(42))
        for _ in range(7):  # advance both streams identically
            reference.straggler_factor()
            subject.straggler_factor()
            reference.revocation_delay()
            subject.revocation_delay()
        restored = pickle.loads(pickle.dumps(subject))
        # the restored injector continues where the stream left off
        for _ in range(20):
            assert restored.straggler_factor() == reference.straggler_factor()
            assert restored.revocation_delay() == reference.revocation_delay()


class TestCampaignStorePickle:
    def record(self, seed: int) -> CellRecord:
        return CellRecord(
            workflow="tpch1-S",
            policy="wire",
            charging_unit=60.0,
            seed=seed,
            makespan=100.0,
            total_units=4,
            total_cost=4.0,
            utilization=0.5,
            peak_instances=2,
            restarts=0,
            completed=True,
        )

    def test_dirty_counter_round_trips(self, tmp_path):
        store = CampaignStore(tmp_path / "campaign.json")
        store.put(self.record(0))
        store.put(self.record(1))
        restored = pickle.loads(pickle.dumps(store))
        assert restored.dirty == store.dirty == 2
        assert len(restored) == 2
        # flush on the restored store persists and resets the counter
        restored.flush()
        assert restored.dirty == 0
        reloaded = CampaignStore(tmp_path / "campaign.json")
        assert [r.seed for r in reloaded.records()] == [0, 1]
