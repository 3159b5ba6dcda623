"""Guards on the telemetry fast path.

Disabled telemetry is meant to cost one cached-boolean check per
emission site. No percentage of it is gated: CI runs
``tools/perfbench.py --check --threshold 0.6``, which fails only on a
>60% events/sec drop against the committed ``BENCH_engine.json``. These
tests guard the *mechanism* instead (structural fast-path flags and the
absence of per-event allocation when disabled) plus a lenient wall-clock
bound on *enabled* tracing, which is allowed to do real work.
"""

from __future__ import annotations

import time

from repro.autoscalers import WireAutoscaler
from repro.engine import Simulation
from repro.telemetry import NULL_METRICS, NULL_TRACER, MemorySink, Tracer
from repro.workloads import tpch6


def make_sim(small_site, tracer=None):
    return Simulation(
        tpch6("S").generate(0),
        small_site,
        WireAutoscaler(),
        60.0,
        seed=0,
        tracer=tracer,
    )


class TestFastPathStructure:
    def test_default_simulation_is_fully_disabled(self, small_site):
        sim = make_sim(small_site)
        assert sim.tracer is NULL_TRACER
        assert sim._trace is False
        assert sim.metrics is NULL_METRICS
        assert sim._metrics_on is False

    def test_disabled_run_skips_telemetry_bookkeeping(self, small_site):
        sim = make_sim(small_site)
        result = sim.run()
        # the ready-time map is only populated on the traced path
        assert sim.runs[0].ready_at == {}
        # ... so untraced attempts never compute queue waits
        assert all(
            a.queue_wait is None for a in result.monitor.all_attempts()
        )

    def test_traced_run_computes_queue_waits(self, small_site):
        sim = make_sim(small_site, tracer=Tracer(MemorySink()))
        result = sim.run()
        completed = [a for a in result.monitor.all_attempts() if a.is_completed]
        assert completed
        assert all(a.queue_wait is not None for a in completed)

    def test_explicit_null_tracer_stays_on_fast_path(self, small_site):
        assert Tracer().enabled is False
        sim = make_sim(small_site, tracer=Tracer())
        assert sim._trace is False


class TestOverhead:
    def test_enabled_tracing_wall_clock_is_bounded(self, small_site):
        """Full in-memory tracing stays within 2x of an untraced run.

        Deliberately lenient (CI machines are noisy); the disabled path
        is held by the structural tests above, not by a timing budget.
        """

        def median_seconds(tracer_factory, repetitions=5):
            times = []
            for _ in range(repetitions):
                sim = make_sim(small_site, tracer=tracer_factory())
                started = time.perf_counter()
                sim.run()
                times.append(time.perf_counter() - started)
            return sorted(times)[repetitions // 2]

        untraced = median_seconds(lambda: None)
        traced = median_seconds(lambda: Tracer(MemorySink()))
        assert traced <= untraced * 2.0 + 0.01

    def test_traced_and_untraced_runs_are_identical(self, small_site):
        untraced = make_sim(small_site).run()
        traced = make_sim(small_site, tracer=Tracer(MemorySink())).run()
        assert traced.makespan == untraced.makespan
        assert traced.total_units == untraced.total_units
        assert traced.utilization == untraced.utilization
        assert traced.ticks == untraced.ticks
        assert traced.pool_timeline == untraced.pool_timeline
