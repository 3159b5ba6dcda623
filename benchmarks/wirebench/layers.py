"""Outside-in span recorder for the benchmark's traced pass.

Nothing under ``src/`` knows about this module. :func:`install` swaps
public methods of ``repro`` classes, at class level, and ``repro`` module
functions, in every module that binds them, for timing wrappers;
:meth:`Patches.restore` puts every original back. A wrapped call opens a
span (name, start, end, parent); a span's self time is its duration
minus the time its child spans cover.

Event handlers are not public, so their spans are cut from the queue:
an ``engine.handle.<kind>`` span runs from one ``EventQueue.pop`` return
to the next ``pop`` call, and the tail after a run's last pop (its last
handler plus finalization) is ``engine.finalize``.

The recorder keeps aggregates; whole spans are kept only when a list is
passed in (``run.py --spans``), because a genome-L run makes ~10^5 of
them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import defaultdict
from typing import Callable

from repro.cloud.billing import BillingModel
from repro.cloud.pool import InstancePool
from repro.cloud.provisioner import Provisioner
from repro.core.lookahead import LookaheadSimulator
from repro.core.predictor import SharedEvalCache, TaskPredictor
from repro.core.steering import SteeringPolicy, steer_inputs_for
from repro.engine import faults as engine_faults
from repro.engine import runtime as engine_runtime
from repro.engine import transfer as engine_transfer
from repro.engine.control import Autoscaler
from repro.engine.events import EventKind, EventQueue
from repro.engine.master import FrameworkMaster
from repro.engine.monitor import Monitor
from repro.engine.scheduler import FifoScheduler
from repro.engine.simulator import Simulation
from repro.experiments import run_campaign_parallel, run_setting
from repro.experiments.campaign import CampaignStore
from repro.fleet import run_fleet
from repro.fleet.autoscalers import FleetAutoscaler
from repro.fleet.engine import FleetSimulation
from repro.fleet.policies import AllocationPolicy
from repro.telemetry.tracer import Tracer
from repro.validate.checker import InvariantChecker
from repro.workloads.base import StagedWorkflowSpec
from repro.zoo.registry import GeneratorSpec, LazyZooSpec

__all__ = [
    "KINDS",
    "METRICS",
    "Patches",
    "Recorder",
    "install",
    "layer_metrics",
    "wrapper_ns_per_call",
]

_clock = time.perf_counter_ns

#: lowercase ``EventKind`` values, one ``engine.handle.<kind>`` span each
KINDS: tuple[str, ...] = tuple(kind.value for kind in EventKind)

_HANDLE = "engine.handle."
_MODEL_METHODS = (
    "execution_time",
    "stage_in_time",
    "stage_out_time",
    "stage_in_time_placed",
    "failure_offset",
)
_FAULTS = ("revocations", "provision_failures", "provision_retries", "stragglers")


class Recorder:
    """Span aggregates of one traced pass (or several)."""

    def __init__(self, spans: list | None = None) -> None:
        #: span name -> closed spans
        self.calls: dict[str, int] = defaultdict(int)
        #: span name -> summed self time (ns)
        self.self_ns: dict[str, int] = defaultdict(int)
        #: counters read from arguments and results at layer boundaries
        self.counts: dict[str, float] = defaultdict(float)
        #: inclusive duration of every autoscaler plan() call (ns)
        self.plan_ns: list[int] = []
        #: makespan of every engine run, in call order
        self.makespans: list[float] = []
        #: (id, parent id, name, start ns, end ns) per span, if kept
        self.spans = spans
        self._stack: list[list] = []
        self._next_id = 0
        self.caches: list[SharedEvalCache] = []

    def enter(self, name: str) -> int:
        self._next_id += 1
        self._stack.append([name, _clock(), 0, self._next_id])
        return self._next_id

    def exit(self, span_id: int | None = None) -> int:
        """Close spans down to ``span_id`` (default: the top one).

        Returns the duration of the last span closed.
        """
        while True:
            name, start, child_ns, sid = self._stack.pop()
            end = _clock()
            duration = end - start
            self.calls[name] += 1
            self.self_ns[name] += duration - child_ns
            parent = None
            if self._stack:
                top = self._stack[-1]
                top[2] += duration
                parent = top[3]
            if self.spans is not None:
                self.spans.append((sid, parent, name, start, end))
            if span_id is None or sid == span_id:
                return duration

    def top_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def rename_top(self, name: str) -> None:
        self._stack[-1][0] = name


def _timed(rec: Recorder, name: str, fn: Callable, after: Callable | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = rec.exit(sid)
        if after is not None:
            after(args, result, duration)
        return result

    return wrapper


class Patches:
    """Replaced attributes, so every original can be put back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(cls)[name]
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original))

    def methods(self, family: type, names, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``names`` wherever ``family`` or a subclass defines them."""
        for cls in _family(family):
            for name in names:
                if isinstance(vars(cls).get(name), types.FunctionType):
                    self.method(cls, name, make)

    def function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that binds it."""
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name.split(".")[0] != "repro":
                continue
            if getattr(module, fn.__name__, None) is fn:
                setattr(module, fn.__name__, wrapper)
                self._undo.append((module, fn.__name__, fn))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _family(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _family(sub) if c not in out)
    return out


def _public(cls: type, prefix: str = "") -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if isinstance(value, types.FunctionType)
        and not name.startswith("_")
        and name.startswith(prefix)
    ]


def install(rec: Recorder) -> Patches:
    """Wrap every layer boundary; the caller must ``restore()`` after."""
    patches = Patches()
    counts = rec.counts

    def span(name: str, after: Callable | None = None) -> Callable[[Callable], Callable]:
        return lambda fn: _timed(rec, name, fn, after)

    # -- repro.engine -------------------------------------------------
    patches.method(EventQueue, "push", span("engine.events.push"))
    patches.method(EventQueue, "cancel", span("engine.events.cancel"))
    patches.method(EventQueue, "cancel_for_payload", span("engine.events.cancel"))

    def wrap_pop(pop: Callable) -> Callable:
        @functools.wraps(pop)
        def wrapper(self):
            if (rec.top_name() or "").startswith(_HANDLE):
                rec.exit()
            sid = rec.enter("engine.events.pop")
            try:
                event = pop(self)
            finally:
                rec.exit(sid)
            kind = event.kind.value
            counts[f"{_HANDLE}{kind}.count"] += 1
            rec.enter(_HANDLE + kind)
            return event

        return wrapper

    patches.method(EventQueue, "pop", wrap_pop)

    def wrap_run(run: Callable) -> Callable:
        @functools.wraps(run)
        def wrapper(self, *args, **kwargs):
            sid = rec.enter("engine.run")
            try:
                result = run(self, *args, **kwargs)
            finally:
                if (rec.top_name() or "").startswith(_HANDLE):
                    rec.rename_top("engine.finalize")
                rec.exit(sid)
            if result is not None:
                harvest = rec.enter("wirebench.harvest")
                _harvest(rec, self, result)
                rec.exit(harvest)
            return result

        return wrapper

    patches.method(Simulation, "run", wrap_run)
    patches.method(FleetSimulation, "run", wrap_run)
    patches.methods(FifoScheduler, ("push", "pop", "snapshot"), span("engine.scheduler"))
    patches.methods(Monitor, _public(Monitor, "record_"), span("engine.monitor"))
    patches.methods(
        FrameworkMaster, _public(FrameworkMaster, "mark_"), span("engine.master")
    )
    for module in (engine_runtime, engine_transfer, engine_faults):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name in _MODEL_METHODS:
                    if isinstance(vars(cls).get(name), types.FunctionType):
                        patches.method(cls, name, span("engine.models"))

    # -- repro.cloud --------------------------------------------------
    patches.methods(InstancePool, _public(InstancePool), span("cloud.pool"))
    patches.methods(BillingModel, _public(BillingModel), span("cloud.billing"))
    patches.method(Provisioner, "order_launches", span("cloud.provisioner"))

    # -- repro.core ---------------------------------------------------
    def after_plan(args, result, duration):
        rec.plan_ns.append(duration)

    def after_fleet_plan(args, result, duration):
        rec.plan_ns.append(duration)
        counts["fleet.tenants"] += len(args[1].tenants)

    def after_project(args, load, duration):
        counts["core.q_task"] += len(load.remaining)

    patches.methods(Autoscaler, ("plan",), span("core.plan", after_plan))
    patches.methods(FleetAutoscaler, ("plan",), span("fleet.plan", after_fleet_plan))
    patches.method(TaskPredictor, "observe_interval", span("core.observe"))
    patches.method(TaskPredictor, "build_run_state", span("core.build"))
    patches.method(LookaheadSimulator, "project", span("core.project", after_project))
    patches.methods(SteeringPolicy, ("decide", "decide_with_target"), span("core.decide"))
    patches.function(steer_inputs_for, _timed(rec, "core.steer_inputs", steer_inputs_for))

    def wrap_cache_init(init: Callable) -> Callable:
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            rec.caches.append(self)

        return wrapper

    patches.method(SharedEvalCache, "__init__", wrap_cache_init)

    # -- repro.fleet --------------------------------------------------
    patches.methods(AllocationPolicy, ("choose",), span("fleet.policy"))

    # -- repro.validate -----------------------------------------------
    def after_check_final(args, result, duration):
        counts["validate.violations"] += len(args[0].violations)

    patches.method(InvariantChecker, "after_event", span("validate.after_event"))
    patches.method(
        InvariantChecker, "check_final", span("validate.check_final", after_check_final)
    )

    # -- repro.telemetry ----------------------------------------------
    patches.method(Tracer, "emit", span("telemetry.emit"))

    # -- repro.workloads ----------------------------------------------
    for cls in (StagedWorkflowSpec, GeneratorSpec, LazyZooSpec):
        patches.method(cls, "generate", span("workloads.generate"))

    # -- repro.experiments --------------------------------------------
    def after_save(args, result, duration):
        counts["experiments.store.bytes_written"] += args[0].path.stat().st_size

    patches.method(CampaignStore, "save", span("experiments.store.save", after_save))
    for fn in (run_setting, run_fleet):
        patches.function(fn, _timed(rec, "experiments.harness", fn))
    patches.function(
        run_campaign_parallel,
        _timed(rec, "experiments.campaign", run_campaign_parallel),
    )
    return patches


def _harvest(rec: Recorder, sim, result) -> None:
    """Fold one finished engine run's modelled outcome into the counters."""
    counts = rec.counts
    counts["runs"] += 1
    if isinstance(sim, FleetSimulation):
        monitors = [tenant.monitor for tenant in sim.tenants]
        counts["engine.tasks"] += sum(len(tenant.workflow) for tenant in sim.tenants)
        counts["fleet.mean_queue_wait_s"] += result.mean_queue_wait
        counts["fleet.mean_slowdown"] += result.mean_slowdown
    else:
        monitors = [sim.monitor]
        counts["engine.tasks"] += len(sim.workflow)
    counts["engine.attempts"] += sum(
        sum(1 for _ in monitor.all_attempts()) for monitor in monitors
    )
    counts["engine.restarts"] += result.restarts
    counts["cloud.instances_launched"] += result.instances_launched
    counts["cloud.utilization"] += result.utilization
    counts["sim_units"] += result.total_units
    for fault in _FAULTS:
        counts[f"cloud.faults.{fault}"] += result.cloud_faults.get(fault, 0)
    rec.makespans.append(result.makespan)
    for cache in rec.caches:
        counts["core.eval_cache.hits"] += cache.hits
        counts["core.eval_cache.misses"] += cache.misses
    rec.caches.clear()


#: every per-layer metric: name -> unit. Counts and ``.ms`` values are
#: per engine run; ``.ms`` is self time.
METRICS: dict[str, str] = {
    "engine.events.pushed": "count",
    "engine.events.handled": "count",
    "engine.events.useful_ratio": "ratio",
    "engine.events.push_ms": "ms",
    "engine.events.pop_ms": "ms",
    "engine.events.cancel_ms": "ms",
    **{f"{_HANDLE}{kind}.count": "count" for kind in KINDS},
    **{f"{_HANDLE}{kind}.ms": "ms" for kind in KINDS},
    **{
        f"engine.{part}.{stat}": unit
        for part in ("scheduler", "monitor", "master", "models")
        for stat, unit in (("calls", "count"), ("ms", "ms"))
    },
    "engine.finalize.ms": "ms",
    **{
        f"cloud.{part}.{stat}": unit
        for part in ("pool", "billing", "provisioner")
        for stat, unit in (("calls", "count"), ("ms", "ms"))
    },
    **{f"cloud.faults.{fault}": "count" for fault in _FAULTS},
    "core.ticks": "count",
    "core.plan_us_per_tick.p50": "us",
    "core.plan_us_per_tick.p90": "us",
    "core.plan.ms": "ms",
    "core.observe.ms": "ms",
    "core.build.ms": "ms",
    "core.project.ms": "ms",
    "core.decide.ms": "ms",
    "core.steer_inputs.ms": "ms",
    "core.q_task": "count",
    "core.eval_cache.lookups": "count",
    "core.eval_cache.hit_ratio": "ratio",
    "fleet.plan.ms": "ms",
    "fleet.tenants_per_tick": "count",
    "fleet.policy.calls": "count",
    "fleet.policy.ms": "ms",
    "validate.after_event.calls": "count",
    "validate.after_event.ms": "ms",
    "validate.check_final.ms": "ms",
    "validate.violations": "count",
    "telemetry.emit.calls": "count",
    "telemetry.emit.ms": "ms",
    "telemetry.bytes": "bytes",
    "workloads.generate.calls": "count",
    "workloads.generate.ms": "ms",
    "experiments.store.saves": "count",
    "experiments.store.save_ms": "ms",
    "experiments.store.bytes_written": "bytes",
    "experiments.harness.ms": "ms",
    "engine.attempts_per_task": "ratio",
    "engine.restarts": "count",
    "cloud.instances_launched": "count",
    "cloud.utilization": "ratio",
    "fleet.mean_queue_wait_s": "sim_s",
    "fleet.mean_slowdown": "ratio",
    "sim_units": "units",
    "sim_makespan_s": "sim_s",
    "trace.overhead_ratio": "ratio",
    "trace.wrapper_ns_per_call": "ns",
}


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-run values of every :data:`METRICS` entry but ``trace.*``."""
    counts = rec.counts
    runs = counts["runs"]
    if runs < 1 or passes < 1:
        raise ValueError("the traced pass finished no engine run")

    def per_run(value: float) -> float:
        return value / runs

    def ms(*names: str) -> float:
        return per_run(sum(rec.self_ns[name] for name in names) / 1e6)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ticks = len(rec.plan_ns)
    plan_us = [ns / 1e3 for ns in rec.plan_ns] or [0.0]
    pushed = rec.calls["engine.events.push"]
    handled = rec.calls["engine.events.pop"]
    hits = counts["core.eval_cache.hits"]
    lookups = hits + counts["core.eval_cache.misses"]
    first_pass = rec.makespans[: len(rec.makespans) // passes]
    out = {
        "engine.events.pushed": per_run(pushed),
        "engine.events.handled": per_run(handled),
        "engine.events.useful_ratio": ratio(handled, pushed),
        "engine.events.push_ms": ms("engine.events.push"),
        "engine.events.pop_ms": ms("engine.events.pop"),
        "engine.events.cancel_ms": ms("engine.events.cancel"),
        "engine.finalize.ms": ms("engine.finalize"),
        "core.ticks": per_run(ticks),
        "core.plan_us_per_tick.p50": statistics.median(plan_us),
        "core.plan_us_per_tick.p90": (
            statistics.quantiles(plan_us, n=10)[-1] if len(plan_us) > 1 else plan_us[0]
        ),
        "core.plan.ms": ms("core.plan", "fleet.plan"),
        "core.q_task": ratio(counts["core.q_task"], ticks),
        "core.eval_cache.lookups": per_run(lookups),
        "core.eval_cache.hit_ratio": ratio(hits, lookups),
        "fleet.plan.ms": ms("fleet.plan"),
        "fleet.tenants_per_tick": ratio(counts["fleet.tenants"], ticks),
        "validate.check_final.ms": ms("validate.check_final"),
        "validate.violations": per_run(counts["validate.violations"]),
        "telemetry.bytes": per_run(counts["telemetry.bytes"]),
        "experiments.store.saves": per_run(rec.calls["experiments.store.save"]),
        "experiments.store.save_ms": ms("experiments.store.save"),
        "experiments.store.bytes_written": per_run(
            counts["experiments.store.bytes_written"]
        ),
        "experiments.harness.ms": ms("experiments.harness"),
        "engine.attempts_per_task": ratio(
            counts["engine.attempts"], counts["engine.tasks"]
        ),
        "sim_units": counts["sim_units"] / passes,
        "sim_makespan_s": statistics.median(first_pass),
    }
    for kind in KINDS:
        out[f"{_HANDLE}{kind}.count"] = per_run(counts[f"{_HANDLE}{kind}.count"])
        out[f"{_HANDLE}{kind}.ms"] = ms(_HANDLE + kind)
    for span_name in (
        "engine.scheduler",
        "engine.monitor",
        "engine.master",
        "engine.models",
        "cloud.pool",
        "cloud.billing",
        "cloud.provisioner",
        "fleet.policy",
        "validate.after_event",
        "telemetry.emit",
        "workloads.generate",
    ):
        out[f"{span_name}.calls"] = per_run(rec.calls[span_name])
        out[f"{span_name}.ms"] = ms(span_name)
    for part in ("observe", "build", "project", "decide", "steer_inputs"):
        out[f"core.{part}.ms"] = ms(f"core.{part}")
    for name in (
        "engine.restarts",
        "cloud.instances_launched",
        "cloud.utilization",
        "fleet.mean_queue_wait_s",
        "fleet.mean_slowdown",
        *(f"cloud.faults.{fault}" for fault in _FAULTS),
    ):
        out[name] = per_run(counts[name])
    return {name: out[name] for name in METRICS if name in out}


def self_time_table(rec: Recorder) -> dict[str, float]:
    """Self ms per run of every span name seen, largest first."""
    runs = rec.counts["runs"] or 1
    table = {
        name: rec.self_ns[name] / 1e6 / runs for name, calls in rec.calls.items() if calls
    }
    return dict(sorted(table.items(), key=lambda item: -item[1]))


def wrapper_ns_per_call(calls: int = 200_000) -> float:
    """Cost of one wrapped call over a plain one, both on a no-op method."""

    class Probe:
        def noop(self) -> None:
            return None

    probe = Probe()
    plain = probe.noop
    start = _clock()
    for _ in range(calls):
        plain()
    plain_ns = _clock() - start
    wrapped = types.MethodType(_timed(Recorder(), "probe", Probe.noop), probe)
    start = _clock()
    for _ in range(calls):
        wrapped()
    wrapped_ns = _clock() - start
    return (wrapped_ns - plain_ns) / calls
