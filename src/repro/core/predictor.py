"""Online task-performance prediction (paper §III-B1 and §III-C).

At the start of each MAPE iteration the task predictor harvests the
previous interval's measurements and updates two kinds of estimators:

- per-stage execution-time models, applied through the five online
  prediction policies of §III-C (reproduced in
  :class:`~repro.core.runstate.PredictionPolicy`);
- the data-transfer estimate ``t̃_data``, the (moving) median of the
  transfer times observed between consecutive iterations (§III-B1).

The predictor then annotates the DAG wavefront with conservative minimum
remaining occupancy times, producing the
:class:`~repro.core.runstate.RunState` the lookahead simulator consumes.

Incremental run-state assembly
------------------------------
``build_run_state`` no longer rescans the full DAG each tick, nor does it
build per-task annotation objects for tasks nothing will look at. It
consumes the monitor's append-only completion log as a delta stream,
maintaining per-stage counts of blocked and sized-ready tasks plus the
DAG's unfinished-parent topology, so each tick costs O(completions since
the last tick + stages + in-flight) instead of O(tasks). The returned run
state's ``estimates`` is a lazy mapping: completed and in-flight tasks
are materialized eagerly (both are cheap and needed every tick), while
BLOCKED/READY annotations are built on first access from per-stage
contexts *captured at the tick* (stage view, Policy 4/5 memo, frozen OGD
coefficients) — a deferred materialization is therefore bit-identical to
an eager one. Per-stage policy evaluations are memoized keyed on
``(completed-version, model generation)`` — see docs/performance.md.

When the bookkeeping disagrees with the completion log or the framework
master, the build raises ``RuntimeError`` naming the task, stage or
count. tests/core/controller_oracle.py holds a from-scratch full-DAG
scan that a differential test compares with this build at every tick of
engine-driven runs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import MutableMapping
from itertools import chain
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.core.config import WireConfig
from repro.core.ogd import OnlineGradientDescentModel
from repro.core.runstate import PredictionPolicy, RunState, TaskEstimate
from repro.dag.workflow import Workflow
from repro.engine.master import FrameworkMaster, TaskExecState
from repro.engine.monitor import Monitor
from repro.metrics.stats import MovingMedian, mean, median, median_sorted

__all__ = ["SharedEvalCache", "TaskPredictor"]


def _sizes_equivalent(a: float, b: float, rtol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class SharedEvalCache:
    """Content-addressed cache of OGD model predictions.

    The key is the full model state ``(alpha0, alpha1, scale)`` plus the
    input size, so a hit is guaranteed to reproduce ``model.predict``
    bit-for-bit — which is what makes the cache safely shareable across
    *different* predictors: fleet steering hands one instance to every
    tenant's predictor, so tenants running the same workflow genome at the
    same model state reuse each other's evaluations (§IV-F overhead).
    """

    __slots__ = ("_cache", "max_entries", "hits", "misses")

    def __init__(self, max_entries: int = 1 << 16) -> None:
        self._cache: dict[tuple[float, float, float, float], float] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def predict_from(
        self, alpha0: float, alpha1: float, scale: float, input_size: float
    ) -> float:
        """Memoized OGD evaluation from explicit (frozen) coefficients."""
        key = (alpha0, alpha1, scale, input_size)
        value = self._cache.get(key)
        if value is None:
            if len(self._cache) >= self.max_entries:
                self._cache.clear()
            value = self._cache[key] = OnlineGradientDescentModel.predict_from(
                alpha0, alpha1, scale, input_size
            )
            self.misses += 1
        else:
            self.hits += 1
        return value

    def predict(self, model: OnlineGradientDescentModel, input_size: float) -> float:
        """``model.predict(input_size)``, memoized on the model state."""
        return self.predict_from(
            model.alpha0, model.alpha1, model.scale, input_size
        )


class _StageAccumulator:
    """Per-stage completed-attempt aggregates, maintained incrementally.

    ``by_size`` mirrors a stable sort by input size of
    :meth:`Monitor.completed_in_stage` (which is in stage-dispatch
    order): entries are kept sorted by ``(input_size, _stage_seq)``, so
    ties on size preserve dispatch order exactly. ``by_seq`` mirrors the
    un-sorted ``completed_in_stage`` list itself (sorted by dispatch
    index). On top of those order-preserving views (which the mean
    aggregator needs), *value-sorted* execution-time lists — per stage and
    per distinct input size — are maintained so the median aggregator
    reads each tick's medians by index (:func:`median_sorted`) instead of
    re-aggregating thousands of floats.
    """

    __slots__ = (
        "count",
        "use_median",
        "by_size",
        "by_seq",
        "by_time",
        "sizes",
        "size_times",
    )

    def __init__(self, use_median: bool = True) -> None:
        #: completed attempts seen, including any without an exec time
        self.count = 0
        #: which family of views to maintain (set from the config once)
        self.use_median = use_median
        #: (input_size, stage_seq, exec_time) sorted by (size, seq)
        self.by_size: list[tuple[float, int, float]] = []
        #: (stage_seq, exec_time) sorted by seq — dispatch order
        self.by_seq: list[tuple[int, float]] = []
        #: all execution times, sorted by value
        self.by_time: list[float] = []
        #: distinct input sizes, sorted ascending
        self.sizes: list[float] = []
        #: input size -> its execution times, sorted by value
        self.size_times: dict[float, list[float]] = {}


@dataclass(frozen=True)
class _StageView:
    """One stage's peer-task aggregates at a single instant."""

    stage_id: str
    has_completed: bool
    has_running: bool
    #: aggregate elapsed run time of in-flight tasks (Policy 2), if any
    median_elapsed: float | None
    #: aggregate execution time of completed tasks (Policy 3), if any
    median_completed: float | None
    #: (representative input size, aggregate execution time) per group
    groups: list[tuple[float, float]]
    #: the representative sizes alone (ascending — the clustering walks
    #: sizes in sorted order), for bisecting into ``groups``
    group_sizes: list[float] = field(default_factory=list)


@dataclass(slots=True)
class _StageTickContext:
    """One stage's frozen evaluation context for a single MAPE tick.

    Everything a deferred Policy 4/5 evaluation needs, captured when the
    run state is built: the completed-peer view, the (shared, epoch-keyed)
    size memo, and the OGD coefficients as plain floats. The live model
    may step after the tick; evaluating from the captured coefficients via
    :meth:`OnlineGradientDescentModel.predict_from` reproduces the at-tick
    result exactly.
    """

    view: _StageView
    memo: dict[float, tuple[float, PredictionPolicy]]
    rtol: float
    alpha0: float
    alpha1: float
    scale: float
    shared: SharedEvalCache

    def sized(self, input_size: float) -> tuple[float, PredictionPolicy]:
        """Policies 4/5 for a READY/in-flight task of known input size.

        The group scan exploits that the Policy-4 match window is
        contiguous over the ascending representative sizes: for reps
        ``s <= d`` the predicate needs ``d - s <= rtol*d`` and for
        ``s >= d`` it needs ``s - d <= rtol*s``, both defining one
        interval around ``d``. Bisecting to a *conservative* lower bound
        (rtol widened by 1%, dwarfing any float rounding in the bound
        arithmetic) only skips reps that provably fail the predicate, and
        the symmetric upper guard only stops once reps provably keep
        failing — every candidate in between is still decided by the
        exact predicate in ascending order, so the first match (and the
        Policy-5 fallback) is identical to the full linear scan.
        """
        result = self.memo.get(input_size)
        if result is None:
            rtol = self.rtol
            view = self.view
            groups = view.groups
            lo = 0
            margin = rtol * 1.01 * abs(input_size)
            if len(groups) > 32:
                lo = bisect_left(view.group_sizes, input_size - margin)
            result = None
            for i in range(lo, len(groups)):
                size, agg_time = groups[i]
                if _sizes_equivalent(size, input_size, rtol):
                    result = (agg_time, PredictionPolicy.MATCHED_GROUP)
                    break
                if size > input_size and size - input_size > rtol * 1.01 * size:
                    break
            if result is None:
                result = (
                    self.shared.predict_from(
                        self.alpha0, self.alpha1, self.scale, input_size
                    ),
                    PredictionPolicy.OGD,
                )
            self.memo[input_size] = result
        return result


class _LazyEstimates(MutableMapping):
    """The run state's ``estimates`` mapping, materialized on demand.

    Iteration order is the workflow's topological order, as in the
    reference full scan's dict (tests/core/controller_oracle.py).
    Completed tasks resolve to
    the predictor's immutable final annotations; in-flight tasks were
    annotated eagerly at build time; BLOCKED/READY tasks materialize on
    first access from the captured per-stage tick contexts, so untouched
    tasks never pay for a :class:`TaskEstimate`. All inputs are frozen at
    the tick (the phase snapshot is a copy), making deferred access
    bit-identical to the eager build.
    """

    __slots__ = (
        "_order",
        "_phases",
        "_final",
        "_final_raw",
        "_data",
        "_ctx",
        "_stage_of",
        "_input_size",
        "_ss_key",
        "_t_data",
        "_annotate",
        "_monitor",
        "_now",
        "_rem_ready",
        "_rem_blocked",
    )

    def __init__(
        self,
        order: tuple[str, ...],
        phases: dict[str, TaskExecState],
        final: dict[str, TaskEstimate],
        final_raw: dict[str, tuple[float, str | None]],
        data: dict[str, TaskEstimate],
        ctx: dict[str, _StageTickContext],
        stage_of,
        input_size: dict[str, float],
        ss_key: dict[str, tuple[str, float]],
        t_data: float,
        annotate,
        monitor: Monitor,
        now: float,
    ) -> None:
        self._order = order
        self._phases = phases
        self._final = final
        self._final_raw = final_raw
        self._data = data
        self._ctx = ctx
        self._stage_of = stage_of
        self._input_size = input_size
        self._ss_key = ss_key
        self._t_data = t_data
        self._annotate = annotate
        self._monitor = monitor
        self._now = now
        # remaining-occupancy memos for the float-only fast path: within
        # a tick the value is a pure function of (stage, input size) for
        # READY tasks and of the stage alone for BLOCKED ones
        self._rem_ready: dict[tuple[str, float], float] = {}
        self._rem_blocked: dict[str, float] = {}

    # -- materialization ------------------------------------------------
    def _eval(
        self, task_id: str, phase: TaskExecState
    ) -> tuple[float, PredictionPolicy]:
        """§III-C policy selection from the captured stage context."""
        ctx = self._ctx[self._stage_of[task_id]]
        view = ctx.view
        if not view.has_completed:
            if view.has_running:
                assert view.median_elapsed is not None
                return view.median_elapsed, PredictionPolicy.RUNNING_ONLY
            return 0.0, PredictionPolicy.NO_TASK_STARTED
        if phase is TaskExecState.BLOCKED:
            assert view.median_completed is not None
            return view.median_completed, PredictionPolicy.COMPLETED_UNREADY
        return ctx.sized(self._input_size[task_id])

    def _materialize(self, task_id: str) -> TaskEstimate:
        phase = self._phases[task_id]  # unknown id -> KeyError, like a dict
        if phase is TaskExecState.COMPLETED:
            estimate = self._final.get(task_id)
            if estimate is None:
                # built once per task ever: the annotation is immutable,
                # and the materialized cache is shared across ticks
                exec_time, instance_id = self._final_raw[task_id]
                estimate = self._final[task_id] = TaskEstimate(
                    task_id=task_id,
                    stage_id=self._stage_of[task_id],
                    phase=TaskExecState.COMPLETED,
                    exec_estimate=exec_time,
                    policy=PredictionPolicy.OBSERVED,
                    remaining_occupancy=0.0,
                    sunk_occupancy=0.0,
                    instance_id=instance_id,
                )
        else:
            exec_estimate, policy = self._eval(task_id, phase)
            if phase is TaskExecState.BLOCKED or phase is TaskExecState.READY:
                t_data = self._t_data
                estimate = TaskEstimate(
                    task_id=task_id,
                    stage_id=self._stage_of[task_id],
                    phase=phase,
                    exec_estimate=exec_estimate,
                    policy=policy,
                    remaining_occupancy=t_data + exec_estimate + t_data,
                    sunk_occupancy=0.0,
                    instance_id=None,
                )
            else:
                # A slot-occupying task missing from the eager set: the
                # master and monitor disagree about the in-flight set
                # (hand-built fixtures). Annotate from the attempt
                # record, as the eager in-flight annotations are.
                estimate = self._annotate(
                    task_id,
                    self._stage_of[task_id],
                    phase,
                    exec_estimate,
                    policy,
                    self._monitor,
                    self._now,
                    self._t_data,
                )
        self._data[task_id] = estimate
        return estimate

    # -- fast float-only accessors (no TaskEstimate construction) -------
    def remaining_of(self, task_id: str) -> float:
        """``self[task_id].remaining_occupancy`` without materializing.

        The projection calls this for every queued task every tick;
        per-(stage, size) memos reduce the common READY/BLOCKED cases to
        two dictionary hits.
        """
        cached = self._data.get(task_id)
        if cached is not None:
            return cached.remaining_occupancy
        phase = self._phases[task_id]
        if phase is TaskExecState.COMPLETED:
            return 0.0
        if phase is TaskExecState.READY:
            key = self._ss_key[task_id]
            remaining = self._rem_ready.get(key)
            if remaining is None:
                exec_estimate, _ = self._eval(task_id, phase)
                t_data = self._t_data
                remaining = self._rem_ready[key] = (
                    t_data + exec_estimate + t_data
                )
            return remaining
        if phase is TaskExecState.BLOCKED:
            stage_id = self._stage_of[task_id]
            remaining = self._rem_blocked.get(stage_id)
            if remaining is None:
                exec_estimate, _ = self._eval(task_id, phase)
                t_data = self._t_data
                remaining = self._rem_blocked[stage_id] = (
                    t_data + exec_estimate + t_data
                )
            return remaining
        return self._materialize(task_id).remaining_occupancy

    def remaining_many(self, task_ids: "Iterable[str]") -> list[float]:
        """:meth:`remaining_of` over a batch, one attribute walk total.

        The projection resolves its whole seed queue (hundreds of ids)
        through this in a single call; hoisting the per-call attribute
        and global lookups out of the loop roughly triples throughput
        over repeated :meth:`remaining_of` calls.
        """
        data_get = self._data.get
        phases = self._phases
        stage_of = self._stage_of
        ss_key = self._ss_key
        rem_ready = self._rem_ready
        rem_blocked = self._rem_blocked
        ready = TaskExecState.READY
        blocked = TaskExecState.BLOCKED
        completed = TaskExecState.COMPLETED
        out: list[float] = []
        append = out.append
        for task_id in task_ids:
            cached = data_get(task_id)
            if cached is not None:
                append(cached.remaining_occupancy)
                continue
            phase = phases[task_id]
            if phase is ready:
                key = ss_key[task_id]
                remaining = rem_ready.get(key)
                if remaining is None:
                    exec_estimate, _ = self._eval(task_id, phase)
                    t_data = self._t_data
                    remaining = rem_ready[key] = (
                        t_data + exec_estimate + t_data
                    )
                append(remaining)
            elif phase is blocked:
                stage_id = stage_of[task_id]
                remaining = rem_blocked.get(stage_id)
                if remaining is None:
                    exec_estimate, _ = self._eval(task_id, phase)
                    t_data = self._t_data
                    remaining = rem_blocked[stage_id] = (
                        t_data + exec_estimate + t_data
                    )
                append(remaining)
            elif phase is completed:
                append(0.0)
            else:
                append(self._materialize(task_id).remaining_occupancy)
        return out

    # -- mapping protocol -----------------------------------------------
    def __getitem__(self, task_id: str) -> TaskEstimate:
        estimate = self._data.get(task_id)
        if estimate is not None:
            return estimate
        return self._materialize(task_id)

    def __setitem__(self, task_id: str, value: TaskEstimate) -> None:
        if task_id not in self._phases:
            raise KeyError(
                f"run-state estimates are keyed by workflow tasks; "
                f"{task_id!r} is not one"
            )
        self._data[task_id] = value

    def __delitem__(self, task_id: str) -> None:
        raise TypeError("run-state estimates cannot be deleted")

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, task_id: object) -> bool:
        return task_id in self._phases


class TaskPredictor:
    """Per-stage online estimators plus the transfer-time estimate."""

    def __init__(
        self,
        workflow: Workflow,
        config: WireConfig | None = None,
        *,
        shared_cache: SharedEvalCache | None = None,
    ) -> None:
        self.workflow = workflow
        self.config = config or WireConfig()
        self._agg: Callable[[Sequence[float]], float] = (
            median if self.config.use_median else mean
        )
        self._ogd: dict[str, OnlineGradientDescentModel] = {
            stage.stage_id: OnlineGradientDescentModel(self.config.learning_rate)
            for stage in workflow.stages
        }
        self._transfer = MovingMedian(self.config.transfer_window)
        self._transfer_fallback: float | None = None
        # Per-stage aggregates over *completed* attempts are pure functions
        # of the stage's completed set; cache them keyed on the monitor's
        # completed-version counter so stages that gained no completions
        # since the last tick (e.g. finished stages) are not re-aggregated.
        #: stage -> (monitor id, version, median_completed, groups)
        self._completed_cache: dict[
            str, tuple[int, int, float | None, list[tuple[float, float]]]
        ] = {}
        # A completed task's annotation never changes again; the raw
        # (exec time, instance) pairs are recorded from the completion
        # delta and only materialized into TaskEstimate objects when
        # someone actually reads them (then cached here forever).
        self._final_estimates: dict[str, TaskEstimate] = {}
        self._final_raw: dict[str, tuple[float, str | None]] = {}
        self._shared = shared_cache if shared_cache is not None else SharedEvalCache()
        #: input size per task (hot in the Policy 4/5 path)
        self._input_size: dict[str, float] = {
            tid: task.input_size for tid, task in workflow.tasks.items()
        }
        stage_of = workflow.stage_of
        #: task -> (stage id, input size), prebuilt so the remaining-
        #: occupancy fast path resolves its memo key in one lookup
        self._stage_size_key: dict[str, tuple[str, float]] = {
            tid: (stage_of[tid], size) for tid, size in self._input_size.items()
        }
        self._topo_index: dict[str, int] = workflow.structure.topo_index
        # incremental completed-aggregate state (fed by the monitor log)
        self._acc: dict[str, _StageAccumulator] = {}
        self._acc_monitor: int | None = None
        self._acc_cursor = 0
        # incremental run-state machinery --------------------------------
        #: monitor-log cursor as of the previous build_run_state call
        self._rs_cursor = 0
        self._rs_monitor: int | None = None
        #: stage -> (monitor id, completed version, model generation,
        #: {input_size -> (estimate, policy)}) — the §III-C Policy 4/5
        #: evaluation memo; any key component change discards the memo
        self._eval_cache: dict[
            str,
            tuple[int, int, int, dict[float, tuple[float, PredictionPolicy]]],
        ] = {}
        # per-stage class counts over incomplete tasks, patched from the
        # completion delta: how many are BLOCKED, and the input-size
        # histogram of the non-blocked rest (READY or in-flight — the
        # Policy 4/5 population). Together with the unfinished-parent
        # topology these let policy tallies and stage iteration run in
        # O(stages + distinct sizes) per tick instead of O(tasks).
        self._unfinished_parents: dict[str, int] = {}
        self._blocked_count: dict[str, int] = {}
        self._nonblocked_sizes: dict[str, dict[float, int]] = {}
        self._stage_incomplete: dict[str, int] = {}

    @property
    def shared_cache(self) -> SharedEvalCache:
        """The OGD evaluation cache (shared across tenants in fleets)."""
        return self._shared

    def _reset_tracking(self) -> None:
        """Seed the per-stage class counts for a fresh (unstarted) run."""
        workflow = self.workflow
        stage_of = workflow.stage_of
        input_size = self._input_size
        blocked: dict[str, int] = {}
        nonblocked: dict[str, dict[float, int]] = {}
        stage_incomplete: dict[str, int] = {}
        for stage in workflow.stages:
            blocked[stage.stage_id] = 0
            nonblocked[stage.stage_id] = {}
            stage_incomplete[stage.stage_id] = len(stage.task_ids)
        unfinished: dict[str, int] = {}
        parent_counts = workflow.parent_counts
        for tid in workflow.topological_order():
            n_parents = parent_counts[tid]
            unfinished[tid] = n_parents
            sid = stage_of[tid]
            if n_parents:
                blocked[sid] += 1
            else:
                sizes = nonblocked[sid]
                size = input_size[tid]
                sizes[size] = sizes.get(size, 0) + 1
        self._unfinished_parents = unfinished
        self._blocked_count = blocked
        self._nonblocked_sizes = nonblocked
        self._stage_incomplete = stage_incomplete

    # ------------------------------------------------------------------
    # Monitor + Analyze: harvest the previous interval
    # ------------------------------------------------------------------
    def observe_interval(self, monitor: Monitor, window_start: float, now: float) -> None:
        """Update all models from data gathered in ``(window_start, now]``.

        Called once per MAPE iteration before any prediction is made.
        """
        self.observe_transfers(monitor, window_start, now)
        self.train_models(monitor)

    def observe_transfers(self, monitor: Monitor, window_start: float, now: float) -> None:
        """Push the interval's median transfer duration into ``t̃_data``."""
        observations = monitor.transfer_durations_between(window_start, now)
        if observations:
            interval_median = median(observations)
            self._transfer.push(interval_median)
            self._transfer_fallback = interval_median

    def train_models(self, monitor: Monitor) -> None:
        """Step each stage's OGD model on its completed tasks."""
        for stage in self.workflow.stages:
            _, training_set = self._completed_aggregates(stage.stage_id, monitor)
            if not training_set:
                continue
            model = self._ogd[stage.stage_id]
            for _ in range(self.config.ogd_epochs_per_update):
                model.update(training_set)

    def transfer_estimate(self) -> float:
        """Current ``t̃_data`` in seconds (0 before any observation)."""
        value = self._transfer.value()
        if value is not None:
            return value
        return self._transfer_fallback or 0.0

    def ogd_model(self, stage_id: str) -> OnlineGradientDescentModel:
        """The stage's online-gradient-descent model (read access)."""
        return self._ogd[stage_id]

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The predictor's *learned* state as plain JSON-able data.

        Covers everything a restored predictor cannot rederive from its
        workflow and the monitor log: the per-stage OGD coefficients
        (with their generation counters) and the transfer-time moving
        median. Derived caches — completed-aggregate accumulators, the
        Policy 4/5 evaluation memos, run-state cursors — are pure
        functions of (monitor log, model generation) and are rebuilt on
        first use after :meth:`load_state_dict` by replaying the monitor's
        completion log from its start.
        """
        return {
            "ogd": {
                stage_id: model.state_dict()
                for stage_id, model in sorted(self._ogd.items())
            },
            "transfer": self._transfer.state_dict(),
            "transfer_fallback": self._transfer_fallback,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore learned state captured by :meth:`state_dict`.

        The stage set must match this predictor's workflow. All derived
        caches and incremental cursors are invalidated so the next tick
        recomputes them from the attached monitor.
        """
        ours = set(self._ogd)
        theirs = set(state["ogd"])
        if ours != theirs:
            raise ValueError(
                "state dict stages do not match workflow stages: "
                f"missing {sorted(ours - theirs)}, "
                f"unexpected {sorted(theirs - ours)}"
            )
        for stage_id, model_state in state["ogd"].items():
            self._ogd[stage_id].load_state_dict(model_state)
        self._transfer.load_state_dict(state["transfer"])
        fallback = state["transfer_fallback"]
        self._transfer_fallback = None if fallback is None else float(fallback)
        # Drop every derived view; they rebuild from the monitor log.
        self._completed_cache = {}
        self._final_estimates = {}
        self._final_raw = {}
        self._eval_cache = {}
        self._acc = {}
        self._acc_monitor = None
        self._acc_cursor = 0
        self._rs_cursor = 0
        self._rs_monitor = None

    # ------------------------------------------------------------------
    # the five prediction policies (§III-C)
    # ------------------------------------------------------------------
    def _ingest_completions(self, monitor: Monitor) -> None:
        """Advance the per-stage accumulators to the monitor's log head."""
        monitor_id = id(monitor)
        if self._acc_monitor != monitor_id:
            self._acc_monitor = monitor_id
            self._acc = {}
            self._acc_cursor = 0
        log_len = monitor.completed_log_length()
        if log_len == self._acc_cursor:
            return
        accs = self._acc
        accs_get = accs.get
        use_median = self.config.use_median
        # The accumulators are filled inline: the loop runs once per
        # completion ever recorded, and a method call per completion
        # measurably dominates the work it wraps at fleet scale. New values
        # are appended and each touched list re-sorted once at the end —
        # timsort is stable, so the result is element-for-element identical
        # to per-item ``insort`` (equal values keep arrival order, exactly
        # as repeated right-insertions place them) at a fraction of the
        # cost when a tick absorbs a large completion batch.
        dirty: dict[int, list] = {}
        for attempt in monitor.completed_since(self._acc_cursor):
            stage_id = attempt.stage_id
            acc = accs_get(stage_id)
            if acc is None:
                acc = accs[stage_id] = _StageAccumulator(use_median)
            acc.count += 1
            exec_time = attempt.execution_time
            if exec_time is None:
                continue
            size = attempt.input_size
            if use_median:
                by_time = acc.by_time
                by_time.append(exec_time)
                dirty[id(by_time)] = by_time
                size_times = acc.size_times
                times = size_times.get(size)
                if times is None:
                    times = size_times[size] = []
                    sizes = acc.sizes
                    sizes.append(size)
                    dirty[id(sizes)] = sizes
                times.append(exec_time)
                dirty[id(times)] = times
            else:
                by_size = acc.by_size
                by_size.append((size, attempt._stage_seq, exec_time))
                dirty[id(by_size)] = by_size
                by_seq = acc.by_seq
                by_seq.append((attempt._stage_seq, exec_time))
                dirty[id(by_seq)] = by_seq
        for lst in dirty.values():
            lst.sort()
        self._acc_cursor = log_len

    def _completed_aggregates(
        self, stage_id: str, monitor: Monitor
    ) -> tuple[float | None, list[tuple[float, float]]]:
        """(aggregate completed exec time, input-size groups) for a stage.

        Cached on the monitor's per-stage completed-version counter, and
        recomputed from incrementally maintained sorted flat tuples (the
        log-fed accumulators) rather than re-sorting attempt objects. An
        accumulator whose count disagrees with the version counter raises.
        """
        version = monitor.completed_version(stage_id)
        cached = self._completed_cache.get(stage_id)
        if (
            cached is not None
            and cached[0] == id(monitor)
            and cached[1] == version
        ):
            return cached[2], cached[3]
        self._ingest_completions(monitor)
        acc = self._acc.get(stage_id)
        count = 0 if acc is None else acc.count
        if count != version:
            raise RuntimeError(
                f"stage {stage_id!r}: the completion log holds {count} "
                f"completions but the monitor's version counter reports {version}"
            )
        if not count:
            median_completed = None
            groups = []
        elif self.config.use_median:
            # value-sorted lists are maintained per completion; each
            # median is an index, not an aggregation
            median_completed = median_sorted(acc.by_time)
            groups = self._cluster_median(acc)
        else:
            median_completed = self._agg([t for _, t in acc.by_seq])
            groups = self._cluster_sorted(acc.by_size)
        self._completed_cache[stage_id] = (
            id(monitor), version, median_completed, groups
        )
        return median_completed, groups

    def _cluster_median(
        self, acc: _StageAccumulator
    ) -> list[tuple[float, float]]:
        """Input-size groups with median aggregates, from sorted state.

        Clustering over the *distinct* sizes is identical to a greedy walk
        over the individual attempts sorted by size: equal
        sizes are consecutive in the sorted walk and always compare
        equivalent to their own group's representative (the group's first
        — smallest — size), so they can never open a new group. The
        median per group is order-free over the group's multiset, so
        value-sorted per-size lists feed it directly.
        """
        rtol = self.config.input_size_rtol
        clusters: list[tuple[float, list[list[float]]]] = []
        size_times = acc.size_times
        for size in acc.sizes:
            if clusters and _sizes_equivalent(clusters[-1][0], size, rtol):
                clusters[-1][1].append(size_times[size])
            else:
                clusters.append((size, [size_times[size]]))
        out: list[tuple[float, float]] = []
        for rep, members in clusters:
            if len(members) == 1:
                out.append((rep, median_sorted(members[0])))
            else:
                out.append((rep, median_sorted(sorted(chain.from_iterable(members)))))
        return out

    def _cluster_sorted(
        self, entries: list[tuple[float, int, float]]
    ) -> list[tuple[float, float]]:
        """Cluster (size, seq, time) entries already sorted by (size, seq).

        Paper Policy 4's group *L*: a greedy walk in size order opens a
        new group whenever a size differs from the group's first by more
        than ``rtol`` relative to the larger — without re-sorting attempt
        objects.
        """
        rtol = self.config.input_size_rtol
        raw: list[tuple[float, list[float]]] = []
        for size, _, exec_time in entries:
            if raw and _sizes_equivalent(raw[-1][0], size, rtol):
                raw[-1][1].append(exec_time)
            else:
                raw.append((size, [exec_time]))
        agg = self._agg
        return [(size, agg(times)) for size, times in raw]

    def _stage_view(self, stage_id: str, monitor: Monitor, now: float) -> "_StageView":
        """Aggregate one stage's peer-task data once (shared by all its
        incomplete tasks within a tick — stages can hold thousands)."""
        running = monitor.running_in_stage(stage_id)
        median_elapsed = (
            self._agg([a.elapsed_execution(now) for a in running])
            if running
            else None
        )
        median_completed, groups = self._completed_aggregates(stage_id, monitor)
        return _StageView(
            stage_id=stage_id,
            has_completed=median_completed is not None,
            has_running=bool(running),
            median_elapsed=median_elapsed,
            median_completed=median_completed,
            groups=groups,
            group_sizes=[g[0] for g in groups],
        )

    def estimate_execution(
        self,
        task_id: str,
        phase: TaskExecState,
        monitor: Monitor,
        now: float,
        *,
        _view: "_StageView | None" = None,
    ) -> tuple[float, PredictionPolicy]:
        """Estimated minimum execution time for an incomplete task.

        Implements the policy selection of §III-C verbatim; returns the
        estimate and which policy produced it. ``_view`` supplies a
        precomputed stage view to share across a stage's tasks.
        :meth:`build_run_state` applies the same selection inline from its
        per-stage tick contexts and does not call this method, so a
        subclass that changes the selection overrides
        :meth:`build_run_state` too, as the clairvoyant oracle does.
        """
        view = (
            _view
            if _view is not None
            else self._stage_view(self.workflow.stage_of[task_id], monitor, now)
        )

        if not view.has_completed:
            if view.has_running:
                # Policy 2: conservatively presume running tasks are about
                # to complete; the estimate is their median run time so far.
                assert view.median_elapsed is not None
                return view.median_elapsed, PredictionPolicy.RUNNING_ONLY
            # Policy 1: nothing observed at this stage. (A stage whose only
            # attempts were all killed also lands here: with no live data
            # the conservative floor is zero.)
            return 0.0, PredictionPolicy.NO_TASK_STARTED

        if phase is TaskExecState.BLOCKED:
            # Policy 3: input data not yet available; use the stage median.
            assert view.median_completed is not None
            return view.median_completed, PredictionPolicy.COMPLETED_UNREADY

        return self._estimate_sized(
            self.workflow.stage_of[task_id], view, self._input_size[task_id]
        )

    def _estimate_sized(
        self, stage_id: str, view: "_StageView", input_size: float
    ) -> tuple[float, PredictionPolicy]:
        """Policies 4/5 for a READY/in-flight task of known input size."""
        rtol = self.config.input_size_rtol
        for size, agg_time in view.groups:
            if _sizes_equivalent(size, input_size, rtol):
                # Policy 4: a group L of completed peers shares this size.
                return agg_time, PredictionPolicy.MATCHED_GROUP
        # Policy 5: ready to run with a previously unseen input size.
        return (
            self._shared.predict(self._ogd[stage_id], input_size),
            PredictionPolicy.OGD,
        )

    def _sized_eval_memo(
        self, stage_id: str, monitor: Monitor
    ) -> dict[float, tuple[float, PredictionPolicy]]:
        """The Policy 4/5 memo for a stage, valid for the current models.

        Keyed on ``(monitor, completed-version, OGD generation)``: both
        the group table (Policy 4) and the OGD coefficients (Policy 5) are
        pure functions of those counters, so entries stay exact across
        ticks — and are discarded wholesale the moment either advances.
        """
        key_monitor = id(monitor)
        key_version = monitor.completed_version(stage_id)
        key_generation = self._ogd[stage_id].generation
        cached = self._eval_cache.get(stage_id)
        if (
            cached is not None
            and cached[0] == key_monitor
            and cached[1] == key_version
            and cached[2] == key_generation
        ):
            return cached[3]
        memo: dict[float, tuple[float, PredictionPolicy]] = {}
        self._eval_cache[stage_id] = (key_monitor, key_version, key_generation, memo)
        return memo

    # ------------------------------------------------------------------
    # run-state assembly
    # ------------------------------------------------------------------
    def build_run_state(
        self, master: FrameworkMaster, monitor: Monitor, now: float
    ) -> RunState:
        """Annotate every task with its estimate and remaining occupancy.

        Incremental and lazy: completions are absorbed from the monitor's
        log as a delta patching the per-stage class counts, per-stage
        contexts are captured once, in-flight tasks are annotated eagerly
        (the projection needs their instance/sunk state), and everything
        else materializes on first access. Raises ``RuntimeError`` naming
        the task, stage or count whenever the delta view disagrees with
        the master or the monitor.
        """
        t_data = self.transfer_estimate()
        monitor_id = id(monitor)
        if self._rs_monitor != monitor_id:
            # new run / new monitor: restart the delta stream from zero
            self._rs_monitor = monitor_id
            self._rs_cursor = 0
            self._final_estimates = {}
            self._final_raw = {}
            self._reset_tracking()

        new_attempts = monitor.completed_since(self._rs_cursor)
        self._rs_cursor = monitor.completed_log_length()
        final_raw = self._final_raw
        stage_of = self.workflow.stage_of
        unfinished = self._unfinished_parents
        blocked_count = self._blocked_count
        nonblocked_sizes = self._nonblocked_sizes
        stage_incomplete = self._stage_incomplete
        input_size = self._input_size
        children_map = self.workflow.children_tuples
        unfinished_pop = unfinished.pop
        unfinished_get = unfinished.get
        for attempt in new_attempts:
            task_id = attempt.task_id
            sid = stage_of[task_id]
            final_raw[task_id] = (
                attempt.execution_time or 0.0,
                attempt.instance_id,
            )
            if unfinished_pop(task_id, None) is None:
                raise RuntimeError(
                    f"the completion log reports task {task_id!r} complete "
                    "but the run-state build does not track it as incomplete "
                    "(a duplicate or replayed completion)"
                )
            stage_incomplete[sid] -= 1
            sizes = nonblocked_sizes[sid]
            sizes[input_size[task_id]] -= 1
            for child in children_map[task_id]:
                count = unfinished_get(child)
                if count is None:
                    continue
                count -= 1
                unfinished[child] = count
                if count == 0:
                    csid = stage_of[child]
                    blocked_count[csid] -= 1
                    csizes = nonblocked_sizes[csid]
                    csize = input_size[child]
                    csizes[csize] = csizes.get(csize, 0) + 1

        if len(final_raw) != master.completed_count:
            raise RuntimeError(
                f"the completion log holds {len(final_raw)} completed tasks "
                f"but the framework master counts {master.completed_count}"
            )

        # The phase snapshot: one C-speed dict copy, frozen at the tick so
        # deferred materialization cannot see post-tick transitions.
        phases = dict(master.states)

        # per-stage tick contexts + the §III-C policy tally, both from
        # the incrementally maintained class counts
        counts: dict[PredictionPolicy, int] = {}
        if final_raw:
            counts[PredictionPolicy.OBSERVED] = len(final_raw)
        contexts: dict[str, _StageTickContext] = {}
        rtol = self.config.input_size_rtol
        shared = self._shared
        ogd = self._ogd
        total_incomplete = 0
        for stage in self.workflow.stages:
            sid = stage.stage_id
            incomplete_n = stage_incomplete[sid]
            if incomplete_n <= 0:
                if incomplete_n < 0:
                    raise RuntimeError(
                        f"stage {sid!r} counts {incomplete_n} incomplete tasks"
                    )
                continue
            total_incomplete += incomplete_n
            view = self._stage_view(sid, monitor, now)
            model = ogd[sid]
            ctx = contexts[sid] = _StageTickContext(
                view=view,
                memo=self._sized_eval_memo(sid, monitor),
                rtol=rtol,
                alpha0=model.alpha0,
                alpha1=model.alpha1,
                scale=model.scale,
                shared=shared,
            )
            if not view.has_completed:
                policy = (
                    PredictionPolicy.RUNNING_ONLY
                    if view.has_running
                    else PredictionPolicy.NO_TASK_STARTED
                )
                counts[policy] = counts.get(policy, 0) + incomplete_n
                continue
            blocked_n = blocked_count[sid]
            if blocked_n:
                counts[PredictionPolicy.COMPLETED_UNREADY] = (
                    counts.get(PredictionPolicy.COMPLETED_UNREADY, 0) + blocked_n
                )
            for size, cnt in nonblocked_sizes[sid].items():
                if cnt:
                    policy = ctx.sized(size)[1]
                    counts[policy] = counts.get(policy, 0) + cnt
        if total_incomplete + len(final_raw) != len(self.workflow):
            raise RuntimeError(
                f"{total_incomplete} incomplete and {len(final_raw)} completed "
                f"tasks do not add up to the workflow's {len(self.workflow)}"
            )

        # eager in-flight annotations (the projection and Algorithm 2 read
        # their instance/sunk state every tick), in topological order
        in_flight_ids = monitor.in_flight_task_ids()
        try:
            in_flight_ids.sort(key=self._topo_index.__getitem__)
        except KeyError as exc:
            raise RuntimeError(
                f"the monitor reports task {exc.args[0]!r} in flight but it "
                "is not a task of this workflow"
            ) from None
        data: dict[str, TaskEstimate] = {}
        for task_id in in_flight_ids:
            phase = phases[task_id]
            if not phase.occupies_slot:
                raise RuntimeError(
                    f"the monitor reports task {task_id!r} in flight but the "
                    f"framework master has it {phase.name}"
                )
            sid = stage_of[task_id]
            ctx = contexts.get(sid)
            if ctx is None:
                raise RuntimeError(
                    f"task {task_id!r} is in flight but its stage {sid!r} "
                    "counts no incomplete tasks"
                )
            view = ctx.view
            if not view.has_completed:
                if view.has_running:
                    assert view.median_elapsed is not None
                    estimate = view.median_elapsed
                    policy = PredictionPolicy.RUNNING_ONLY
                else:
                    estimate = 0.0
                    policy = PredictionPolicy.NO_TASK_STARTED
            else:
                estimate, policy = ctx.sized(input_size[task_id])
            data[task_id] = self._annotate_incomplete(
                task_id, sid, phase, estimate, policy, monitor, now, t_data
            )

        estimates = _LazyEstimates(
            order=self.workflow.topological_order(),
            phases=phases,
            final=self._final_estimates,
            final_raw=final_raw,
            data=data,
            ctx=contexts,
            stage_of=stage_of,
            input_size=input_size,
            ss_key=self._stage_size_key,
            t_data=t_data,
            annotate=self._annotate_incomplete,
            monitor=monitor,
            now=now,
        )
        state = RunState(now=now, transfer_estimate=t_data, estimates=estimates)
        state.completed_count = master.completed_count
        state.in_flight = tuple(in_flight_ids)
        state.unfinished_parents = unfinished
        state._policy_counts = counts
        return state

    def _annotate_incomplete(
        self,
        task_id: str,
        stage_id: str,
        phase: TaskExecState,
        estimate: float,
        policy: PredictionPolicy,
        monitor: Monitor,
        now: float,
        t_data: float,
    ) -> TaskEstimate:
        sunk = 0.0
        instance_id: str | None = None
        if phase in (TaskExecState.BLOCKED, TaskExecState.READY):
            remaining = t_data + estimate + t_data
        else:
            attempt = monitor.current_attempt(task_id)
            sunk = attempt.occupancy_elapsed(now)
            instance_id = attempt.instance_id
            if phase is TaskExecState.STAGING_IN:
                elapsed_in = now - attempt.dispatch_time
                remaining = max(t_data - elapsed_in, 0.0) + estimate + t_data
            elif phase is TaskExecState.EXECUTING:
                elapsed_exec = attempt.elapsed_execution(now)
                # A running task will run at least as long as it already
                # has (§III-A's conservative presumption).
                estimate = max(estimate, elapsed_exec)
                if policy is PredictionPolicy.RUNNING_ONLY:
                    # Before any peer completes, the stage's estimate is the
                    # median elapsed time and keeps growing; §III-E's pool
                    # arithmetic ("at time U the pool has N instances")
                    # requires running tasks to contribute the full growing
                    # estimate, not estimate-minus-elapsed (which would be
                    # ~0 and freeze growth).
                    remaining = estimate + t_data
                else:
                    remaining = max(estimate - elapsed_exec, 0.0) + t_data
            else:  # STAGING_OUT
                assert attempt.exec_end is not None
                elapsed_out = now - attempt.exec_end
                remaining = max(t_data - elapsed_out, 0.0)
        return TaskEstimate(
            task_id=task_id,
            stage_id=stage_id,
            phase=phase,
            exec_estimate=estimate,
            policy=policy,
            remaining_occupancy=remaining,
            sunk_occupancy=sunk,
            instance_id=instance_id,
        )

    def state_size_bytes(self) -> int:
        """Model footprint: OGD coefficients per stage + transfer window."""
        ogd = sum(m.state_size_bytes() for m in self._ogd.values())
        return ogd + 8 * self.config.transfer_window
