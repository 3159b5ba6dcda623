"""Kickstart-style task monitoring.

Paper §II-C property 1: workflow frameworks already "collect [each task's]
CPU time and start/end times, ... record input/output data sizes". The
:class:`Monitor` is this repo's stand-in for Pegasus kickstart records plus
HTCondor logs: it records every task attempt's lifecycle timestamps and
answers the queries WIRE's task predictor makes at the start of each MAPE
iteration (§III-B1) — completed execution times, elapsed run times of
running tasks, recent data-transfer observations, and input sizes.

The per-tick queries are served from aggregates maintained incrementally
on every record event (completed/running attempt lists per stage, a
chronological transfer-observation log) instead of rescanning the full
attempt history each MAPE tick; the results are element-for-element
identical to the historical full scans (same ordering), which the
regression tests assert against brute-force reference implementations.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

__all__ = ["Monitor", "TaskAttempt"]

# transfer-observation kinds, ordered the way the historical full scan
# listed them (stage-in before stage-out within one attempt)
_OBS_STAGE_IN = 0
_OBS_STAGE_OUT = 1
#: an observation's finish time, and its historical scan position
#: (task order, attempt, kind)
_OBS_FINISH = itemgetter(0)
_OBS_SCAN_ORDER = itemgetter(1, 2, 3)


@dataclass(slots=True)
class TaskAttempt:
    """One attempt at executing a task (restarts create new attempts).

    Timeline: ``dispatch_time`` (slot assigned, stage-in begins) ->
    ``exec_start`` (stage-in done, computation begins) -> ``exec_end``
    (computation done, stage-out begins) -> ``complete_time`` (stage-out
    done, slot freed). A killed attempt has ``killed_at`` set and whatever
    later timestamps it never reached left as ``None``.
    """

    task_id: str
    stage_id: str
    attempt: int
    instance_id: str
    dispatch_time: float
    input_size: float
    output_size: float
    exec_start: float | None = None
    exec_end: float | None = None
    complete_time: float | None = None
    killed_at: float | None = None
    #: True when the attempt died of an injected fault (vs a pool-shrink
    #: kill); both requeue, but experiments distinguish the causes
    failed: bool = False
    #: when the task (re)entered the ready queue before this dispatch;
    #: None when the engine runs untraced (it skips ready-time tracking)
    ready_time: float | None = None
    #: dispatch index within the stage (Monitor bookkeeping; preserves
    #: the stage-scan ordering in incremental query results)
    _stage_seq: int = field(default=0, repr=False, compare=False)
    #: first-dispatch index of the task (Monitor bookkeeping; preserves
    #: the all-attempts scan ordering in transfer_times_between)
    _task_order: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def is_completed(self) -> bool:
        return self.complete_time is not None

    @property
    def is_killed(self) -> bool:
        return self.killed_at is not None

    @property
    def in_flight(self) -> bool:
        return not self.is_completed and not self.is_killed

    @property
    def execution_time(self) -> float | None:
        """Measured pure execution seconds, if the computation finished."""
        if self.exec_start is None or self.exec_end is None:
            return None
        return self.exec_end - self.exec_start

    @property
    def stage_in_time(self) -> float | None:
        """Measured input-transfer seconds, if stage-in finished."""
        if self.exec_start is None:
            return None
        return self.exec_start - self.dispatch_time

    @property
    def stage_out_time(self) -> float | None:
        """Measured output-transfer seconds, if the attempt completed."""
        if self.complete_time is None or self.exec_end is None:
            return None
        return self.complete_time - self.exec_end

    @property
    def queue_wait(self) -> float | None:
        """Seconds between becoming ready and slot assignment, if known."""
        if self.ready_time is None:
            return None
        return max(0.0, self.dispatch_time - self.ready_time)

    def elapsed_execution(self, now: float) -> float:
        """Seconds the computation has been running as of ``now``.

        Zero while the attempt is still staging data in — the paper's
        "run time" of a running task measures execution, and WIRE treats
        transfers separately through ``t̃_data``.
        """
        if self.exec_start is None:
            return 0.0
        end = self.exec_end if self.exec_end is not None else now
        return max(0.0, end - self.exec_start)

    def occupancy_elapsed(self, now: float) -> float:
        """Seconds of slot occupancy so far — the sunk/restart cost basis."""
        end = now
        if self.complete_time is not None:
            end = self.complete_time
        elif self.killed_at is not None:
            end = self.killed_at
        return max(0.0, end - self.dispatch_time)


class Monitor:
    """Records task attempts and serves the predictor's online queries."""

    def __init__(self) -> None:
        self._attempts: dict[str, list[TaskAttempt]] = {}
        self._by_stage: dict[str, list[TaskAttempt]] = {}
        # incremental aggregates, maintained on record events -----------
        #: completed attempts per stage, in stage-dispatch order
        self._completed_by_stage: dict[str, list[TaskAttempt]] = {}
        #: in-flight attempts per stage, keyed by stage-dispatch index
        #: (dict preserves ascending insertion, completions/kills delete)
        self._running_by_stage: dict[str, dict[int, TaskAttempt]] = {}
        #: bumped whenever a stage gains a completed attempt (cache key
        #: for consumers aggregating over completed_in_stage)
        self._completed_version: dict[str, int] = {}
        #: transfer observations: (finish_time, task_order, attempt, kind,
        #: duration), appended chronologically in simulation use
        self._transfer_obs: list[tuple[float, int, int, int, float]] = []
        self._transfer_obs_sorted = True
        #: append-only chronological log of completed attempts (a task
        #: completes at most once, so entries are unique per task); the
        #: predictor's incremental run-state build consumes it as a
        #: completion-delta stream via :meth:`completed_since`
        self._completed_log: list[TaskAttempt] = []
        self._restarts = 0
        self._failures = 0

    # ------------------------------------------------------------------
    # recording (called by the engine)
    # ------------------------------------------------------------------
    def record_dispatch(
        self,
        task_id: str,
        stage_id: str,
        instance_id: str,
        now: float,
        input_size: float,
        output_size: float,
        *,
        ready_time: float | None = None,
    ) -> TaskAttempt:
        """Open a new attempt when a task is assigned to a slot."""
        history = self._attempts.get(task_id)
        if history is None:
            task_order = len(self._attempts)
            history = self._attempts[task_id] = []
        else:
            task_order = history[0]._task_order
        stage_list = self._by_stage.setdefault(stage_id, [])
        attempt = TaskAttempt(
            task_id=task_id,
            stage_id=stage_id,
            attempt=len(history) + 1,
            instance_id=instance_id,
            dispatch_time=now,
            input_size=input_size,
            output_size=output_size,
            ready_time=ready_time,
            _stage_seq=len(stage_list),
            _task_order=task_order,
        )
        history.append(attempt)
        stage_list.append(attempt)
        self._running_by_stage.setdefault(stage_id, {})[
            attempt._stage_seq
        ] = attempt
        return attempt

    def _record_transfer_obs(
        self, attempt: TaskAttempt, finish_time: float, kind: int, duration: float
    ) -> None:
        obs = self._transfer_obs
        if obs and finish_time < obs[-1][0]:
            # out-of-order recording (only possible outside the engine's
            # monotonic event loop); fall back to sorting on next query
            self._transfer_obs_sorted = False
        obs.append(
            (finish_time, attempt._task_order, attempt.attempt, kind, duration)
        )

    def record_exec_start(self, task_id: str, now: float) -> None:
        attempt = self.current_attempt(task_id)
        attempt.exec_start = now
        self._record_transfer_obs(
            attempt, now, _OBS_STAGE_IN, attempt.stage_in_time or 0.0
        )

    def record_exec_end(self, task_id: str, now: float) -> None:
        self.current_attempt(task_id).exec_end = now

    def record_complete(self, task_id: str, now: float) -> None:
        attempt = self.current_attempt(task_id)
        attempt.complete_time = now
        stage_id = attempt.stage_id
        running = self._running_by_stage.get(stage_id)
        if running is not None:
            running.pop(attempt._stage_seq, None)
        # completions arrive roughly in dispatch order, so the insort is
        # amortized O(1); the list stays in stage-dispatch order, matching
        # what a full scan of the stage's attempts would produce
        insort(
            self._completed_by_stage.setdefault(stage_id, []),
            attempt,
            key=lambda a: a._stage_seq,
        )
        self._completed_version[stage_id] = (
            self._completed_version.get(stage_id, 0) + 1
        )
        self._completed_log.append(attempt)
        self._record_transfer_obs(
            attempt, now, _OBS_STAGE_OUT, attempt.stage_out_time or 0.0
        )

    def record_kill(self, task_id: str, now: float, *, failed: bool = False) -> None:
        attempt = self.current_attempt(task_id)
        attempt.killed_at = now
        attempt.failed = failed
        running = self._running_by_stage.get(attempt.stage_id)
        if running is not None:
            running.pop(attempt._stage_seq, None)
        self._restarts += 1
        if failed:
            self._failures += 1

    # ------------------------------------------------------------------
    # queries (called by controllers and experiments)
    # ------------------------------------------------------------------
    def current_attempt(self, task_id: str) -> TaskAttempt:
        """The most recent attempt for ``task_id``."""
        history = self._attempts.get(task_id)
        if not history:
            raise KeyError(f"no attempts recorded for task {task_id!r}")
        return history[-1]

    def attempts(self, task_id: str) -> list[TaskAttempt]:
        """All attempts for ``task_id`` (may be empty)."""
        return list(self._attempts.get(task_id, ()))

    def all_attempts(self) -> Iterable[TaskAttempt]:
        """Every attempt recorded so far."""
        for history in self._attempts.values():
            yield from history

    def completed_in_stage(self, stage_id: str) -> list[TaskAttempt]:
        """Completed attempts in ``stage_id`` (the predictor's training data)."""
        return list(self._completed_by_stage.get(stage_id, ()))

    def completed_version(self, stage_id: str) -> int:
        """Monotonic counter, bumped when ``stage_id`` gains a completion.

        Consumers caching aggregates over :meth:`completed_in_stage` (the
        predictor's per-stage groupings) key their caches on this.
        """
        return self._completed_version.get(stage_id, 0)

    def completed_log_length(self) -> int:
        """Cursor position for :meth:`completed_since` (total completions)."""
        return len(self._completed_log)

    def completed_since(self, cursor: int) -> list[TaskAttempt]:
        """Completed attempts recorded after ``cursor``, in completion order.

        ``cursor`` is a previous :meth:`completed_log_length` value. The
        log is append-only and completion is terminal, so the slice is an
        exact delta stream: every task appears at most once, ever.
        """
        return self._completed_log[cursor:]

    def running_in_stage(self, stage_id: str) -> list[TaskAttempt]:
        """In-flight attempts in ``stage_id``."""
        running = self._running_by_stage.get(stage_id)
        if not running:
            return []
        return list(running.values())

    def in_flight_task_ids(self) -> list[str]:
        """Task ids of all in-flight attempts (unordered).

        Served from the per-stage running aggregates in O(in-flight);
        consumers needing a specific order (the run-state build wants
        topological) sort the handful of returned ids themselves.
        """
        out: list[str] = []
        for running in self._running_by_stage.values():
            for attempt in running.values():
                out.append(attempt.task_id)
        return out

    def stage_has_dispatches(self, stage_id: str) -> bool:
        """Whether any task of ``stage_id`` was ever dispatched."""
        return bool(self._by_stage.get(stage_id))

    def transfer_times_between(self, t0: float, t1: float) -> list[float]:
        """All transfer durations that *finished* in the window ``(t0, t1]``.

        This feeds the paper's ``t̃_data``: "the median of the data
        transfer times of the tasks between the n-1th and nth MAPE
        iterations". Stage-in and stage-out observations both count.

        Served by bisecting the chronological observation log (O(log n +
        window) instead of a full-history scan); the returned order is the
        historical scan order — attempts in first-dispatch order, stage-in
        before stage-out within an attempt.
        """
        obs = self._transfer_obs
        if not self._transfer_obs_sorted:
            obs.sort(key=_OBS_FINISH)
            self._transfer_obs_sorted = True
        lo = bisect_right(obs, t0, key=_OBS_FINISH)
        hi = bisect_right(obs, t1, key=_OBS_FINISH)
        window = sorted(obs[lo:hi], key=_OBS_SCAN_ORDER)
        return [duration for _, _, _, _, duration in window]

    def transfer_durations_between(self, t0: float, t1: float) -> list[float]:
        """Transfer durations finishing in ``(t0, t1]``, in log order.

        Same multiset as :meth:`transfer_times_between` without the
        attempt-order sort — for consumers whose aggregate is
        order-independent (the ``t̃_data`` median sorts internally).
        """
        obs = self._transfer_obs
        if not self._transfer_obs_sorted:
            obs.sort(key=_OBS_FINISH)
            self._transfer_obs_sorted = True
        lo = bisect_right(obs, t0, key=_OBS_FINISH)
        hi = bisect_right(obs, t1, key=_OBS_FINISH)
        return [o[4] for o in obs[lo:hi]]

    def total_restarts(self) -> int:
        """Number of killed attempts across the run (wasted work events)."""
        return self._restarts

    def total_failures(self) -> int:
        """Killed attempts attributable to injected faults."""
        return self._failures

    def wasted_occupancy(self) -> float:
        """Total slot-seconds consumed by attempts that were later killed."""
        return sum(
            a.occupancy_elapsed(a.killed_at)  # type: ignore[arg-type]
            for a in self.all_attempts()
            if a.is_killed
        )
