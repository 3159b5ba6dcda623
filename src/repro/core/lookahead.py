"""WIRE's workflow simulator (paper §III-B2).

At each MAPE iteration, WIRE simulates the workflow's execution over the
next control interval to predict the *upcoming load*: the set of tasks
expected to be active (runnable) at the start of the target interval, each
with its predicted minimum remaining slot occupancy, plus the sunk restart
cost of every instance at that time.

The simulation projects the framework's FIFO dispatch (§III-D) over the
current pool: predicted completions free slots, freed slots pull queued
tasks, completions fire children. Any drift between this projection and
the framework master's true schedule is tolerated by design — the paper's
§III-D argues (and §IV-E confirms) the effect is minor.

Adopted projection topology
---------------------------
The projection needs the DAG completion topology: how many unfinished
parents each incomplete task has, how many tasks are done and which hold
slots. The run state carries all three (``unfinished_parents``,
``completed_count``, ``in_flight``), maintained incrementally by the
predictor, and the simulator adopts them as they are — it derives
nothing from the estimates. A run state without them, or whose
unfinished-parent map no longer matches its completed count (a stale
snapshot replayed after the predictor moved on), raises ``ValueError``
naming the field. Virtual-task records are materialized lazily, only for
tasks the projection actually touches.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.runstate import RunState
from repro.dag.workflow import Workflow

__all__ = ["LookaheadSimulator", "UpcomingLoad", "UpcomingTask", "VirtualInstance"]


@dataclass(frozen=True, slots=True)
class UpcomingTask:
    """One entry of the upcoming load Q_task."""

    task_id: str
    #: predicted minimum remaining occupancy at the target interval start
    remaining: float


@dataclass(frozen=True, slots=True)
class VirtualInstance:
    """An instance available to the projection.

    ``available_at`` is when it can accept work (now for running
    instances, the launch-ready time for pending ones); ``occupants`` are
    the task ids currently holding its slots.
    """

    instance_id: str
    slots: int
    available_at: float
    occupants: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class UpcomingLoad:
    """Output of one lookahead projection.

    The load is stored as flat parallel columns — ``task_ids`` and the
    float64 ``remaining`` vector — which is what the vectorized steering
    path (Algorithm 3's Q_task packing) consumes directly; the historical
    object view is available lazily through :attr:`tasks`.
    """

    #: target interval start (now + horizon)
    at: float
    #: ids of tasks expected active at ``at``: virtually running first
    #: (soonest completion first), then still-queued tasks in FIFO order
    task_ids: tuple[str, ...]
    #: remaining occupancy per entry of ``task_ids`` (float64 vector)
    remaining: np.ndarray
    #: per-instance max sunk occupancy of tasks projected onto it at ``at``
    restart_costs: dict[str, float]
    #: True when the projection finishes the whole workflow before ``at``
    workflow_done: bool

    @property
    def tasks(self) -> tuple[UpcomingTask, ...]:
        """The load as :class:`UpcomingTask` objects (built lazily)."""
        cached = getattr(self, "_tasks_cache", None)
        if cached is None:
            cached = tuple(
                UpcomingTask(task_id=tid, remaining=rem)
                for tid, rem in zip(self.task_ids, self.remaining.tolist())
            )
            object.__setattr__(self, "_tasks_cache", cached)
        return cached


class LookaheadSimulator:
    """Projects one control interval ahead from a run-state snapshot."""

    def __init__(self, workflow: Workflow) -> None:
        self.workflow = workflow

    def _topology(
        self, run_state: RunState
    ) -> tuple[dict[str, int], int, tuple[str, ...]]:
        """The run state's ``(unfinished_parents, completed_count, in_flight)``.

        The unfinished-parent map is the predictor's live dict. Entries
        are only ever removed (on completion) and counts only decrement
        alongside a removal, so a map whose length reconciles with the
        snapshot's completed count is the snapshot's map. The
        projection's in-place decrements are rolled back through its undo
        log, leaving the shared dict exactly as the predictor left it.
        """
        unfinished = run_state.unfinished_parents
        completed = run_state.completed_count
        in_flight = run_state.in_flight
        for name, value in (
            ("unfinished_parents", unfinished),
            ("completed_count", completed),
            ("in_flight", in_flight),
        ):
            if value is None:
                raise ValueError(f"the run state carries no {name}")
        if len(self.workflow) - len(unfinished) != completed:
            raise ValueError(
                f"the run state's unfinished_parents holds {len(unfinished)} "
                f"incomplete tasks, which does not match its completed_count "
                f"{completed} of {len(self.workflow)} tasks (a stale snapshot)"
            )
        return unfinished, completed, in_flight

    # ------------------------------------------------------------------
    def project(
        self,
        run_state: RunState,
        instances: list[VirtualInstance],
        queued_task_ids: tuple[str, ...],
        horizon: float,
    ) -> UpcomingLoad:
        """Simulate from ``run_state.now`` to ``now + horizon``.

        ``instances`` must cover every instance whose occupants appear in
        the run state as in-flight; tasks attached to excluded (draining)
        instances are re-queued at time ``now`` with their full predicted
        occupancy, mirroring the engine's resubmit-on-terminate semantics.
        """
        now = run_state.now
        target = now + horizon
        estimates = run_state.estimates
        # float-only remaining-occupancy lookups (no TaskEstimate build)
        # when the run state carries a lazy mapping
        remaining_of = getattr(estimates, "remaining_of", None)
        if remaining_of is None:
            remaining_of = (  # noqa: E731
                lambda tid: estimates[tid].remaining_occupancy
            )

        unfinished, seed_completed, in_flight = self._topology(run_state)
        # The projection loop decrements unfinished-parent counts
        # destructively. Mutate the adopted topology in place and roll
        # the decrements back through an undo log afterwards: the log is
        # O(projected completion edges), far smaller than copying the
        # whole O(incomplete) dict every tick.
        undo: list[tuple[str, int]] = []

        known_instances = {vi.instance_id: vi for vi in instances}
        counter = itertools.count()
        # (time, seq, kind, id); seq is unique so kind is never compared
        heap: list[tuple[float, int, int, str]] = []
        INSTANCE, COMPLETE = 0, 1
        heappush = heapq.heappush
        heappop = heapq.heappop

        # -- seed instance availability -------------------------------
        free_slots: dict[str, int] = {}
        # Lazy min-heap of host ids that may have a free slot: the seed
        # implementation re-ran ``sorted(free_slots)`` per dispatch to
        # find the lowest-id host with capacity; this heap serves the
        # same minimum in O(log n), with stale entries (hosts whose slots
        # filled meanwhile) skipped on pop.
        avail_heap: list[str] = []
        in_avail_heap: set[str] = set()

        def mark_available(instance_id: str) -> None:
            if (
                free_slots[instance_id] > 0
                and instance_id not in in_avail_heap
            ):
                heapq.heappush(avail_heap, instance_id)
                in_avail_heap.add(instance_id)

        def host_with_free_slot() -> str | None:
            while avail_heap:
                instance_id = avail_heap[0]
                if free_slots.get(instance_id, 0) > 0:
                    return instance_id
                heapq.heappop(avail_heap)
                in_avail_heap.discard(instance_id)
            return None

        for vi in instances:
            if vi.available_at <= now:
                free_slots[vi.instance_id] = vi.slots - len(vi.occupants)
                mark_available(vi.instance_id)
            else:
                heappush(
                    heap, (vi.available_at, next(counter), INSTANCE, vi.instance_id)
                )

        # -- seed task states ------------------------------------------
        # Virtual-task records — (remaining, instance_id, started_at,
        # initial_sunk) tuples, cheap enough for the thousands of events a
        # projection can replay — are created lazily: up front only for
        # in-flight tasks (they carry instance/sunk state), and on first
        # dispatch for queued ones. Untouched tasks never materialize.
        virtual: dict[str, tuple[float, str | None, float | None, float]] = {}
        assigned: set[str] = set()
        queue: deque[str] = deque()
        queued_set: set[str] = set()

        def enqueue(task_id: str, *, front: bool = False) -> None:
            if task_id in queued_set:
                return
            queued_set.add(task_id)
            if front:
                queue.appendleft(task_id)
            else:
                queue.append(task_id)

        for task_id in in_flight:
            estimate = estimates[task_id]
            if estimate.instance_id in known_instances:
                remaining = estimate.remaining_occupancy
                virtual[task_id] = (
                    remaining,
                    estimate.instance_id,
                    now,
                    estimate.sunk_occupancy,
                )
                assigned.add(task_id)
                heappush(
                    heap, (now + remaining, next(counter), COMPLETE, task_id)
                )
            else:
                # Its instance is draining/gone: the task will restart.
                # Conservatively requeue at the front with full occupancy.
                virtual[task_id] = (
                    2 * run_state.transfer_estimate + estimate.exec_estimate,
                    None,
                    None,
                    0.0,
                )
                enqueue(task_id, front=True)

        for task_id in queued_task_ids:
            if (
                task_id in unfinished
                and task_id not in assigned
                and task_id not in queued_set
            ):
                queued_set.add(task_id)
                queue.append(task_id)

        # Pre-resolve the seed queue's remaining occupancies in one bulk
        # call; tasks enqueued later (children readied mid-projection)
        # fall back to per-id lookups.
        remaining_many = getattr(estimates, "remaining_many", None)
        rem_hint: dict[str, float] = {}
        if remaining_many is not None and queue:
            rem_hint = dict(zip(queue, remaining_many(queue)))
        rem_hint_get = rem_hint.get

        # -- projection loop -------------------------------------------
        def dispatch(time: float) -> None:
            while queue:
                slot_host = host_with_free_slot()
                if slot_host is None:
                    return
                task_id = queue.popleft()
                queued_set.discard(task_id)
                vt = virtual.get(task_id)
                if vt is not None:
                    remaining = vt[0]
                else:
                    remaining = rem_hint_get(task_id)
                    if remaining is None:
                        remaining = remaining_of(task_id)
                virtual[task_id] = (remaining, slot_host, time, 0.0)
                free_slots[slot_host] -= 1
                heappush(
                    heap, (time + remaining, next(counter), COMPLETE, task_id)
                )

        projected_done = 0
        children_cache = self.workflow.sorted_children
        try:
            dispatch(now)
            unfinished_get = unfinished.get
            undo_append = undo.append
            virtual_pop = virtual.pop
            virtual_get = virtual.get
            queue_append = queue.append
            queue_popleft = queue.popleft
            queued_add = queued_set.add
            queued_discard = queued_set.discard
            while heap and heap[0][0] <= target:
                time, _, kind, payload = heappop(heap)
                if kind == INSTANCE:
                    vi = known_instances[payload]
                    free_slots[payload] = vi.slots
                    mark_available(payload)
                    dispatch(time)
                    continue
                # a predicted task completion
                host = virtual_pop(payload)[1]
                projected_done += 1
                # A non-empty queue proves every slot in the pool is full
                # (dispatch() always drains one or the other), so the slot
                # this completion frees is the only free slot anywhere and
                # the queue head must land exactly there. Inlining that
                # single dispatch skips the avail-heap round-trip that
                # otherwise dominates steady-state event cost.
                busy = bool(queue)
                for child in children_cache[payload]:
                    count = unfinished_get(child)
                    if count is None:
                        continue
                    undo_append((child, count))
                    count -= 1
                    unfinished[child] = count
                    if count == 0 and child not in queued_set:
                        queued_add(child)
                        queue_append(child)
                if host is not None and host in free_slots:
                    if busy:
                        task_id = queue_popleft()
                        queued_discard(task_id)
                        vt = virtual_get(task_id)
                        if vt is not None:
                            remaining = vt[0]
                        else:
                            remaining = rem_hint_get(task_id)
                            if remaining is None:
                                remaining = remaining_of(task_id)
                        virtual[task_id] = (remaining, host, time, 0.0)
                        heappush(
                            heap,
                            (time + remaining, next(counter), COMPLETE, task_id),
                        )
                        continue
                    free_slots[host] += 1
                    mark_available(host)
                elif busy:
                    # nothing freed and the pool was already full: no
                    # dispatch can succeed
                    continue
                dispatch(time)
        finally:
            # roll the projection's decrements back off the persistent
            # topology (reverse order restores the original values)
            for child, count in reversed(undo):
                unfinished[child] = count

        # -- snapshot at the target interval start ---------------------
        running: list[tuple[float, str, float]] = []  # (completion, id, remaining)
        restart_costs: dict[str, float] = {
            vi.instance_id: 0.0 for vi in instances
        }
        for task_id, (rem, host, started_at, initial_sunk) in virtual.items():
            if host is None:
                continue
            assert started_at is not None
            completion = started_at + rem
            remaining = max(0.0, completion - target)
            running.append((completion, task_id, remaining))
            sunk = initial_sunk + (target - started_at)
            if host in restart_costs:
                restart_costs[host] = max(restart_costs[host], sunk)
        running.sort()

        task_ids: list[str] = [tid for _, tid, _ in running]
        remaining_col: list[float] = [rem for _, _, rem in running]
        if remaining_many is not None:
            unresolved = [
                tid
                for tid in queue
                if tid not in virtual and tid not in rem_hint
            ]
            if unresolved:
                rem_hint.update(zip(unresolved, remaining_many(unresolved)))
        for task_id in queue:
            vt = virtual.get(task_id)
            if vt is not None:
                task_ids.append(task_id)
                remaining_col.append(vt[0])
                continue
            remaining = rem_hint_get(task_id)
            if remaining is None:
                remaining = remaining_of(task_id)
            task_ids.append(task_id)
            remaining_col.append(remaining)

        return UpcomingLoad(
            at=target,
            task_ids=tuple(task_ids),
            remaining=np.array(remaining_col, dtype=np.float64),
            restart_costs=restart_costs,
            workflow_done=seed_completed + projected_done == len(self.workflow),
        )
