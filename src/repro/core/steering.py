"""The resource-steering policy (paper Algorithms 2 and 3).

Algorithm 3 ("resizePool") computes the ideal pool size *p*: it greedily
packs the upcoming tasks into instance slots, counting an instance
whenever the packed occupancy fills at least one charging unit, plus one
final instance when leftover work is non-trivial (a task with more than
``0.2u`` remaining) or no instance was counted at all.

Algorithm 2 compares *p* to the current pool size *m* and either requests
``p - m`` launches or releases instances — but only instances whose
charging unit expires before the next interval (``r_j <= t``, avoiding the
recharge cost) and whose task restart cost is below the ``0.2u``
threshold. Released instances' running tasks are resubmitted.

Vectorized packing
------------------
:func:`resize_pool` runs Algorithm 3 over a flat float64 vector. With
``s`` slots per instance, consecutive task rows that are *consumable* —
uniform (all ties leave the slot set together) or with a row minimum
that alone fills a charging unit — are classified in bulk with vectorized
row min/max, then charged by a single sequential walk over the row
minima, reproducing the reference loop's float operations bit-for-bit.
All remaining rounds — survivor shrinking, partially filled slot sets —
fall through to scalar code identical to :func:`resize_pool_reference`,
which is kept as the differential-testing reference
(tests/core/test_steering_properties.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.engine.control import ScalingDecision, TerminationOrder
from repro.util.validation import check_in_range, check_positive

__all__ = [
    "SteerableInstance",
    "SteeringPolicy",
    "resize_pool",
    "resize_pool_reference",
    "steer_inputs_for",
]


def _validate_resize_args(
    charging_unit: float, slots_per_instance: int, tail_threshold_fraction: float
) -> None:
    check_positive("charging_unit", charging_unit)
    if slots_per_instance <= 0:
        raise ValueError(
            f"slots_per_instance must be > 0, got {slots_per_instance}"
        )
    check_in_range(
        "tail_threshold_fraction", tail_threshold_fraction, 0.0, 1.0
    )


def resize_pool_reference(
    remaining_times: Sequence[float],
    charging_unit: float,
    slots_per_instance: int,
    *,
    tail_threshold_fraction: float = 0.2,
) -> int:
    """Algorithm 3, literal per-task loop (the differential reference).

    Semantics are the contract; :func:`resize_pool` must agree with this
    bit-for-bit on every input it accepts.
    """
    _validate_resize_args(
        charging_unit, slots_per_instance, tail_threshold_fraction
    )
    if len(remaining_times) == 0:
        return 0

    queue = list(remaining_times)
    queue.reverse()  # pop() from the end == FIFO poll()
    p = 0
    t_used = 0.0
    slot_used: list[float] = []
    while queue:
        while len(slot_used) < slots_per_instance and queue:
            slot_used.append(queue.pop())
        if len(slot_used) == slots_per_instance:
            t_min = min(slot_used)
            t_used += t_min
            if t_used >= charging_unit:
                p += 1
                t_used = 0.0
                slot_used = []
            else:
                # Lines 18-24: tasks at the minimum complete and leave the
                # slot set (all ties at once — each would otherwise leave
                # on a zero-cost later round); the rest advance by t_min.
                slot_used = [t - t_min for t in slot_used if t != t_min]
    if p == 0 or (slot_used and max(slot_used) > tail_threshold_fraction * charging_unit):
        p += 1
    return p


def _scan_crossings(
    values: "Sequence[float]", start: float, u: float
) -> tuple[int, float]:
    """Sequential ``t_used`` walk over ``values`` starting from ``start``.

    Counts charging-unit crossings (each resets the running sum to
    exactly 0.0) and returns the leftover sum. This IS the scalar
    accumulation of Algorithm 3's loop, so bit-identity is by
    construction. A tight Python walk beats windowed ``np.cumsum`` +
    ``searchsorted`` here: real loads cross a charging unit every handful
    of tasks (a task often occupies a sizable fraction of ``u``), and a
    cumsum restart cannot be replaced by differencing one global prefix
    sum without changing the float rounding.
    """
    crossings = 0
    t_used = start
    for value in values:
        t_used += value
        if t_used >= u:
            crossings += 1
            t_used = 0.0
    return crossings, t_used


def resize_pool(
    remaining_times: "Sequence[float] | np.ndarray",
    charging_unit: float,
    slots_per_instance: int,
    *,
    tail_threshold_fraction: float = 0.2,
) -> int:
    """Algorithm 3: ideal instance count for the upcoming load.

    ``remaining_times`` are the predicted minimum remaining occupancy
    times of Q_task, in the FIFO order the framework is expected to
    dispatch them. Returns the planned pool size ``p`` (>= 1 whenever the
    load is non-empty). Accepts any float sequence or a float64 vector;
    results are bit-identical to :func:`resize_pool_reference`.
    """
    _validate_resize_args(
        charging_unit, slots_per_instance, tail_threshold_fraction
    )
    n = len(remaining_times)
    if n == 0:
        return 0
    arr = np.asarray(remaining_times, dtype=np.float64)
    if not np.isfinite(arr).all() or bool((arr < 0.0).any()):
        # the bulk moves assume non-decreasing partial sums; degenerate
        # inputs (negative / NaN / inf occupancy) take the literal loop
        return resize_pool_reference(
            remaining_times,
            charging_unit,
            slots_per_instance,
            tail_threshold_fraction=tail_threshold_fraction,
        )

    u = charging_unit
    s = slots_per_instance
    p = 0
    if s == 1:
        # One task per round: the slot set empties every round, so the
        # whole input is one sequential t_used walk. Leftover tasks end
        # mid-sum with an empty slot set, so the tail rule below reduces
        # to the p == 0 floor.
        p, _ = _scan_crossings(arr.tolist(), 0.0, u)
        if p == 0:
            p += 1
        return p

    # s slots per instance: from a clean (empty) slot set, a row of s
    # tasks is consumed *wholesale* when it is uniform (all ties leave
    # together, emptying the set again — t_used carries) or when its
    # minimum alone crosses the unit from any carry (the crossing resets
    # the whole set). A run of consecutive consumable rows is therefore
    # exactly the s == 1 sequential walk over the row minima, vectorized
    # by _scan_crossings; every other round runs the literal loop.
    tasks: list[float] | None = None  # lazily materialized Python floats
    i = 0
    t_used = 0.0
    slot_used: list[float] = []
    while i < n or slot_used:
        if not slot_used and n - i >= s:
            chunk = 32  # doubles while rows keep consuming, bounding rescans
            while n - i >= s:
                g = min((n - i) // s, chunk)
                block = arr[i : i + g * s].reshape(g, s)
                mins = block.min(axis=1)
                consumable = (block.max(axis=1) == mins) | (mins >= u)
                k = g if bool(consumable.all()) else int(np.argmin(consumable))
                if k:
                    crossings, t_used = _scan_crossings(
                        mins[:k].tolist(), t_used, u
                    )
                    p += crossings
                    i += k * s
                if k < g:
                    break
                chunk *= 2
        if tasks is None:
            tasks = arr.tolist()
        while len(slot_used) < s and i < n:
            slot_used.append(tasks[i])
            i += 1
        if len(slot_used) < s:
            break  # queue exhausted mid-fill: leftovers go to the tail rule
        t_min = min(slot_used)
        t_used += t_min
        if t_used >= u:
            p += 1
            t_used = 0.0
            slot_used = []
        else:
            slot_used = [t - t_min for t in slot_used if t != t_min]
    if p == 0 or (slot_used and max(slot_used) > tail_threshold_fraction * u):
        p += 1
    return p


@dataclass(frozen=True)
class SteerableInstance:
    """What Algorithm 2 needs to know about one running instance."""

    instance_id: str
    #: seconds until the next charging-unit boundary (r_j)
    time_to_next_charge: float
    #: max sunk occupancy of its projected tasks at the interval start (c_j)
    restart_cost: float


def steer_inputs_for(
    instances: Sequence["object"],
    billing: "object",
    now: float,
    estimate_of: Callable[[str], "object"],
) -> list[SteerableInstance]:
    """Algorithm 2's per-instance inputs (r_j, c_j) for a pool snapshot.

    ``instances`` are pool instances exposing ``instance_id`` and
    ``occupants``; ``estimate_of`` maps an occupant task id to its
    :class:`~repro.core.runstate.TaskEstimate` (fleet steering resolves
    scoped ids across tenants here). The restart cost c_j is evaluated at
    the instance's charge boundary: an occupant predicted to finish
    before the boundary contributes nothing; one predicted to outlive it
    would be killed with its sunk occupancy grown to the boundary.
    """
    steer_inputs: list[SteerableInstance] = []
    for instance in instances:
        r_j = billing.time_to_next_charge(instance, now)
        cost = 0.0
        for task_id in instance.occupants:
            estimate = estimate_of(task_id)
            if estimate.remaining_occupancy > r_j:
                cost = max(cost, estimate.sunk_occupancy + r_j)
        steer_inputs.append(
            SteerableInstance(
                instance_id=instance.instance_id,
                time_to_next_charge=r_j,
                restart_cost=cost,
            )
        )
    return steer_inputs


class SteeringPolicy:
    """Algorithm 2: grow or shrink the pool toward Algorithm 3's target."""

    def __init__(self, restart_threshold_fraction: float = 0.2) -> None:
        check_in_range(
            "restart_threshold_fraction", restart_threshold_fraction, 0.0, 1.0
        )
        self.restart_threshold_fraction = restart_threshold_fraction
        #: Algorithm 3's p at the latest :meth:`decide`, before an empty
        #: Q_task is replaced by ``min_instances`` (the traced tick reads it)
        self.last_target: int | None = None

    def decide(
        self,
        *,
        now: float,
        upcoming_remaining: "Sequence[float] | np.ndarray",
        instances: Sequence[SteerableInstance],
        pending_count: int,
        charging_unit: float,
        lag: float,
        slots_per_instance: int,
        min_instances: int,
        max_instances: int,
    ) -> ScalingDecision:
        """One Execute step.

        ``instances`` are the steerable (running, non-draining) instances;
        ``pending_count`` counts launches already ordered. The decision
        never shrinks below ``min_instances`` nor plans beyond
        ``max_instances``.
        """
        p = resize_pool(
            upcoming_remaining,
            charging_unit,
            slots_per_instance,
            tail_threshold_fraction=self.restart_threshold_fraction,
        )
        self.last_target = p
        if len(upcoming_remaining) == 0:
            # §III-D: with an empty Q_task, retain a minimal pool until the
            # next control iteration (or workflow end).
            p = min_instances
        return self.decide_with_target(
            target=p,
            now=now,
            instances=instances,
            pending_count=pending_count,
            charging_unit=charging_unit,
            lag=lag,
            min_instances=min_instances,
            max_instances=max_instances,
        )

    def decide_with_target(
        self,
        *,
        target: int,
        now: float,
        instances: Sequence[SteerableInstance],
        pending_count: int,
        charging_unit: float,
        lag: float,
        min_instances: int,
        max_instances: int,
    ) -> ScalingDecision:
        """Algorithm 2's grow/shrink step for an externally chosen target.

        The reactive-conserving baseline reuses this with a target derived
        from instantaneous task counts rather than Algorithm 3.
        """
        m = len(instances) + pending_count
        p = max(min_instances, min(target, max_instances))

        if p > m:
            return ScalingDecision(launch=p - m)
        if p >= m:
            return ScalingDecision()

        threshold = self.restart_threshold_fraction * charging_unit
        if len(instances) >= 64:
            # fleet-scale shrink: evaluate the eligibility predicate over
            # flat vectors, then order only the survivors (the `sorted`
            # key is identical, so the selection matches the scalar path)
            r_j = np.fromiter(
                (inst.time_to_next_charge for inst in instances),
                dtype=np.float64,
                count=len(instances),
            )
            costs = np.fromiter(
                (inst.restart_cost for inst in instances),
                dtype=np.float64,
                count=len(instances),
            )
            eligible = np.flatnonzero((r_j <= lag) & (costs <= threshold))
            pool = (instances[k] for k in eligible)
        else:
            pool = (
                inst
                for inst in instances
                if inst.time_to_next_charge <= lag
                and inst.restart_cost <= threshold
            )
        candidates = sorted(
            pool,
            key=lambda inst: (
                inst.restart_cost,
                inst.time_to_next_charge,
                inst.instance_id,
            ),
        )
        to_release = min(m - p, len(candidates), max(0, m - min_instances))
        orders = tuple(
            TerminationOrder(
                instance_id=inst.instance_id,
                # Release exactly at the charge boundary: every paid second
                # is usable, and no recharge is incurred.
                at=now + inst.time_to_next_charge,
            )
            for inst in candidates[:to_release]
        )
        return ScalingDecision(terminations=orders)
