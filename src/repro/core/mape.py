"""The WIRE MAPE controller.

Wires the paper's three components — task predictor, workflow simulator,
and resource-steering policy (§III-B, Figure 1) — into a single
:class:`~repro.engine.control.Autoscaler` executed once per control
interval:

- **Monitor**: harvest the previous interval's measurements
  (:meth:`TaskPredictor.observe_interval`).
- **Analyze**: rebuild the run state — conservative minimum remaining
  occupancy for every task on the wavefront.
- **Plan**: project one interval ahead with the lookahead simulator to get
  the upcoming load ``Q_task`` and per-instance restart costs.
- **Execute**: apply Algorithms 2/3 to grow or shrink the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import WireConfig
from repro.core.lookahead import LookaheadSimulator, VirtualInstance
from repro.core.predictor import TaskPredictor
from repro.core.runstate import PredictionPolicy, RunState
from repro.core.steering import SteeringPolicy, steer_inputs_for
from repro.dag.workflow import Workflow
from repro.engine.control import NO_CHANGE, Autoscaler, Observation, ScalingDecision
from repro.engine.master import TaskExecState
from repro.telemetry.records import StagePrediction, TickTelemetry

__all__ = ["MapeController", "TickDiagnostics"]


def _stage_predictions(run_state: RunState) -> tuple[StagePrediction, ...]:
    """One :class:`StagePrediction` per stage with incomplete tasks.

    Stages in id order; each reports its most frequent policy (ties
    break toward the lower policy number, the paper's rule order), its
    task count and the mean of its exec estimates, summed in the run
    state's order.
    """
    by_stage: dict[str, tuple[list[float], dict[PredictionPolicy, int]]] = {}
    for stage_id, exec_estimate, policy in run_state.incomplete_predictions():
        group = by_stage.get(stage_id)
        if group is None:
            group = by_stage[stage_id] = ([], {})
        group[0].append(exec_estimate)
        counts = group[1]
        counts[policy] = counts.get(policy, 0) + 1
    predictions = []
    for stage_id in sorted(by_stage):
        estimates, counts = by_stage[stage_id]
        dominant = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        predictions.append(
            StagePrediction(
                stage_id=stage_id,
                model=dominant.name.lower(),
                n_tasks=len(estimates),
                mean_estimate=sum(estimates) / len(estimates),
            )
        )
    return tuple(predictions)


@dataclass(frozen=True)
class TickDiagnostics:
    """What one MAPE iteration saw and decided (experiment telemetry)."""

    now: float
    upcoming_tasks: int
    target_pool: int
    pool_before: int
    launched: int
    terminated: int
    transfer_estimate: float
    policy_counts: dict[PredictionPolicy, int] = field(default_factory=dict)


class MapeController(Autoscaler):
    """WIRE: online-prediction-driven elastic pool control.

    One controller instance manages one workflow run; it lazily binds to
    the workflow on the first tick and refuses to be reused for another.
    """

    name = "wire"

    def __init__(self, config: WireConfig | None = None) -> None:
        self.config = config or WireConfig()
        self._steering = SteeringPolicy(self.config.restart_threshold_fraction)
        self._predictor: TaskPredictor | None = None
        self._lookahead: LookaheadSimulator | None = None
        self._workflow: Workflow | None = None
        self._last_run_state: RunState | None = None
        #: the latest tick's Q_task, converted only for a traced tick
        self._last_upcoming: "np.ndarray | list[float] | None" = None
        #: per-tick telemetry, appended in tick order
        self.diagnostics: list[TickDiagnostics] = []
        #: graceful-degradation counters under cloud-fault injection:
        #: ticks whose kickstart records were blacked out, and shrink
        #: decisions suppressed on such ticks
        self.blackout_ticks = 0
        self.blackout_holds = 0

    # ------------------------------------------------------------------
    def _make_predictor(self, workflow: Workflow) -> TaskPredictor:
        """Factory hook; the oracle baseline substitutes a clairvoyant
        predictor here while reusing the whole MAPE pipeline."""
        return TaskPredictor(workflow, self.config)

    def _bind(self, workflow: Workflow) -> None:
        if self._workflow is None:
            self._workflow = workflow
            self._predictor = self._make_predictor(workflow)
            self._lookahead = LookaheadSimulator(workflow)
        elif self._workflow is not workflow:
            raise RuntimeError(
                "a MapeController instance manages a single run; create a "
                "fresh controller per workflow"
            )

    @property
    def predictor(self) -> TaskPredictor:
        """The bound task predictor (after the first tick)."""
        if self._predictor is None:
            raise RuntimeError("controller has not observed a run yet")
        return self._predictor

    # ------------------------------------------------------------------
    def plan(self, obs: Observation) -> ScalingDecision:
        self._bind(obs.workflow)
        assert self._predictor is not None and self._lookahead is not None

        # Monitor + Analyze. Under a monitoring blackout (cloud-fault
        # injection) this tick's kickstart records are missing: skip the
        # learning pass so the per-stage models and transfer estimate
        # stay at their last-known values instead of training on a
        # partial window. The engine re-offers the starved window at the
        # next clear tick (delayed-records mode) or never (dropped).
        # The run state is still rebuilt — task lifecycle state is the
        # framework master's own knowledge, not kickstart data — and
        # revoked capacity needs no special casing here: a revoked
        # instance is TERMINATED, so it has already left the steerable
        # set and its requeued tasks are back on the wavefront.
        if not obs.monitor_blackout:
            self._predictor.observe_interval(
                obs.monitor, obs.window_start, obs.now
            )
        else:
            self.blackout_ticks += 1
        run_state = self._predictor.build_run_state(obs.master, obs.monitor, obs.now)
        self._last_run_state = run_state

        steerable = obs.steerable_instances()
        pending = obs.pool.pending()

        # Plan: project the next interval
        if self.config.lookahead:
            virtual = [
                VirtualInstance(
                    instance_id=i.instance_id,
                    slots=i.itype.slots,
                    available_at=obs.now,
                    occupants=tuple(sorted(i.occupants)),
                )
                for i in steerable
            ]
            virtual.extend(
                VirtualInstance(
                    instance_id=i.instance_id,
                    slots=i.itype.slots,
                    available_at=i.requested_at + obs.lag,
                )
                for i in pending
            )
            load = self._lookahead.project(
                run_state, virtual, obs.queued_task_ids, horizon=obs.lag
            )
            # flat float64 Q_task column, consumed by the vectorized
            # Algorithm 3 without per-task object hops
            upcoming = load.remaining
        else:
            # Ablation: steer from the instantaneous load with no DAG
            # projection — ready/in-flight tasks only.
            load = None
            upcoming = [
                e.remaining_occupancy
                for e in run_state.wavefront()
                if e.phase is not TaskExecState.BLOCKED
            ]

        # Restart cost c_j, evaluated at the moment a release would actually
        # happen: the instance's charge boundary (Algorithm 2 frames c_j "at
        # the interval's start", but releasing at the interval start would
        # already incur the recharge Algorithm 2 exists to avoid — see
        # DESIGN.md).
        steer_inputs = steer_inputs_for(
            steerable, obs.billing, obs.now, run_state.estimates.__getitem__
        )

        self._last_upcoming = upcoming

        # Execute
        decision = self._steering.decide(
            now=obs.now,
            upcoming_remaining=upcoming,
            instances=steer_inputs,
            pending_count=len(pending),
            charging_unit=obs.charging_unit,
            lag=obs.lag,
            slots_per_instance=obs.site.itype.slots,
            min_instances=max(1, obs.site.min_instances),
            max_instances=obs.site.max_instances,
        )

        # Never shrink on a stale model: a blackout tick's estimates may
        # under-state remaining load, and releasing capacity it would
        # immediately re-order thrashes through the provisioning lag.
        # Growing (or holding) on last-known data is safe by comparison.
        if obs.monitor_blackout and decision.terminations:
            self.blackout_holds += 1
            decision = NO_CHANGE

        self.diagnostics.append(
            TickDiagnostics(
                now=obs.now,
                upcoming_tasks=len(upcoming),
                target_pool=len(steerable)
                + len(pending)
                + decision.launch
                - len(decision.terminations),
                pool_before=len(steerable) + len(pending),
                launched=decision.launch,
                terminated=len(decision.terminations),
                transfer_estimate=run_state.transfer_estimate,
                policy_counts=run_state.policy_counts(),
            )
        )
        return decision

    # ------------------------------------------------------------------
    def tick_telemetry(self) -> TickTelemetry | None:
        """Controller detail of the last tick, for the trace layer.

        Only invoked by the engine when a trace sink is attached. The
        target is the p that the tick's own Algorithm 3 call computed,
        and the stage predictions come from
        :meth:`RunState.incomplete_predictions`, so no estimate is built
        here.
        """
        run_state = self._last_run_state
        upcoming = self._last_upcoming
        if run_state is None or upcoming is None:
            return None
        if isinstance(upcoming, np.ndarray):
            upcoming = upcoming.tolist()
        return TickTelemetry(
            target_pool=self._steering.last_target,
            q_task=len(upcoming),
            q_remaining=sum(upcoming),
            transfer_estimate=run_state.transfer_estimate,
            stage_predictions=_stage_predictions(run_state),
        )

    # ------------------------------------------------------------------
    def state_size_bytes(self) -> int | None:
        """Persistent controller state for the §IV-F overhead report.

        Counts what WIRE must keep *between* MAPE iterations: the
        per-stage learning models and the transfer-estimate window. The
        run-state annotations are a transient per-iteration working
        buffer rebuilt from monitoring data each tick (tracked separately
        in :meth:`working_set_bytes`); the paper's <= 16 KB claim can only
        refer to the persistent state — Genome L alone has 4005 tasks,
        whose per-task annotations would exceed 16 KB under any encoding.
        """
        if self._predictor is None:
            return 0
        return self._predictor.state_size_bytes()

    def working_set_bytes(self) -> int:
        """Transient per-iteration working buffer (run-state annotations)."""
        if self._last_run_state is None:
            return 0
        return self._last_run_state.state_size_bytes()
