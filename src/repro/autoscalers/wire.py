"""WIRE as an autoscaler, plus the clairvoyant oracle variant.

:class:`WireAutoscaler` is a thin alias over
:class:`~repro.core.mape.MapeController` so experiment code can import
every policy from one package.

:class:`OracleAutoscaler` is an *extension* beyond the paper: the same
MAPE pipeline (lookahead + Algorithms 2/3) driven by a predictor that
reads the ground-truth nominal runtimes instead of learning them online.
The gap between oracle and wire isolates how much cost/performance is
attributable to prediction error versus the steering policy itself.
"""

from __future__ import annotations

from repro.core.mape import MapeController
from repro.core.predictor import TaskPredictor
from repro.core.runstate import PredictionPolicy, RunState, TaskEstimate
from repro.dag.workflow import Workflow
from repro.engine.master import FrameworkMaster, TaskExecState
from repro.engine.monitor import Monitor

__all__ = ["OracleAutoscaler", "WireAutoscaler"]


class WireAutoscaler(MapeController):
    """The paper's system, unchanged (exists for import symmetry)."""

    name = "wire"


class _ClairvoyantPredictor(TaskPredictor):
    """A predictor that returns each task's true nominal execution time.

    Transfer estimates remain the observed median — transfers are drawn
    memorylessly, so the median of observations is the best available
    estimate even with full knowledge of the model.
    """

    def observe_interval(self, monitor: Monitor, window_start: float, now: float) -> None:
        """Update only ``t̃_data``: no estimate reads the OGD models."""
        self.observe_transfers(monitor, window_start, now)

    def estimate_execution(
        self,
        task_id: str,
        phase: TaskExecState,
        monitor: Monitor,
        now: float,
        **_: object,
    ) -> tuple[float, PredictionPolicy]:
        return self.workflow.task(task_id).runtime, PredictionPolicy.OBSERVED

    def build_run_state(
        self, master: FrameworkMaster, monitor: Monitor, now: float
    ) -> RunState:
        """One topological scan annotating every task with its truth.

        Also fills the topology the lookahead adopts: the unfinished-parent
        count of every incomplete task, the completed count and the
        slot-holding tasks in topological order.
        """
        t_data = self.transfer_estimate()
        state = RunState(now=now, transfer_estimate=t_data)
        estimates = state.estimates
        unfinished: dict[str, int] = {}
        in_flight: list[str] = []
        workflow = self.workflow
        stage_of = workflow.stage_of
        parents_of = workflow.parents
        states = master.states
        for task_id in workflow.topological_order():
            phase = states[task_id]
            stage_id = stage_of[task_id]
            if phase is TaskExecState.COMPLETED:
                attempt = monitor.current_attempt(task_id)
                estimates[task_id] = TaskEstimate(
                    task_id=task_id,
                    stage_id=stage_id,
                    phase=phase,
                    exec_estimate=attempt.execution_time or 0.0,
                    policy=PredictionPolicy.OBSERVED,
                    remaining_occupancy=0.0,
                    instance_id=attempt.instance_id,
                )
                continue
            # topological order: every parent is already classified
            unfinished[task_id] = sum(
                1 for parent in parents_of(task_id) if parent in unfinished
            )
            if phase.occupies_slot:
                in_flight.append(task_id)
            estimate, policy = self.estimate_execution(task_id, phase, monitor, now)
            estimates[task_id] = self._annotate_incomplete(
                task_id, stage_id, phase, estimate, policy, monitor, now, t_data
            )
        state.unfinished_parents = unfinished
        state.completed_count = len(estimates) - len(unfinished)
        state.in_flight = tuple(in_flight)
        return state


class OracleAutoscaler(MapeController):
    """WIRE with perfect execution-time predictions (upper reference)."""

    name = "oracle"

    def _make_predictor(self, workflow: Workflow) -> TaskPredictor:
        return _ClairvoyantPredictor(workflow, self.config)
