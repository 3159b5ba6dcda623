"""WIRE core: the paper's primary contribution.

- :class:`TaskPredictor` — the five online prediction policies (§III-C)
  plus the online-gradient-descent model (Algorithm 1);
- :class:`LookaheadSimulator` — the workflow simulator that predicts the
  upcoming load ``Q_task`` one control interval ahead (§III-B2);
- :class:`SteeringPolicy` / :func:`resize_pool` — the resource-steering
  policy (Algorithms 2 and 3);
- :class:`MapeController` — the MAPE loop tying them together.
"""

from repro.core.config import WireConfig
from repro.core.lookahead import (
    LookaheadSimulator,
    UpcomingLoad,
    UpcomingTask,
    VirtualInstance,
)
from repro.core.mape import MapeController, TickDiagnostics
from repro.core.ogd import OnlineGradientDescentModel
from repro.core.predictor import TaskPredictor
from repro.core.runstate import PredictionPolicy, RunState, TaskEstimate
from repro.core.steering import SteerableInstance, SteeringPolicy, resize_pool

__all__ = [
    "LookaheadSimulator",
    "MapeController",
    "OnlineGradientDescentModel",
    "PredictionPolicy",
    "RunState",
    "SteerableInstance",
    "SteeringPolicy",
    "TaskEstimate",
    "TaskPredictor",
    "TickDiagnostics",
    "UpcomingLoad",
    "UpcomingTask",
    "VirtualInstance",
    "WireConfig",
    "resize_pool",
]
