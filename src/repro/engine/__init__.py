"""Workflow execution engine (Pegasus WMS / HTCondor stand-in).

A deterministic discrete-event simulator that runs workflows on an
elastic pool of simulated cloud instances, with kickstart-style monitoring,
FIFO scheduling with the paper's first-five stage boost, and a pluggable
autoscaler invoked on the MAPE cadence. One core (:class:`EngineCore`)
serves both the single-workflow :class:`Simulation` and the multi-tenant
fleet engine.
"""

from repro.engine.control import (
    Autoscaler,
    Observation,
    ScalingDecision,
    TerminationOrder,
)
from repro.engine.events import Event, EventKind, EventQueue
from repro.engine.faults import FaultModel, NoFaults, RandomFaults
from repro.engine.master import FrameworkMaster, TaskExecState
from repro.engine.monitor import Monitor, TaskAttempt
from repro.engine.runtime import (
    NominalRuntimeModel,
    PerturbedRuntimeModel,
    TaskRuntimeModel,
)
from repro.engine.scheduler import FifoScheduler, LifoScheduler, RandomScheduler
from repro.engine.simulator import EngineCore, RunResult, Simulation, WorkflowRun
from repro.engine.transfer import (
    DataTransferModel,
    ExponentialTransferModel,
    LinearTransferModel,
    LocalityTransferModel,
    NoTransferModel,
)

__all__ = [
    "Autoscaler",
    "DataTransferModel",
    "EngineCore",
    "Event",
    "EventKind",
    "EventQueue",
    "ExponentialTransferModel",
    "FaultModel",
    "FifoScheduler",
    "FrameworkMaster",
    "LifoScheduler",
    "LinearTransferModel",
    "LocalityTransferModel",
    "Monitor",
    "NoFaults",
    "NoTransferModel",
    "NominalRuntimeModel",
    "Observation",
    "PerturbedRuntimeModel",
    "RandomFaults",
    "RandomScheduler",
    "RunResult",
    "ScalingDecision",
    "Simulation",
    "TaskAttempt",
    "TaskExecState",
    "TaskRuntimeModel",
    "TerminationOrder",
    "WorkflowRun",
]
