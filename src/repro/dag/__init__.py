"""Workflow DAG substrate: tasks, stages, validated DAGs, and analysis.

This package models what a workflow *declares* before it runs — the static
structure WIRE exploits for load prediction (paper §II-C). Execution
dynamics live in :mod:`repro.engine`.
"""

from repro.dag.analysis import (
    ParallelismProfile,
    critical_path_length,
    critical_path_tasks,
    depth,
    ideal_parallelism_profile,
    level_widths,
    max_width,
)
from repro.dag.builder import WorkflowBuilder
from repro.dag.stage import Stage
from repro.dag.structure import CycleError, DagStructure
from repro.dag.task import Task
from repro.dag.workflow import Workflow

__all__ = [
    "CycleError",
    "DagStructure",
    "ParallelismProfile",
    "Stage",
    "Task",
    "Workflow",
    "WorkflowBuilder",
    "critical_path_length",
    "critical_path_tasks",
    "depth",
    "ideal_parallelism_profile",
    "level_widths",
    "max_width",
]
