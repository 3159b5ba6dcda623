"""Static task model.

A :class:`Task` is the unit of computation and resource consumption (paper
§I): it occupies one slot of a worker instance for its data stage-in, its
execution, and its data stage-out. Tasks here are *static* descriptions —
what a workflow declares before it runs. Runtime state (start times,
measured durations) lives in the execution engine
(:mod:`repro.engine.master`) and in WIRE's run state
(:mod:`repro.core.runstate`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.util.validation import check_non_negative

__all__ = ["Task"]

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Task:
    """One schedulable task of a workflow.

    Parameters
    ----------
    task_id:
        Unique identifier within the workflow.
    executable:
        Name of the program the task runs. Tasks sharing an executable and
        the same set of predecessor stages form a *stage* (paper §I); stage
        inference uses this field.
    runtime:
        The task's nominal execution time in seconds for this run — the
        ground truth the execution engine realizes (optionally perturbed by
        per-run variability models). WIRE never reads this field directly;
        it only sees measured durations through monitoring.
    input_size:
        Total input bytes the task stages in. This is the feature of the
        online-gradient-descent predictor (paper Eq. 1).
    output_size:
        Total output bytes the task stages out.
    """

    task_id: str
    executable: str
    runtime: float
    input_size: float = 0.0
    output_size: float = 0.0

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be a non-empty string")
        if not self.executable:
            raise ValueError("executable must be a non-empty string")
        runtime, input_size, output_size = (
            self.runtime, self.input_size, self.output_size
        )
        # Fast path: plain floats in [0, max] are exactly the floats
        # check_non_negative accepts; anything else gets its full checks
        # and messages.
        if (
            type(runtime) is float
            and type(input_size) is float
            and type(output_size) is float
            and 0.0 <= runtime <= _FLOAT_MAX
            and 0.0 <= input_size <= _FLOAT_MAX
            and 0.0 <= output_size <= _FLOAT_MAX
        ):
            return
        check_non_negative("runtime", runtime)
        check_non_negative("input_size", input_size)
        check_non_negative("output_size", output_size)
