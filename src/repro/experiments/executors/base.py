"""Executor backend contract: what every fan-out implementation owes.

A backend executes a list of independent, picklable *tasks* through one
module-level *worker* callable against a *context* that is shipped to
each worker exactly once (not re-pickled per task). The two bundled
implementations — :class:`~repro.experiments.executors.SerialBackend`
and :class:`~repro.experiments.executors.ProcessBackend` — honor the
same observable semantics, which the conformance suite
(``tests/experiments/test_executors.py``) checks backend-by-backend:

* **Determinism.** Outcomes come back in task order regardless of which
  worker finished first, so a campaign store or sweep row list built
  through any backend is byte-identical to a serial one.
* **Retry accounting.** Only an attempt that *executed and failed* (the
  worker callable raised) is charged against ``max_attempts``. Work
  that was merely in flight when a worker process died is resubmitted free of charge — two unrelated worker deaths
  can never spuriously fail a task that never itself crashed.
* **Livelock cap.** Free resubmission is bounded: after
  ``CRASH_FREE_RETRIES`` consecutive crash-like failures with no
  successful completion in between, further crashes are charged as
  attempts, so a task that reliably kills its worker surfaces as a
  failed outcome instead of rebuilding the pool forever.
* **Streaming.** ``on_result`` fires in the parent, in completion
  order, as each task is decided — the hook campaign stores use to
  batch incremental saves.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Sequence

__all__ = ["CRASH_FREE_RETRIES", "ExecutorBackend", "TaskOutcome", "format_error"]

#: consecutive crash-like failures (worker deaths) a task
#: absorbs free of charge before further crashes are charged as attempts
CRASH_FREE_RETRIES = 3


def format_error(exc: BaseException) -> str:
    """The canonical one-line error string recorded for a failed task."""
    return f"{type(exc).__name__}: {exc}"


@dataclass
class TaskOutcome:
    """Terminal state of one task: a value, or an error after retries.

    ``attempts`` counts only executed attempts (the worker callable ran
    and returned or raised); crash-like failures that were resubmitted
    free of charge are tallied separately in ``crashes``. ``exception``
    carries the original exception object when the backend can transport
    it (always inline; across process boundaries when it pickles), so
    callers like :func:`~repro.experiments.parallel.parallel_map` can
    re-raise the real type rather than a stringly wrapper.
    """

    index: int
    value: Any = None
    error: str | None = None
    attempts: int = 0
    crashes: int = 0
    exception: BaseException | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


class ExecutorBackend(ABC):
    """One way of fanning independent tasks over compute.

    Subclasses implement :meth:`run`; ``name`` is the identifier
    :func:`~repro.experiments.executors.resolve_backend` accepts.
    """

    name: ClassVar[str]

    @abstractmethod
    def run(
        self,
        worker: Callable[[Any, Any], Any],
        tasks: Sequence,
        *,
        context: Any = None,
        max_attempts: int = 1,
        on_result: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Execute ``worker(context, task)`` for every task.

        Returns one :class:`TaskOutcome` per task, in task order. A
        worker exception consumes an attempt; once a task's executed
        attempts reach ``max_attempts`` it is reported as an error
        outcome (never raised — isolation is the caller's policy
        decision). Crash-like failures resubmit free, capped by
        :data:`CRASH_FREE_RETRIES`.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"
