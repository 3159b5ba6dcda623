"""Pluggable executor backends for campaign/sweep fan-out.

One contract, two implementations:

| backend | runs on | use when |
|---|---|---|
| ``serial`` | the calling process | debugging; tiny matrices; ``jobs=1`` |
| ``process`` | a persistent local process pool (pinned start method) | one multi-core host |

Both honor identical observable semantics — task-order results,
executed-attempt-only retry accounting with free crash resubmission,
streamed completion callbacks — so serial ≡ process holds byte-for-byte
on every campaign store and sweep row list (the conformance suite in
``tests/experiments/test_executors.py`` enforces it per backend).
:func:`resolve_backend` turns a ``(backend, jobs)`` pair into a ready
instance.
"""

from __future__ import annotations

from repro.experiments.executors.base import (
    CRASH_FREE_RETRIES,
    ExecutorBackend,
    TaskOutcome,
)
from repro.experiments.executors.process import DEFAULT_START_METHOD, ProcessBackend
from repro.experiments.executors.serial import SerialBackend

__all__ = [
    "BACKEND_NAMES",
    "CRASH_FREE_RETRIES",
    "DEFAULT_START_METHOD",
    "ExecutorBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskOutcome",
    "resolve_backend",
]

#: the backend names :func:`resolve_backend` accepts, in documentation order
BACKEND_NAMES = ("serial", "process")


def resolve_backend(
    backend: str | ExecutorBackend | None, *, jobs: int = 1
) -> ExecutorBackend:
    """Build the backend a fan-out call should use.

    ``None`` picks the obvious default: ``serial`` at ``jobs=1``,
    ``process`` otherwise — so ``jobs=N`` call sites need not name a
    backend. A ready :class:`ExecutorBackend` instance passes through
    untouched (the hook custom backends use).
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None:
        backend = "serial" if jobs == 1 else "process"
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessBackend(jobs=max(jobs, 1))
    known = ", ".join(BACKEND_NAMES)
    raise ValueError(f"unknown executor backend {backend!r}; choose one of: {known}")
