"""JSON serialization for workflow definitions.

A lightweight sibling of the DAX support (:mod:`repro.dag.dax`): the
native interchange format for this library. Round-trips every field of
the task model exactly (DAX is lossier — it has no executable/id split
for stages, and float formatting is at the mercy of XML tooling).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.dag.task import Task
from repro.dag.workflow import Workflow

__all__ = ["workflow_from_json", "workflow_to_json", "load_workflow", "save_workflow"]

_FORMAT_VERSION = 1


def workflow_to_json(workflow: Workflow) -> str:
    """Serialize a workflow definition to a JSON document."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "name": workflow.name,
        "tasks": [
            {
                "id": task.task_id,
                "executable": task.executable,
                "runtime": task.runtime,
                "input_size": task.input_size,
                "output_size": task.output_size,
            }
            for task in workflow  # topological order
        ],
        "edges": [
            [parent, child]
            for child in workflow.topological_order()
            for parent in sorted(workflow.parents(child))
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def workflow_from_json(text: str) -> Workflow:
    """Parse a document produced by :func:`workflow_to_json`.

    Malformed documents raise :class:`ValueError` naming the offending
    task (by index, and by id once it is known) or edge (by index).
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("workflow document must be a JSON object")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported workflow format version {version!r}")
    tasks = [
        _task_from_json(index, raw)
        for index, raw in enumerate(_list(payload, "tasks"))
    ]
    edges = [
        _edge_from_json(index, raw)
        for index, raw in enumerate(_list(payload, "edges"))
    ]
    name = payload.get("name")
    if not isinstance(name, str):
        raise ValueError(f"workflow document needs a string 'name', got {name!r}")
    return Workflow(name, tasks, edges)


def _list(payload: dict, key: str) -> list:
    value = payload.get(key)
    if not isinstance(value, list):
        raise ValueError(f"workflow document needs a {key!r} list, got {value!r}")
    return value


def _task_from_json(index: int, raw: object) -> Task:
    if not isinstance(raw, dict):
        raise ValueError(f"task {index} must be a JSON object, got {raw!r}")
    task_id = raw.get("id")
    if not isinstance(task_id, str):
        raise ValueError(f"task {index} needs a string 'id', got {task_id!r}")
    label = f"task {index} ({task_id!r})"
    executable = raw.get("executable")
    if not isinstance(executable, str):
        raise ValueError(
            f"{label} needs a string 'executable', got {executable!r}"
        )
    if "runtime" not in raw:
        raise ValueError(f"{label} has no 'runtime'")
    numbers = [
        _number(label, key, raw[key] if key in raw else 0.0)
        for key in ("runtime", "input_size", "output_size")
    ]
    try:
        return Task(task_id, executable, *numbers)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def _number(label: str, key: str, value: object) -> float:
    # bool is an int subclass; Task rejects it, so the parser does too.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label}: {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{label}: {key!r} is out of float range") from None


def _edge_from_json(index: int, raw: object) -> tuple[str, str]:
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or not all(isinstance(end, str) for end in raw)
    ):
        raise ValueError(
            f"edge {index} must be a [parent, child] pair of task ids, got {raw!r}"
        )
    return raw[0], raw[1]


def save_workflow(workflow: Workflow, path: str | Path) -> None:
    """Write a workflow definition to ``path``."""
    Path(path).write_text(workflow_to_json(workflow), encoding="utf-8")


def load_workflow(path: str | Path) -> Workflow:
    """Read a workflow definition from ``path``."""
    return workflow_from_json(Path(path).read_text(encoding="utf-8"))
