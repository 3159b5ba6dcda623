#!/usr/bin/env python3
"""Generate docs/api.md from the packages' public surfaces.

Walks every ``repro`` subpackage, lists its ``__all__`` symbols with the
first line of each docstring. Run after changing any public API:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro.dag",
    "repro.cloud",
    "repro.engine",
    "repro.core",
    "repro.autoscalers",
    "repro.fleet",
    "repro.checkpoint",
    "repro.workloads",
    "repro.zoo",
    "repro.traces",
    "repro.telemetry",
    "repro.metrics",
    "repro.reporting",
    "repro.experiments",
    "repro.validate",
    "repro.util",
]

EXTRA_MODULES = [
    "repro.dag.dax",
    "repro.dag.serialize",
    "repro.zoo.registry",
    "repro.cloud.faults",
    "repro.cloud.messaging",
    "repro.engine.kickstart",
    "repro.experiments.executors",
    "repro.validate.fuzz",
    "repro.cli",
]


#: extra prose appended after a module's summary line
NOTES = {
    "repro.core": (
        "The controller hot path (incremental projection, vectorized "
        "steering, prediction memos) and its bit-identity discipline are "
        "documented in [performance.md](performance.md)."
    ),
    "repro.checkpoint": (
        "Checkpoint/resume semantics (cut points, the telemetry cursor, "
        "and the byte-identity contract) are documented in "
        "[fleet.md](fleet.md)."
    ),
    "repro.zoo": (
        "WfCommons ingestion, trace calibration, and the workload "
        "registry are documented in [workloads.md](workloads.md)."
    ),
    "repro.experiments.executors": (
        "The backend contract (retry accounting, pinned start method, "
        "and the serial ≡ parallel byte-identity guarantee) is "
        "documented in [performance.md](performance.md)."
    ),
}


def first_doc_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.splitlines()[0].strip() if doc else ""
    return line.rstrip(".")


def describe(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    summary = first_doc_line(module)
    if summary:
        lines += [summary + ".", ""]
    note = NOTES.get(module_name)
    if note:
        lines += [note, ""]
    names = getattr(module, "__all__", None)
    if not names:
        lines += ["(no public symbols)", ""]
        return lines
    lines.append("| symbol | kind | summary |")
    lines.append("|---|---|---|")
    for name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            kind = "class"
        elif inspect.isfunction(obj):
            kind = "function"
        elif callable(obj):
            kind = "callable"
        else:
            kind = "constant"
        lines.append(f"| `{name}` | {kind} | {first_doc_line(obj)} |")
    lines.append("")
    return lines


def main() -> None:
    out = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; edit that script,",
        "not this file. One row per symbol exported from each package's",
        "`__all__`.",
        "",
    ]
    for module_name in PACKAGES + EXTRA_MODULES:
        out.extend(describe(module_name))
    path = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
