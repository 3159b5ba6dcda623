"""Versioned mid-flight serialization of a running simulation.

Long fleet runs — overnight robustness grids, 10k-tenant diurnal
workloads — need to survive interruption without sacrificing the repo's
core contract: a resumed run must finish **byte-identical** to an
uninterrupted one. This module provides that as a thin, format-stable
layer over the engines:

- :func:`save_checkpoint` serializes a :class:`~repro.fleet.engine.
  FleetSimulation` or :class:`~repro.engine.simulator.Simulation` —
  the event queue with its sequence counter, pool and billing state,
  every run's master/monitor/queue, per-tenant predictor/OGD state,
  chaos and launch RNG streams,
  the attached invariant checker, and the telemetry cursor — into a
  single file with a magic tag, a format version, a JSON header, and a
  SHA-256 over the payload.
- :func:`load_checkpoint` verifies magic/version/checksum and returns
  the live simulation object; calling ``run()`` on it continues from
  the cut.
- :func:`read_checkpoint_info` reads only the header (cheap inspection
  for CLIs and tests).

Checkpoints are only ever written at controller-tick boundaries — the
MAPE epoch barrier — so a cut never lands mid-event.

Why whole-object pickling is safe here
--------------------------------------
Every piece of engine state is plain Python/NumPy data drawing from
labelled RNG sub-streams; ``pickle`` preserves the object graph
including shared references (the runs' ``_owner`` entries, the engine
aliases of a single run's master and monitor). The two non-trivial
cases:

- **open trace files** — :class:`~repro.telemetry.sinks.JsonlSink`
  detaches its handle on pickling and records the flushed byte offset;
  on the first emit after restore it truncates the file back to that
  offset and appends, so the resumed trace is byte-identical to a
  straight-through one.
- **``id()``-keyed predictor memos** — the controller's caches key on
  ``id(monitor)`` plus version/generation counters. After restore those
  ids change, every lookup misses cleanly, and the values are
  recomputed from state proven equivalent by the PR 6 differential
  suites; identity-collision hits are equally safe because each
  predictor only ever serves its own tenant's monitor.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointInfo",
    "load_checkpoint",
    "read_checkpoint_info",
    "save_checkpoint",
]

#: leading bytes of every checkpoint file
CHECKPOINT_MAGIC = b"WIRECKPT"
#: bumped whenever the on-disk layout or pickled engine schema changes
#: (2: both engines share one core and its run objects; 3: a workflow
#: pickles its tasks plus a DagStructure shared with its spec's other
#: realizations; 4: a heap-only event queue, and task events carry an
#: attempt handle instead of a task id)
CHECKPOINT_VERSION = 4


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or from another version."""


@dataclass(frozen=True)
class CheckpointInfo:
    """The JSON header stored in front of the pickled payload."""

    version: int
    #: "fleet" or "single"
    kind: str
    #: qualified class name of the serialized engine
    engine: str
    #: simulated seconds at the cut
    now: float
    #: controller ticks completed at the cut
    ticks: int
    #: events handled at the cut
    events_processed: int
    #: pickled payload size in bytes
    payload_bytes: int
    #: SHA-256 hex digest of the payload
    sha256: str


def save_checkpoint(sim: Any, path: str | Path) -> CheckpointInfo:
    """Serialize ``sim`` to ``path`` and return the header written.

    The file is written to a temporary sibling and atomically renamed,
    so an interrupted save never leaves a truncated checkpoint behind.
    """
    payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    info = CheckpointInfo(
        version=CHECKPOINT_VERSION,
        kind=sim.kind,
        engine=type(sim).__qualname__,
        now=float(sim._now),
        ticks=int(sim._ticks),
        events_processed=int(sim._events_processed),
        payload_bytes=len(payload),
        sha256=hashlib.sha256(payload).hexdigest(),
    )
    header = json.dumps(asdict(info), sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(len(header).to_bytes(4, "big"))
        handle.write(header)
        handle.write(payload)
    tmp.replace(path)
    return info


def _read(path: str | Path, *, with_payload: bool) -> tuple[CheckpointInfo, bytes]:
    path = Path(path)
    try:
        handle = path.open("rb")
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    with handle:
        magic = handle.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"{path}: not a checkpoint file (bad magic {magic!r})"
            )
        raw_len = handle.read(4)
        if len(raw_len) != 4:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        header_len = int.from_bytes(raw_len, "big")
        raw_header = handle.read(header_len)
        if len(raw_header) != header_len:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        try:
            info = CheckpointInfo(**json.loads(raw_header.decode("utf-8")))
        except (json.JSONDecodeError, TypeError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"{path}: malformed checkpoint header: {exc}"
            ) from exc
        if info.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {info.version} is not "
                f"supported (this build reads version {CHECKPOINT_VERSION})"
            )
        if not with_payload:
            return info, b""
        payload = handle.read()
    if len(payload) != info.payload_bytes:
        raise CheckpointError(
            f"{path}: truncated payload ({len(payload)} of "
            f"{info.payload_bytes} bytes)"
        )
    if hashlib.sha256(payload).hexdigest() != info.sha256:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    return info, payload


def read_checkpoint_info(path: str | Path) -> CheckpointInfo:
    """Read and validate only the header of a checkpoint file."""
    info, _ = _read(path, with_payload=False)
    return info


def load_checkpoint(path: str | Path) -> Any:
    """Deserialize a checkpoint back into a runnable simulation."""
    _, payload = _read(path, with_payload=True)
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(f"{path}: cannot unpickle payload: {exc}") from exc
