"""Versioned, checksummed simulator checkpoints.

A :class:`Snapshot` wraps one pickled run object — everything reachable
from its :class:`~repro.sim.engine.Simulator` at a safe point: the event
heap (tombstones and seq counter included), ports and queues, DCQCN
senders, in-flight segments, TCAM tables, RNG streams, fault-schedule
state, trace/observability recorders — plus enough metadata to refuse a
stale or corrupt blob instead of resuming garbage:

* ``version`` — bumped whenever the pickled object graph changes shape
  incompatibly; restore refuses a mismatch (:class:`SnapshotError`);
* ``checksum`` — BLAKE2b over the payload; a truncated or bit-flipped
  file fails loudly;
* ``at_s`` / ``events_processed`` — where in simulated time the run was
  frozen, so reports and manifests can say so without unpickling.

Snapshots survive process boundaries: :meth:`Snapshot.save` writes
atomically (temp file + rename, so a SIGKILL mid-write leaves the old
file intact) and :meth:`Snapshot.load` + :meth:`Snapshot.restore` bring
the run back in a fresh interpreter.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any

#: Bump when the pickled object graph changes incompatibly.
SNAPSHOT_VERSION = 3

_FIELDS = ("version", "kind", "at_s", "events_processed", "checksum", "payload")


class SnapshotError(RuntimeError):
    """A snapshot failed validation (version skew or corruption)."""


def _checksum(payload: bytes) -> str:
    return blake2b(payload, digest_size=16).hexdigest()


@dataclass(frozen=True)
class Snapshot:
    """One frozen run: metadata + the pickled object graph."""

    version: int
    kind: str  # e.g. "ScenarioRun", "ServeRuntime"
    at_s: float
    events_processed: int
    checksum: str
    payload: bytes

    # -- capture ----------------------------------------------------------------

    @classmethod
    def capture(cls, state: Any, sim: Any = None, kind: str | None = None) -> "Snapshot":
        """Freeze ``state`` (a ScenarioRun, ServeRuntime, or anything whose
        object graph pickles) at the current safe point.

        ``sim`` supplies the clock/event metadata; by default it is found
        at ``state.env.sim``.  Must only be called between ``run()`` calls
        — never from inside a simulator callback.
        """
        if sim is None:
            sim = state.env.sim
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(
            version=SNAPSHOT_VERSION,
            kind=kind or type(state).__name__,
            at_s=sim.now,
            events_processed=sim.processed,
            checksum=_checksum(payload),
            payload=payload,
        )

    # -- restore ----------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SnapshotError` on version skew or corruption."""
        if self.version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {self.version} != supported "
                f"{SNAPSHOT_VERSION}; re-capture with this code"
            )
        if _checksum(self.payload) != self.checksum:
            raise SnapshotError(
                f"snapshot payload corrupt (checksum mismatch, "
                f"{len(self.payload)} bytes)"
            )

    def restore(self) -> Any:
        """Rehydrate the frozen run; resuming it continues the exact event
        sequence the original would have produced."""
        self.validate()
        state = pickle.loads(self.payload)
        mark = getattr(state, "mark_resumed", None)
        if mark is not None:
            mark(self.at_s)
        return state

    # -- wire/disk format -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Self-describing byte serialization (header dict + payload)."""
        return pickle.dumps(
            {name: getattr(self, name) for name in _FIELDS},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Snapshot":
        try:
            raw = pickle.loads(blob)
        except Exception as exc:
            raise SnapshotError(f"unreadable snapshot blob: {exc}") from exc
        if not isinstance(raw, dict) or set(raw) != set(_FIELDS):
            raise SnapshotError("blob is not a snapshot header")
        snap = cls(**raw)
        snap.validate()
        return snap

    def save(self, path) -> None:
        """Atomic write: a kill mid-save never corrupts an existing file."""
        path = os.fspath(path)
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.to_bytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "Snapshot":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
