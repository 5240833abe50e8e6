"""Durable resolver state: WAL and checkpoints.

The serving stack's escape from "state dies with the process"
(DESIGN.md, "Durability & crash recovery"):

* :mod:`repro.store.journal` — a length+CRC-framed write-ahead log for
  online mutations; replay truncates at the first torn frame.
* :mod:`repro.store.checkpoint` — atomic snapshot/restore of a
  resolver's record store, online index state and blocker, published
  via tmp + fsync + rename with a per-file-checksummed manifest.
"""

from repro.store.checkpoint import (
    CheckpointData,
    latest_checkpoint,
    load_checkpoint,
    sweep_orphan_tmp,
    write_checkpoint,
)
from repro.store.journal import (
    JOURNAL_NAME,
    Journal,
    read_journal,
)

__all__ = [
    "CheckpointData",
    "JOURNAL_NAME",
    "Journal",
    "latest_checkpoint",
    "load_checkpoint",
    "read_journal",
    "sweep_orphan_tmp",
    "write_checkpoint",
]
