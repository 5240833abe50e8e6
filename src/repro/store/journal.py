"""Write-ahead journal for online resolver mutations.

Every mutation (``add_many``/``remove``) is appended — and, under the
default fsync discipline, forced to stable storage — *before* it is
applied to the in-memory store and index. An acknowledged mutation
(``append`` returned) therefore survives kill −9; a mutation in flight
when the process dies leaves at most one torn frame at the tail, which
:func:`read_journal` truncates away.

File layout
-----------
A 16-byte header (magic + the sequence number the journal starts
after), then zero or more frames::

    [uint32 payload length][uint32 CRC32(payload)][payload]

Payloads are UTF-8 JSON objects carrying a monotonic ``seq`` plus the
operation. The length+CRC framing makes every torn-write mode — a
truncated frame, a partially flushed payload, garbage past a crash —
detectable: replay stops at the first frame that fails its checks and
reports the byte offset of the valid prefix, so a reopening writer can
truncate the wreckage and continue appending.

Fsync disciplines
-----------------
``"always"``
    flush + ``os.fsync`` on every append — an acked mutation is on
    stable storage (the durability default).
``"batch"``
    flush per append, fsync only on :meth:`Journal.sync`/``close`` —
    bounded loss window, amortized syscalls for bulk ingest.
``"never"``
    flush only — bench/test mode; the OS decides when bytes land.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from pathlib import Path

from repro.errors import ConfigurationError, DurabilityError
from repro.utils import faults

#: File name a resolver state directory uses for its journal.
JOURNAL_NAME = "wal.log"

#: 8-byte magic opening every journal file (version byte included).
JOURNAL_MAGIC = b"RWAL\x01\x00\x00\x00"

#: Bytes of the fixed journal header: magic + uint64 start sequence.
_HEADER_LEN = 16

#: Bytes of the per-frame length+CRC prefix.
_FRAME_PREFIX_LEN = 8

#: Accepted fsync disciplines.
FSYNC_MODES = ("always", "batch", "never")


def _encode_frame(payload: bytes) -> bytes:
    return (
        struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    )


def read_journal(path: str | os.PathLike) -> tuple[list[dict], int, int]:
    """Decode a journal: ``(entries, valid_end, start_seq)``.

    ``entries`` are the decoded payload dicts of every intact frame in
    order; ``valid_end`` is the byte offset just past the last intact
    frame — everything after it is a torn tail a crashed writer left
    behind (zero bytes of it are trusted). A missing or foreign header
    raises :class:`~repro.errors.DurabilityError`; a torn tail does
    not — truncating at it is the recovery algorithm, not a failure.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DurabilityError(
            f"journal {path} unreadable: {exc}", path=path
        ) from exc
    if len(data) < _HEADER_LEN or data[:8] != JOURNAL_MAGIC:
        raise DurabilityError(
            f"journal {path} has no valid header (foreign or truncated "
            "file)", path=path,
        )
    (start_seq,) = struct.unpack("<Q", data[8:_HEADER_LEN])
    entries: list[dict] = []
    offset = _HEADER_LEN
    expected_seq = start_seq + 1
    while True:
        prefix_end = offset + _FRAME_PREFIX_LEN
        if prefix_end > len(data):
            break
        length, crc = struct.unpack("<II", data[offset:prefix_end])
        payload_end = prefix_end + length
        if payload_end > len(data):
            break
        payload = data[prefix_end:payload_end]
        if zlib.crc32(payload) != crc:
            break
        try:
            entry = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break
        if not isinstance(entry, dict) or entry.get("seq") != expected_seq:
            # A frame from a different journal epoch (or a replayed
            # buffer) — stale bytes, not a continuation.
            break
        entries.append(entry)
        expected_seq += 1
        offset = payload_end
    return entries, offset, start_seq


class Journal:
    """An appendable write-ahead log (see module docstring).

    Use :meth:`create` for a fresh journal and :meth:`open` to continue
    one across a restart (the torn tail, if any, is truncated first).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: str = "always",
        _handle=None,
        _last_seq: int = 0,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ConfigurationError(
                f"fsync mode must be one of {FSYNC_MODES}, got {fsync!r}"
            )
        self.path = os.fspath(path)
        self.fsync = fsync
        self._file = _handle
        self._last_seq = _last_seq
        self._unsynced = False

    @classmethod
    def create(
        cls, path: str | os.PathLike, *, start_seq: int = 0,
        fsync: str = "always",
    ) -> "Journal":
        """A fresh journal whose first entry will be ``start_seq + 1``.

        Overwrites any existing file at ``path`` (checkpoint
        publication resets the journal this way — every entry the old
        journal held is covered by the published snapshot).
        """
        journal = cls(path, fsync=fsync, _last_seq=start_seq)
        handle = open(journal.path, "wb")
        handle.write(JOURNAL_MAGIC + struct.pack("<Q", start_seq))
        handle.flush()
        if fsync != "never":
            os.fsync(handle.fileno())
        journal._file = handle
        return journal

    @classmethod
    def open(
        cls, path: str | os.PathLike, *, fsync: str = "always",
    ) -> "Journal":
        """Reopen an existing journal for appending.

        Scans the frames to find the last acknowledged sequence number
        and the valid byte prefix, truncates any torn tail, and
        positions the writer at the end.
        """
        entries, valid_end, start_seq = read_journal(path)
        last_seq = entries[-1]["seq"] if entries else start_seq
        journal = cls(path, fsync=fsync, _last_seq=last_seq)
        handle = open(journal.path, "r+b")
        handle.truncate(valid_end)
        handle.seek(valid_end)
        journal._file = handle
        return journal

    @property
    def last_seq(self) -> int:
        """Sequence number of the last acknowledged entry."""
        return self._last_seq

    @property
    def closed(self) -> bool:
        return self._file is None

    def append(self, op: str, payload: dict) -> int:
        """Durably log one operation; returns its sequence number.

        The entry is acknowledged — and must survive any later crash —
        only once this method returns. Under ``fsync="always"`` that
        means the bytes were fsynced; under ``"batch"``/``"never"``
        the acknowledgement is correspondingly weaker (by opt-in). An
        append whose write, flush or fsync raises truncates its frame
        away before the error propagates (see :meth:`_drop_tail`).
        """
        if self._file is None:
            raise DurabilityError(
                f"journal {self.path} is closed", path=self.path
            )
        seq = self._last_seq + 1
        record = {"seq": seq, "op": op, **payload}
        frame = _encode_frame(
            json.dumps(record, separators=(",", ":")).encode("utf-8")
        )
        if faults.should_fire("wal.append"):  # pragma: no cover - dies
            # The injected torn-write crash: half a frame reaches the
            # file, then the process is SIGKILLed mid-append. Replay
            # must truncate exactly here.
            self._file.write(frame[: max(len(frame) // 2, 1)])
            self._file.flush()
            os.fsync(self._file.fileno())
            faults.kill_self()
        start = self._file.tell()
        try:
            self._file.write(frame)
            self._file.flush()
            if self.fsync == "always":
                os.fsync(self._file.fileno())
        except BaseException:
            self._drop_tail(start)
            raise
        if self.fsync != "always":
            self._unsynced = True
        self._last_seq = seq
        return seq

    def _drop_tail(self, offset: int) -> None:
        """Cut a failed append's bytes off the file.

        A frame that is not acknowledged must not stay in front of the
        next one: replay stops at the first torn frame, so any entry
        acknowledged after it would be lost. When the cut fails too,
        the journal closes, and every later append raises instead of
        being acknowledged after torn bytes.
        """
        try:
            self._file.truncate(offset)
            self._file.seek(offset)
        except OSError:
            file, self._file = self._file, None
            with contextlib.suppress(OSError):
                file.close()

    def sync(self) -> None:
        """Force buffered frames to stable storage (``"batch"`` mode)."""
        if self._file is None or not self._unsynced:
            return
        self._file.flush()
        if self.fsync != "never":
            os.fsync(self._file.fileno())
        self._unsynced = False

    def close(self) -> None:
        """Sync (per discipline) and release the file handle. Idempotent."""
        if self._file is None:
            return
        file, self._file = self._file, None
        try:
            file.flush()
            if self.fsync == "batch" and self._unsynced:
                os.fsync(file.fileno())
        finally:
            file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def journal_path(state_dir: str | os.PathLike) -> Path:
    """The journal file of a resolver state directory."""
    return Path(state_dir) / JOURNAL_NAME
