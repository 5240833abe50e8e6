"""Atomic resolver checkpoints: snapshot/restore with crash safety.

A checkpoint is a directory published atomically into the resolver's
state directory::

    state_dir/
        CURRENT                  # name of the live checkpoint dir
        checkpoint-000007/
            MANIFEST.json        # wal_seq + per-file CRC32/size
            records.json         # RecordStore snapshot (insertion order)
            index.json           # OnlineIndex.checkpoint() state
            encoder.pkl          # frozen SemhashEncoder (SA-LSH only)
            blocker.pkl          # the blocker
            matcher.pkl          # the similarity matcher
        wal.log                  # journal of mutations since wal_seq

Publication protocol (the classic tmp + fsync + rename dance): every
file is written and fsynced inside ``checkpoint-N.tmp-<pid>``, the tmp
directory is fsynced and renamed to its final name, the parent is
fsynced, and only then is ``CURRENT`` swapped (itself via tmp +
rename). A crash at any point leaves either the old state intact (the
tmp directory is swept later by :func:`sweep_orphan_tmp`'s dead-pid
check) or the new checkpoint fully published; there is no window where
a reader can observe half a snapshot. The write-ahead journal is only reset *after*
publication — recovery replays journal entries with ``seq`` beyond the
checkpoint's ``wal_seq``, so a crash between rename and journal reset
double-covers (harmlessly) rather than losing mutations.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import DurabilityError
from repro.utils import faults

#: Pointer file naming the live checkpoint directory.
CURRENT_NAME = "CURRENT"

#: Prefix of every checkpoint directory.
CHECKPOINT_PREFIX = "checkpoint-"

#: Marker separating a tmp entry's final name from its owner pid
#: (``checkpoint-000007.tmp-12345``).
TMP_MARKER = ".tmp-"

#: Checkpoint format version recorded in every manifest.
FORMAT_VERSION = 1

_MANIFEST_NAME = "MANIFEST.json"
_RECORDS_NAME = "records.json"
_INDEX_NAME = "index.json"
_ENCODER_NAME = "encoder.pkl"
_BLOCKER_NAME = "blocker.pkl"
_MATCHER_NAME = "matcher.pkl"


@dataclass
class CheckpointData:
    """Everything a published checkpoint holds, decoded and verified."""

    name: str
    wal_seq: int
    records_state: dict
    index_state: dict
    blocker: object | None
    matcher: object | None


def _fsync_dir(path: str | os.PathLike) -> None:
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file(directory: Path, name: str, data: bytes) -> dict:
    """Write + fsync one checkpoint member; returns its manifest entry."""
    path = directory / name
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return {"crc32": zlib.crc32(data), "bytes": len(data)}


def tmp_name(final_name: str) -> str:
    """The in-progress name of an atomically published entry."""
    return f"{final_name}{TMP_MARKER}{os.getpid()}"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM and friends: someone owns that pid
        return True
    return True


def sweep_orphan_tmp(parent: str | os.PathLike) -> None:
    """Remove ``*.tmp-<pid>`` entries whose owning process is gone.

    A ``save()`` killed mid-write leaves its tmp checkpoint directory
    (or tmp ``CURRENT`` file) behind. Every later open of the state
    directory sweeps these: only entries carrying the tmp marker *and*
    a parsable, provably dead pid are removed — in-flight saves from
    live processes and foreign files are left alone.
    """
    try:
        entries = os.listdir(parent)
    except OSError:
        return
    for name in entries:
        if TMP_MARKER not in name:
            continue
        pid_part = name.rsplit(TMP_MARKER, 1)[1]
        if not pid_part.isdigit():
            continue
        pid = int(pid_part)
        if pid <= 0 or pid == os.getpid() or _pid_alive(pid):
            continue
        path = os.path.join(os.fspath(parent), name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            try:
                os.unlink(path)
            except OSError:
                pass


def _checkpoint_number(name: str) -> int | None:
    if not name.startswith(CHECKPOINT_PREFIX) or TMP_MARKER in name:
        return None
    suffix = name[len(CHECKPOINT_PREFIX):]
    return int(suffix) if suffix.isdigit() else None


def _published_checkpoints(state_dir: Path) -> list[tuple[int, str]]:
    """(number, name) of every fully renamed checkpoint dir, ascending."""
    found = []
    try:
        entries = os.listdir(state_dir)
    except OSError:
        return []
    for name in entries:
        number = _checkpoint_number(name)
        if number is not None and (state_dir / name).is_dir():
            found.append((number, name))
    return sorted(found)


def latest_checkpoint(state_dir: str | os.PathLike) -> str | None:
    """Name of the checkpoint recovery should load, or ``None``.

    Prefers the ``CURRENT`` pointer; when the pointer is missing or
    dangling (a crash between the publish rename and the pointer swap),
    falls back to the highest-numbered published directory — both are
    consistent, because the journal is only reset *after* the pointer
    swap, so replay from an older checkpoint covers the same
    mutations.
    """
    state_dir = Path(state_dir)
    current = state_dir / CURRENT_NAME
    if current.is_file():
        name = current.read_text(encoding="utf-8").strip()
        if name and _checkpoint_number(name) is not None and (
            state_dir / name
        ).is_dir():
            return name
    published = _published_checkpoints(state_dir)
    return published[-1][1] if published else None


def write_checkpoint(
    state_dir: str | os.PathLike,
    *,
    records_state: dict,
    index_state: dict,
    wal_seq: int,
    blocker=None,
    matcher=None,
) -> str:
    """Atomically publish a checkpoint; returns its directory name.

    ``index_state`` is the online index's :meth:`checkpoint` dict; a
    non-JSON ``"encoder"`` value is extracted and pickled separately.
    ``wal_seq`` is the journal sequence number the snapshot covers —
    recovery replays only entries beyond it.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    sweep_orphan_tmp(state_dir)
    keep = latest_checkpoint(state_dir)
    published = _published_checkpoints(state_dir)
    # Stale publishes (a crash between rename and pointer swap) are
    # superseded by keep + journal; drop them before numbering.
    for _, name in published:
        if name != keep:
            shutil.rmtree(state_dir / name, ignore_errors=True)
    next_number = (published[-1][0] + 1) if published else 1
    final_name = f"{CHECKPOINT_PREFIX}{next_number:06d}"
    tmp_dir = state_dir / tmp_name(final_name)
    tmp_dir.mkdir()
    try:
        index_state = dict(index_state)
        encoder = index_state.pop("encoder", None)
        files = {
            _RECORDS_NAME: _write_file(
                tmp_dir, _RECORDS_NAME,
                json.dumps(records_state, separators=(",", ":")).encode(),
            ),
            _INDEX_NAME: _write_file(
                tmp_dir, _INDEX_NAME,
                json.dumps(index_state, separators=(",", ":")).encode(),
            ),
        }
        if encoder is not None:
            files[_ENCODER_NAME] = _write_file(
                tmp_dir, _ENCODER_NAME, pickle.dumps(encoder)
            )
        if blocker is not None:
            files[_BLOCKER_NAME] = _write_file(
                tmp_dir, _BLOCKER_NAME, pickle.dumps(blocker)
            )
        if matcher is not None:
            files[_MATCHER_NAME] = _write_file(
                tmp_dir, _MATCHER_NAME, pickle.dumps(matcher)
            )
        manifest = {
            "format": FORMAT_VERSION,
            "wal_seq": int(wal_seq),
            "files": files,
        }
        _write_file(
            tmp_dir, _MANIFEST_NAME,
            json.dumps(manifest, separators=(",", ":")).encode(),
        )
        _fsync_dir(tmp_dir)
        faults.maybe_crash("checkpoint.rename")
        os.rename(tmp_dir, state_dir / final_name)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    _fsync_dir(state_dir)
    # Swap the pointer through its own tmp + rename; readers only ever
    # see a complete pointer naming a complete checkpoint.
    pointer_tmp = state_dir / tmp_name(CURRENT_NAME)
    with open(pointer_tmp, "w", encoding="utf-8") as handle:
        handle.write(final_name + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(pointer_tmp, state_dir / CURRENT_NAME)
    _fsync_dir(state_dir)
    if keep is not None and keep != final_name:
        shutil.rmtree(state_dir / keep, ignore_errors=True)
    return final_name


def load_checkpoint(state_dir: str | os.PathLike) -> CheckpointData:
    """Load and verify the live checkpoint of a state directory.

    Sweeps dead-pid tmp wreckage first, resolves the checkpoint via
    :func:`latest_checkpoint`, verifies every member file against the
    manifest's CRC32 + size, and decodes the snapshot. Any missing or
    corrupt member raises :class:`~repro.errors.DurabilityError` —
    recovery must not proceed from a half-trusted snapshot.
    """
    state_dir = Path(state_dir)
    if not state_dir.is_dir():
        raise DurabilityError(
            f"no resolver state at {state_dir}", path=str(state_dir)
        )
    sweep_orphan_tmp(state_dir)
    name = latest_checkpoint(state_dir)
    if name is None:
        raise DurabilityError(
            f"state directory {state_dir} holds no published checkpoint",
            path=str(state_dir),
        )
    directory = state_dir / name
    manifest_path = directory / _MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DurabilityError(
            f"checkpoint manifest {manifest_path} unreadable: {exc}",
            path=str(manifest_path),
        ) from exc
    if manifest.get("format") != FORMAT_VERSION:
        raise DurabilityError(
            f"checkpoint {directory} has unsupported format "
            f"{manifest.get('format')!r}", path=str(directory),
        )
    contents: dict[str, bytes] = {}
    for member, expected in manifest.get("files", {}).items():
        path = directory / member
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise DurabilityError(
                f"checkpoint member {path} unreadable: {exc}",
                path=str(path),
            ) from exc
        if (
            len(data) != expected.get("bytes")
            or zlib.crc32(data) != expected.get("crc32")
        ):
            raise DurabilityError(
                f"checkpoint member {path} failed its manifest checksum",
                path=str(path),
            )
        contents[member] = data
    try:
        records_state = json.loads(contents[_RECORDS_NAME])
        index_state = json.loads(contents[_INDEX_NAME])
    except (KeyError, ValueError) as exc:
        raise DurabilityError(
            f"checkpoint {directory} is missing or corrupts its snapshot "
            f"members: {exc}", path=str(directory),
        ) from exc
    if _ENCODER_NAME in contents:
        index_state["encoder"] = pickle.loads(contents[_ENCODER_NAME])
    blocker = (
        pickle.loads(contents[_BLOCKER_NAME])
        if _BLOCKER_NAME in contents else None
    )
    matcher = (
        pickle.loads(contents[_MATCHER_NAME])
        if _MATCHER_NAME in contents else None
    )
    return CheckpointData(
        name=name,
        wal_seq=int(manifest["wal_seq"]),
        records_state=records_state,
        index_state=index_state,
        blocker=blocker,
        matcher=matcher,
    )
