"""Process-parallel execution of independent work units.

:class:`ShardPool` (DESIGN.md, "Persistent shard pool") is the one
executor in the library: a caller opens it, hands it to a blocker as
``pool=``, and every ``block()`` on that blocker maps its record-slab
signature pass (:mod:`repro.lsh.sharding`) over the pool's worker
processes. Results are reassembled in payload order, so any process
count produces byte-identical blocks. The pool owns its process pool
for its lifetime and transports payloads/results through
shared-memory slab files instead of the executor's pipes, so repeated
calls stop paying a fork-and-pickle round each.

The pool is also *self-healing* (DESIGN.md, "Fault tolerance & the
degradation ladder"): slab files carry length+checksum footers
validated on attach, a broken or hung executor is torn down and
rebuilt, unfinished payloads are re-shipped under a bounded
:class:`~repro.utils.retry.RetryPolicy`, a full shared-memory tmpfs
falls back to a disk-backed slab directory, and the final rung runs
the remaining payloads serially in-process — so a map returns results
byte-identical to serial execution under any single fault, and the
pool stays usable afterwards.
"""

from __future__ import annotations

import errno as _errno
import itertools
import mmap
import os
import pickle
import shutil
import struct
import tempfile
import time
import warnings
import weakref
import zlib
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    PoolBrokenError,
    SlabTransportError,
)
from repro.utils import faults
from repro.utils.retry import RetryPolicy, as_retry_policy


def _available_cpus() -> int:
    """CPUs this process may actually use.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    limit a container grants, so ``None`` defaults used to oversubscribe
    constrained hosts. Prefer ``os.process_cpu_count()`` (3.13+), then
    the scheduler affinity mask, then the machine count.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        return counter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_processes(processes: int | None) -> int:
    """Normalise a pool's process count: ``None`` means all usable CPUs."""
    if processes is None:
        return _available_cpus()
    if processes < 1:
        raise ConfigurationError(
            f"processes must be >= 1 or None, got {processes}"
        )
    return processes


#: Arrays at least this large ride as memory-mapped slab files instead
#: of pickled bytes (below it the file round-trip costs more than it
#: saves).
_MIN_SLAB_BYTES = 1 << 16

#: Per-process counter making slab file names unique within one
#: directory (combined with the pid, so parent and workers never
#: collide).
_slab_counter = itertools.count()

#: Sentinel marking a payload whose result has not been produced yet.
_PENDING = object()

#: Directory-name prefix of every pool's slab directory. The owning
#: pid follows it (``repro-shardpool-<pid>-<random>``), which is what
#: lets a later pool sweep directories whose owner died without
#: running :meth:`ShardPool.close`.
_SLAB_DIR_PREFIX = "repro-shardpool-"


def _slab_parent_dir() -> str | None:
    """Directory slab files live in: ``/dev/shm`` (a tmpfs, so slab
    traffic is memory traffic) when available, the default tmp dir
    otherwise. ``REPRO_SHARDPOOL_DIR`` overrides both — useful in
    containers whose ``/dev/shm`` is smaller than a corpus's slabs."""
    override = os.environ.get("REPRO_SHARDPOOL_DIR")
    if override:
        return override
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    return None


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM and friends: someone owns that pid
        return True
    return True


def _sweep_orphan_slab_dirs(parent: str) -> None:
    """Remove slab directories whose owning process is gone.

    A crashed (or OOM-killed) parent never runs :meth:`ShardPool.close`
    and its ``repro-shardpool-<pid>-*`` directory leaks in the tmpfs
    forever. Each new pool sweeps its parent directory on construction:
    only names matching the pool prefix *and* carrying a parsable,
    provably dead pid are removed — everything else is left alone.
    """
    try:
        entries = os.listdir(parent)
    except OSError:
        return
    for name in entries:
        if not name.startswith(_SLAB_DIR_PREFIX):
            continue
        pid_part = name[len(_SLAB_DIR_PREFIX):].split("-", 1)[0]
        if not pid_part.isdigit():
            continue  # pre-fault-tolerance layout: owner unknowable
        pid = int(pid_part)
        if pid <= 0 or pid == os.getpid() or _pid_alive(pid):
            continue
        shutil.rmtree(os.path.join(parent, name), ignore_errors=True)


# ---------------------------------------------------------------------------
# Slab integrity: length+checksum footers
# ---------------------------------------------------------------------------

#: 16-byte footer appended to every slab file: magic, CRC32 of the
#: content, content length. A truncated or corrupted slab fails the
#: check on attach and raises :class:`~repro.errors.SlabTransportError`
#: instead of being read back as garbage.
_SLAB_FOOTER_MAGIC = b"RPSL"
_SLAB_FOOTER_LEN = 16

_slab_integrity = os.environ.get("REPRO_SLAB_INTEGRITY", "1") != "0"


def slab_integrity_enabled() -> bool:
    """Whether slab/spill files carry and validate integrity footers."""
    return _slab_integrity


def set_slab_integrity(enabled: bool) -> bool:
    """Toggle slab integrity process-globally; returns the previous value.

    Exists for the resilience-overhead benchmark (which times the
    pooled path with and without footers) — production code should
    leave integrity on. Pools snapshot the setting at construction, so
    toggle *before* creating the pool.
    """
    global _slab_integrity
    previous = _slab_integrity
    _slab_integrity = bool(enabled)
    return previous


#: Slabs up to this size are CRC'd in full; larger ones CRC a head and
#: a tail window instead. The failure modes slab transport actually
#: sees — ENOSPC part-writes, a worker killed mid-write, tmpfs
#: truncation — shear bytes off the end, which the exact-length field
#: and the tail window catch; a full-content pass over multi-hundred-MB
#: signature slabs would tax every healthy map for a corruption mode
#: (mid-file bit flips in RAM-backed files) nothing else in the
#: process guards against either.
_SLAB_CRC_FULL_MAX = 8 << 20
_SLAB_CRC_WINDOW = 1 << 20


def _slab_crc(data) -> int:
    if len(data) <= _SLAB_CRC_FULL_MAX:
        return zlib.crc32(data)
    return zlib.crc32(
        data[-_SLAB_CRC_WINDOW:], zlib.crc32(data[: _SLAB_CRC_WINDOW])
    )


def _slab_footer(data) -> bytes:
    return (
        _SLAB_FOOTER_MAGIC
        + struct.pack("<I", _slab_crc(data))
        + struct.pack("<Q", len(data))
    )


def _check_footer(path: str, content, footer: bytes) -> None:
    """Verify one slab footer against its content buffer (bytes or a
    memoryview — the CRC runs over the buffer without copying it)."""
    if footer[:4] != _SLAB_FOOTER_MAGIC:
        raise SlabTransportError(
            f"slab file {path} is missing its integrity footer "
            "(truncated or foreign file)", path=path,
        )
    (crc,) = struct.unpack("<I", footer[4:8])
    (length,) = struct.unpack("<Q", footer[8:16])
    if length != len(content) or crc != _slab_crc(content):
        raise SlabTransportError(
            f"slab file {path} failed its length+checksum footer "
            f"(expected {length} bytes)", path=path,
        )


def _validate_slab(path: str) -> bytes:
    """Validate ``path``'s footer; return the content bytes.

    Raises :class:`~repro.errors.SlabTransportError` on a missing,
    unreadable, truncated or checksum-failing file.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SlabTransportError(
            f"slab file {path} unreadable: {exc}", path=path, errno=exc.errno
        ) from exc
    if len(data) < _SLAB_FOOTER_LEN:
        raise SlabTransportError(
            f"slab file {path} too short for an integrity footer "
            f"({len(data)} bytes)", path=path,
        )
    content, footer = data[:-_SLAB_FOOTER_LEN], data[-_SLAB_FOOTER_LEN:]
    _check_footer(path, content, footer)
    return content


def _validate_array_slab(path: str) -> None:
    """Validate an array slab's footer without copying the file.

    Array slabs are the large ones, and the content is attached
    afterwards as a memory map anyway — so validation maps the file
    and runs the CRC over the mapping in place. On tmpfs that is one
    pass over already-resident pages instead of the full-file read
    (and allocation) :func:`_validate_slab` pays for blob slabs, whose
    bytes the caller needs regardless.
    """
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < _SLAB_FOOTER_LEN:
                raise SlabTransportError(
                    f"slab file {path} too short for an integrity footer "
                    f"({size} bytes)", path=path,
                )
            with mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            ) as mapped:
                view = memoryview(mapped)
                content = view[: size - _SLAB_FOOTER_LEN]
                try:
                    footer = bytes(view[size - _SLAB_FOOTER_LEN :])
                    _check_footer(path, content, footer)
                finally:
                    content.release()
                    view.release()
    except OSError as exc:
        raise SlabTransportError(
            f"slab file {path} unreadable: {exc}", path=path, errno=exc.errno
        ) from exc


def append_slab_footer(path: str) -> None:
    """Seal a finished file with the magic+CRC32+length footer.

    CRCs straight over a mapping of the file's current bytes — no
    full-file read-back copy — then appends the 16-byte footer. The
    public entry point the durability layer (:mod:`repro.store`) uses
    to give checkpoint and index segment files the same integrity
    discipline as slab transport; validate with
    :func:`validate_slab_footer`.
    """
    with open(path, "rb+") as handle:
        with mmap.mmap(
            handle.fileno(), 0, access=mmap.ACCESS_READ
        ) as mapped:
            view = memoryview(mapped)
            try:
                footer = _slab_footer(view)
            finally:
                view.release()
        handle.seek(0, os.SEEK_END)
        handle.write(footer)


def validate_slab_footer(path: str) -> None:
    """Validate a footered file in place (mmap CRC, no copy).

    The public alias of the array-slab validation path; raises
    :class:`~repro.errors.SlabTransportError` on a missing, truncated
    or checksum-failing file.
    """
    _validate_array_slab(path)


def _write_array_slab(path: str, array: np.ndarray, integrity: bool) -> None:
    faults.maybe_fail("slab.enospc", path=path)
    np.save(path, array, allow_pickle=False)
    if integrity:
        append_slab_footer(path)
    faults.maybe_fail("slab.truncate", path=path)


def _write_blob_slab(path: str, blob: bytes, integrity: bool) -> None:
    faults.maybe_fail("slab.enospc", path=path)
    with open(path, "wb") as handle:
        handle.write(blob)
        if integrity:
            handle.write(_slab_footer(blob))
    faults.maybe_fail("slab.truncate", path=path)


def _read_blob_slab(path: str, integrity: bool) -> bytes:
    if integrity:
        return _validate_slab(path)
    with open(path, "rb") as handle:
        return handle.read()


class _ArraySlab:
    """Picklable reference to an array parked in a slab file.

    Only the path crosses the process boundary; :meth:`load` reattaches
    a read-only memory map, so the array's bytes move through the page
    cache (tmpfs = shared memory) instead of the executor's pipes.
    """

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path

    def load(self, integrity: bool = True) -> np.ndarray:
        if integrity:
            _validate_array_slab(self.path)
        try:
            return np.load(self.path, mmap_mode="r")
        except SlabTransportError:
            raise
        except Exception as exc:
            raise SlabTransportError(
                f"array slab {self.path} unreadable: {exc}", path=self.path
            ) from exc


def _new_slab_path(slab_dir: str, kind: str, ext: str = ".npy") -> str:
    return os.path.join(
        slab_dir, f"{kind}-{os.getpid()}-{next(_slab_counter)}{ext}"
    )


#: Worker-side cache of loaded interned slabs, keyed by path (paths are
#: never reused — they embed a per-process counter). Bounded: evicted
#: entries just re-read their file on the next use.
_INTERN_CACHE_CAPACITY = 16
_intern_cache: "OrderedDict[str, Any]" = OrderedDict()

#: Per-source cap on :meth:`ShardPool.set_memo` entries.
_MEMO_CAPACITY = 8


class _InternedSlab:
    """Picklable reference to a payload piece parked once per corpus.

    Unlike the per-call payload files, interned slab files persist for
    the pool's lifetime, and workers memoise the loaded object by path
    — so repeated blocking calls over the same corpus skip both the
    parent-side re-pickle and the worker-side re-unpickle of the
    record slabs.
    """

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path

    def load(self, integrity: bool = True) -> Any:
        cached = _intern_cache.get(self.path)
        if cached is not None:
            _intern_cache.move_to_end(self.path)
            return cached
        try:
            value = pickle.loads(_read_blob_slab(self.path, integrity))
        except SlabTransportError:
            raise
        except Exception as exc:
            raise SlabTransportError(
                f"interned slab {self.path} unreadable: {exc}", path=self.path
            ) from exc
        _intern_cache[self.path] = value
        if len(_intern_cache) > _INTERN_CACHE_CAPACITY:
            _intern_cache.popitem(last=False)
        return value


def _pack_slabs(
    value: Any, slab_dir: str, created: list[str], integrity: bool
) -> Any:
    """Replace large plain-dtype arrays in a payload/result tree with
    :class:`_ArraySlab` references, recording every file created.

    Containers with no arrays or nested containers pass through
    unchanged (the flat-tuple fast path of :func:`_unpack_slabs`).
    """
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject or value.nbytes < _MIN_SLAB_BYTES:
            return value
        path = _new_slab_path(slab_dir, "slab")
        _write_array_slab(path, value, integrity)
        created.append(path)
        return _ArraySlab(path)
    if isinstance(value, (tuple, list)):
        if not any(
            isinstance(item, (np.ndarray, tuple, list, dict)) for item in value
        ):
            return value
        packed = [
            _pack_slabs(item, slab_dir, created, integrity) for item in value
        ]
        return tuple(packed) if isinstance(value, tuple) else packed
    if isinstance(value, dict):
        return {
            key: _pack_slabs(item, slab_dir, created, integrity)
            for key, item in value.items()
        }
    return value


_SLAB_REFS = (_ArraySlab, _InternedSlab)
_SLAB_CONTAINERS = (_ArraySlab, _InternedSlab, tuple, list, dict)


def _unpack_slabs(value: Any, integrity: bool = True) -> Any:
    """Inverse of :func:`_pack_slabs`: reattach slab references.

    Containers holding neither references nor nested containers are
    returned unchanged — record-id tuples with thousands of strings
    must not be rebuilt element by element on every call.
    """
    if isinstance(value, _SLAB_REFS):
        return value.load(integrity)
    if isinstance(value, (tuple, list)):
        if not any(isinstance(item, _SLAB_CONTAINERS) for item in value):
            return value
        unpacked = [_unpack_slabs(item, integrity) for item in value]
        return tuple(unpacked) if isinstance(value, tuple) else unpacked
    if isinstance(value, dict):
        return {key: _unpack_slabs(item, integrity) for key, item in value.items()}
    return value


def _iter_interned(value: Any):
    """Yield every :class:`_InternedSlab` reference in a payload tree."""
    if isinstance(value, _InternedSlab):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _iter_interned(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _iter_interned(item)


def _run_pool_task(task: tuple) -> Any:
    """Worker side of :meth:`ShardPool.map`.

    Loads the packed payload (inline pickle bytes for small payloads,
    a slab file otherwise), resolves array slabs into memory maps, runs
    ``fn`` and packs the result's large arrays into fresh slab files —
    only paths and small values ride the result pipe. An injected
    fault token (worker kill / task hang) executes before any work;
    slab-validation failures and a full slab directory surface as
    :class:`~repro.errors.SlabTransportError`, which the parent treats
    as transient.
    """
    fn, blob, payload_path, slab_dir, integrity, fault = task
    if fault is not None:
        faults.execute_worker_fault(fault)
    if blob is None:
        blob = _read_blob_slab(payload_path, integrity)
    result = fn(_unpack_slabs(pickle.loads(blob), integrity))
    created: list[str] = []
    try:
        return _pack_slabs(result, slab_dir, created, integrity), created
    except OSError as exc:
        # Don't strand files written before a partial packing failure.
        for path in created:
            _unlink_quietly(path)
        if exc.errno == _errno.ENOSPC:
            raise SlabTransportError(
                f"slab dir {slab_dir} out of space: {exc}",
                path=slab_dir, errno=exc.errno,
            ) from exc
        raise
    except BaseException:
        for path in created:
            _unlink_quietly(path)
        raise


def _release_interned(pool_ref, paths: list[str]) -> None:
    """Finalizer for a dead corpus: drop its parked slab files and the
    retained heal copies (see :meth:`ShardPool.intern_slabs`)."""
    pool = pool_ref()
    for path in paths:
        _unlink_quietly(path)
        if pool is not None:
            pool._intern_payloads.pop(path, None)


class ShardPool:
    """Long-lived process pool with shared-memory slab transport.

    Owns one :class:`~concurrent.futures.ProcessPoolExecutor` for its
    lifetime (workers start on the first parallel map and stay warm),
    so repeated blocking calls pay the fork-and-join round once.
    Payloads and results move through slab files in a shared-memory
    directory — large arrays as memory-mapped ``.npy`` slabs, the rest
    as one pickle file per payload — instead of the executor's pipes.
    Every slab file carries a length+checksum footer validated on
    attach.

    :meth:`map` preserves order, runs serially in-process for
    ``processes=1`` (or a single payload) with results identical to any
    parallel execution, and propagates exceptions. It is also
    *self-healing*: a broken executor (killed worker), a hung task past
    ``timeout``, or a corrupt slab tears the executor down, re-ships
    only the unfinished payloads under ``retry`` (a
    :class:`~repro.utils.retry.RetryPolicy`, an int retry count, or
    ``None`` for the default policy; ``0`` disables recovery and
    surfaces :class:`~repro.errors.PoolBrokenError` /
    :class:`~repro.errors.SlabTransportError` instead), and finally
    degrades to serial in-process execution — results are
    byte-identical to serial either way, and the pool stays usable. A
    full shared-memory tmpfs switches the pool to a disk-backed slab
    directory for the rest of its life (one warning).

    Use as a context manager (or call :meth:`close`); a closed pool
    raises :class:`~repro.errors.ConfigurationError` on further maps,
    so a pool shut down mid-pipeline fails loudly instead of silently
    re-forking.
    """

    def __init__(
        self,
        processes: int | None = None,
        *,
        retry: "RetryPolicy | int | None" = None,
        map_timeout: float | None = None,
    ) -> None:
        self.processes = resolve_processes(processes)
        self._retry = as_retry_policy(retry)
        if map_timeout is not None and map_timeout <= 0:
            raise ConfigurationError(
                f"map_timeout must be > 0 or None, got {map_timeout}"
            )
        self._map_timeout = map_timeout
        self._integrity = slab_integrity_enabled()
        parent = _slab_parent_dir()
        _sweep_orphan_slab_dirs(parent or tempfile.gettempdir())
        self._slab_dir = tempfile.mkdtemp(
            prefix=f"{_SLAB_DIR_PREFIX}{os.getpid()}-", dir=parent
        )
        #: Every slab directory this pool ever created (the tmpfs one
        #: plus, after an ENOSPC fallback, the disk-backed one) — all
        #: removed on close.
        self._slab_dirs = [self._slab_dir]
        self._on_disk_fallback = False
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        #: source object → {layout key: [_InternedSlab, ...]} — weak,
        #: so a corpus going away releases its parked slabs (the files
        #: linger until :meth:`close` removes the slab directory).
        self._interned: "weakref.WeakKeyDictionary[Any, dict]" = (
            weakref.WeakKeyDictionary()
        )
        #: path → original interned payload, retained so a corrupted
        #: interned file can be rewritten in place during recovery
        #: (cheap: the slabs alias records the source object owns
        #: anyway). Entries die with their corpus via the same
        #: finalizer that unlinks the files.
        self._intern_payloads: dict[str, Any] = {}
        #: source object → {key: derived value} — weak like the slab
        #: cache; carries corpus-level state (e.g. SA-LSH's derived
        #: semantic encoder) across repeated blocking calls.
        self._memos: "weakref.WeakKeyDictionary[Any, dict]" = (
            weakref.WeakKeyDictionary()
        )

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def on_disk_fallback(self) -> bool:
        """Whether an ENOSPC pushed slab traffic onto a disk-backed dir."""
        return self._on_disk_fallback

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        timeout: float | None = None,
    ) -> list[Any]:
        """Map ``fn`` over payloads on the persistent pool, in order.

        ``fn`` must be a module-level function and payloads/results
        picklable. Arrays returned from workers come back as read-only
        memory maps over slab files — value-identical to the serial
        path's in-RAM arrays. Slab files are unlinked as soon as both
        sides are done with them (the maps stay valid; POSIX keeps
        unlinked pages mapped).

        ``timeout`` (seconds, default: the pool's ``map_timeout``)
        bounds every *attempt*: futures still pending at the deadline
        are cancelled, hung workers are terminated, and the unfinished
        payloads re-enter the recovery ladder. Genuine exceptions from
        ``fn`` are never retried — they propagate as always.
        """
        if self._closed:
            raise ConfigurationError(
                "shard pool is closed; create a new ShardPool"
            )
        payloads = list(payloads)
        if timeout is None:
            timeout = self._map_timeout
        if self.processes <= 1 or len(payloads) <= 1:
            # Payloads may carry interned slab references; resolve them
            # before the in-process call, exactly as a worker would.
            return [
                fn(_unpack_slabs(payload, self._integrity))
                for payload in payloads
            ]
        policy = self._retry
        results: list[Any] = [_PENDING] * len(payloads)
        pending = list(range(len(payloads)))
        recovery: Exception | None = None
        for attempt in range(policy.retries + 1):
            if attempt:
                policy.pause(attempt - 1)
            recovery = self._map_attempt(fn, payloads, results, pending, timeout)
            pending = [i for i in pending if results[i] is _PENDING]
            if not pending:
                return results
        # Retries exhausted (or disabled): final rung of the ladder.
        if not policy.fallback_serial:
            if isinstance(recovery, SlabTransportError):
                raise recovery
            raise PoolBrokenError(
                f"shard pool map failed after {policy.retries + 1} "
                f"attempt(s): {recovery}"
            ) from recovery
        warnings.warn(
            f"shard pool recovery exhausted ({recovery}); running "
            f"{len(pending)} remaining payload(s) serially in-process",
            RuntimeWarning,
            stacklevel=2,
        )
        for index in pending:
            results[index] = fn(
                _unpack_slabs(payloads[index], self._integrity)
            )
        return results

    def _map_attempt(
        self,
        fn: Callable[[Any], Any],
        payloads: list[Any],
        results: list[Any],
        pending: list[int],
        timeout: float | None,
    ) -> Exception | None:
        """One executor round over the still-pending payloads.

        Fills ``results`` for every payload that completes (in any
        order); returns the recovery-class failure when some remain
        (broken pool, hung task past the deadline, slab corruption),
        or ``None`` when everything finished. Genuine task exceptions
        raise immediately — they are not the runtime's fault and must
        not be retried.
        """
        created: list[str] = []
        pool_broken: Exception | None = None
        transport: SlabTransportError | None = None
        fatal: Exception | None = None
        timed_out = False
        try:
            tasks = []
            for _index in pending:
                fault = None
                if faults.should_fire("pool.worker_kill"):
                    fault = "pool.worker_kill"
                elif faults.should_fire("pool.task_hang"):
                    fault = "pool.task_hang"
                tasks.append(self._pack_task(fn, payloads[_index], created, fault))
            executor = self._ensure_executor()
            futures = [executor.submit(_run_pool_task, task) for task in tasks]
            deadline = None if timeout is None else time.monotonic() + timeout
            # Wait in submission order until the first pool-level event.
            for index, future in zip(pending, futures):
                try:
                    if deadline is None:
                        outcome = future.result()
                    else:
                        outcome = future.result(
                            max(deadline - time.monotonic(), 0.0)
                        )
                except _FutureTimeoutError:
                    timed_out = True
                    break
                except BrokenProcessPool as exc:
                    pool_broken = exc
                    break
                except SlabTransportError as exc:
                    transport = transport or exc
                    continue
                except Exception as exc:
                    fatal = fatal or exc
                    continue
                try:
                    results[index] = self._attach_result(outcome)
                except SlabTransportError as exc:
                    transport = transport or exc
            # Sweep: collect work that finished out of order before a
            # break (it must not be recomputed, nor its slabs stranded)
            # and cancel what never started.
            for index, future in zip(pending, futures):
                if results[index] is not _PENDING:
                    continue
                if not future.done():
                    future.cancel()
                    continue
                try:
                    outcome = future.result(0)
                except SlabTransportError as exc:
                    transport = transport or exc
                    continue
                except BrokenProcessPool as exc:
                    pool_broken = pool_broken or exc
                    continue
                except (_FutureTimeoutError, Exception) as exc:
                    if not isinstance(exc, _FutureTimeoutError):
                        fatal = fatal or exc
                    continue
                try:
                    results[index] = self._attach_result(outcome)
                except SlabTransportError as exc:
                    transport = transport or exc
        finally:
            for path in created:
                _unlink_quietly(path)
        if timed_out or pool_broken is not None:
            # A hung worker is still burning a pool slot (and a broken
            # executor rejects every later submit): discard it either
            # way; the next attempt re-forks lazily.
            self._abort_executor(kill=timed_out)
        if fatal is not None:
            raise fatal
        recovery: Exception | None = None
        if timed_out:
            recovery = PoolBrokenError(
                f"shard pool map exceeded its {timeout:.3g}s timeout; "
                "hung workers terminated"
            )
        elif pool_broken is not None:
            recovery = PoolBrokenError(
                f"shard pool executor broke mid-map: "
                f"{pool_broken or 'worker died'}"
            )
        if transport is not None:
            recovery = recovery or transport
            if transport.errno == _errno.ENOSPC:
                self._activate_disk_fallback(transport)
        if recovery is not None:
            # Workers restart cold after an abort and interned files
            # may be stale (truncated mid-write); re-validate the ones
            # the unfinished payloads still need and rewrite them from
            # the retained originals.
            remaining = [i for i in pending if results[i] is _PENDING]
            self._heal_interned(payloads, remaining)
        return recovery

    def _pack_task(
        self,
        fn: Callable[[Any], Any],
        payload: Any,
        created: list[str],
        fault: str | None,
    ) -> tuple:
        """Pack one payload into a task tuple, riding the pipe when
        small and a sealed slab file otherwise. ENOSPC on the slab dir
        triggers the one-time disk fallback and re-packs."""
        for _round in range(2):
            try:
                packed = _pack_slabs(
                    payload, self._slab_dir, created, self._integrity
                )
                blob = pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL)
                if len(blob) < _MIN_SLAB_BYTES:
                    # Small payloads (e.g. blocker config + interned
                    # slab references) ride the task pipe directly —
                    # the file round-trip only pays for itself on bulk
                    # bytes.
                    return (fn, blob, None, self._slab_dir, self._integrity,
                            fault)
                path = _new_slab_path(self._slab_dir, "payload", ".pkl")
                _write_blob_slab(path, blob, self._integrity)
                created.append(path)
                return (fn, None, path, self._slab_dir, self._integrity,
                        fault)
            except OSError as exc:
                if exc.errno != _errno.ENOSPC or self._on_disk_fallback:
                    raise
                self._activate_disk_fallback(exc)
        raise AssertionError("unreachable")  # pragma: no cover

    def _attach_result(self, outcome: tuple) -> Any:
        """Unpack one worker result, unlinking its slab files either way
        (a corrupt result slab is useless; the payload just retries)."""
        packed, result_paths = outcome
        try:
            return _unpack_slabs(packed, self._integrity)
        finally:
            # The worker reports the slab files it created; unlink them
            # now that the maps are attached (POSIX keeps the pages).
            for path in result_paths:
                _unlink_quietly(path)

    def _abort_executor(self, kill: bool = False) -> None:
        """Discard the executor; with ``kill``, terminate its workers
        first (a hung task never returns on its own)."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
        try:
            executor.shutdown(wait=kill, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor races
            pass

    def _activate_disk_fallback(self, cause: Exception) -> None:
        """Switch slab traffic to a disk-backed temp dir, once."""
        if self._on_disk_fallback:
            return
        fallback = tempfile.mkdtemp(
            prefix=f"{_SLAB_DIR_PREFIX}{os.getpid()}-", dir=None
        )
        self._slab_dirs.append(fallback)
        self._slab_dir = fallback
        self._on_disk_fallback = True
        warnings.warn(
            f"shard pool slab directory out of space ({cause}); slab "
            f"transport falls back to disk-backed {fallback} for the "
            "rest of this pool's life",
            RuntimeWarning,
            stacklevel=3,
        )

    def _heal_interned(self, payloads: list[Any], pending: list[int]) -> None:
        """Re-validate interned slab files the pending payloads
        reference; rewrite stale ones from the retained originals."""
        checked: set[str] = set()
        for index in pending:
            for ref in _iter_interned(payloads[index]):
                if ref.path in checked:
                    continue
                checked.add(ref.path)
                if self._integrity:
                    try:
                        _validate_slab(ref.path)
                        continue
                    except SlabTransportError:
                        pass
                elif os.path.exists(ref.path):
                    continue
                original = self._intern_payloads.get(ref.path)
                if original is None:
                    continue  # nothing to heal from; the retry surfaces it
                try:
                    _write_blob_slab(
                        ref.path,
                        pickle.dumps(
                            original, protocol=pickle.HIGHEST_PROTOCOL
                        ),
                        self._integrity,
                    )
                except OSError:  # pragma: no cover - dir gone/full
                    continue

    def get_interned_slabs(self, source: Any, layout: Any) -> list[Any] | None:
        """Previously interned slab refs for ``(source, layout)``.

        Returns ``None`` when absent — including for sources that
        cannot anchor the weak cache and for serial pools — so warm
        callers can skip rebuilding the slabs entirely on a hit.
        """
        if self._closed:
            raise ConfigurationError(
                "shard pool is closed; create a new ShardPool"
            )
        if self.processes <= 1:
            return None
        try:
            return self._interned.setdefault(source, {}).get(layout)
        except TypeError:
            return None

    def intern_slabs(
        self, source: Any, layout: Any, slabs: Sequence[Any]
    ) -> list[Any]:
        """Park slab payload pieces once per ``(source, layout)``.

        Repeated blocking calls over one corpus rebuild identical
        record slabs; interning pickles each slab to the pool's
        shared-memory directory *once* (keyed weakly by the source
        object plus the deterministic layout key) and hands back path
        references that workers memoise — later calls skip both the
        re-pickle and the worker-side re-unpickle. ``source`` must be
        effectively immutable for the pool's lifetime, which Dataset
        guarantees.

        Falls back to returning the slabs unchanged when ``source``
        cannot anchor the weak cache (plain lists/generators), the
        pool runs serially, or the slab directory (and its disk
        fallback) cannot take the files.
        """
        slabs = list(slabs)
        if self._closed:
            raise ConfigurationError(
                "shard pool is closed; create a new ShardPool"
            )
        if self.processes <= 1:
            return slabs
        try:
            per_source = self._interned.setdefault(source, {})
        except TypeError:
            return slabs
        refs = per_source.get(layout)
        if refs is None:
            refs = []
            originals: dict[str, Any] = {}
            try:
                for slab in slabs:
                    # Pickle bytes, not an array — .pkl keeps the two
                    # slab flavours distinguishable in the slab dir.
                    blob = pickle.dumps(
                        slab, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    for _round in range(2):
                        path = _new_slab_path(
                            self._slab_dir, "intern", ".pkl"
                        )
                        try:
                            _write_blob_slab(path, blob, self._integrity)
                        except OSError as exc:
                            _unlink_quietly(path)
                            if (
                                exc.errno != _errno.ENOSPC
                                or self._on_disk_fallback
                            ):
                                raise
                            self._activate_disk_fallback(exc)
                            continue
                        refs.append(_InternedSlab(path))
                        originals[path] = slab
                        break
            except OSError:
                # Interning is an optimisation; a hostile filesystem
                # degrades to shipping the slabs per call.
                for ref in refs:
                    _unlink_quietly(ref.path)
                return slabs
            except BaseException:
                for ref in refs:
                    _unlink_quietly(ref.path)
                raise
            per_source[layout] = refs
            self._intern_payloads.update(originals)
            # When the corpus is garbage-collected its parked files go
            # with it — a long-lived pool serving many corpora must not
            # accumulate dead pickled slabs (or heal copies) in shared
            # memory.
            weakref.finalize(
                source,
                _release_interned,
                weakref.ref(self),
                [ref.path for ref in refs],
            )
        return refs

    def get_memo(self, source: Any, key: Any) -> Any:
        """Pool-lifetime memo of a value derived from ``source``.

        Returns ``None`` when absent (or when ``source`` cannot anchor
        the weak cache). Callers memoise *pure functions of the source*
        only — e.g. SA-LSH's frozen encoder and semhash rows, which
        are deterministic per (semantic function, corpus) — so a hit
        changes wall time, never a byte of output; the same
        immutability contract as :meth:`intern_slabs` applies.
        """
        if self._closed:
            raise ConfigurationError(
                "shard pool is closed; create a new ShardPool"
            )
        try:
            return self._memos.setdefault(source, {}).get(key)
        except TypeError:
            return None

    def set_memo(self, source: Any, key: Any, value: Any) -> None:
        """Store a derived value for :meth:`get_memo` (best effort).

        Per-source memos are bounded: callers that key by object
        identity (e.g. a semantic-function instance rebuilt per call)
        would otherwise grow the memo once per call for the pool's
        lifetime; beyond the cap the oldest entry is evicted — a later
        miss just recomputes.
        """
        try:
            per_source = self._memos.setdefault(source, {})
        except TypeError:
            return
        per_source[key] = value
        while len(per_source) > _MEMO_CAPACITY:
            per_source.pop(next(iter(per_source)))

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.processes)
        return self._executor

    def close(self) -> None:
        """Shut the executor down and remove the slab directories.

        Idempotent. Memory maps already handed out stay valid (their
        pages outlive the unlinked files); new :meth:`map` calls raise
        :class:`~repro.errors.ConfigurationError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for slab_dir in self._slab_dirs:
            shutil.rmtree(slab_dir, ignore_errors=True)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - already gone / dir removed
        pass


def chunk_spans(total: int, per_chunk: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into contiguous ``(lo, hi)`` spans."""
    if per_chunk < 1:
        raise ConfigurationError(f"per_chunk must be >= 1, got {per_chunk}")
    return [(lo, min(lo + per_chunk, total)) for lo in range(0, total, per_chunk)]
