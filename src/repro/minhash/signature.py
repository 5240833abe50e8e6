"""The on-disk signature spill: :class:`GrowableSignatureSpill`.

A spill appends row slabs of minhash signatures to a ``.npy`` file of
*unknown* final length and patches the header on
:meth:`~GrowableSignatureSpill.finalize`, so a stream of any length —
a plain generator with no ``len()`` — spills its signature matrix to
disk instead of holding it in RAM (see DESIGN.md, "Growable signature
spill"). :meth:`~repro.core.base.LSHFamilyBlocker.block_stream` on the
banded blockers takes one through ``signatures_out=``. A closed spill
carries an integrity footer (:func:`validate_spill`), and a write
failure salvages the rows before it, so
:meth:`~GrowableSignatureSpill.reopen` can continue.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from repro.errors import ConfigurationError, SlabTransportError
from repro.utils import faults


#: Fixed byte length of the spill's ``.npy`` header dict (padding
#: included, trailing newline excluded). Writing the placeholder and the
#: finalized header at the same length lets :meth:`finalize` patch the
#: shape in place; 118 + the 10 magic/length bytes align the row data at
#: 128 bytes and leave room for any shape below 2**32 rows.
_SPILL_HEADER_LEN = 118

#: Bytes of the ``.npy`` magic string, version and header-length field
#: that precede the header dict.
_SPILL_MAGIC_LEN = 10

#: File offset where a spill's row data starts — everything before it
#: is the fixed-length ``.npy`` preamble.
SPILL_DATA_OFFSET = _SPILL_MAGIC_LEN + _SPILL_HEADER_LEN


def _spill_header(shape: tuple[int, int]) -> bytes:
    """A version-1.0 ``.npy`` header for a C-order uint64 array, padded
    to the fixed spill length."""
    descr = np.lib.format.dtype_to_descr(np.dtype(np.uint64))
    header = (
        "{'descr': %r, 'fortran_order': False, 'shape': %r, }"
        % (descr, shape)
    ).encode("latin1")
    padding = _SPILL_HEADER_LEN - 1 - len(header)
    if padding < 0:  # pragma: no cover - shapes this large never fit RAM
        raise ConfigurationError(f"npy header for shape {shape} too long")
    return (
        b"\x93NUMPY\x01\x00"
        + struct.pack("<H", _SPILL_HEADER_LEN)
        + header
        + b" " * padding
        + b"\n"
    )


#: 16-byte integrity footer a finalized spill carries after its row
#: data: magic, CRC32 of the (header-patched) preamble, row count.
#: ``np.load`` ignores trailing bytes, so footered spills stay plain
#: ``.npy`` files; :func:`validate_spill` uses the footer to reject
#: truncated or header-corrupted spills on attach.
SPILL_FOOTER_MAGIC = b"RSPF"
_SPILL_FOOTER_LEN = 16


def _spill_footer(rows: int, num_hashes: int) -> bytes:
    preamble = _spill_header((rows, num_hashes))
    return (
        SPILL_FOOTER_MAGIC
        + struct.pack("<I", zlib.crc32(preamble))
        + struct.pack("<Q", rows)
    )


def validate_spill(path: str | os.PathLike, num_hashes: int) -> int:
    """Validate a closed spill's integrity footer; return its row count.

    Checks that the footer is present, that its CRC matches the
    ``.npy`` preamble for the advertised shape, and that the file holds
    exactly the advertised row bytes — i.e. the spill was closed
    cleanly and not truncated or corrupted since. Raises
    :class:`~repro.errors.SlabTransportError` on any mismatch.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            preamble = handle.read(SPILL_DATA_OFFSET)
            handle.seek(max(size - _SPILL_FOOTER_LEN, 0))
            footer = handle.read(_SPILL_FOOTER_LEN)
    except OSError as exc:
        raise SlabTransportError(
            f"spill file {path} unreadable: {exc}", path=path,
            errno=exc.errno,
        ) from exc
    if size < SPILL_DATA_OFFSET + _SPILL_FOOTER_LEN or len(footer) < _SPILL_FOOTER_LEN:
        raise SlabTransportError(
            f"spill file {path} too short for an integrity footer "
            f"({size} bytes)", path=path,
        )
    if footer[:4] != SPILL_FOOTER_MAGIC:
        raise SlabTransportError(
            f"spill file {path} is missing its integrity footer "
            "(truncated, or closed by a pre-footer writer)", path=path,
        )
    (crc,) = struct.unpack("<I", footer[4:8])
    (rows,) = struct.unpack("<Q", footer[8:16])
    expected = _spill_header((rows, num_hashes))
    if preamble != expected or crc != zlib.crc32(expected):
        raise SlabTransportError(
            f"spill file {path} failed its header checksum "
            f"(advertised {rows} rows x {num_hashes} hashes)", path=path,
        )
    data_end = SPILL_DATA_OFFSET + rows * 8 * num_hashes
    if size != data_end + _SPILL_FOOTER_LEN:
        raise SlabTransportError(
            f"spill file {path} holds {size - SPILL_DATA_OFFSET - _SPILL_FOOTER_LEN} "
            f"data bytes but advertises {rows} rows", path=path,
        )
    # Round-trip check: the patched header must parse back (through
    # numpy's own reader, not our renderer) to exactly the advertised
    # shape — what np.load and reopen() will both see.
    try:
        with open(path, "rb") as handle:
            version = np.lib.format.read_magic(handle)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                handle
            )
    except (OSError, ValueError) as exc:
        raise SlabTransportError(
            f"spill file {path} header does not parse as .npy: {exc}",
            path=path,
        ) from exc
    if (
        version != (1, 0)
        or fortran
        or dtype != np.dtype(np.uint64)
        or shape != (rows, num_hashes)
    ):
        raise SlabTransportError(
            f"spill file {path} header round-trips to {shape} "
            f"{dtype}, not the advertised ({rows}, {num_hashes}) uint64",
            path=path,
        )
    return rows


class GrowableSignatureSpill:
    """Append-to-file signature spill for streams of any length.

    A spill starts from a placeholder ``.npy`` header with shape
    ``(0, num_hashes)``, appends row slabs as raw chunked writes, and
    rewrites the (fixed-length) header with the final row count on
    :meth:`finalize`, so the record count never has to be known up
    front. Each :meth:`append` returns a read-only *file-backed* view
    of the rows it just wrote, so band keys derived from it stay
    pageable instead of pinning every slab in RAM.

    Until :meth:`finalize` runs the file's header undersells the data
    (readers see zero rows); after it the file is a plain ``.npy`` that
    any later process can ``np.load(path, mmap_mode="r")``.

    The spill is a context manager: ``with GrowableSignatureSpill(...)``
    guarantees the file handle is released (and the header patched to
    the rows written so far) even when the stream aborts mid-way —
    the ``block_stream`` spill paths use the same :meth:`close` on
    error, so an interrupted stream leaves a valid, salvageable
    ``.npy`` instead of a leaked handle over a zero-row file.
    """

    def __init__(self, path: str | os.PathLike, num_hashes: int) -> None:
        if num_hashes < 1:
            raise ConfigurationError(
                f"num_hashes must be >= 1, got {num_hashes}"
            )
        self.path = os.fspath(path)
        self.num_hashes = num_hashes
        self._rows = 0
        self._file = open(self.path, "w+b")
        self._file.write(_spill_header((0, num_hashes)))
        self._file.flush()

    @classmethod
    def reopen(
        cls, path: str | os.PathLike, num_hashes: int
    ) -> "GrowableSignatureSpill":
        """Resume appending to a closed (or salvaged) spill.

        Validates the sealed file first — footer, header checksum and
        the header round-trip, so a spill that :meth:`close` patched
        after a failed append is accepted exactly at its salvaged row
        count. The integrity footer is dropped and the writer
        positioned after the existing rows: :attr:`num_records` counts
        every previously written row and later appends extend them;
        :meth:`close` re-seals the file.
        """
        if num_hashes < 1:
            raise ConfigurationError(
                f"num_hashes must be >= 1, got {num_hashes}"
            )
        rows = validate_spill(path, num_hashes)
        spill = cls.__new__(cls)
        spill.path = os.fspath(path)
        spill.num_hashes = num_hashes
        spill._rows = rows
        handle = open(spill.path, "r+b")
        data_end = SPILL_DATA_OFFSET + rows * 8 * num_hashes
        handle.truncate(data_end)
        handle.seek(data_end)
        spill._file = handle
        return spill

    @property
    def num_records(self) -> int:
        """Rows appended so far."""
        return self._rows

    @property
    def finalized(self) -> bool:
        return self._file is None

    def append(self, matrix: np.ndarray) -> np.ndarray:
        """Append a ``(n, num_hashes)`` uint64 slab; return its on-disk view.

        The returned array is a read-only ``np.memmap`` over the bytes
        just written (empty slabs return a plain empty array). Views
        remain valid after :meth:`finalize`.
        """
        if self._file is None:
            raise ConfigurationError("spill is finalized; cannot append")
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.num_hashes:
            raise ConfigurationError(
                f"expected (n, {self.num_hashes}) rows, got shape "
                f"{matrix.shape}"
            )
        if matrix.dtype != np.uint64:
            raise ConfigurationError(
                f"spill rows must be uint64, got {matrix.dtype}"
            )
        n = matrix.shape[0]
        if n == 0:
            return np.empty((0, self.num_hashes), dtype=np.uint64)
        offset = SPILL_DATA_OFFSET + self._rows * 8 * self.num_hashes
        try:
            faults.maybe_fail("spill.write_error")
            self._file.write(np.ascontiguousarray(matrix).tobytes())
            self._file.flush()
        except OSError as exc:
            # Close-and-salvage: the rows written *before* this slab
            # are intact, so patch them into the header (dropping any
            # partial bytes of the failed slab) and surface a typed,
            # transient error instead of leaving the spill with a
            # live handle over inconsistent state.
            self.close()
            raise SlabTransportError(
                f"spill write failed after {self._rows} rows "
                f"({exc}); spill closed and salvaged at {self.path}",
                path=self.path, errno=exc.errno,
            ) from exc
        self._rows += n
        return np.memmap(
            self.path, dtype=np.uint64, mode="r", offset=offset,
            shape=(n, self.num_hashes),
        )

    def finalize(self) -> np.memmap:
        """Patch the header with the final shape; return the full matrix.

        Idempotent: later calls reopen the finalized file. The returned
        memory map is read-only; an empty stream finalizes to a valid
        ``(0, num_hashes)`` array. The file's footer is validated
        before attaching, so a spill truncated or corrupted behind the
        writer's back raises :class:`~repro.errors.SlabTransportError`
        instead of handing out a garbage matrix.
        """
        self.close()
        validate_spill(self.path, self.num_hashes)
        return np.load(self.path, mmap_mode="r")

    def close(self) -> None:
        """Release the file handle, patching the header first.

        Idempotent. The handle is closed even if the header patch
        fails (e.g. a full disk), so an aborted stream never leaks it;
        on the normal path the closed file is a valid ``.npy`` holding
        every row appended so far.
        """
        if self._file is None:
            return
        file, self._file = self._file, None
        try:
            data_end = SPILL_DATA_OFFSET + self._rows * 8 * self.num_hashes
            file.seek(0)
            file.write(_spill_header((self._rows, self.num_hashes)))
            file.flush()
            # Drop any partial bytes of an aborted append, then seal
            # the consistent prefix with the integrity footer.
            file.truncate(data_end)
            file.seek(data_end)
            file.write(_spill_footer(self._rows, self.num_hashes))
            file.flush()
        finally:
            file.close()

    def __enter__(self) -> "GrowableSignatureSpill":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
