"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as ``TypeError``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent options."""


class TaxonomyError(ReproError):
    """A taxonomy tree or forest violates its structural invariants."""


class SemanticFunctionError(ReproError):
    """A semantic function produced an invalid interpretation."""


class DatasetError(ReproError):
    """A dataset or generator was asked for something impossible."""


class EvaluationError(ReproError):
    """Evaluation was attempted on inconsistent inputs."""


class TransientRuntimeError(ReproError):
    """A runtime failure that retrying the operation may fix.

    Raised (as :class:`SlabTransportError`) by
    :meth:`~repro.minhash.signature.GrowableSignatureSpill.append` when
    a write fails, e.g. on a full disk: the spill closes with the rows
    written before the failure sealed in, so the caller can free space,
    :meth:`~repro.minhash.signature.GrowableSignatureSpill.reopen` the
    file and append the rest.
    """


class SlabTransportError(TransientRuntimeError):
    """A signature spill file failed an integrity or write check.

    Raised by :class:`~repro.minhash.signature.GrowableSignatureSpill`
    and :func:`~repro.minhash.signature.validate_spill` when a spill
    file is truncated, fails its header checksum or integrity footer,
    or cannot be written (e.g. a full disk). Carries the offending
    ``path`` and, for write failures, the OS ``errno``.
    """

    def __init__(
        self, message: str, *, path: "str | None" = None,
        errno: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.errno = errno


class DurabilityError(ReproError):
    """Persistent resolver state is missing, corrupt, or inconsistent.

    Raised by the :mod:`repro.store` durability layer when a checkpoint
    manifest fails its per-file checksums, an on-disk index segment is
    truncated or carries the wrong magic, a state directory has no
    recoverable checkpoint, or a journal's header is not a journal at
    all. A *torn tail* on the write-ahead journal is not an error — the
    replay truncates at the first bad frame by design; this exception
    marks damage recovery must not paper over. Carries the offending
    ``path`` when one is known.
    """

    def __init__(self, message: str, *, path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path
