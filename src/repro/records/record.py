"""The :class:`Record` value type.

A record is an immutable bag of named string attributes plus an
identifier. When ground truth is known, ``entity_id`` names the
real-world entity the record refers to (the function ``e(r)`` of the
paper's Section 3); records with the same ``entity_id`` are true matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import DatasetError


@dataclass(frozen=True)
class Record:
    """One record of a dataset.

    Parameters
    ----------
    record_id:
        Unique identifier within its dataset.
    fields:
        Mapping from attribute name to string value. Missing values are
        represented as the empty string (the paper's NULL); ``None`` is
        accepted for it and stored as ``''``. Any other non-``str``
        value raises :class:`~repro.errors.DatasetError`.
    entity_id:
        Ground-truth entity identifier, or ``None`` when unknown.
    """

    record_id: str
    fields: Mapping[str, str] = field(default_factory=dict)
    entity_id: str | None = None

    def __post_init__(self) -> None:
        fields = dict(self.fields)
        for attribute, value in fields.items():
            if value is None:
                fields[attribute] = ""
            elif not isinstance(value, str):
                raise DatasetError(
                    f"record {self.record_id!r}: attribute {attribute!r} "
                    f"must be a str or None, got {type(value).__name__}"
                )
        # Freeze the mapping so records are safely hashable by identity
        # fields and cannot be mutated after construction.
        object.__setattr__(self, "fields", MappingProxyType(fields))

    def get(self, attribute: str) -> str:
        """Return the value of ``attribute``, or ``''`` when missing."""
        return self.fields.get(attribute, "")

    def has_value(self, attribute: str) -> bool:
        """True when ``attribute`` is present and non-empty (NOT NULL)."""
        return bool(self.fields.get(attribute, "").strip())

    def values(self, attributes: tuple[str, ...] | list[str]) -> list[str]:
        """Return the values of several attributes in order."""
        return [self.get(a) for a in attributes]

    def __reduce__(self):
        # The frozen MappingProxyType does not pickle; rebuild through
        # __init__ (which re-freezes) so records pickle, e.g. in the
        # datasets a pickled linkage result carries.
        return (Record, (self.record_id, dict(self.fields), self.entity_id))

    def __hash__(self) -> int:
        return hash(self.record_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self.record_id == other.record_id
            and dict(self.fields) == dict(other.fields)
            and self.entity_id == other.entity_id
        )
