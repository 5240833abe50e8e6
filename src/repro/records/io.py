"""CSV import/export for datasets and candidate pairs.

The CLI and downstream users exchange datasets as plain CSV: one row
per record with a mandatory id column and an optional ground-truth
entity column; all remaining columns become record attributes.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from repro.errors import DatasetError
from repro.records.dataset import Dataset, LinkedCorpus
from repro.records.ground_truth import Pair
from repro.records.record import Record

#: Default column names used by :func:`write_csv`.
ID_COLUMN = "record_id"
ENTITY_COLUMN = "entity_id"
#: Column that assigns each row to a side of a linked corpus. Linkage
#: CSVs carry dataset membership *explicitly* per row — it is never
#: inferred from filenames — so one file can hold both sides and a
#: mislabelled row fails loudly with its line number.
DATASET_COLUMN = "dataset_id"


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV (id and entity columns first)."""
    attributes = sorted({a for r in dataset for a in r.fields})
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([ID_COLUMN, ENTITY_COLUMN] + attributes)
        for record in dataset:
            writer.writerow(
                [record.record_id, record.entity_id or ""]
                + [record.get(a) for a in attributes]
            )


def read_csv(
    path: str | Path,
    *,
    id_column: str = ID_COLUMN,
    entity_column: str | None = ENTITY_COLUMN,
    name: str | None = None,
) -> Dataset:
    """Read a dataset from CSV.

    Raises
    ------
    DatasetError
        If the id column is missing or a row is malformed; the message
        names the offending source line.
    """
    path = Path(path)
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or id_column not in reader.fieldnames:
            raise DatasetError(
                f"CSV {path} has no {id_column!r} column; "
                f"found {reader.fieldnames}"
            )
        has_entity = (
            entity_column is not None and entity_column in reader.fieldnames
        )
        rows = iter(reader)
        while True:
            try:
                row = next(rows)
            except StopIteration:
                break
            except csv.Error as exc:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: malformed row "
                    f"({exc})"
                ) from exc
            record_id = (row.get(id_column) or "").strip()
            if not record_id:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: row has no "
                    f"{id_column!r} value"
                )
            entity = (row.get(entity_column) or "").strip() if has_entity else ""
            fields = {
                key: value or ""
                for key, value in row.items()
                if key not in (id_column, entity_column)
            }
            records.append(
                Record(record_id, fields, entity_id=entity or None)
            )
    return Dataset(records, name=name or path.stem)


def write_linked_csv(linked: LinkedCorpus, path: str | Path) -> None:
    """Write both sides of a linked corpus to one CSV.

    Each row carries its side in the :data:`DATASET_COLUMN` column
    (the source/target dataset *names*), so :func:`read_linked_csv`
    round-trips the corpus without any filename convention.
    """
    attributes = sorted(
        {a for side in (linked.source, linked.target) for r in side for a in r.fields}
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [ID_COLUMN, DATASET_COLUMN, ENTITY_COLUMN] + attributes
        )
        for side in (linked.source, linked.target):
            for record in side:
                writer.writerow(
                    [record.record_id, side.name, record.entity_id or ""]
                    + [record.get(a) for a in attributes]
                )


def read_linked_csv(
    path: str | Path,
    *,
    id_column: str = ID_COLUMN,
    entity_column: str | None = ENTITY_COLUMN,
    dataset_column: str = DATASET_COLUMN,
    source: str | None = None,
    target: str | None = None,
) -> LinkedCorpus:
    """Read a two-dataset linkage corpus from one CSV.

    Every row must carry a non-blank ``dataset_column`` value naming
    its side; exactly two distinct values may appear. ``source=`` /
    ``target=`` pin which value is which side — without them the first
    dataset value seen in the file is the source.

    Raises
    ------
    DatasetError
        Naming the offending source line on any conflict: a blank or
        missing dataset value, a third dataset name, a record id reused
        within or across sides, or a pinned source/target name that
        never appears.
    """
    path = Path(path)
    by_dataset: dict[str, list[Record]] = {}
    seen_ids: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        fieldnames = reader.fieldnames or []
        for column in (id_column, dataset_column):
            if column not in fieldnames:
                raise DatasetError(
                    f"CSV {path} has no {column!r} column; "
                    f"found {reader.fieldnames}"
                )
        has_entity = (
            entity_column is not None and entity_column in fieldnames
        )
        rows = iter(reader)
        while True:
            try:
                row = next(rows)
            except StopIteration:
                break
            except csv.Error as exc:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: malformed row "
                    f"({exc})"
                ) from exc
            record_id = (row.get(id_column) or "").strip()
            if not record_id:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: row has no "
                    f"{id_column!r} value"
                )
            dataset_id = (row.get(dataset_column) or "").strip()
            if not dataset_id:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: row has no "
                    f"{dataset_column!r} value (dataset membership is "
                    "explicit per row, never inferred from filenames)"
                )
            if dataset_id not in by_dataset and len(by_dataset) == 2:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: third dataset "
                    f"{dataset_id!r} (already have "
                    f"{sorted(by_dataset)}); a linked corpus has "
                    "exactly two sides"
                )
            if record_id in seen_ids:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: record id "
                    f"{record_id!r} already defined on line "
                    f"{seen_ids[record_id]}; ids must be unique across "
                    "both sides"
                )
            seen_ids[record_id] = reader.line_num
            entity = (row.get(entity_column) or "").strip() if has_entity else ""
            fields = {
                key: value or ""
                for key, value in row.items()
                if key not in (id_column, entity_column, dataset_column)
            }
            by_dataset.setdefault(dataset_id, []).append(
                Record(record_id, fields, entity_id=entity or None)
            )
    if len(by_dataset) != 2:
        raise DatasetError(
            f"CSV {path} holds {len(by_dataset)} dataset(s) "
            f"({sorted(by_dataset)}); a linked corpus needs exactly two"
        )
    names = list(by_dataset)
    source_name = source if source is not None else (
        names[0] if names[0] != target else names[1]
    )
    target_name = target if target is not None else next(
        n for n in names if n != source_name
    )
    for label, wanted in (("source", source_name), ("target", target_name)):
        if wanted not in by_dataset:
            raise DatasetError(
                f"CSV {path}: requested {label} dataset {wanted!r} "
                f"not present; found {sorted(by_dataset)}"
            )
    if source_name == target_name:
        raise DatasetError(
            f"CSV {path}: source and target both pinned to "
            f"{source_name!r}; the two sides must differ"
        )
    return LinkedCorpus(
        Dataset(by_dataset[source_name], name=source_name, role="source"),
        Dataset(by_dataset[target_name], name=target_name, role="target"),
    )


def write_pairs_csv(pairs: Iterable[Pair], path: str | Path) -> None:
    """Write candidate pairs to a two-column CSV."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id1", "id2"])
        for id1, id2 in sorted(pairs):
            writer.writerow([id1, id2])


def read_pairs_csv(path: str | Path) -> set[Pair]:
    """Read candidate pairs written by :func:`write_pairs_csv`.

    Raises
    ------
    DatasetError
        If the header lacks ``id1``/``id2``, or a row has a missing or
        empty id, more cells than the header, or malformed CSV; the
        message names the offending source line.
    """
    pairs: set[Pair] = set()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"id1", "id2"} <= set(
            reader.fieldnames
        ):
            raise DatasetError(f"CSV {path} is not a pairs file")
        rows = iter(reader)
        while True:
            try:
                row = next(rows)
            except StopIteration:
                break
            except csv.Error as exc:
                # line_num still counts only the rows read before the
                # failing one.
                raise DatasetError(
                    f"CSV {path} line {reader.line_num + 1}: malformed row "
                    f"({exc})"
                ) from exc
            if None in row:
                raise DatasetError(
                    f"CSV {path} line {reader.line_num}: row has "
                    f"{len(reader.fieldnames) + len(row[None])} cells, the "
                    f"header {len(reader.fieldnames)}"
                )
            for column in ("id1", "id2"):
                if not (row[column] or "").strip():
                    raise DatasetError(
                        f"CSV {path} line {reader.line_num}: row has no "
                        f"{column!r} value"
                    )
            pairs.add((row["id1"], row["id2"]))
    return pairs
