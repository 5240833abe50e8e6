"""Tests for CSV dataset and pairs round-trips."""

import pytest

from repro.errors import DatasetError
from repro.records import (
    Dataset,
    Record,
    read_csv,
    read_linked_csv,
    read_pairs_csv,
    write_csv,
    write_pairs_csv,
)


def dataset():
    return Dataset(
        [
            Record("r1", {"name": "anna", "city": "raleigh"}, entity_id="e1"),
            Record("r2", {"name": "anna,comma", "city": ""}, entity_id="e1"),
            Record("r3", {"name": 'quote "inside"', "city": "cary"}),
        ],
        name="io-test",
    )


#: A cell past the csv module's default field limit (131,072 characters).
OVERSIZED = "x" * 140_000


class TestOversizedCellNamesItsLine:
    """The csv module raises on line 3; the message must say line 3."""

    def test_read_csv(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"record_id,name\nr1,anna\nr2,{OVERSIZED}\n")
        with pytest.raises(DatasetError, match="line 3: malformed row"):
            read_csv(path)

    def test_read_linked_csv(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            "record_id,dataset_id,name\n"
            "r1,left,anna\n"
            f"r2,right,{OVERSIZED}\n"
        )
        with pytest.raises(DatasetError, match="line 3: malformed row"):
            read_linked_csv(path)

    def test_row_after_a_multiline_row(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            f'record_id,name\nr1,"two\nlines"\nr2,{OVERSIZED}\n'
        )
        with pytest.raises(DatasetError, match="line 4: malformed row"):
            read_csv(path)


class TestDatasetCsv:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "data.csv"
        original = dataset()
        write_csv(original, path)
        loaded = read_csv(path)
        assert loaded.record_ids == original.record_ids
        for record in original:
            clone = loaded[record.record_id]
            assert dict(clone.fields) == dict(record.fields)
            assert clone.entity_id == record.entity_id

    def test_ground_truth_survives_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(dataset(), path)
        assert read_csv(path).true_matches == {("r1", "r2")}

    def test_missing_id_column_raises(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("name\nanna\n")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_blank_id_raises(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("record_id,name\n,anna\n")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_read_without_entity_column(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("record_id,name\nr1,anna\n")
        loaded = read_csv(path)
        assert loaded["r1"].entity_id is None
        assert loaded["r1"].get("name") == "anna"

    def test_generator_output_round_trips(self, tmp_path, voter_small):
        path = tmp_path / "voter.csv"
        write_csv(voter_small, path)
        loaded = read_csv(path)
        assert len(loaded) == len(voter_small)
        assert loaded.num_true_matches == voter_small.num_true_matches


class TestPairsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.csv"
        pairs = {("a", "b"), ("c", "d")}
        write_pairs_csv(pairs, path)
        assert read_pairs_csv(path) == pairs

    def test_empty_pairs(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_pairs_csv(set(), path)
        assert read_pairs_csv(path) == set()

    def test_not_a_pairs_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DatasetError):
            read_pairs_csv(path)

    @pytest.mark.parametrize(
        "bad_row, problem",
        [
            ("c", "no 'id2' value"),
            ("c,", "no 'id2' value"),
            (",d", "no 'id1' value"),
            ("c,d,e", "3 cells"),
            ("c," + "x" * 200_000, "malformed row"),
        ],
        ids=[
            "missing-id2", "empty-id2", "empty-id1", "extra-cell",
            "oversized-cell",
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, bad_row, problem):
        path = tmp_path / "pairs.csv"
        path.write_text(f"id1,id2\na,b\n{bad_row}\n")
        with pytest.raises(DatasetError, match=f"line 3: .*{problem}"):
            read_pairs_csv(path)
