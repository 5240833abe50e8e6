"""Tests for the command-line interface (generate / block / evaluate / resolve)."""

import pytest

from repro import cli
from repro.cli import main
from repro.core import LSHBlocker
from repro.records import read_csv, read_pairs_csv
from repro.utils.parallel import ShardPool, _available_cpus
from repro.utils.retry import NO_RETRY


def _block_lsh_args(csv_path):
    """``block`` arguments for the LSH runs the pool tests compare."""
    return [
        "block", "--input", str(csv_path), "--technique", "lsh",
        "--attributes", "first_name,last_name",
        "--q", "2", "--k", "5", "--l", "10",
    ]


@pytest.fixture()
def built_pools(monkeypatch):
    """Every ShardPool the CLI builds during the test, in order."""
    built = []

    class RecordingPool(ShardPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "ShardPool", RecordingPool)
    return built


@pytest.fixture()
def generated_csv(tmp_path):
    path = tmp_path / "voters.csv"
    exit_code = main([
        "generate", "--kind", "ncvoter", "--records", "300",
        "--seed", "5", "--out", str(path),
    ])
    assert exit_code == 0
    return path


class TestGenerate:
    def test_generates_requested_records(self, generated_csv):
        dataset = read_csv(generated_csv)
        assert len(dataset) == 300
        assert dataset.num_true_matches > 0

    def test_cora_kind(self, tmp_path):
        path = tmp_path / "cora.csv"
        assert main([
            "generate", "--kind", "cora", "--records", "100", "--out", str(path),
        ]) == 0
        dataset = read_csv(path)
        assert len(dataset) == 100
        assert any(r.has_value("journal") for r in dataset)


class TestBlock:
    def test_lsh_blocking(self, generated_csv, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.csv"
        exit_code = main([
            "block", "--input", str(generated_csv), "--technique", "lsh",
            "--attributes", "first_name,last_name",
            "--q", "2", "--k", "5", "--l", "10",
            "--out", str(pairs_path),
        ])
        assert exit_code == 0
        assert "candidate pairs" in capsys.readouterr().out
        assert pairs_path.exists()

    def test_salsh_with_voter_domain(self, generated_csv, tmp_path):
        pairs_path = tmp_path / "pairs.csv"
        exit_code = main([
            "block", "--input", str(generated_csv), "--technique", "salsh",
            "--attributes", "first_name,last_name", "--domain", "voter",
            "--q", "2", "--k", "5", "--l", "10",
            "--out", str(pairs_path),
        ])
        assert exit_code == 0
        assert isinstance(read_pairs_csv(pairs_path), set)

    def test_pooled_blocking_matches_fresh_pool(
        self, generated_csv, tmp_path, built_pools
    ):
        # --processes 2 runs the sharded runtime on one shard pool
        # spanning the command; its pairs equal the serial run and the
        # library's fresh (ephemeral) pool per call.
        serial_path = tmp_path / "serial.csv"
        pooled_path = tmp_path / "pooled.csv"
        assert main(_block_lsh_args(generated_csv) + [
            "--processes", "1", "--out", str(serial_path),
        ]) == 0
        assert built_pools == []  # serial: no pool at all
        assert main(_block_lsh_args(generated_csv) + [
            "--processes", "2", "--out", str(pooled_path),
        ]) == 0
        assert [pool.processes for pool in built_pools] == [2]
        assert built_pools[0].closed
        fresh = LSHBlocker(
            ("first_name", "last_name"), q=2, k=5, l=10, processes=2
        ).block(read_csv(generated_csv))
        assert read_pairs_csv(pooled_path) == read_pairs_csv(serial_path)
        assert read_pairs_csv(pooled_path) == fresh.distinct_pairs

    def test_processes_zero_pools_all_cpus(
        self, generated_csv, tmp_path, built_pools
    ):
        serial_path = tmp_path / "serial.csv"
        pooled_path = tmp_path / "pooled.csv"
        assert main(_block_lsh_args(generated_csv) + ["--out", str(serial_path)]) == 0
        assert main(_block_lsh_args(generated_csv) + [
            "--processes", "0", "--out", str(pooled_path),
        ]) == 0
        assert [pool.processes for pool in built_pools] == [_available_cpus()]
        assert read_pairs_csv(pooled_path) == read_pairs_csv(serial_path)

    def test_retry_flags_configure_the_pool(
        self, generated_csv, tmp_path, built_pools
    ):
        # --retries/--map-timeout shape the command's one pool.
        serial_path = tmp_path / "serial.csv"
        pooled_path = tmp_path / "pooled.csv"
        assert main(_block_lsh_args(generated_csv) + [
            "--processes", "1", "--out", str(serial_path),
        ]) == 0
        assert main(_block_lsh_args(generated_csv) + [
            "--processes", "2", "--retries", "0", "--map-timeout", "30",
            "--out", str(pooled_path),
        ]) == 0
        (pool,) = built_pools
        assert pool._retry is NO_RETRY
        assert pool._map_timeout == 30.0
        assert read_pairs_csv(pooled_path) == read_pairs_csv(serial_path)

    def test_survey_technique_by_name(self, generated_csv, tmp_path):
        pairs_path = tmp_path / "pairs.csv"
        assert main([
            "block", "--input", str(generated_csv), "--technique", "tblo",
            "--attributes", "first_name,last_name", "--out", str(pairs_path),
        ]) == 0

    def test_unknown_technique_fails_cleanly(self, generated_csv, tmp_path, capsys):
        exit_code = main([
            "block", "--input", str(generated_csv), "--technique", "wat",
            "--attributes", "first_name", "--out", str(tmp_path / "x.csv"),
        ])
        assert exit_code == 2
        assert "unknown technique" in capsys.readouterr().err

    def test_empty_attributes_fails_cleanly(self, generated_csv, tmp_path):
        assert main([
            "block", "--input", str(generated_csv), "--technique", "lsh",
            "--attributes", " , ", "--out", str(tmp_path / "x.csv"),
        ]) == 2


class TestEvaluateAndResolve:
    def test_full_cli_pipeline(self, generated_csv, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.csv"
        main([
            "block", "--input", str(generated_csv), "--technique", "salsh",
            "--attributes", "first_name,last_name", "--domain", "voter",
            "--q", "2", "--k", "5", "--l", "10", "--out", str(pairs_path),
        ])
        capsys.readouterr()

        assert main([
            "evaluate", "--input", str(generated_csv), "--pairs", str(pairs_path),
        ]) == 0
        assert "PC=" in capsys.readouterr().out

        assert main([
            "resolve", "--input", str(generated_csv), "--pairs", str(pairs_path),
            "--attributes", "first_name,last_name", "--threshold", "0.9",
        ]) == 0
        out = capsys.readouterr().out
        assert "matched pairs" in out
        assert "P=" in out

    @pytest.mark.parametrize(
        "bad_row", ["v0", "v0,v1,v2"], ids=["one-id", "three-cells"]
    )
    def test_evaluate_malformed_pairs_row_exits_2_with_line(
        self, generated_csv, tmp_path, capsys, bad_row
    ):
        pairs_path = tmp_path / "pairs.csv"
        pairs_path.write_text(f"id1,id2\nv0,v1\n{bad_row}\n")
        assert main([
            "evaluate", "--input", str(generated_csv), "--pairs", str(pairs_path),
        ]) == 2
        err = capsys.readouterr().err
        assert f"{pairs_path} line 3:" in err


@pytest.fixture()
def linked_csvs(generated_csv, tmp_path):
    """The generated voter corpus split into source (dupes) / target (clean)."""
    from repro.records import Dataset, write_csv

    dataset = read_csv(generated_csv)
    source = Dataset(
        [r for r in dataset if r.record_id.startswith("d")], name="dirty"
    )
    target = Dataset(
        [r for r in dataset if r.record_id.startswith("v")], name="clean"
    )
    source_path = tmp_path / "source.csv"
    target_path = tmp_path / "target.csv"
    write_csv(source, source_path)
    write_csv(target, target_path)
    return source_path, target_path, len(source), len(target)


class TestLink:
    ARGS = ["--technique", "lsh", "--attributes", "first_name,last_name,city",
            "--q", "2", "--k", "9", "--l", "15"]

    def test_pairs_mode(self, linked_csvs, tmp_path, capsys):
        source_path, target_path, num_src, num_tgt = linked_csvs
        pairs_path = tmp_path / "pairs.csv"
        assert main([
            "link", "--source", str(source_path), "--target", str(target_path),
            *self.ARGS, "--out", str(pairs_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "cross-dataset candidate pairs" in out
        assert "PC=" in out  # both sides carry entity ids -> quality line
        pairs = read_pairs_csv(pairs_path)
        assert pairs
        for a, b in pairs:
            assert a.startswith("d") and b.startswith("v")

    def test_single_csv_with_dataset_column(self, generated_csv, tmp_path, capsys):
        from repro.records import (
            Dataset, LinkedCorpus, read_csv as _read, write_linked_csv,
        )

        dataset = _read(generated_csv)
        linked = LinkedCorpus(
            Dataset([r for r in dataset if r.record_id.startswith("d")],
                    name="dirty"),
            Dataset([r for r in dataset if r.record_id.startswith("v")],
                    name="clean"),
        )
        both_path = tmp_path / "both.csv"
        write_linked_csv(linked, both_path)
        assert main([
            "link", "--input", str(both_path), "--source-name", "dirty",
            "--target-name", "clean", *self.ARGS,
        ]) == 0
        assert "cross-dataset candidate pairs" in capsys.readouterr().out

    def test_resolve_mode(self, linked_csvs, tmp_path, capsys):
        source_path, target_path, num_src, _ = linked_csvs
        out_path = tmp_path / "resolved.csv"
        assert main([
            "link", "--source", str(source_path), "--target", str(target_path),
            *self.ARGS, "--similarity", "jaro_winkler", "--resolve",
            "--out", str(out_path),
        ]) == 0
        assert "linked" in capsys.readouterr().out
        rows = out_path.read_text().strip().splitlines()
        assert len(rows) == num_src + 1  # header + one row per source record

    def test_input_and_sides_conflict(self, linked_csvs, tmp_path, capsys):
        source_path, target_path, _, _ = linked_csvs
        assert main([
            "link", "--input", str(source_path), "--source", str(source_path),
            "--target", str(target_path), *self.ARGS,
        ]) == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_sides_fail_cleanly(self, linked_csvs, capsys):
        source_path, _, _, _ = linked_csvs
        assert main(["link", "--source", str(source_path), *self.ARGS]) == 2
        assert "needs --input or both" in capsys.readouterr().err
