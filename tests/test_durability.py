"""Crash-safe resolver state: WAL, checkpoints, kill −9.

The durability contract (DESIGN.md, "Durability & crash recovery"):

* every acknowledged mutation — ``add_many``/``remove`` returned —
  survives kill −9 at *any* injected crash point, and every
  unacknowledged one vanishes cleanly;
* recovery (checkpoint + journal-tail replay) produces ``blocks()`` /
  ``query()`` byte-identical to a from-scratch rebuild over the
  acknowledged survivors, for all four online blockers;
* a batch ``add_many`` is atomic across a crash: all of it or none of
  it, never a partial batch;
* torn journal frames and partial checkpoints are detected and either
  truncated (the WAL tail) or rejected with a typed error — never
  served.

The kill −9 matrix drives ``durability_driver.py`` in a subprocess
armed via ``REPRO_FAULTS``; driver and oracle share the same schedule
code, so they cannot drift.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durability_driver import apply_op, load_corpus, make_blocker, plan
from repro.core import LSHBlocker
from repro.datasets import fig1_dataset, fig1_semantic_function
from repro.er import Resolver, SimilarityMatcher
from repro.errors import (
    ConfigurationError,
    DatasetError,
    DurabilityError,
)
from repro.records import Record
from repro.store import (
    Journal,
    latest_checkpoint,
    load_checkpoint,
    read_journal,
    sweep_orphan_tmp,
    write_checkpoint,
)
from repro.store.checkpoint import CURRENT_NAME, TMP_MARKER
from repro.store.journal import journal_path
from repro.text import available_similarities

BLOCKER_KINDS = ("lsh", "salsh", "mplsh", "forest")

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_DRIVER = str(Path(__file__).resolve().parent / "durability_driver.py")


def _fig1_blocker():
    return LSHBlocker(("title", "authors"), q=3, k=2, l=3, seed=1)


# ---------------------------------------------------------------- journal


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        with Journal.create(path, start_seq=10) as journal:
            assert journal.append("add", {"records": [["a", {}, None]]}) == 11
            assert journal.append("remove", {"record_id": "a"}) == 12
        entries, _, start_seq = read_journal(path)
        assert start_seq == 10
        assert [e["seq"] for e in entries] == [11, 12]
        assert entries[0]["op"] == "add"
        assert entries[1] == {"seq": 12, "op": "remove", "record_id": "a"}

    @pytest.mark.parametrize("tail", [
        b"\x08",                           # lone partial prefix
        b"\x10\x00\x00\x00\xde\xad\xbe\xef",  # prefix, no payload
        b"\x04\x00\x00\x00\x00\x00\x00\x00half",  # CRC mismatch
        b"garbage" * 5,                    # arbitrary wreckage
    ])
    def test_torn_tail_truncated(self, tmp_path, tail):
        path = tmp_path / "wal.log"
        with Journal.create(path) as journal:
            journal.append("add", {"records": []})
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(tail)
        entries, valid_end, _ = read_journal(path)
        assert [e["seq"] for e in entries] == [1]
        assert valid_end == clean_size
        # reopening truncates the wreckage and continues the sequence
        with Journal.open(path) as journal:
            assert journal.last_seq == 1
            assert journal.append("remove", {"record_id": "x"}) == 2
        entries, _, _ = read_journal(path)
        assert [e["seq"] for e in entries] == [1, 2]

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"not a journal at all")
        with pytest.raises(DurabilityError):
            read_journal(path)
        with pytest.raises(DurabilityError):
            read_journal(tmp_path / "missing.log")

    def test_stale_epoch_frames_ignored(self, tmp_path):
        # Frames whose seq does not continue the header's sequence are
        # stale bytes from an older epoch, not a continuation.
        path = tmp_path / "wal.log"
        with Journal.create(path, start_seq=0) as journal:
            journal.append("add", {"records": []})
        data = bytearray(path.read_bytes())
        data[8:16] = (5).to_bytes(8, "little")  # header now claims seq 5
        path.write_bytes(bytes(data))
        entries, valid_end, start_seq = read_journal(path)
        assert start_seq == 5 and entries == [] and valid_end == 16

    def test_bad_fsync_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Journal.create(tmp_path / "wal.log", fsync="sometimes")

    def test_append_after_close_raises(self, tmp_path):
        journal = Journal.create(tmp_path / "wal.log")
        journal.close()
        with pytest.raises(DurabilityError):
            journal.append("add", {})

    def test_batch_fsync_sync(self, tmp_path):
        with Journal.create(tmp_path / "wal.log", fsync="batch") as journal:
            journal.append("add", {"records": []})
            journal.sync()
            journal.append("add", {"records": []})
        entries, _, _ = read_journal(tmp_path / "wal.log")
        assert len(entries) == 2


# ------------------------------------------------------------- checkpoint


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        name = write_checkpoint(
            tmp_path,
            records_state={"name": "s", "allocated": 3, "records": []},
            index_state={"kind": "lsh", "retired": ["a"]},
            wal_seq=7,
            blocker=_fig1_blocker(),
        )
        assert latest_checkpoint(tmp_path) == name
        data = load_checkpoint(tmp_path)
        assert data.wal_seq == 7
        assert data.records_state["allocated"] == 3
        assert data.index_state["retired"] == ["a"]
        assert isinstance(data.blocker, LSHBlocker)
        assert data.matcher is None

    def test_successive_checkpoints_prune(self, tmp_path):
        write_checkpoint(
            tmp_path, records_state={}, index_state={}, wal_seq=1
        )
        second = write_checkpoint(
            tmp_path, records_state={}, index_state={}, wal_seq=2
        )
        dirs = [
            entry for entry in os.listdir(tmp_path)
            if entry.startswith("checkpoint-")
        ]
        assert dirs == [second]
        assert load_checkpoint(tmp_path).wal_seq == 2

    def test_member_corruption_rejected(self, tmp_path):
        name = write_checkpoint(
            tmp_path,
            records_state={"name": "s", "allocated": 0, "records": []},
            index_state={}, wal_seq=0,
        )
        member = tmp_path / name / "records.json"
        member.write_bytes(member.read_bytes()[:-1] + b"!")
        with pytest.raises(DurabilityError):
            load_checkpoint(tmp_path)

    def test_missing_state_rejected(self, tmp_path):
        with pytest.raises(DurabilityError):
            load_checkpoint(tmp_path / "nowhere")
        with pytest.raises(DurabilityError):
            load_checkpoint(tmp_path)  # exists, no checkpoint

    def test_dangling_pointer_falls_back(self, tmp_path):
        name = write_checkpoint(
            tmp_path,
            records_state={"name": "s", "allocated": 0, "records": []},
            index_state={}, wal_seq=4,
        )
        (tmp_path / CURRENT_NAME).write_text("checkpoint-000099\n")
        assert latest_checkpoint(tmp_path) == name
        assert load_checkpoint(tmp_path).wal_seq == 4

    def test_orphan_tmp_sweep(self, tmp_path):
        dead = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        dead_pid = int(dead.stdout.strip())
        orphan = tmp_path / f"checkpoint-000003{TMP_MARKER}{dead_pid}"
        orphan.mkdir(parents=True)
        (orphan / "records.json").write_text("{}")
        live = tmp_path / f"checkpoint-000004{TMP_MARKER}{os.getpid()}"
        live.mkdir()
        foreign = tmp_path / f"notes{TMP_MARKER}abc"
        foreign.write_text("keep me")
        sweep_orphan_tmp(tmp_path)
        assert not orphan.exists()      # dead pid: swept
        assert live.exists()            # own (live) pid: kept
        assert foreign.exists()         # unparsable pid: kept


# ------------------------------------------------- resolver save/open


@pytest.mark.parametrize("kind", BLOCKER_KINDS)
class TestResolverPersistence:
    def test_save_open_round_trip(self, kind, tmp_path):
        records = load_corpus("fig1")
        state = tmp_path / "state"
        resolver = Resolver(
            make_blocker(kind, "fig1"), records[:4], state_dir=state
        )
        resolver.add_many(records[4:])
        removed = resolver.remove(records[0].record_id)
        assert removed.record_id == records[0].record_id
        fresh_id = resolver.store.allocate_id("n")
        resolver.add(Record(fresh_id, dict(records[0].fields)))
        expected_blocks = resolver.index.blocks()
        expected_queries = [resolver.query(r) for r in records]
        resolver.close()

        recovered = Resolver.open(state)
        assert recovered.index.blocks() == expected_blocks
        assert [recovered.query(r) for r in records] == expected_queries
        assert len(recovered) == len(resolver)
        assert recovered.index.is_retired(records[0].record_id)
        # retired ids stay retired across recovery
        with pytest.raises(DatasetError):
            recovered.add(Record(records[0].record_id, {}))
        # the id allocator never reuses pre-crash allocations
        assert recovered.store.allocate_id("n") != fresh_id
        recovered.close()

    def test_mutations_after_recovery_are_durable(self, kind, tmp_path):
        records = load_corpus("fig1")
        state = tmp_path / "state"
        with Resolver(
            make_blocker(kind, "fig1"), records[:4], state_dir=state
        ) as resolver:
            resolver.add(records[4])
        with Resolver.open(state) as second:
            second.add(records[5])
            expected = second.index.blocks()
        with Resolver.open(state) as third:
            assert third.index.blocks() == expected
            assert len(third) == 6


class TestResolverPersistenceEdges:
    def test_save_requires_state_dir(self, fig1):
        resolver = Resolver(_fig1_blocker(), list(fig1))
        with pytest.raises(ConfigurationError):
            resolver.save()

    def test_export_to_other_dir(self, tmp_path, fig1):
        records = list(fig1)
        resolver = Resolver(_fig1_blocker(), records)
        resolver.save(tmp_path / "export")
        recovered = Resolver.open(tmp_path / "export")
        assert recovered.index.blocks() == resolver.index.blocks()
        recovered.close()

    def test_open_needs_blocker(self, tmp_path):
        write_checkpoint(
            tmp_path / "state",
            records_state={"name": "s", "allocated": 0, "records": []},
            index_state={}, wal_seq=0,
        )
        with pytest.raises(DurabilityError):
            Resolver.open(tmp_path / "state")
        recovered = Resolver.open(
            tmp_path / "state", blocker=_fig1_blocker()
        )
        assert len(recovered) == 0
        recovered.close()

    @pytest.mark.parametrize("measure", available_similarities())
    def test_every_similarity_survives_save_open(
        self, measure, tmp_path, fig1
    ):
        # The matcher is pickled into every checkpoint, so each
        # registered measure must pickle.
        records = list(fig1)
        matcher = SimilarityMatcher(
            {"title": measure, "authors": measure},
            match_threshold=0.8, possible_threshold=0.4,
        )
        state = tmp_path / "state"
        resolver = Resolver(
            _fig1_blocker(), records[:-1], matcher=matcher, state_dir=state
        )
        resolver.save()
        expected = resolver.resolve_many(records)
        resolver.close()
        with Resolver.open(state) as recovered:
            assert recovered.resolve_many(records) == expected

    def test_failed_add_leaves_durable_state_unchanged(
        self, tmp_path, fig1
    ):
        records = list(fig1)
        state = tmp_path / "state"
        with Resolver(
            _fig1_blocker(), records[:3], state_dir=state
        ) as resolver:
            before = resolver.last_seq
            with pytest.raises(DatasetError):
                resolver.add_many([records[3], records[0]])  # duplicate
            assert resolver.last_seq == before  # nothing journaled
            assert len(resolver) == 3
        with Resolver.open(state) as recovered:
            assert len(recovered) == 3


# ----------------------------------------- batch atomicity across crash


class TestBatchAtomicity:
    @settings(max_examples=25, deadline=None)
    @given(
        batch_size=st.integers(min_value=1, max_value=5),
        tear=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_add_many_all_or_nothing(self, tmp_path_factory, batch_size, tear):
        """Tearing the journal anywhere inside a batch frame loses the
        whole batch; a complete frame keeps the whole batch. Never a
        partial batch — ``add_many`` journals one frame per call."""
        tmp_path = tmp_path_factory.mktemp("atomic")
        records = load_corpus("fig1")
        state = tmp_path / "state"
        with Resolver(
            _fig1_blocker(), records[:2], state_dir=state
        ) as resolver:
            batch = [
                Record(f"b{i}", dict(records[i % len(records)].fields))
                for i in range(batch_size)
            ]
            resolver.add_many(batch)
        wal = journal_path(state)
        data = wal.read_bytes()
        _, valid_end, _ = read_journal(wal)
        frame_starts = 16  # header length; one frame follows
        cut = frame_starts + int((valid_end - frame_starts) * tear)
        wal.write_bytes(data[:cut])
        with Resolver.open(state) as recovered:
            present = [r.record_id in recovered for r in batch]
            assert all(present) or not any(present)
            assert all(present) == (cut >= valid_end)
            assert len(recovered) == 2 + (batch_size if all(present) else 0)


# ------------------------------------------------------ kill −9 matrix


def _run_driver(state_dir, kind, corpus, fault=None, seed_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    env.pop("REPRO_FAULTS", None)
    if fault:
        env["REPRO_FAULTS"] = fault
    if seed_env:
        env["REPRO_FAULTS_SEED"] = seed_env
    return subprocess.run(
        [sys.executable, _DRIVER, str(state_dir), kind, corpus],
        capture_output=True, text=True, env=env, timeout=180,
    )


def _acked(stdout: str) -> int:
    return sum(1 for line in stdout.splitlines() if line.startswith("ACK "))


def _oracle(kind, corpus, acked):
    records = load_corpus(corpus)
    seed, ops = plan(records)
    resolver = Resolver(make_blocker(kind, corpus), seed)
    for op, arg in ops[:acked]:
        if op == "save":  # a logical no-op; the oracle is not durable
            continue
        apply_op(resolver, op, arg)
    return records, resolver


def _assert_recovered_equals_oracle(state_dir, kind, corpus, acked):
    records, oracle = _oracle(kind, corpus, acked)
    recovered = Resolver.open(state_dir)
    assert recovered.index.blocks() == oracle.index.blocks()
    assert len(recovered) == len(oracle)
    assert sorted(r.record_id for r in recovered.store) == sorted(
        r.record_id for r in oracle.store
    )
    for probe in records:
        assert recovered.query(probe) == oracle.query(probe)
    recovered.close()


#: (corpus, fault) legs of the matrix; every leg runs for all 4 kinds.
_MATRIX = [
    ("fig1", "wal.append:@0"),          # crash on the first mutation
    ("fig1", "wal.append:@4"),          # crash on the last mutation
    ("fig1", "checkpoint.rename:@1"),   # crash during the mid-run save
    ("cora", "wal.append:@10"),         # crash mid-stream, bigger corpus
]


@pytest.mark.parametrize("kind", BLOCKER_KINDS)
@pytest.mark.parametrize("corpus,fault", _MATRIX)
def test_kill9_matrix(kind, corpus, fault, tmp_path):
    state = tmp_path / "state"
    result = _run_driver(state, kind, corpus, fault=fault)
    assert result.returncode == -9, (
        f"driver should die by SIGKILL, got rc={result.returncode}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    assert "READY" in result.stdout
    assert "DONE" not in result.stdout
    _assert_recovered_equals_oracle(state, kind, corpus, _acked(result.stdout))


@pytest.mark.parametrize("kind", BLOCKER_KINDS)
def test_no_crash_run_recovers_fully(kind, tmp_path):
    state = tmp_path / "state"
    result = _run_driver(state, kind, "fig1")
    assert result.returncode == 0, result.stderr
    assert "DONE" in result.stdout
    _, ops = plan(load_corpus("fig1"))
    assert _acked(result.stdout) == len(ops)
    _assert_recovered_equals_oracle(state, kind, "fig1", len(ops))


def test_kill9_before_first_checkpoint(tmp_path):
    """A crash before anything was ever published cannot be recovered —
    but it must fail with a typed error, and the wreckage is swept."""
    state = tmp_path / "state"
    result = _run_driver(state, "lsh", "fig1", fault="checkpoint.rename:@0")
    assert result.returncode == -9
    assert "READY" not in result.stdout
    with pytest.raises(DurabilityError):
        Resolver.open(state)
    assert not [n for n in os.listdir(state) if TMP_MARKER in n]


# ------------------------------------------------------------------ CLI


class TestCLIDurability:
    def _corpus_csv(self, tmp_path):
        from repro.records import Dataset, write_csv

        path = tmp_path / "corpus.csv"
        write_csv(Dataset(load_corpus("fig1"), name="fig1"), path)
        return path

    def _blocker_args(self):
        return [
            "--technique", "lsh", "--attributes", "title,authors",
            "--q", "3", "--k", "2", "--l", "3", "--seed", "1",
        ]

    def test_malformed_ops_row_exits_2_with_line(self, tmp_path, capsys):
        from repro.cli import main

        corpus = self._corpus_csv(tmp_path)
        ops = tmp_path / "ops.csv"
        ops.write_text(
            "op,record_id,title\n"
            "add,x1,fine\n"
            "frobnicate,x2,bad\n"
        )
        rc = main([
            "serve-batch", "--input", str(corpus), "--ops", str(ops),
            *self._blocker_args(),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "frobnicate" in err
        assert "Traceback" not in err

    def test_ops_row_without_id_exits_2_with_line(self, tmp_path, capsys):
        from repro.cli import main

        corpus = self._corpus_csv(tmp_path)
        ops = tmp_path / "ops.csv"
        ops.write_text("op,record_id,title\nadd,,missing\n")
        rc = main([
            "serve-batch", "--input", str(corpus), "--ops", str(ops),
            *self._blocker_args(),
        ])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_corpus_row_without_id_exits_2_with_line(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "bad.csv"
        corpus.write_text("record_id,title\nr1,ok\n,missing id\n")
        probes = tmp_path / "probes.csv"
        probes.write_text("record_id,title\np1,x\n")
        rc = main([
            "query", "--input", str(corpus), "--queries", str(probes),
            *self._blocker_args(),
        ])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_state_dir_round_trip_and_recover(self, tmp_path, capsys):
        import csv as _csv

        from repro.cli import main

        corpus = self._corpus_csv(tmp_path)
        state = tmp_path / "state"
        ops = tmp_path / "ops.csv"
        ops.write_text(
            "op,record_id,title,authors\n"
            "add,x1,yet another entity resolution paper,someone\n"
            "query,x1,yet another entity resolution paper,someone\n"
        )
        out = tmp_path / "out.csv"
        rc = main([
            "serve-batch", "--input", str(corpus), "--ops", str(ops),
            *self._blocker_args(),
            "--state-dir", str(state), "--out", str(out),
        ])
        assert rc == 0
        assert latest_checkpoint(state) is not None

        # Second run resumes from the state dir (corpus file ignored),
        # so x1 from the first run is still present and removable.
        ops2 = tmp_path / "ops2.csv"
        ops2.write_text("op,record_id\nremove,x1\n")
        rc = main([
            "serve-batch", "--input", str(corpus), "--ops", str(ops2),
            *self._blocker_args(),
            "--state-dir", str(state), "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()

        rc = main(["recover", "--state-dir", str(state)])
        assert rc == 0
        recovered_line = capsys.readouterr().out
        assert f"recovered {len(load_corpus('fig1'))} records" in (
            recovered_line
        )

        probes = tmp_path / "probes.csv"
        probes.write_text("record_id,title,authors\np1,entity,someone\n")
        results = tmp_path / "recovered.csv"
        rc = main([
            "recover", "--state-dir", str(state),
            "--queries", str(probes), "--out", str(results),
        ])
        assert rc == 0
        rows = list(_csv.DictReader(open(results)))
        assert [row["query_id"] for row in rows] == ["p1"]

    def test_serve_batch_exact_similarity_state_dir(self, tmp_path):
        from repro.cli import main

        corpus = self._corpus_csv(tmp_path)
        state = tmp_path / "state"
        ops = tmp_path / "ops.csv"
        ops.write_text(
            "op,record_id,title,authors\n"
            "add,x1,entity resolution,someone\n"
            "query,p1,entity resolution,someone\n"
        )
        rc = main([
            "serve-batch", "--input", str(corpus), "--ops", str(ops),
            *self._blocker_args(), "--similarity", "exact",
            "--state-dir", str(state), "--out", str(tmp_path / "out.csv"),
        ])
        assert rc == 0
        assert latest_checkpoint(state) is not None

    def test_recover_without_state_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["recover", "--state-dir", str(tmp_path / "nope")])
        assert rc == 2
        assert "no resolver state" in capsys.readouterr().err
