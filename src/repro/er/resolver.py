"""The online resolver service: "who matches *this* record?".

The paper's pipeline is batch-shaped — block a corpus, hand Γ to a
matcher — but production ER is the inverse: a long-lived index serving
single-record queries against an evolving corpus. :class:`Resolver`
composes the pieces this library already has into that serving surface:

* a mutable :class:`~repro.records.dataset.RecordStore` holding the
  live corpus,
* one of the four blockers' :class:`~repro.core.base.OnlineIndex`
  incarnations answering "which records co-block with this one"
  without a rebuild,
* a :class:`~repro.er.matching.SimilarityMatcher` scoring the probe
  against exactly those candidates and tiering the answer by the §3
  three-region rule: ``match`` / ``possible`` / ``new``.

Store and index mutate in lockstep: the index checks a batch's ids
before anything mutates and the store takes the batch only after the
index did, so a failed insertion leaves the service consistent.
Removed ids are retired for the resolver's lifetime (the index
tombstones them permanently); replacements take a fresh id, e.g. from
:meth:`~repro.records.dataset.RecordStore.allocate_id`.

Durability (DESIGN.md, "Durability & crash recovery"): constructed with
a ``state_dir``, the resolver writes an initial checkpoint and then
journals every mutation through a :class:`~repro.store.journal.Journal`:
an ``add_many`` batch as one atomic frame once the index has taken it
(so no frame holds a batch replay would reject), a removal before it
applies. A mutation is acknowledged — survives kill −9 — exactly when
the call returns; :meth:`Resolver.open` rebuilds the latest checkpoint and
replays the journal tail through the same apply path, so recovered
``blocks()``/``query()`` are byte-identical to a from-scratch build
over the acknowledged survivors (the incremental ≡ rebuild contract
the online indexes are locked to). :meth:`Resolver.save` publishes a
fresh checkpoint atomically and resets the journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import (
    ConfigurationError,
    DatasetError,
    DurabilityError,
    ReproError,
)
from repro.records.dataset import LinkedCorpus, RecordStore
from repro.records.record import Record
from repro.er.matching import SimilarityMatcher
from repro.store.checkpoint import load_checkpoint, write_checkpoint
from repro.store.journal import Journal, journal_path, read_journal

#: Similarity measure used when no matcher is supplied.
_DEFAULT_MEASURE = "jaccard_q2"


@dataclass(frozen=True)
class CandidateScore:
    """One scored blocking candidate of a resolver query."""

    record_id: str
    score: float
    label: str  # 'match' | 'possible' | 'non-match'


@dataclass(frozen=True)
class ResolvedEntity:
    """Outcome of :meth:`Resolver.resolve_one`.

    ``tier`` is ``'match'`` when the best candidate clears the match
    threshold, ``'possible'`` when it only reaches the uncertain
    region, and ``'new'`` when nothing co-blocks or nothing scores
    above the possible threshold — the probe looks like a previously
    unseen entity. ``best_id`` is ``None`` exactly in the ``'new'``
    and ``'error'`` tiers; ``candidates`` holds every scored
    candidate, best first.

    ``tier='error'`` entries only come out of
    :meth:`Resolver.resolve_many` with error isolation on: the probe
    failed to resolve, ``error`` holds the failure message, and no
    candidates are reported.
    """

    record_id: str
    tier: str  # 'match' | 'possible' | 'new' | 'error'
    best_id: str | None
    best_score: float
    candidates: tuple[CandidateScore, ...]
    error: str | None = None

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


class Resolver:
    """Single-record resolution over a mutable corpus.

    Parameters
    ----------
    blocker:
        Any blocker exposing ``online()`` (LSH, SA-LSH, MP-LSH,
        LSH-Forest). The resolver builds the online index once and
        mutates it incrementally.
    records:
        Initial corpus (indexed as one slab).
    matcher:
        Scoring matcher; defaults to q-gram Jaccard over the blocker's
        blocking attributes with the standard §3 thresholds.
    state_dir:
        Optional durability root. When given, the constructor writes
        an initial checkpoint there and every later mutation is
        journaled before the call returns; :meth:`open` restores the
        resolver after a crash or restart.
    fsync:
        Journal fsync discipline (``"always"``/``"batch"``/``"never"``,
        see :mod:`repro.store.journal`). Only meaningful with a
        ``state_dir``.
    """

    def __init__(
        self,
        blocker,
        records: Iterable[Record] = (),
        *,
        matcher: SimilarityMatcher | None = None,
        state_dir: "str | Path | None" = None,
        fsync: str = "always",
    ) -> None:
        online = getattr(blocker, "online", None)
        if online is None:
            raise ConfigurationError(
                f"blocker {blocker!r} has no online() factory; online "
                "resolution needs an incremental index"
            )
        self.blocker = blocker
        if matcher is None:
            matcher = SimilarityMatcher(
                {a: _DEFAULT_MEASURE for a in blocker.attributes}
            )
        self.matcher = matcher
        staged = list(records)
        self.store = RecordStore(staged, name="resolver")
        self.index = online(staged)
        self.state_dir: Path | None = None
        self.fsync = fsync
        self._journal: Journal | None = None
        #: Attached linkage corpus when built via :meth:`for_linkage`.
        self.linked: "LinkedCorpus | None" = None
        if state_dir is not None:
            self.state_dir = Path(state_dir)
            self.save()  # initial checkpoint + fresh journal

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, record_id: object) -> bool:
        return record_id in self.store

    @classmethod
    def for_linkage(
        cls,
        blocker,
        source,
        target=None,
        *,
        matcher: SimilarityMatcher | None = None,
        state_dir: "str | Path | None" = None,
        fsync: str = "always",
    ) -> "Resolver":
        """A resolver in clean-clean linkage mode.

        The index holds the *target* side and probes come from the
        *source* — the production record-linkage shape. It is the
        blocker's ``linkage_index``, the same target-side index
        ``block_pair`` streams the source into (for SA-LSH, gated by an
        encoder frozen over both sides, so source-only concepts still
        carry semantic bits when probing). Accepts a prebuilt
        :class:`~repro.records.dataset.LinkedCorpus` or two datasets.

        The target corpus stays mutable — ``add_many``/``remove`` keep
        serving the index — and :meth:`link` resolves the source side
        without ever inserting it.
        """
        linked = (
            source
            if isinstance(source, LinkedCorpus)
            else LinkedCorpus(source, target)
        )
        resolver = cls(blocker, (), matcher=matcher)
        resolver.index = blocker.linkage_index(linked)
        resolver.store.add_many(list(linked.target.records))
        resolver.linked = linked
        resolver.fsync = fsync
        if state_dir is not None:
            resolver.state_dir = Path(state_dir)
            resolver.save()
        return resolver

    def link(
        self,
        records: "Sequence[Record] | None" = None,
        *,
        isolate_errors: bool = True,
    ) -> list[ResolvedEntity]:
        """Resolve source probes against the target index.

        Probes are scored, never inserted — the target corpus is
        unchanged afterwards. With no argument, resolves every record
        of the attached linkage corpus's source side (requires
        :meth:`for_linkage`); an explicit batch links any records.
        """
        if records is None:
            if self.linked is None:
                raise ConfigurationError(
                    "link() without records needs a resolver built by "
                    "Resolver.for_linkage(...)"
                )
            records = list(self.linked.source.records)
        return self.resolve_many(records, isolate_errors=isolate_errors)

    def add(self, record: Record) -> None:
        """Index one new record (store and index stay in lockstep)."""
        self.add_many([record])

    def add_many(self, records: Iterable[Record]) -> None:
        """Index a batch of new records.

        Retired (removed) ids are rejected upfront. The index then
        takes the batch whole or rejects it whole — an id it holds
        already or one repeated in the batch (its ledger's one id
        check), or a record the semantic function cannot interpret —
        leaving the service unchanged. Only a batch the index took is
        journaled, as one frame — after a crash either every record of
        the batch is recovered or none is — and then stored. Should the
        journal append fail, the index is rebuilt from the store, as
        :meth:`open` rebuilds it, with the encoder it had before the
        batch; the batch's ids stay retired in memory, as a removed
        record's do.
        """
        staged = list(records)
        retired = sorted(
            r.record_id
            for r in staged
            if self.index.is_retired(r.record_id)
        )
        if retired:
            raise DatasetError(
                f"record ids {retired!r} were removed and are retired; "
                "use fresh ids (see RecordStore.allocate_id)"
            )
        # A first SA-LSH batch freezes the encoder; a rollback must not
        # keep it, because replay freezes one from the first journaled
        # batch.
        encoder = getattr(self.index, "encoder", None)
        self.index.add_many(staged)
        if self._journal is not None:
            try:
                self._journal.append(
                    "add",
                    {
                        "records": [
                            [r.record_id, dict(r.fields), r.entity_id]
                            for r in staged
                        ]
                    },
                )
            except BaseException:
                retired = [*self.index.ledger.retired, *(r.record_id for r in staged)]
                self._rebuild_index({"retired": retired, "encoder": encoder})
                raise
        self.store.add_many(staged)

    def remove(self, record_id: str) -> Record:
        """Drop one record from store and index; returns the record.

        The id is retired permanently — adding it again later raises.
        Durable resolvers journal the removal before applying it.
        """
        record = self.store[record_id]  # raises before the journal does
        if self._journal is not None:
            self._journal.append("remove", {"record_id": record_id})
        self.store.remove(record_id)
        self.index.remove(record_id)
        return record

    @property
    def last_seq(self) -> int:
        """Sequence number of the last acknowledged journaled mutation."""
        return self._journal.last_seq if self._journal is not None else 0

    def save(self, state_dir: "str | Path | None" = None) -> None:
        """Publish a checkpoint of the current state atomically.

        With no argument, checkpoints into the resolver's own
        ``state_dir`` and resets the journal (every entry it held is
        now covered by the snapshot — replay after a crash starts from
        this point). With an explicit ``state_dir``, exports a
        self-contained copy of the current state there without
        touching the attached journal; :meth:`open` accepts either.

        A crash at any point — including the injected
        ``checkpoint.rename`` kill −9 — leaves the previous
        checkpoint + journal pair intact and recoverable.
        """
        target = Path(state_dir) if state_dir is not None else self.state_dir
        if target is None:
            raise ConfigurationError(
                "save() needs a state_dir: pass one or construct the "
                "resolver with state_dir=..."
            )
        target.mkdir(parents=True, exist_ok=True)
        wal_seq = self.last_seq
        write_checkpoint(
            target,
            records_state=self.store.snapshot_state(),
            index_state=self.index.checkpoint(),
            wal_seq=wal_seq,
            blocker=self.blocker,
            matcher=self.matcher,
        )
        if target == self.state_dir:
            # Reset only after the checkpoint is published: a crash
            # above leaves the old pair, a crash below replays zero
            # entries on top of the new snapshot. Either is consistent.
            if self._journal is not None:
                self._journal.close()
            self._journal = Journal.create(
                journal_path(target), start_seq=wal_seq, fsync=self.fsync
            )
        else:
            # Exported copies get a fresh (empty) journal so open()
            # finds a complete state directory.
            Journal.create(
                journal_path(target), start_seq=wal_seq, fsync=self.fsync
            ).close()

    @classmethod
    def open(
        cls,
        state_dir: "str | Path",
        *,
        blocker=None,
        matcher: SimilarityMatcher | None = None,
        fsync: str = "always",
    ) -> "Resolver":
        """Recover a resolver from its durable state.

        Loads the latest published checkpoint, rebuilds the online
        index from the surviving records in their original insertion
        order (byte-identical by the incremental ≡ rebuild contract),
        restores index-only state — the retired-id set and, for SA-LSH,
        the frozen encoder — then replays the journal tail (entries
        past the checkpoint) through the normal apply path. The torn
        frame a kill −9 mid-append may have left is truncated, the
        journal is reopened, and the resolver is live again: every
        acknowledged mutation is present, every unacknowledged one is
        gone.

        ``blocker``/``matcher`` override the pickled ones from the
        checkpoint (a checkpoint written without a blocker *requires*
        one here).
        """
        state_dir = Path(state_dir)
        data = load_checkpoint(state_dir)
        blocker = blocker if blocker is not None else data.blocker
        if blocker is None:
            raise DurabilityError(
                f"checkpoint {data.name!r} carries no blocker; pass "
                "blocker= to open()", path=str(state_dir),
            )
        if matcher is None:
            matcher = data.matcher
        resolver = cls(blocker, (), matcher=matcher)
        try:
            resolver.store = RecordStore.from_snapshot_state(
                data.records_state
            )
        except DatasetError as exc:
            raise DurabilityError(
                f"checkpoint {data.name!r} is unusable: {exc}",
                path=str(state_dir),
            ) from exc
        resolver._rebuild_index(data.index_state or {})
        wal_file = journal_path(state_dir)
        if wal_file.exists():
            entries, _, _ = read_journal(wal_file)
            for entry in entries:
                if entry["seq"] > data.wal_seq:
                    resolver._apply_entry(entry)
            journal = Journal.open(wal_file, fsync=fsync)
        else:
            # A checkpoint-only directory (hand-assembled): start a
            # journal so the recovered resolver is durable too.
            journal = Journal.create(
                wal_file, start_seq=data.wal_seq, fsync=fsync
            )
        resolver.state_dir = state_dir
        resolver.fsync = fsync
        resolver._journal = journal
        return resolver

    def _rebuild_index(self, state: dict) -> None:
        """Rebuild the online index from the store's records, then apply
        index-only ``state`` (an :meth:`~repro.core.base.OnlineIndex.
        checkpoint` dict: retired ids and, for SA-LSH, the encoder).

        :meth:`open` recovers through it, and a failed journal append
        rolls back through it.
        """
        encoder = state.get("encoder")
        options = {} if encoder is None else {"encoder": encoder}
        self.index = self.blocker.online(list(self.store), **options)
        self.index.restore(state)

    def _apply_entry(self, entry: dict) -> None:
        """Apply one journal entry without re-journaling it."""
        op = entry.get("op")
        if op not in ("add", "remove"):
            raise DurabilityError(
                f"journal entry {entry.get('seq')} has unknown op {op!r}"
            )
        try:
            if op == "add":
                staged = [
                    Record(rid, fields, entity_id=entity)
                    for rid, fields, entity in entry["records"]
                ]
                self.index.add_many(staged)
                self.store.add_many(staged)
            else:
                self.store.remove(entry["record_id"])
                self.index.remove(entry["record_id"])
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise DurabilityError(
                f"journal entry {entry.get('seq')} does not apply to the "
                f"checkpointed state: {exc}"
            ) from exc

    def close(self) -> None:
        """Release the journal (fsyncs pending frames). Idempotent."""
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "Resolver":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def query(self, record: Record) -> list[str]:
        """Candidate ids co-blocking with ``record`` (no scoring)."""
        return self.index.query(record)

    def resolve_one(self, record: Record) -> ResolvedEntity:
        """Resolve one probe record against the live corpus.

        Blocking-first, like the batch pipeline: only the records the
        online index co-blocks with the probe are scored (the paper's
        point — blocking output feeds any ER algorithm), then ranked
        by (score desc, id asc) and tiered by the matcher's
        thresholds. A probe that blocks with nothing — empty record,
        semantics unseen by a frozen encoder, or simply novel — comes
        back ``tier='new'`` with no candidates, never an error.
        """
        candidate_ids = self.index.query(record)
        candidates = [self.store[rid] for rid in candidate_ids]
        scores = self.matcher.score_against(record, candidates)
        ranked = sorted(
            (
                CandidateScore(
                    record_id=rid,
                    score=score,
                    label=self.matcher.label_for(score),
                )
                for rid, score in zip(candidate_ids, scores.tolist())
            ),
            key=lambda c: (-c.score, c.record_id),
        )
        if not ranked or ranked[0].label == "non-match":
            return ResolvedEntity(
                record_id=record.record_id,
                tier="new",
                best_id=None,
                best_score=ranked[0].score if ranked else 0.0,
                candidates=tuple(ranked),
            )
        best = ranked[0]
        return ResolvedEntity(
            record_id=record.record_id,
            tier="match" if best.label == "match" else "possible",
            best_id=best.record_id,
            best_score=best.score,
            candidates=tuple(ranked),
        )

    def resolve_many(
        self, records: Sequence[Record], *, isolate_errors: bool = True
    ) -> list[ResolvedEntity]:
        """Resolve a batch of probes (each against the same corpus).

        With ``isolate_errors`` (the default) one poisoned probe — a
        malformed record, a semantic function blowing up on unexpected
        input — yields a ``tier='error'`` entry carrying the failure
        message instead of aborting the rest of the batch; the service
        keeps answering for every well-formed probe. Pass
        ``isolate_errors=False`` to get the old fail-fast behaviour.
        """
        if not isolate_errors:
            return [self.resolve_one(record) for record in records]
        resolved = []
        for record in records:
            try:
                resolved.append(self.resolve_one(record))
            except Exception as exc:
                record_id = getattr(record, "record_id", None)
                resolved.append(
                    ResolvedEntity(
                        record_id=str(record_id) if record_id else "",
                        tier="error",
                        best_id=None,
                        best_score=0.0,
                        candidates=(),
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
        return resolved
