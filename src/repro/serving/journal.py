"""Durable truth storage: append-only journal + compacted snapshots.

Everything the serving layer records into a
:class:`~repro.core.truth.TruthDatabase` dies with the process — this module
is the durability layer that lets a :class:`RecommendationService` restart
into the exact pre-crash planner truth state.

Design
------
A :class:`TruthJournal` owns one *generation* of two files inside its
directory::

    journal-<gen>.log    # append-only delta segment (one record per batch)
    snapshot-<gen>.snap  # compacted full-store snapshot (absent at gen 0)

Every executed batch appends exactly one **record** — even when its delta is
empty — so the record count doubles as a durable "batches executed" counter
for crash recovery.  A record's payload is the batch's truth delta as a
columnar :class:`~repro.serving.protocol.TruthDeltaBlock`.  Replay decodes
payloads by duck-typing exactly like
:meth:`TruthDatabase.adopt_all <repro.core.truth.TruthDatabase.adopt_all>`,
so journals written by older releases, whose records could hold pickled
truth lists instead, still read back.

Records are framed with an explicit length and a CRC32 over the payload, and
the file is flushed (+ ``fsync`` by default) after every append, so the only
loss mode a crash can produce is a *torn tail*: recovery truncates the file
back to the last intact record with a warning instead of failing.

Once ``snapshot_every_truths`` truths have accumulated since the last
snapshot, the journal **compacts**: the whole store is written as a snapshot
of generation ``gen+1`` (to a temp file, fsynced, atomically renamed), a
fresh empty delta segment is started, and the old generation's files are
deleted.  Compaction preserves the durable truth/batch counters, and a crash
at any point of the rotation leaves at least one readable generation on disk.

Recovery (:meth:`TruthJournal.replay_into`) adopts the snapshot plus the tail
deltas **keeping parent truth ids** (via ``adopt_all``, which also advances
the local id sequence past every adopted id), so post-recovery lookups
tie-break exactly as the pre-crash store did; records whose ids are already
present are skipped, making replay idempotent.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import warnings
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.truth import TruthDatabase, VerifiedTruth
from ..exceptions import JournalError
from ..roadnet.graph import RoadNetwork
from .protocol import encode_truth_delta

#: File magics double as format-version markers: bump them on any frame
#: change so an old reader fails loudly instead of misparsing.
_JOURNAL_MAGIC = b"RPTJ1\n"
_SNAPSHOT_MAGIC = b"RPTS1\n"

#: Record frame: payload byte length, CRC32 of the payload, truth count.
#: The truth count is in the frame (not just the payload) so scanning a
#: journal maintains the durable counters without unpickling every record.
_FRAME = struct.Struct("<III")

_JOURNAL_NAME = re.compile(r"journal-(\d{8})\.log$")
_SNAPSHOT_NAME = re.compile(r"snapshot-(\d{8})\.snap$")


def _decode_payload(payload, network: RoadNetwork) -> List[VerifiedTruth]:
    """Materialise a record payload as truths: a block, or a plain list —
    an empty record's, or a legacy record's pickled truths."""
    decode = getattr(payload, "decode_truths", None)
    if decode is not None:
        return decode(network)
    return list(payload)


class TruthJournal:
    """Append-only on-disk log of truth deltas with compacted snapshots.

    Parameters
    ----------
    path:
        Journal directory (created if missing).  Re-opening a non-empty
        directory resumes the existing journal: the durable counters are
        restored by scanning it, a torn tail is truncated with a warning,
        and appends continue where the previous process stopped.
    fsync:
        Fsync after every append (the default).  The flush still happens
        when disabled, so only an OS crash — not a process crash — can
        lose acknowledged records.
    snapshot_every_truths:
        Compaction cadence (see the module docstring).
    """

    def __init__(
        self,
        path,
        *,
        fsync: bool = True,
        snapshot_every_truths: int = 512,
    ):
        if snapshot_every_truths < 1:
            raise JournalError("snapshot_every_truths must be at least 1")
        self.path = Path(path)
        self.fsync = fsync
        self.snapshot_every_truths = snapshot_every_truths
        self._closed = False
        # Session counters (what *this* handle did, for statistics()).
        self.records_appended = 0
        self.snapshots_written = 0
        self.recovered_truncated = False

        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise JournalError(f"cannot create journal directory {self.path}: {error}") from None
        if self.path.is_file():
            raise JournalError(f"journal path {self.path} is a file, not a directory")

        self._generation = self._choose_generation()
        # Durable counters carried by the snapshot + re-scanned tail.
        self._snapshot_truths, self._snapshot_batches = self._read_snapshot_counters()
        self._truth_count = self._snapshot_truths
        self._batch_count = self._snapshot_batches
        self._tail_records: List[Tuple[int, int]] = []  # (payload offset, length)
        self._scan_tail()
        self._handle = self._open_segment_for_append()
        # On-disk footprint (segment + snapshot), measured once at open and
        # maintained incrementally so stats() never rescans the directory.
        self._disk_bytes = self._scan_disk_bytes()

    # ------------------------------------------------------------- file names
    def _journal_file(self, generation: Optional[int] = None) -> Path:
        gen = self._generation if generation is None else generation
        return self.path / f"journal-{gen:08d}.log"

    def _snapshot_file(self, generation: Optional[int] = None) -> Path:
        gen = self._generation if generation is None else generation
        return self.path / f"snapshot-{gen:08d}.snap"

    def _choose_generation(self) -> int:
        """Pick the newest usable generation on disk (0 for a fresh journal).

        A generation is usable when it is the oldest present (nothing newer
        to prefer) or its snapshot reads back intact — a crash mid-rotation
        can leave a newer snapshot without its (empty) delta segment, which
        is fine, but a corrupt snapshot falls back to the previous
        generation, whose files the rotation only deletes *after* the new
        ones are durable.  Leftover files of other generations are removed.
        """
        generations = set()
        for entry in self.path.iterdir():
            for pattern in (_JOURNAL_NAME, _SNAPSHOT_NAME):
                match = pattern.match(entry.name)
                if match:
                    generations.add(int(match.group(1)))
            if entry.suffix == ".tmp":
                entry.unlink()  # torn snapshot write: never renamed, never valid
        if not generations:
            return 0
        ordered = sorted(generations, reverse=True)
        chosen = ordered[-1]
        for generation in ordered:
            if generation == ordered[-1] or self._snapshot_is_valid(generation):
                chosen = generation
                break
            warnings.warn(
                f"truth journal {self.path}: snapshot of generation {generation} is "
                "unreadable; falling back to the previous generation",
                RuntimeWarning,
                stacklevel=3,
            )
        for generation in generations - {chosen}:
            for stale in (self._journal_file(generation), self._snapshot_file(generation)):
                if stale.exists():
                    stale.unlink()
        return chosen

    # -------------------------------------------------------------- snapshots
    def _snapshot_is_valid(self, generation: int) -> bool:
        try:
            self._read_snapshot(generation)
        except (JournalError, OSError):
            return False
        return True

    def _read_snapshot(self, generation: int):
        """Return ``(truth_count, batch_count, payload)`` of a snapshot file."""
        snapshot = self._snapshot_file(generation)
        data = snapshot.read_bytes()
        if len(data) < len(_SNAPSHOT_MAGIC) + _FRAME.size:
            raise JournalError(f"snapshot {snapshot} is truncated")
        if not data.startswith(_SNAPSHOT_MAGIC):
            raise JournalError(f"snapshot {snapshot} has a bad magic header")
        length, crc, truth_count = _FRAME.unpack_from(data, len(_SNAPSHOT_MAGIC))
        payload = data[len(_SNAPSHOT_MAGIC) + _FRAME.size:]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise JournalError(f"snapshot {snapshot} fails its CRC check")
        try:
            batch_count, encoded = pickle.loads(payload)
        except Exception:
            raise JournalError(f"snapshot {snapshot} payload does not unpickle") from None
        return truth_count, batch_count, encoded

    def _read_snapshot_counters(self) -> Tuple[int, int]:
        if not self._snapshot_file().exists():
            return 0, 0
        truth_count, batch_count, _ = self._read_snapshot(self._generation)
        return truth_count, batch_count

    # ------------------------------------------------------------ tail replay
    def _scan_tail(self) -> None:
        """Validate the delta segment, truncating a torn or corrupt tail.

        Walks record frames sequentially; the first record that is short,
        fails its CRC, or has a broken header marks the end of the durable
        prefix — everything behind it is truncated away (a crash mid-append
        can only tear the *last* record, so nothing valid is lost) and a
        warning is emitted instead of an error.
        """
        segment = self._journal_file()
        if not segment.exists():
            return
        data = segment.read_bytes()
        if not data.startswith(_JOURNAL_MAGIC):
            if data:
                warnings.warn(
                    f"truth journal {segment} has a bad magic header; starting it over",
                    RuntimeWarning,
                    stacklevel=3,
                )
            segment.unlink()
            return
        offset = len(_JOURNAL_MAGIC)
        valid_end = offset
        while True:
            if offset + _FRAME.size > len(data):
                break  # no (complete) header left: clean end or torn header
            length, crc, truth_count = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            payload = data[start:start + length]
            if len(payload) != length or zlib.crc32(payload) != crc:
                break  # torn or corrupt record
            self._tail_records.append((start, length))
            self._truth_count += truth_count
            self._batch_count += 1
            offset = start + length
            valid_end = offset
        if valid_end != len(data):
            self.recovered_truncated = True
            warnings.warn(
                f"truth journal {segment}: truncating {len(data) - valid_end} bytes of "
                f"torn tail after {len(self._tail_records)} intact record(s)",
                RuntimeWarning,
                stacklevel=3,
            )
            with open(segment, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())

    def _open_segment_for_append(self):
        segment = self._journal_file()
        if not segment.exists():
            handle = open(segment, "xb")
            handle.write(_JOURNAL_MAGIC)
            handle.flush()
            os.fsync(handle.fileno())
            self._sync_directory()
        else:
            handle = open(segment, "ab")
        return handle

    def _scan_disk_bytes(self) -> int:
        """Stat the current generation's files (open-time baseline only)."""
        total = 0
        for file in (self._journal_file(), self._snapshot_file()):
            try:
                total += file.stat().st_size
            except OSError:
                pass
        return total

    def _sync_directory(self) -> None:
        """Fsync the journal directory so renames/creates are durable."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -------------------------------------------------------------- accessors
    @property
    def generation(self) -> int:
        return self._generation

    @property
    def truth_count(self) -> int:
        """Truths durably recorded (snapshot + every intact delta record)."""
        return self._truth_count

    @property
    def batch_count(self) -> int:
        """Intact records ever appended — one per executed batch, so this is
        the durable "batches completed" counter crash recovery resumes at."""
        return self._batch_count

    @property
    def disk_bytes(self) -> int:
        """Current on-disk footprint (delta segment + snapshot), tracked
        incrementally — reading it never rescans or re-stats the files."""
        return self._disk_bytes

    def stats(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "generation": self._generation,
            "truths": self._truth_count,
            "batches": self._batch_count,
            "disk_bytes": self._disk_bytes,
            "records_appended": self.records_appended,
            "snapshots_written": self.snapshots_written,
            "recovered_truncated": self.recovered_truncated,
        }

    # ----------------------------------------------------------------- append
    def _ensure_open(self) -> None:
        if self._closed:
            raise JournalError("the truth journal is closed")

    def _encode(self, truths: Sequence[VerifiedTruth], network: RoadNetwork):
        return encode_truth_delta(list(truths), network) if truths else []

    def append(
        self,
        truths: Sequence[VerifiedTruth],
        store: TruthDatabase,
        meta: Optional[Dict[str, Any]] = None,
        allow_snapshot: bool = True,
    ) -> None:
        """Durably append one batch's truth delta (then maybe compact).

        ``truths`` may be empty — the empty record still lands, keeping the
        one-record-per-batch invariant that makes :attr:`batch_count` a
        crash-consistent progress marker.  ``store`` is the full parent
        truth store: its network keys the columnar encoding and its contents
        feed the compacted snapshot when the cadence triggers.

        ``allow_snapshot=False`` defers a cadence-triggered compaction to a
        later append.  The pipelined service uses it while journaling a
        window's batches one by one: mid-window, ``store`` already holds
        truths of batches *after* this record, so a snapshot taken here
        would durably leak state ahead of :attr:`batch_count` — recovery
        would then not land on an exact sequential prefix.  The window's
        final append re-enables snapshots, when store and journal agree
        again; the cadence check is monotone, so the compaction still
        happens, at most one window late.
        """
        self._ensure_open()
        payload = pickle.dumps(
            (dict(meta or {}), self._encode(truths, store.network)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._handle.write(_FRAME.pack(len(payload), zlib.crc32(payload), len(truths)))
        self._handle.write(payload)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._tail_records.append((self._handle.tell() - len(payload), len(payload)))
        self._disk_bytes += _FRAME.size + len(payload)
        self._truth_count += len(truths)
        self._batch_count += 1
        self.records_appended += 1
        if (
            allow_snapshot
            and self._truth_count - self._snapshot_truths >= self.snapshot_every_truths
        ):
            self._compact(store)

    def snapshot(self, store: TruthDatabase) -> None:
        """Force a compaction now — e.g. to baseline a pre-populated store
        without consuming a journal record (``batch_count`` is unchanged)."""
        self._ensure_open()
        self._compact(store)

    def _compact(self, store: TruthDatabase) -> None:
        """Write a full-store snapshot as the next generation and rotate.

        Ordering is crash-safe: the snapshot becomes durable (temp file,
        fsync, atomic rename, directory fsync) *before* the fresh delta
        segment is created and the old generation is deleted, so recovery
        always finds either the old pair or the new snapshot.
        """
        next_generation = self._generation + 1
        encoded = self._encode(store.all(), store.network)
        payload = pickle.dumps((self._batch_count, encoded), protocol=pickle.HIGHEST_PROTOCOL)
        snapshot = self._snapshot_file(next_generation)
        temp = snapshot.with_suffix(".tmp")
        with open(temp, "wb") as handle:
            handle.write(_SNAPSHOT_MAGIC)
            handle.write(_FRAME.pack(len(payload), zlib.crc32(payload), len(store)))
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, snapshot)
        self._sync_directory()

        old_journal = self._journal_file()
        old_snapshot = self._snapshot_file()
        self._handle.close()
        self._generation = next_generation
        self._snapshot_truths = len(store)
        self._snapshot_batches = self._batch_count
        self._truth_count = len(store)
        self._tail_records = []
        self._handle = self._open_segment_for_append()
        for stale in (old_journal, old_snapshot):
            if stale.exists():
                stale.unlink()
        self._sync_directory()
        self.snapshots_written += 1
        # The rotated generation is exactly the new snapshot plus an empty
        # delta segment (magic only).
        self._disk_bytes = (
            len(_SNAPSHOT_MAGIC) + _FRAME.size + len(payload) + len(_JOURNAL_MAGIC)
        )

    # ----------------------------------------------------------------- replay
    def _iter_tail_payloads(self) -> Iterator[Tuple[Dict[str, Any], Any]]:
        segment = self._journal_file()
        if not segment.exists() or not self._tail_records:
            return
        with open(segment, "rb") as handle:
            for offset, length in self._tail_records:
                handle.seek(offset)
                yield pickle.loads(handle.read(length))

    def replay(self, network: RoadNetwork) -> List[VerifiedTruth]:
        """Every durable truth — snapshot then tail deltas — in record order."""
        truths: List[VerifiedTruth] = []
        if self._snapshot_file().exists():
            _, _, encoded = self._read_snapshot(self._generation)
            truths.extend(_decode_payload(encoded, network))
        for _meta, encoded in self._iter_tail_payloads():
            truths.extend(_decode_payload(encoded, network))
        return truths

    def records(self, network: RoadNetwork) -> List[Tuple[Dict[str, Any], List[VerifiedTruth]]]:
        """The tail's ``(meta, truths)`` records (diagnostics / tests)."""
        return [
            (meta, _decode_payload(encoded, network))
            for meta, encoded in self._iter_tail_payloads()
        ]

    def replay_into(self, store: TruthDatabase) -> int:
        """Adopt every durable truth into ``store``; returns how many were new.

        Ids are preserved (`adopt_all` also advances the local id sequence
        past them) and truths already present are skipped, so replaying the
        same journal twice — or into a store that already holds a prefix of
        it — is idempotent.
        """
        fresh: List[VerifiedTruth] = []
        seen = set()
        for truth in self.replay(store.network):
            if truth.truth_id in store or truth.truth_id in seen:
                continue
            seen.add(truth.truth_id)
            fresh.append(truth)
        if fresh:
            store.adopt_all(fresh)
        return len(fresh)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handle.close()

    def __enter__(self) -> "TruthJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
