"""Write-ahead journal and snapshots for the advisor service.

Durability follows the command-logging school: the journal records *what
happened* (tenant registrations, committed epochs, sheds, kills, breaker
transitions) as pure data, one sealed JSONL record per line, each carrying
a monotonically increasing ``seq``.  Because every tenant's epoch stream is
rebuilt deterministically from its registered spec, recovery re-executes
the committed epochs through the same code path and *verifies* each
replayed layout bitwise against the journaled assignment -- the journal is
simultaneously the redo log and the integrity oracle.

The crash-safety mechanics -- seals, the torn-tail policy of the
append-only log, atomic snapshot writes and quarantine -- are those of
:mod:`repro.durable`.  This module adds the ``seq`` chain (a gap raises
:class:`~repro.exceptions.CheckpointCorruptionError`) and the fallback from
a damaged snapshot to the previous one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.durable import AppendLog, atomic_write, check_seal, quarantine, read_document, seal
from repro.exceptions import CheckpointCorruptionError

#: Bump when the journal/snapshot record layout changes incompatibly.
FORMAT_VERSION = 1

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_PREFIX = "snapshot-"


class Journal:
    """The service's write-ahead journal, kept in an :class:`~repro.durable.AppendLog`.

    Records are the service's commit points: a state change is durable iff
    its record round-tripped to the journal (fsynced by default), and
    recovery trusts nothing that is not in it.
    """

    def __init__(self, path: Union[str, Path], sync: bool = True):
        self.path = Path(path)
        self._log = AppendLog(self.path, sync=sync)
        self._seq = 0

    # -- writing -------------------------------------------------------
    def append(self, kind: str, **payload: object) -> int:
        """Durably append one record; returns its sequence number."""
        self._seq += 1
        self._log.append({
            "format_version": FORMAT_VERSION,
            "seq": self._seq,
            "kind": kind,
            "payload": payload,
        })
        return self._seq

    def resume_at(self, last_seq: int) -> None:
        """Continue appending after recovery replayed up to ``last_seq``."""
        self._seq = last_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    def close(self) -> None:
        """Close the underlying file handle (appends reopen it)."""
        self._log.close()

    # -- reading -------------------------------------------------------
    @staticmethod
    def load(path: Union[str, Path]) -> Tuple[List[Dict[str, object]], Optional[str]]:
        """Read and verify a journal; returns ``(records, torn_tail_note)``.

        On top of :meth:`AppendLog.load` (a torn tail is sliced off with a
        note, damage mid-file raises), a gap in the ``seq`` chain raises
        :class:`CheckpointCorruptionError` -- replaying around missing
        history would silently diverge from the pre-crash state.
        """
        records, note = AppendLog.load(path)
        for expected, record in enumerate(records, 1):
            if record.get("seq") != expected:
                raise CheckpointCorruptionError(
                    f"journal sequence broken: expected seq {expected}, "
                    f"found {record.get('seq')!r}",
                    path=path,
                )
        return records, note


class SnapshotStore:
    """Atomic, sealed snapshots of the service's scheduler state.

    Snapshots bound the blast radius of a torn journal and carry the state
    the journal does not re-derive cheaply: queue contents, consumed budget
    units, breaker circuits and per-tenant cursors/layout assignments (the
    drift reference travels as its per-object I/O counts).  ``save`` writes
    ``snapshot-<seq>.json`` atomically; ``load_latest`` walks the snapshots
    newest-first and quarantines damaged ones aside instead of failing
    recovery on them.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def save(self, seq: int, state: Dict[str, object]) -> Path:
        """Atomically persist one snapshot keyed by its journal watermark."""
        self.directory.mkdir(parents=True, exist_ok=True)
        record = seal({"format_version": FORMAT_VERSION, "seq": seq, "state": state})
        path = self.directory / f"{SNAPSHOT_PREFIX}{seq:010d}.json"
        atomic_write(path, json.dumps(record, sort_keys=True) + "\n")
        return path

    def paths(self) -> List[Path]:
        """All snapshot files, oldest first."""
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob(f"{SNAPSHOT_PREFIX}*.json"))

    def load_latest(self) -> Optional[Dict[str, object]]:
        """The newest intact snapshot record, quarantining damaged ones."""
        for path in reversed(self.paths()):
            try:
                record = read_document(path, "snapshot")
                check_seal(record, path, "snapshot")
            except CheckpointCorruptionError:
                quarantine(path)
                continue
            return record
        return None
