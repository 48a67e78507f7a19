"""Durable writes: the one crash-safety primitive under every on-disk format.

Parallel-search checkpoints (:class:`~repro.core.parallel_search.SearchProgress`),
the service journal and snapshots (:mod:`repro.service.journal`) and the obs
run store (:class:`~repro.obs.recorder.RunStore`) must each survive a crash
at any write boundary.  Each keeps only its schema; the mechanics live here:

* **Seals** -- :func:`checksum` is SHA-256 over a record's canonical JSON
  (sorted keys, compact separators, the ``checksum`` key excluded).
  :func:`seal` stamps it; :func:`check_seal` refuses a record whose stamp
  does not match.
* **Whole documents** -- :func:`atomic_write` writes ``<name>.tmp``, fsyncs
  it, renames it over the target and fsyncs the directory, so a crash
  leaves either the old file or the new one.  :func:`read_document` turns
  every way a file can be unreadable (an I/O error, non-UTF-8 bytes,
  invalid JSON, a non-object) into
  :class:`~repro.exceptions.CheckpointCorruptionError` naming the path, and
  :func:`quarantine` renames a damaged file aside to ``<name>.quarantined``.
* **Append logs** -- :class:`AppendLog` is a JSONL file of sealed records.
  A record is committed once its whole line, newline included, is on disk.
  Only the final line may be torn (no newline, unparseable, or a failed
  seal): the reader slices it off with a note, and the writer truncates
  those same bytes before its first append, so a new record never joins a
  partial line.  A bad line with any line after it was damaged at rest and
  raises, naming the file and the line.

``os.fsync`` and ``os.replace`` are looked up on :mod:`os` at every call, so
a crash harness or an fsync counter patched onto :mod:`os` sees each one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import CheckpointCorruptionError

Record = Dict[str, object]
PathLike = Union[str, Path]


def checksum(record: Record) -> str:
    """SHA-256 over the canonical JSON form (the ``checksum`` key excluded)."""
    canonical = json.dumps(
        {key: value for key, value in record.items() if key != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def seal(record: Record) -> Record:
    """Stamp ``record`` with its checksum (in place) and return it."""
    record["checksum"] = checksum(record)
    return record


def check_seal(record: Record, path: Optional[PathLike], what: str) -> None:
    """Raise :class:`CheckpointCorruptionError` naming ``path`` unless the seal holds."""
    recorded = record.get("checksum")
    if recorded != checksum(record):
        raise CheckpointCorruptionError(
            f"{what} failed its checksum"
            + ("" if recorded is not None else " (checksum missing)"),
            path=path,
        )


def atomic_write(path: PathLike, text: str) -> None:
    """Replace the file at ``path`` with ``text``; a crash leaves old or new."""
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    with scratch.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def read_document(path: PathLike, what: str) -> Record:
    """The JSON object stored at ``path``; any damage raises naming the file.

    The seal is not checked here: callers check their format version first,
    so a file from an incompatible writer stays a
    :class:`~repro.exceptions.ConfigurationError`.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_bytes().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptionError(f"{what} is unreadable: {exc}", path=path) from exc
    if not isinstance(document, dict):
        raise CheckpointCorruptionError(
            f"{what} is a JSON {type(document).__name__}, not an object", path=path
        )
    return document


def quarantine(path: PathLike) -> Path:
    """Rename a damaged file aside to ``<name>.quarantined``; returns the new path."""
    path = Path(path)
    target = path.with_name(path.name + ".quarantined")
    os.replace(path, target)
    return target


class AppendLog:
    """An append-only JSONL file of sealed records, one per line.

    The file opens lazily on the first append, so read-only consumers never
    create one; that first append also cuts a torn tail left by a crash.
    With ``sync`` every append is fsynced before it returns.
    """

    def __init__(self, path: PathLike, sync: bool = True):
        self.path = Path(path)
        self.sync = sync
        self._handle = None

    def append(self, record: Record) -> None:
        """Seal ``record`` and commit it as one line."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _, committed, torn = _scan(self.path)
            self._handle = self.path.open("a", encoding="utf-8")
            if torn is not None:
                self._handle.truncate(committed)
        self._handle.write(json.dumps(seal(record), sort_keys=True) + "\n")
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the file (a later append reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def load(path: PathLike) -> Tuple[List[Record], Optional[str]]:
        """The committed records and a note on the torn tail sliced off (or ``None``)."""
        records, _, torn = _scan(Path(path))
        return records, torn


def _scan(path: Path) -> Tuple[List[Record], int, Optional[str]]:
    """``(records, committed bytes, torn-tail note)`` of an append log."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0, None
    *lines, tail = data.split(b"\n")
    records: List[Record] = []
    for lineno, line in enumerate(lines, 1):
        record, why = _parse(line)
        if why is None:
            records.append(record)
        elif lineno < len(lines) or tail:
            raise CheckpointCorruptionError(
                f"log damaged at line {lineno} ({why}) with lines after it", path=path
            )
        else:
            return records, len(data) - len(line) - 1, _torn_note(lineno, why, records)
    if tail:
        return records, len(data) - len(tail), _torn_note(len(lines) + 1, "no newline", records)
    return records, len(data), None


def _parse(line: bytes) -> Tuple[Optional[Record], Optional[str]]:
    """One log line as ``(record, None)``, or ``(None, why it is bad)``."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, "unparseable line"
    if not isinstance(record, dict) or record.get("checksum") != checksum(record):
        return None, "checksum mismatch"
    return record, None


def _torn_note(lineno: int, why: str, records: List[Record]) -> str:
    return f"torn tail at line {lineno} ({why}) sliced off; {len(records)} intact records"

