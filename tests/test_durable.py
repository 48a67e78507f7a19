"""Crash safety of :mod:`repro.durable` and the four formats built on it.

* **Contracts** -- the canonical checksum, typed reads that name the file,
  quarantine, the atomic write's fsync/rename order and the append log's
  torn-tail policy.
* **Byte-cut sweep** -- every cut of the journal's or the run store's last
  record loads the older records, and a following append then loads
  cleanly.
* **Crash points** -- a child process runs one durable write (a snapshot
  save, a checkpoint save, a journal append, a run-store append) with
  ``os.fsync`` and ``os.replace`` patched to ``os._exit`` just before, or
  just after, their k-th call, for every k the write makes.  The parent
  then recovers and must find the old state or the new one, never a third.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.parallel_search import SearchProgress
from repro.durable import (
    AppendLog,
    atomic_write,
    check_seal,
    checksum,
    quarantine,
    read_document,
    seal,
)
from repro.exceptions import CheckpointCorruptionError
from repro.obs.recorder import RunRecord, RunStore
from repro.resilience import corrupt_file
from repro.service.journal import Journal, SnapshotStore

#: Exit status of a child killed at a crash point.
CRASHED = 86
KINDS = ("snapshot", "checkpoint", "journal", "run_store")


# ---------------------------------------------------------------------------
# Seals, documents, quarantine
# ---------------------------------------------------------------------------

def test_checksum_is_sha256_of_the_canonical_json_without_the_checksum_key():
    record = {"b": 1, "a": [1.5, None, "x"], "checksum": "ignored"}
    canonical = b'{"a":[1.5,null,"x"],"b":1}'
    assert checksum(record) == hashlib.sha256(canonical).hexdigest()


def test_seal_round_trips_and_a_broken_seal_names_the_file(tmp_path):
    record = seal({"seq": 1, "state": {"tick": 3}})
    check_seal(record, tmp_path / "doc.json", "document")
    record["state"]["tick"] = 4
    with pytest.raises(CheckpointCorruptionError, match="document failed its checksum") as info:
        check_seal(record, tmp_path / "doc.json", "document")
    assert str(tmp_path / "doc.json") in str(info.value)
    del record["checksum"]
    with pytest.raises(CheckpointCorruptionError, match="checksum missing"):
        check_seal(record, tmp_path / "doc.json", "document")


@pytest.mark.parametrize("mode", ["truncate", "garble", "junk", "list", "missing"])
def test_read_document_refuses_every_damage_by_path(tmp_path, mode):
    path = tmp_path / "doc.json"
    atomic_write(path, json.dumps(seal({"rows": list(range(40))})) + "\n")
    if mode == "list":
        path.write_text("[1, 2]\n")
    elif mode == "missing":
        path.unlink()
    else:
        corrupt_file(path, mode, seed=3)
    with pytest.raises(CheckpointCorruptionError) as info:
        read_document(path, "document")
    assert str(path) in str(info.value)


def test_atomic_write_fsyncs_the_file_then_renames_then_fsyncs_the_directory(
        tmp_path, durable_calls):
    path = tmp_path / "doc.json"
    atomic_write(path, "{}\n")
    assert durable_calls == [
        ("fsync", path.stat().st_ino),
        ("replace", "doc.json.tmp", "doc.json"),
        ("fsync", tmp_path.stat().st_ino),
    ]
    assert sorted(tmp_path.iterdir()) == [path]


def test_quarantine_renames_the_file_aside(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("junk")
    assert quarantine(path) == tmp_path / "doc.json.quarantined"
    assert not path.exists()
    assert (tmp_path / "doc.json.quarantined").read_text() == "junk"


# ---------------------------------------------------------------------------
# The append log's torn-tail policy
# ---------------------------------------------------------------------------

def _log_of(tmp_path, count):
    log = AppendLog(tmp_path / "log.jsonl")
    for n in range(count):
        log.append({"n": n})
    log.close()
    return log.path


def test_a_missing_log_is_empty_and_only_an_append_creates_it(tmp_path):
    log = AppendLog(tmp_path / "sub" / "log.jsonl")
    assert AppendLog.load(log.path) == ([], None)
    assert not log.path.parent.exists()
    log.append({"n": 0})
    log.close()
    records, note = AppendLog.load(log.path)
    assert [record["n"] for record in records] == [0] and note is None


@pytest.mark.parametrize("tail, why", [
    (b'{"n": 2, "chec', "no newline"),
    (json.dumps(seal({"n": 2}), sort_keys=True).encode(), "no newline"),
    (b'{"n": 2, "chec\n', "unparseable line"),
    (b'{"n": 2}\n', "checksum mismatch"),
])
def test_a_bad_final_line_is_a_torn_tail(tmp_path, tail, why):
    path = _log_of(tmp_path, 2)
    with path.open("ab") as handle:
        handle.write(tail)
    records, note = AppendLog.load(path)
    assert [record["n"] for record in records] == [0, 1]
    assert note is not None and "line 3" in note and why in note


@pytest.mark.parametrize("damage", [b"\xff\xfe not utf-8", b"not json", b""])
def test_a_bad_line_with_lines_after_it_raises_naming_the_file_and_line(tmp_path, damage):
    path = _log_of(tmp_path, 3)
    lines = path.read_bytes().split(b"\n")
    lines[1] = damage
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CheckpointCorruptionError, match="line 2") as info:
        AppendLog.load(path)
    assert str(path) in str(info.value)
    with pytest.raises(CheckpointCorruptionError, match="line 2"):
        AppendLog(path).append({"n": 3})


def test_garbled_log_raises_naming_the_file(tmp_path):
    path = _log_of(tmp_path, 6)
    corrupt_file(path, "garble", seed=3)
    with pytest.raises(CheckpointCorruptionError) as info:
        AppendLog.load(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# The four formats: one write each, then recovery
# ---------------------------------------------------------------------------

def _write(kind: str, state: Path, version: int) -> None:
    """Write ``version`` of one format's state into the directory ``state``."""
    state.mkdir(parents=True, exist_ok=True)
    if kind == "snapshot":
        SnapshotStore(state).save(version, {"tick": version})
    elif kind == "checkpoint":
        SearchProgress(total_shards=4, completed=set(range(version))).save(
            state / "progress.json")
    elif kind == "journal":
        journal = Journal(state / "journal.jsonl")
        journal.resume_at(version - 1)
        journal.append("tick", tick=version)
        journal.close()
    else:
        store = RunStore(state)
        store.append(RunRecord(run_id=f"run-{version}", kind="solve", solver="es"))
        store.close()


def _recover(kind: str, state: Path) -> int:
    """The version a recovery finds in ``state`` (it may raise)."""
    if kind == "snapshot":
        return SnapshotStore(state).load_latest()["seq"]
    if kind == "checkpoint":
        return len(SearchProgress.load_or_quarantine(state / "progress.json").completed)
    if kind == "journal":
        return len(Journal.load(state / "journal.jsonl")[0])
    return len(RunStore(state).load())


@pytest.mark.parametrize("kind", ["journal", "run_store"])
def test_every_cut_of_the_last_append_recovers_and_then_appends_cleanly(tmp_path, kind):
    for version in (1, 2):
        _write(kind, tmp_path, version)
    (path,) = tmp_path.iterdir()
    intact = path.read_bytes()
    first_line = intact.index(b"\n") + 1
    for cut in range(first_line, len(intact)):
        path.write_bytes(intact[:cut])
        assert _recover(kind, tmp_path) == 1, cut
        assert (AppendLog.load(path)[1] is None) == (cut == first_line), cut
        _write(kind, tmp_path, 2)
        assert _recover(kind, tmp_path) == 2, cut
        assert AppendLog.load(path)[1] is None, cut


def crash_during_write(kind: str, state: str, crash_call: int, when: str) -> None:
    """Child side of the harness: write version 2, dying at one durable call.

    ``crash_call`` counts ``os.fsync`` and ``os.replace`` calls together;
    ``when`` is ``"before"`` or ``"after"`` that call.
    """
    calls = 0

    def crashing(real):
        def call(*args):
            nonlocal calls
            calls += 1
            if calls == crash_call and when == "before":
                os._exit(CRASHED)
            result = real(*args)
            if calls == crash_call and when == "after":
                os._exit(CRASHED)
            return result
        return call

    os.fsync, os.replace = crashing(os.fsync), crashing(os.replace)
    _write(kind, Path(state), 2)


@pytest.mark.parametrize("kind", KINDS)
def test_a_crash_at_every_durable_call_recovers_the_old_or_the_new_state(
        tmp_path, kind, durable_calls):
    _write(kind, tmp_path / "probe", 1)
    durable_calls.clear()
    _write(kind, tmp_path / "probe", 2)
    crash_points = [(call, when) for call in range(1, len(durable_calls) + 1)
                    for when in ("before", "after")]
    assert crash_points

    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir)]))
    children = []
    for call, when in crash_points:
        state = tmp_path / f"{call}-{when}"
        _write(kind, state, 1)
        children.append((state, subprocess.Popen(
            [sys.executable, "-c",
             "import test_durable; test_durable.crash_during_write"
             f"({kind!r}, {str(state)!r}, {call}, {when!r})"],
            env=env, stderr=subprocess.PIPE, text=True,
        )))
    found = []
    for state, child in children:
        _, stderr = child.communicate(timeout=120)
        assert child.returncode == CRASHED, stderr
        found.append(_recover(kind, state))
    # Old or new at every point, never old again once new, new once done.
    assert set(found) <= {1, 2}
    assert found == sorted(found) and found[-1] == 2, found
