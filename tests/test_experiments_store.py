"""Tests for the durable experiment results store (repro.experiments.store).

Covers the store's contract end to end: spec signatures are content
addresses (stable under knob spelling, changed by any knob change), payloads
round-trip bitwise, duplicate runs deduplicate, two *processes* can append
to one store concurrently, and tampered/maimed/foreign files are refused
with typed errors instead of silently misread -- on open and on every read.
"""

from __future__ import annotations

import io
import json
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import __main__ as cli
from repro.exceptions import (
    CheckpointCorruptionError,
    ConfigurationError,
    StoreSchemaError,
)
from repro.experiments.store import (
    SCHEMA_VERSION,
    ExperimentSpec,
    ResultsStore,
    dump_payload,
)
from repro.obs import report
from repro.obs.recorder import RunRecord
from repro.resilience.faults import corrupt_file


def spec(**knobs) -> ExperimentSpec:
    return ExperimentSpec(
        experiment="tpch", scenario="tpch_original", solver="dot", seed=7, knobs=knobs
    )


PAYLOAD = {
    "data": {"toc_cents": 1.000000000000003, "psr": 0.9512381, "names": ["a", "b"]},
    "timing": {"elapsed_s": 0.25},
    "text": "table",
}


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class TestSignatures:
    def test_same_content_same_signature_regardless_of_spelling(self):
        a = spec(box="Box 1", sla_ratio=0.5, limits=[1.0, 2.0])
        b = ExperimentSpec(
            experiment="tpch",
            scenario="tpch_original",
            solver="dot",
            seed=7,
            # Different key insertion order, tuple instead of list.
            knobs={"limits": (1.0, 2.0), "sla_ratio": 0.5, "box": "Box 1"},
        )
        assert a.signature == b.signature
        assert a.canonical_json() == b.canonical_json()

    def test_any_knob_change_changes_the_signature(self):
        base = spec(box="Box 1", sla_ratio=0.5)
        assert base.signature != spec(box="Box 2", sla_ratio=0.5).signature
        assert base.signature != spec(box="Box 1", sla_ratio=0.25).signature
        assert base.signature != spec(box="Box 1", sla_ratio=0.5, extra=1).signature

    def test_non_knob_fields_feed_the_signature_too(self):
        base = spec(box="Box 1")
        changed = ExperimentSpec(
            experiment="tpch", scenario="tpch_original", solver="dot",
            seed=8, knobs={"box": "Box 1"},
        )
        assert base.signature != changed.signature

    def test_signature_is_stable_across_processes(self):
        reference = spec(box="Box 1", sla_ratio=0.5).signature
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.experiments.store import ExperimentSpec\n"
            "print(ExperimentSpec(experiment='tpch', scenario='tpch_original',"
            " solver='dot', seed=7,"
            " knobs={'box': 'Box 1', 'sla_ratio': 0.5}).signature)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == reference

    def test_nan_and_inf_knobs_are_refused(self):
        with pytest.raises(ConfigurationError):
            spec(bad=float("nan"))
        with pytest.raises(ConfigurationError):
            spec(bad=float("inf"))

    def test_non_string_mapping_keys_are_refused(self):
        with pytest.raises(ConfigurationError):
            spec(bad={1: "x"})

    def test_unserializable_knob_types_are_refused(self):
        with pytest.raises(ConfigurationError):
            spec(bad={"a", "b"})

    def test_empty_experiment_name_is_refused(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(experiment="")

    def test_from_dict_round_trip_and_unknown_field_refusal(self):
        original = spec(box="Box 1", sla_ratio=0.5)
        rebuilt = ExperimentSpec.from_dict(json.loads(original.canonical_json()))
        assert rebuilt == original
        assert rebuilt.signature == original.signature
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"experiment": "tpch", "surprise": 1})


# ---------------------------------------------------------------------------
# Round-trip, dedup
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_write_read_identical(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.sqlite")
        s = spec(box="Box 1")
        record = RunRecord(
            run_id="exp-test", kind="experiment", solver="dot",
            scenario="tpch_original", git_rev="abc1234", seed=7,
            created_unix_s=123.5, elapsed_s=0.25,
            stats={"attempts": 1},
        )
        store.record(s, PAYLOAD, record)

        loaded = store.get(s)
        assert loaded is not None
        assert loaded.spec == s
        assert loaded.signature == s.signature
        assert loaded.payload == PAYLOAD  # bitwise float round-trip
        assert loaded.record == record
        assert store.payload(s) == PAYLOAD
        assert s in store
        assert len(store) == 1

    def test_reopen_preserves_rows(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        ResultsStore(path).record(spec(box="Box 1"), PAYLOAD)
        reopened = ResultsStore(path)
        assert reopened.payload(spec(box="Box 1")) == PAYLOAD

    def test_default_provenance_is_filled_in(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.sqlite")
        stored = store.record(spec(box="Box 1"), PAYLOAD)
        assert stored.record.kind == "experiment"
        assert stored.record.solver == "dot"
        assert stored.record.run_id.startswith("exp-")

    def test_duplicate_runs_deduplicate_first_write_wins(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.sqlite")
        s = spec(box="Box 1")
        store.record(s, PAYLOAD)
        other = dict(PAYLOAD, text="a different run of the same spec")
        stored = store.record(s, other)
        assert len(store) == 1
        assert stored.payload == PAYLOAD  # the first write, not the second

    def test_missing_preserves_matrix_order(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.sqlite")
        specs = [spec(box=f"Box {i}") for i in range(5)]
        store.record(specs[1], PAYLOAD)
        store.record(specs[3], PAYLOAD)
        assert store.missing(specs) == [specs[0], specs[2], specs[4]]

    def test_iteration_in_insertion_order(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.sqlite")
        specs = [spec(box=f"Box {i}") for i in range(3)]
        for s in specs:
            store.record(s, PAYLOAD)
        assert [record.spec for record in store] == specs
        assert store.signatures() == [s.signature for s in specs]


# ---------------------------------------------------------------------------
# Concurrent writers (two processes appending to one store)
# ---------------------------------------------------------------------------

_WRITER_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.experiments.store import ExperimentSpec, ResultsStore

store = ResultsStore(sys.argv[2])
offset = int(sys.argv[3])
for i in range(20):
    spec = ExperimentSpec(
        experiment="concurrent", solver="w", seed=0,
        knobs={"writer": offset, "i": i},
    )
    store.record(spec, {"data": {"writer": offset, "i": i}})
# Both writers also race on one shared spec; exactly one row must win.
shared = ExperimentSpec(experiment="concurrent", solver="w", seed=0,
                        knobs={"shared": True})
store.record(shared, {"data": {"winner": offset}})
print(len(store.signatures()))
"""


class TestConcurrentWriters:
    def test_two_processes_appending_lose_nothing(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        src = str(Path(__file__).resolve().parent.parent / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, src, str(path), str(offset)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for offset in (0, 1)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        store = ResultsStore(path)
        # 20 unique specs per writer plus exactly one shared row.
        assert len(store) == 41
        winners = [
            record.payload["data"]["winner"]
            for record in store
            if record.spec.knobs.get("shared")
        ]
        assert winners in ([0], [1])  # one winner, never both or neither


# ---------------------------------------------------------------------------
# Refusals: schema versions, tampering, damage
# ---------------------------------------------------------------------------

class TestRefusals:
    def test_non_sqlite_file_is_refused(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        path.write_text("{\"this\": \"is json, not sqlite\"}")
        with pytest.raises(CheckpointCorruptionError):
            ResultsStore(path)

    @pytest.mark.parametrize("mode", ["truncate", "junk"])
    def test_maimed_database_is_refused(self, tmp_path, mode):
        path = tmp_path / "exp.sqlite"
        store = ResultsStore(path)
        store.record(spec(box="Box 1"), PAYLOAD)
        corrupt_file(path, mode=mode)
        with pytest.raises(CheckpointCorruptionError):
            ResultsStore(path)

    def test_future_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        ResultsStore(path)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        with pytest.raises(StoreSchemaError) as excinfo:
            ResultsStore(path)
        assert excinfo.value.found == SCHEMA_VERSION + 1
        assert excinfo.value.expected == SCHEMA_VERSION

    def test_missing_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        ResultsStore(path)
        with sqlite3.connect(path) as conn:
            conn.execute("DELETE FROM meta WHERE key = 'schema_version'")
        with pytest.raises(StoreSchemaError):
            ResultsStore(path)

    def test_sqlite_file_without_our_tables_is_refused(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE unrelated (x INTEGER)")
            conn.execute("INSERT INTO unrelated VALUES (1)")
        with pytest.raises((StoreSchemaError, CheckpointCorruptionError)):
            ResultsStore(path)

    def test_tampered_payload_fails_its_checksum_on_read(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        store = ResultsStore(path)
        s = spec(box="Box 1")
        store.record(s, PAYLOAD)
        tampered = dict(PAYLOAD)
        tampered["data"] = {"toc_cents": 999.0}
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE runs SET payload_json = ? WHERE signature = ?",
                (dump_payload(tampered), s.signature),
            )
        with pytest.raises(CheckpointCorruptionError):
            ResultsStore(path).get(s)

    def test_tampered_spec_fails_its_signature_on_read(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        store = ResultsStore(path)
        s = spec(box="Box 1")
        store.record(s, PAYLOAD)
        forged = spec(box="Box 2")
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE runs SET spec_json = ? WHERE signature = ?",
                (forged.canonical_json(), s.signature),
            )
        with pytest.raises(CheckpointCorruptionError):
            ResultsStore(path).get(s)

    def test_payload_with_nan_is_refused_at_write_time(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.sqlite")
        with pytest.raises(ValueError):
            store.record(spec(box="Box 1"), {"data": {"bad": float("nan")}})


# ---------------------------------------------------------------------------
# Every read of a store damaged at rest raises a typed error
# ---------------------------------------------------------------------------

#: Each read the store serves, as ``(store, damaged spec) -> anything``.
READS = {
    "get": lambda store, damaged: store.get(damaged),
    "payload": lambda store, damaged: store.payload(damaged),
    "contains": lambda store, damaged: damaged in store,
    "signatures": lambda store, damaged: store.signatures(),
    "missing": lambda store, damaged: store.missing([damaged]),
    "iter": lambda store, damaged: list(iter(store)),
    "load_all": lambda store, damaged: store.load_all(),
    "len": lambda store, damaged: len(store),
    "summary": lambda store, damaged: report.summarize_store(store, out=io.StringIO()),
    "run --dry-run": lambda store, damaged: cli.main(
        ["run", "--scale", "small", "--dry-run", "--store", str(store.path)]),
}

#: First byte of a leaf index b-tree page in the SQLite file format.
_LEAF_INDEX_PAGE = 0x0A


@pytest.fixture(scope="module")
def damaged_store(tmp_path_factory):
    """200 rows with a 500-byte knob, then the first 100 bytes garbled of the
    file's last page (table rows) and of the index leaf holding the largest
    signature (which ``COUNT(*)`` and ``get`` read).  Returns the reopened
    store and the spec whose index entry is damaged."""
    path = tmp_path_factory.mktemp("damaged") / "exp.sqlite"
    store = ResultsStore(path)
    specs = [spec(i=i, pad="x" * 500) for i in range(200)]
    for s in specs:
        store.record(s, PAYLOAD)
    damaged = max(specs, key=lambda s: s.signature)
    with sqlite3.connect(path) as conn:
        (page_size,) = conn.execute("PRAGMA page_size").fetchone()
    data = bytearray(path.read_bytes())
    pages = [data[start:start + page_size] for start in range(0, len(data), page_size)]
    index_leaf = next(
        number for number, page in enumerate(pages)
        if page[0] == _LEAF_INDEX_PAGE and damaged.signature.encode() in page
    )
    for start in (len(data) - page_size, index_leaf * page_size):
        data[start:start + 100] = bytes(range(100))
    path.write_bytes(bytes(data))
    return ResultsStore(path), damaged  # the store still opens


@pytest.mark.parametrize("read", sorted(READS))
def test_every_read_of_a_damaged_store_raises_naming_it(damaged_store, read):
    store, damaged = damaged_store
    with pytest.raises(CheckpointCorruptionError, match="unreadable") as info:
        READS[read](store, damaged)
    assert str(store.path) in str(info.value)
