"""The durable results store: specs, signatures, and SQLite.

Every paper figure used to be produced by a per-figure benchmark script whose
numbers lived only as transient CI artifacts.  This module is the substrate
that replaces that: an :class:`ExperimentSpec` names one experimental arm
(scenario, solver, seed, knobs) with a **content-addressed signature** (the
SHA-256 of its canonical JSON), and a :class:`ResultsStore` is a single
SQLite file recording one row per executed spec -- the spec itself, the
figure-data payload the run produced, and a :class:`~repro.obs.recorder.
RunRecord` of provenance (git revision, seed, run stats, span tree).  The
orchestrator (:mod:`repro.experiments.orchestrator`) diffs a declarative
matrix against the store and executes only the missing signatures; the
``figures`` CLI regenerates every paper figure *from the store* with no
hand-transcribed numbers.

It is also the one run store: every solve, online run and service session
recorded by :mod:`repro.obs.recorder` is a row whose spec is
``ExperimentSpec(experiment=<kind>, ..., knobs={"run_id": ...})`` and whose
payload is ``{"record": <the RunRecord>}``, so the payload checksum covers
the record (the row's record column keeps only its header: no stats or
spans).  ``python -m repro.obs.report`` lists both kinds of row.

Integrity rules, in the spirit of the checkpoint layer it mirrors:

* the store refuses files that are not SQLite databases or that fail to read
  (:class:`~repro.exceptions.CheckpointCorruptionError`, on open and on
  every read), and healthy databases written under a different
  ``SCHEMA_VERSION`` (:class:`~repro.exceptions.StoreSchemaError`) --
  silently misreading a tampered or stale store is how wrong numbers end up
  in a paper;
* every row carries the SHA-256 of its payload JSON, verified on read;
* writes are idempotent: recording an already-present signature is a no-op
  (``INSERT OR IGNORE`` keyed by signature), so duplicate runs deduplicate
  and concurrent writers -- two sweep processes appending to one store --
  are safe under SQLite's own locking plus a generous busy timeout.

Floats round-trip bitwise through the store: payloads are serialized with
:func:`json.dumps` (shortest-repr floats, ``allow_nan=False`` -- use ``None``
for "no value", never NaN), so a payload read back compares ``==`` to the
payload recorded.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.exceptions import CheckpointCorruptionError, ConfigurationError, StoreSchemaError
from repro.obs.recorder import RunRecord, new_record

#: Version of the on-disk schema; bumped on any incompatible change.
SCHEMA_VERSION = 1

#: The 16-byte magic every SQLite 3 database file starts with.
_SQLITE_MAGIC = b"SQLite format 3\x00"

#: How long a writer waits on a locked database before giving up (seconds).
_BUSY_TIMEOUT_S = 30.0


def _canonical_value(value, path: str = "knobs"):
    """Deep-convert ``value`` to canonical JSON-native types.

    Tuples become lists, mapping keys must be strings, and anything JSON
    cannot represent exactly (sets, objects, NaN/inf) is refused -- a spec
    signature must be a pure function of portable data.
    """
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"spec field {path} is {value!r}; NaN/inf have no canonical JSON "
                "form -- use None"
            )
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, Mapping):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"spec field {path} has non-string key {key!r}; knob mappings "
                    "must be JSON objects"
                )
            out[key] = _canonical_value(value[key], f"{path}.{key}")
        return out
    raise ConfigurationError(
        f"spec field {path} has unserializable type {type(value).__name__}; "
        "knobs must be JSON-native (str/int/float/bool/None/list/dict)"
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """One experimental arm: what to run, on what, with which knobs.

    ``experiment`` is the registered experiment kind (``"fig3"``, ``"fig9"``,
    ``"table1"``, ...), ``scenario`` the scenario-registry name the kind
    draws on, ``solver`` a label for the solver (set) it exercises, ``seed``
    the RNG seed threaded to the executor, and ``knobs`` the kind-specific
    parameters (box, scale factor, capacity limit, ...).  Two specs with the
    same canonical content share a :attr:`signature` regardless of knob
    insertion order or tuple-vs-list spelling; any content change produces a
    new signature -- the store is content-addressed by construction.
    """

    experiment: str
    scenario: str = ""
    solver: str = ""
    seed: int = 0
    knobs: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ConfigurationError("an ExperimentSpec needs a non-empty experiment name")
        object.__setattr__(self, "knobs", _canonical_value(dict(self.knobs)))

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, object]:
        """The spec as canonical JSON-native data."""
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "solver": self.solver,
            "seed": int(self.seed),
            "knobs": self.knobs,
        }

    def canonical_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators."""
        return json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @property
    def signature(self) -> str:
        """Content address: SHA-256 hex digest of the canonical JSON."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        """Rebuild a spec from its canonical dict (matrix files, store rows)."""
        known = {"experiment", "scenario", "solver", "seed", "knobs"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"experiment spec has unknown fields {unknown}; expected {sorted(known)}"
            )
        return cls(
            experiment=str(data.get("experiment", "")),
            scenario=str(data.get("scenario", "")),
            solver=str(data.get("solver", "")),
            seed=int(data.get("seed", 0)),
            knobs=dict(data.get("knobs", {})),
        )


def payload_checksum(payload_json: str) -> str:
    """SHA-256 of a payload's JSON serialization."""
    return hashlib.sha256(payload_json.encode("utf-8")).hexdigest()


def dump_payload(payload: Mapping[str, object]) -> str:
    """Serialize a payload the way the store does (bitwise round-trip)."""
    return json.dumps(payload, sort_keys=True, allow_nan=False)


@dataclass
class ExperimentRecord:
    """One stored run: the spec, its figure-data payload, and provenance."""

    spec: ExperimentSpec
    signature: str
    payload: Dict[str, object]
    #: Provenance (git rev, seed, stats, spans); for a recorded run,
    #: the run's own record, read from the payload.
    record: RunRecord

    @property
    def experiment(self) -> str:
        """The experiment kind this run belongs to."""
        return self.spec.experiment


class ResultsStore:
    """A single-file SQLite store of experiment runs, keyed by signature.

    Connections are opened per operation (no long-lived handle), so one
    store object is safe to share across the orchestrator's worker threads
    and across processes appending concurrently.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._verify_or_init()

    # -- connection / schema -------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S)
        conn.execute(f"PRAGMA busy_timeout = {int(_BUSY_TIMEOUT_S * 1000)}")
        return conn

    def _verify_or_init(self) -> None:
        existing = self.path.exists() and self.path.stat().st_size > 0
        if existing:
            with self.path.open("rb") as handle:
                magic = handle.read(len(_SQLITE_MAGIC))
            if magic != _SQLITE_MAGIC:
                raise CheckpointCorruptionError(
                    "results store is not a SQLite database (bad file header)",
                    path=self.path,
                )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with self._connect() as conn:
                if existing:
                    self._verify_schema(conn)
                    return
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta ("
                    " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES "
                    f"('schema_version', '{SCHEMA_VERSION}')"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS runs ("
                    " signature TEXT PRIMARY KEY,"
                    " experiment TEXT NOT NULL,"
                    " scenario TEXT,"
                    " solver TEXT,"
                    " seed INTEGER,"
                    " spec_json TEXT NOT NULL,"
                    " payload_json TEXT NOT NULL,"
                    " payload_sha256 TEXT NOT NULL,"
                    " record_json TEXT NOT NULL,"
                    " git_rev TEXT,"
                    " created_unix_s REAL,"
                    " elapsed_s REAL)"
                )
                # A freshly created file may still be a racing second writer's
                # view of an existing store; verify what actually landed.
                self._verify_schema(conn)
        except sqlite3.DatabaseError as exc:
            raise CheckpointCorruptionError(
                f"results store failed to open: {exc}", path=self.path
            ) from exc

    def _verify_schema(self, conn: sqlite3.Connection) -> None:
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            conn.execute("SELECT signature FROM runs LIMIT 1").fetchone()
        except sqlite3.DatabaseError as exc:
            raise CheckpointCorruptionError(
                f"results store is unreadable: {exc}", path=self.path
            ) from exc
        if row is None:
            raise StoreSchemaError(
                "results store records no schema_version",
                path=self.path, found=None, expected=SCHEMA_VERSION,
            )
        try:
            found = int(row[0])
        except (TypeError, ValueError):
            found = row[0]
        if found != SCHEMA_VERSION:
            raise StoreSchemaError(
                f"results store schema_version {found!r} != supported "
                f"{SCHEMA_VERSION}; re-run the experiments into a fresh store",
                path=self.path, found=found, expected=SCHEMA_VERSION,
            )

    # -- writes --------------------------------------------------------
    def record(
        self,
        spec: ExperimentSpec,
        payload: Mapping[str, object],
        record: Optional[RunRecord] = None,
    ) -> ExperimentRecord:
        """Record one completed run; idempotent on the spec signature.

        Returns the row now in the store -- the freshly written one, or the
        pre-existing one when the signature was already recorded (duplicate
        runs deduplicate; first write wins).
        """
        signature = spec.signature
        payload_json = dump_payload(payload)
        if record is None:
            record = new_record("experiment", spec.solver, run_id=f"exp-{signature[:12]}",
                                scenario=spec.scenario or None, seed=spec.seed)
        record_json = record.to_json_line()
        try:
            with self._connect() as conn:
                conn.execute(
                    "INSERT OR IGNORE INTO runs (signature, experiment, scenario,"
                    " solver, seed, spec_json, payload_json, payload_sha256,"
                    " record_json, git_rev, created_unix_s, elapsed_s)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        signature,
                        spec.experiment,
                        spec.scenario,
                        spec.solver,
                        int(spec.seed),
                        spec.canonical_json(),
                        payload_json,
                        payload_checksum(payload_json),
                        record_json,
                        record.git_rev,
                        float(record.created_unix_s),
                        float(record.elapsed_s),
                    ),
                )
        except sqlite3.DatabaseError as exc:
            raise CheckpointCorruptionError(
                f"results store rejected a write: {exc}", path=self.path
            ) from exc
        stored = self.get(signature)
        assert stored is not None  # the row was just inserted or already present
        return stored

    # -- reads ---------------------------------------------------------
    def _read(self, sql: str, params: Sequence[object] = ()) -> List[tuple]:
        """All rows of one query; a damaged file raises naming the store."""
        try:
            with self._connect() as conn:
                return conn.execute(sql, params).fetchall()
        except sqlite3.DatabaseError as exc:
            raise CheckpointCorruptionError(
                f"results store is unreadable: {exc}", path=self.path
            ) from exc

    def _row_to_record(self, row) -> ExperimentRecord:
        signature, spec_json, payload_json, payload_sha, record_json = row
        if payload_checksum(payload_json) != payload_sha:
            raise CheckpointCorruptionError(
                f"results store row {signature[:12]}... failed its payload "
                "checksum (tampered or torn write)",
                path=self.path,
            )
        try:
            spec = ExperimentSpec.from_dict(json.loads(spec_json))
            payload = json.loads(payload_json)
            record = RunRecord.from_dict(
                payload["record"] if "record" in payload else json.loads(record_json)
            )
        except (ValueError, TypeError, ConfigurationError) as exc:
            raise CheckpointCorruptionError(
                f"results store row {signature[:12]}... is unreadable: {exc}",
                path=self.path,
            ) from exc
        if spec.signature != signature:
            raise CheckpointCorruptionError(
                f"results store row {signature[:12]}... holds a spec whose "
                "content hashes differently (tampered row)",
                path=self.path,
            )
        return ExperimentRecord(
            spec=spec, signature=signature, payload=payload, record=record
        )

    _SELECT = (
        "SELECT signature, spec_json, payload_json, payload_sha256, record_json"
        " FROM runs"
    )

    def get(
        self, spec_or_signature: Union[ExperimentSpec, str]
    ) -> Optional[ExperimentRecord]:
        """The stored run for a spec (or raw signature), or ``None``."""
        signature = (
            spec_or_signature.signature
            if isinstance(spec_or_signature, ExperimentSpec)
            else str(spec_or_signature)
        )
        rows = self._read(f"{self._SELECT} WHERE signature = ?", (signature,))
        return self._row_to_record(rows[0]) if rows else None

    def payload(self, spec: ExperimentSpec) -> Optional[Dict[str, object]]:
        """Shorthand: the stored payload for a spec, or ``None``."""
        record = self.get(spec)
        return record.payload if record is not None else None

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.get(spec) is not None

    def signatures(self) -> List[str]:
        """Every recorded signature, in insertion (rowid) order."""
        return [row[0] for row in self._read("SELECT signature FROM runs ORDER BY rowid")]

    def missing(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentSpec]:
        """The subset of ``specs`` not yet recorded, preserving order."""
        present = set(self.signatures())
        return [spec for spec in specs if spec.signature not in present]

    def __iter__(self) -> Iterator[ExperimentRecord]:
        for row in self._read(f"{self._SELECT} ORDER BY rowid"):
            yield self._row_to_record(row)

    def load_all(self) -> List[ExperimentRecord]:
        """Every stored run, in insertion order."""
        return list(self)

    def __len__(self) -> int:
        (count,) = self._read("SELECT COUNT(*) FROM runs")[0]
        return int(count)


__all__ = [
    "SCHEMA_VERSION",
    "ExperimentRecord",
    "ExperimentSpec",
    "ResultsStore",
    "dump_payload",
    "payload_checksum",
]
