"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Allow running the tests without installing the package (offline editable
# installs are not always possible); the src/ layout is added to sys.path.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

try:
    import pytest_timeout  # noqa: F401  (the real plugin, when installed)
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


# ---------------------------------------------------------------------------
# The `slow` marker: stress tests run in CI (or with --runslow), not in the
# edit-test loop
# ---------------------------------------------------------------------------

def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow (always run when the CI env var is set)",
    )
    if not _HAVE_PYTEST_TIMEOUT:
        # Fallback shim: own the `timeout` ini key / marker the real plugin
        # would register, so `pytest.ini` and `@pytest.mark.timeout(...)`
        # behave the same with or without pytest-timeout installed (CI
        # installs the real plugin; the shim covers bare environments).
        parser.addini(
            "timeout",
            "per-test wall-clock timeout in seconds (pytest-timeout fallback shim)",
            default="0",
        )
        parser.addoption(
            "--timeout",
            action="store",
            default=None,
            help="per-test wall-clock timeout in seconds (fallback shim)",
        )


def pytest_configure(config):
    if not _HAVE_PYTEST_TIMEOUT:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): fail the test if it runs longer (fallback shim)",
        )


def _shim_timeout_seconds(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    option = item.config.getoption("--timeout", default=None)
    if option:
        return float(option)
    try:
        return float(item.config.getini("timeout") or 0.0)
    except (TypeError, ValueError):
        return 0.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM-based per-test timeout when pytest-timeout is unavailable.

    A hung chaos test (a worker kill the recovery machinery fails to detect,
    a deadline that never fires) aborts with a clear failure instead of
    wedging the whole run.  Main-thread/Unix only -- exactly where the chaos
    suite runs; the real plugin takes over wherever it is installed.
    """
    import signal
    import threading

    seconds = 0.0
    if not _HAVE_PYTEST_TIMEOUT and threading.current_thread() is threading.main_thread():
        seconds = _shim_timeout_seconds(item)
    if seconds <= 0.0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(f"test exceeded the {seconds:g}s timeout (fallback shim)")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow") or os.environ.get("CI"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: needs --runslow (or CI)")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)

from repro.dbms.buffer_pool import BufferPool
from repro.dbms.catalog import DatabaseCatalog
from repro.dbms.datagen import SyntheticTableSpec, build_synthetic_catalog
from repro.dbms.executor import WorkloadEstimator
from repro.dbms.query import JoinSpec, Query, TableAccess, WriteOp
from repro.storage import catalog as storage_catalog
from repro.storage.io_profile import IOProfile, IOType
from repro.storage.storage_class import StorageClass, StorageSystem
from repro.workloads.workload import Workload


# ---------------------------------------------------------------------------
# Exhaustive-search worker pool
# ---------------------------------------------------------------------------

@pytest.fixture
def pool_always(monkeypatch):
    """Start the exhaustive search's worker pool whenever ``workers > 1``.

    The engine starts its pool only for at least ``POOL_MIN_LAYOUTS`` live
    layouts, far more than the small spaces tests enumerate; a test of the
    pool itself (worker boot, kills, teardown, span merging, pool identity)
    sets the threshold to 0 through this fixture and asserts that the pool
    ran.
    """
    import repro.core.parallel_search as parallel_search

    monkeypatch.setattr(parallel_search, "POOL_MIN_LAYOUTS", 0)


# ---------------------------------------------------------------------------
# Storage fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def paper_storage_classes():
    """The five paper storage classes keyed by Table 1 name."""
    return storage_catalog.all_storage_classes()


@pytest.fixture(scope="session")
def box1_system():
    """The paper's Box 1 storage system."""
    return storage_catalog.box1()


@pytest.fixture(scope="session")
def box2_system():
    """The paper's Box 2 storage system."""
    return storage_catalog.box2()


@pytest.fixture
def flat_profile():
    """A concurrency-independent I/O profile for simple arithmetic in tests."""
    return IOProfile.constant(
        {
            IOType.SEQ_READ: 0.1,
            IOType.RAND_READ: 1.0,
            IOType.SEQ_WRITE: 0.2,
            IOType.RAND_WRITE: 2.0,
        }
    )


@pytest.fixture
def two_class_system(flat_profile):
    """A tiny two-class system: a fast expensive class and a slow cheap class."""
    fast = StorageClass(
        name="fast",
        capacity_gb=100.0,
        price_cents_per_gb_hour=0.1,
        io_profile=IOProfile.constant(
            {
                IOType.SEQ_READ: 0.01,
                IOType.RAND_READ: 0.05,
                IOType.SEQ_WRITE: 0.01,
                IOType.RAND_WRITE: 0.05,
            }
        ),
    )
    slow = StorageClass(
        name="slow",
        capacity_gb=1000.0,
        price_cents_per_gb_hour=0.001,
        io_profile=IOProfile.constant(
            {
                IOType.SEQ_READ: 0.05,
                IOType.RAND_READ: 10.0,
                IOType.SEQ_WRITE: 0.05,
                IOType.RAND_WRITE: 10.0,
            }
        ),
    )
    return StorageSystem([fast, slow], name="two-class")


# ---------------------------------------------------------------------------
# DBMS fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def small_catalog() -> DatabaseCatalog:
    """A small synthetic catalog: one fact table, one dimension table."""
    return build_synthetic_catalog(
        [
            SyntheticTableSpec("fact", row_count=2_000_000, row_width_bytes=120),
            SyntheticTableSpec("dim", row_count=50_000, row_width_bytes=200),
        ],
        name="small",
    )


@pytest.fixture
def small_estimator(small_catalog) -> WorkloadEstimator:
    """Estimator over the small catalog with deterministic noise."""
    return WorkloadEstimator(small_catalog, noise=0.0, buffer_pool=None, seed=7)


@pytest.fixture
def scan_query() -> Query:
    """A full scan of the fact table."""
    return Query(name="scan_fact", accesses=(TableAccess("fact", selectivity=0.9),),
                 aggregate_rows=1_800_000)


@pytest.fixture
def lookup_query() -> Query:
    """A selective keyed lookup on the fact table."""
    return Query(
        name="lookup_fact",
        accesses=(
            TableAccess("fact", selectivity=0.0001, index="fact_pkey", key_lookup=True),
        ),
    )


@pytest.fixture
def join_query() -> Query:
    """A dim-to-fact join with an indexed inner table."""
    return Query(
        name="join_dim_fact",
        accesses=(
            TableAccess("dim", selectivity=0.01),
            TableAccess("fact", selectivity=1.0, index="fact_pkey"),
        ),
        joins=(JoinSpec(inner_position=1, rows_per_outer=5.0, inner_index="fact_pkey"),),
        aggregate_rows=2500,
    )


@pytest.fixture
def write_query() -> Query:
    """A small batch of keyed updates against the dimension table."""
    return Query(
        name="update_dim",
        writes=(WriteOp("dim", rows=100, sequential=False, indexes=("dim_pkey",)),),
    )


@pytest.fixture
def small_workload(scan_query, lookup_query, join_query, write_query) -> Workload:
    """A mixed DSS workload over the small catalog."""
    return Workload(
        name="small-mixed",
        kind="dss",
        queries=(scan_query, lookup_query, join_query, write_query, scan_query, lookup_query),
        concurrency=1,
    )


@pytest.fixture
def small_objects(small_catalog):
    """The placeable objects of the small catalog."""
    return small_catalog.database_objects()


def uniform_placement(catalog: DatabaseCatalog, storage_class: StorageClass):
    """Helper: place every catalog object on one storage class."""
    return {obj.name: storage_class for obj in catalog.database_objects()}


# ---------------------------------------------------------------------------
# Durable-write boundaries
# ---------------------------------------------------------------------------

@pytest.fixture
def durable_calls(monkeypatch):
    """Every ``os.fsync`` and ``os.replace`` call, in order.

    An fsync is recorded as ``("fsync", inode)`` of the file or directory it
    flushed, a rename as ``("replace", source name, target name)``.
    """
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        return fsync(fd)

    def recording_replace(source, target):
        calls.append(("replace", Path(source).name, Path(target).name))
        return replace(source, target)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return calls
