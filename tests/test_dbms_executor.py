"""Buffer pool, concurrency model and the workload estimator/executor."""

import pytest

from repro.dbms.buffer_pool import BufferPool
from repro.dbms.concurrency import ClosedLoopModel
from repro.dbms.executor import WorkloadEstimator
from repro.dbms.query import Query, TableAccess, WriteOp
from repro.storage import catalog as storage_catalog
from repro.storage.io_profile import IOType
from repro.workloads.workload import Workload
from tests.conftest import uniform_placement


class TestBufferPool:
    def test_zero_size_absorbs_nothing(self):
        pool = BufferPool(size_gb=0)
        counts = {"t": {IOType.RAND_READ: 100.0}}
        assert pool.absorb_reads(counts, {"t": 10.0}) == counts

    def test_small_objects_cached_first(self):
        pool = BufferPool(size_gb=1.0, read_absorption=1.0)
        fractions = pool.resident_fractions({"big": 100.0, "small": 0.5})
        assert fractions["small"] == 1.0
        assert fractions["big"] < 0.01

    def test_partial_residency(self):
        pool = BufferPool(size_gb=5.0, read_absorption=1.0)
        fractions = pool.resident_fractions({"obj": 10.0})
        assert fractions["obj"] == pytest.approx(0.5)

    def test_writes_never_absorbed(self):
        pool = BufferPool(size_gb=100.0, read_absorption=1.0)
        counts = {"t": {IOType.RAND_WRITE: 50.0, IOType.RAND_READ: 50.0}}
        adjusted = pool.absorb_reads(counts, {"t": 1.0})
        assert adjusted["t"][IOType.RAND_WRITE] == 50.0
        assert adjusted["t"][IOType.RAND_READ] == 0.0

    def test_read_absorption_cap(self):
        pool = BufferPool(size_gb=100.0, read_absorption=0.5)
        adjusted = pool.absorb_reads({"t": {IOType.SEQ_READ: 100.0}}, {"t": 1.0})
        assert adjusted["t"][IOType.SEQ_READ] == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferPool(size_gb=-1)
        with pytest.raises(ValueError):
            BufferPool(read_absorption=1.5)


class TestClosedLoopModel:
    def test_population_bound(self):
        model = ClosedLoopModel(concurrency=10, efficiency=1.0)
        estimate = model.estimate(response_time_ms=100.0, busy_time_by_class_ms={"d": 1.0})
        assert estimate.transactions_per_second == pytest.approx(100.0)
        assert estimate.population_bound_tps == pytest.approx(100.0)

    def test_bottleneck_bound(self):
        model = ClosedLoopModel(concurrency=1000, efficiency=1.0)
        estimate = model.estimate(response_time_ms=10.0, busy_time_by_class_ms={"d": 20.0})
        assert estimate.transactions_per_second == pytest.approx(50.0)
        assert estimate.bottleneck_class == "d"

    def test_efficiency_scales_throughput(self):
        full = ClosedLoopModel(concurrency=100, efficiency=1.0).estimate(10.0, {"d": 1.0})
        scaled = ClosedLoopModel(concurrency=100, efficiency=0.5).estimate(10.0, {"d": 1.0})
        assert scaled.transactions_per_second == pytest.approx(full.transactions_per_second * 0.5)

    def test_cpu_can_be_bottleneck(self):
        model = ClosedLoopModel(concurrency=1000, efficiency=1.0)
        estimate = model.estimate(response_time_ms=10.0, busy_time_by_class_ms={"d": 0.1},
                                  cpu_time_ms=80.0)
        assert estimate.bottleneck_class == "CPU"

    def test_units(self):
        estimate = ClosedLoopModel(concurrency=1).estimate(1000.0, {"d": 1.0})
        assert estimate.transactions_per_minute == pytest.approx(
            estimate.transactions_per_second * 60
        )
        assert estimate.transactions_per_hour == pytest.approx(
            estimate.transactions_per_second * 3600
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopModel(concurrency=0)
        with pytest.raises(ValueError):
            ClosedLoopModel(efficiency=0.0)
        with pytest.raises(ValueError):
            ClosedLoopModel().estimate(0.0, {})


class TestEstimatorQueries:
    def test_estimate_is_deterministic(self, small_estimator, scan_query, small_catalog):
        placement = uniform_placement(small_catalog, storage_catalog.hdd())
        first = small_estimator.estimate_query(scan_query, placement)
        second = small_estimator.estimate_query(scan_query, placement)
        assert first.response_time_ms == second.response_time_ms

    def test_estimate_faster_on_faster_device(self, small_estimator, scan_query, small_catalog):
        hdd = small_estimator.estimate_query(
            scan_query, uniform_placement(small_catalog, storage_catalog.hdd())
        )
        hssd = small_estimator.estimate_query(
            scan_query, uniform_placement(small_catalog, storage_catalog.hssd())
        )
        assert hssd.response_time_ms < hdd.response_time_ms

    def test_simulated_run_with_buffer_is_faster_than_estimate(self, small_catalog, lookup_query):
        estimator = WorkloadEstimator(small_catalog, buffer_pool=BufferPool(4.0), noise=0.0)
        placement = uniform_placement(small_catalog, storage_catalog.hdd())
        estimate = estimator.estimate_query(lookup_query, placement)
        simulated = estimator.simulate_query(lookup_query, placement)
        assert simulated.response_time_ms <= estimate.response_time_ms

    def test_noise_changes_simulated_times(self, small_catalog, scan_query):
        estimator = WorkloadEstimator(small_catalog, noise=0.1, seed=3)
        placement = uniform_placement(small_catalog, storage_catalog.hdd())
        times = {estimator.simulate_query(scan_query, placement).response_time_ms for _ in range(5)}
        assert len(times) > 1


class TestEstimatorWorkloads:
    def test_dss_total_time_is_sum_of_queries(self, small_estimator, small_workload, small_catalog):
        placement = uniform_placement(small_catalog, storage_catalog.hssd())
        result = small_estimator.estimate_workload(small_workload, placement)
        assert result.kind == "dss"
        assert len(result.per_query_times_ms) == len(small_workload.queries)
        assert result.total_time_s == pytest.approx(
            sum(t for _, t in result.per_query_times_ms) / 1000.0
        )

    def test_dss_tasks_per_hour_is_inverse_of_time(self, small_estimator, small_workload,
                                                   small_catalog):
        placement = uniform_placement(small_catalog, storage_catalog.hssd())
        result = small_estimator.estimate_workload(small_workload, placement)
        assert result.tasks_per_hour == pytest.approx(1.0 / result.total_time_hours)

    def test_io_by_object_accumulates(self, small_estimator, small_workload, small_catalog):
        placement = uniform_placement(small_catalog, storage_catalog.hssd())
        result = small_estimator.estimate_workload(small_workload, placement)
        assert "fact" in result.io_by_object
        assert result.busy_time_by_class_ms["H-SSD"] > 0

    def test_oltp_mix_produces_throughput(self, small_catalog):
        txn = Query(
            name="txn",
            accesses=(
                TableAccess("dim", selectivity=1e-4, index="dim_pkey", key_lookup=True),
            ),
            writes=(WriteOp("dim", rows=1, sequential=False),),
        )
        workload = Workload(
            name="mini-oltp",
            kind="oltp",
            transaction_mix=((txn, 1.0),),
            concurrency=50,
            measured_transaction_fraction=1.0,
        )
        estimator = WorkloadEstimator(small_catalog, noise=0.0)
        placement = uniform_placement(small_catalog, storage_catalog.hssd())
        result = estimator.estimate_workload(workload, placement)
        assert result.kind == "oltp"
        assert result.transactions_per_minute > 0
        assert result.tasks_per_hour == pytest.approx(result.throughput.transactions_per_hour)

    def test_oltp_throughput_orders_devices_correctly(self, small_catalog):
        txn = Query(
            name="txn",
            accesses=(
                TableAccess("dim", selectivity=1e-4, index="dim_pkey", key_lookup=True, repeat=5),
            ),
            writes=(WriteOp("dim", rows=2, sequential=False),),
        )
        workload = Workload(name="mini-oltp", kind="oltp", transaction_mix=((txn, 1.0),),
                            concurrency=100)
        estimator = WorkloadEstimator(small_catalog, noise=0.0)
        hdd_tpm = estimator.estimate_workload(
            workload, uniform_placement(small_catalog, storage_catalog.hdd())
        ).transactions_per_minute
        hssd_tpm = estimator.estimate_workload(
            workload, uniform_placement(small_catalog, storage_catalog.hssd())
        ).transactions_per_minute
        assert hssd_tpm > hdd_tpm * 5

    def test_query_time_lookup_and_grouping(self, small_estimator, small_workload, small_catalog):
        placement = uniform_placement(small_catalog, storage_catalog.hssd())
        result = small_estimator.estimate_workload(small_workload, placement)
        assert result.query_time_ms("scan_fact") > 0
        assert len(result.times_by_query()["scan_fact"]) == 2
        with pytest.raises(KeyError):
            result.query_time_ms("missing")
