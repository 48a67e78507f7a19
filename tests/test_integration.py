"""End-to-end integration tests: the paper's experiments at reduced scale.

These tests run the full pipeline (catalog -> workload -> profiling -> DOT ->
validation -> measurement) on scaled-down TPC-H / TPC-C instances and assert
the *shape* of the paper's headline results rather than absolute numbers.
"""

import pytest

from repro.experiments import figures
from repro.sla.constraints import ResponseTimeConstraint


@pytest.fixture(scope="module")
def tpch_box1_small():
    """Original TPC-H comparison on Box 1 at a small scale factor."""
    return figures.tpch_comparison("Box 1", sla_ratio=0.5, workload_kind="original",
                                   scale_factor=2, repetitions=1)


class TestTPCHComparison:
    def test_dot_cheaper_than_all_hssd(self, tpch_box1_small):
        by_name = {e.layout_name: e for e in tpch_box1_small["evaluations"]}
        assert by_name["DOT"].toc_cents < by_name["All H-SSD"].toc_cents

    def test_all_hssd_meets_its_own_sla(self, tpch_box1_small):
        by_name = {e.layout_name: e for e in tpch_box1_small["evaluations"]}
        assert by_name["All H-SSD"].psr == pytest.approx(1.0)

    def test_dot_psr_not_worse_than_cheap_simple_layouts(self, tpch_box1_small):
        by_name = {e.layout_name: e for e in tpch_box1_small["evaluations"]}
        cheapest_simple = by_name["All HDD RAID 0"]
        assert by_name["DOT"].psr >= cheapest_simple.psr - 1e-9

    def test_dot_layout_satisfies_capacity(self, tpch_box1_small):
        assert tpch_box1_small["dot_layout"].satisfies_capacity()

    def test_oa_layout_present(self, tpch_box1_small):
        names = {e.layout_name for e in tpch_box1_small["evaluations"]}
        assert "OA" in names

    def test_text_rendering(self, tpch_box1_small):
        assert "DOT" in tpch_box1_small["text"]


class TestModifiedWorkloadComparison:
    @pytest.fixture(scope="class")
    def modified_result(self):
        return figures.tpch_comparison("Box 2", sla_ratio=0.5, workload_kind="modified",
                                       scale_factor=2, repetitions=2)

    def test_dot_meets_sla_better_than_cheap_layouts(self, modified_result):
        by_name = {e.layout_name: e for e in modified_result["evaluations"]}
        assert by_name["DOT"].psr >= by_name["All HDD"].psr

    def test_modified_workload_uses_more_hssd_than_original(self, modified_result,
                                                            tpch_box1_small=None):
        """For the random-I/O-heavy modified workload DOT keeps more data on
        the fast device than the cheapest class."""
        layout = modified_result["dot_layout"]
        used = layout.space_used_gb()
        assert used["H-SSD"] > 0


class TestESvsDOT:
    @pytest.fixture(scope="class")
    def es_comparison(self):
        return figures.es_vs_dot_tpch(
            scale_factor=2,
            sla_ratio=0.5,
            repetitions=1,
            capacity_limits_gb={"Box 1": {}, "Box 2": {}},
        )

    def test_both_methods_find_feasible_layouts(self, es_comparison):
        for box_result in es_comparison.values():
            assert box_result["dot"].feasible
            assert box_result["es"].feasible

    def test_dot_toc_close_to_es(self, es_comparison):
        """Paper: DOT's TOC within ~16 % of ES in most cases.  At the tiny
        scale factor used for tests the greedy walk loses a little more, so
        the bound here is 50 %; the full-scale benchmark records the actual
        gap in EXPERIMENTS.md."""
        for box_result in es_comparison.values():
            assert box_result["dot"].toc_cents <= box_result["es"].toc_cents * 1.5

    def test_dot_evaluates_orders_of_magnitude_fewer_layouts(self, es_comparison):
        for box_result in es_comparison.values():
            assert box_result["dot_evaluated"] * 10 < box_result["es_evaluated"]


class TestTPCCExperiment:
    @pytest.fixture(scope="class")
    def tpcc_result(self):
        return {
            box: figures.figure8_box(box, warehouses=20, sla_ratios=(0.5, 0.125),
                                     concurrency=100)
            for box in ("Box 1", "Box 2")
        }

    def test_dot_toc_not_worse_than_all_hssd(self, tpcc_result):
        for box_result in tpcc_result.values():
            by_name = {e.layout_name: e for e in box_result["evaluations"]}
            dot_entries = [e for name, e in by_name.items() if name.startswith("DOT")]
            assert dot_entries, "DOT produced no feasible layouts"
            for entry in dot_entries:
                assert entry.toc_cents <= by_name["All H-SSD"].toc_cents * 1.001

    def test_all_hdd_is_cheap_but_slow(self, tpcc_result):
        for box_result in tpcc_result.values():
            by_name = {e.layout_name: e for e in box_result["evaluations"]}
            hdd_name = "All HDD" if "All HDD" in by_name else "All HDD RAID 0"
            assert by_name[hdd_name].transactions_per_minute < (
                by_name["All H-SSD"].transactions_per_minute / 3
            )

    def test_looser_sla_never_increases_dot_toc(self, tpcc_result):
        for box_result in tpcc_result.values():
            outcomes = box_result["dot_results"]
            feasible = {ratio: out for ratio, out in outcomes.items() if out.feasible}
            if len(feasible) >= 2:
                ratios = sorted(feasible, reverse=True)  # tighter first
                tocs = [feasible[ratio].toc_cents for ratio in ratios]
                assert tocs[-1] <= tocs[0] * 1.001


class TestTable3Layouts:
    def test_hot_write_objects_stay_on_fast_storage(self):
        result = figures.figure8_box("Box 2", warehouses=20, sla_ratios=(0.5,),
                                     concurrency=100)
        layout = result["dot_results"][0.5].layout
        # The stock table (hot random reads and writes) belongs on the H-SSD,
        # as in the paper's Table 3 for every SLA.
        assert layout.class_name_of("stock") == "H-SSD"
