"""Golden-number tests for the store-driven figure pipeline.

The load-bearing property: a figure assembled from a freshly populated
results store is **bitwise-equal** (on its deterministic ``data``/``text``
zones -- :func:`strip_timing` drops the honest wall-clock measurements) to
the same figure computed by running the solvers directly, and both stay
stable across a crash/re-run of the sweep.  Every figure but the pure
catalog listing (Table 2) has a golden at the small scenario scale, which
keeps the sweep fast enough for every test run; the golden JSONs live in
``tests/golden/``.

The drivers no figure covers -- the Section 4.4.3 ES-vs-DOT study and the
Section 5 drivers -- are pinned in ``tests/golden/drivers.json`` at a small
scale: measured SLA caps and evaluations, solver TOCs and assignments and
the chosen box, all compared ``==`` (search times are left out).

To refresh the goldens after an intentional numeric change::

    REPRO_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_experiments_figures.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import figures, orchestrator, specs
from repro.experiments.store import ResultsStore

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FIGURES = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table3",
)
SCALE = "small"


def _populate(path):
    """Populate a fresh store with everything the golden figures need."""
    store = ResultsStore(path)
    report = orchestrator.run_figures(
        GOLDEN_FIGURES, store, scale=SCALE, workers=2
    )
    assert report.complete, f"sweep failed: {report.failed}"
    return store


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    return _populate(tmp_path_factory.mktemp("figures") / "experiments.sqlite")


def _golden_view(figure, lookup):
    return specs.strip_timing(specs.assemble_figure(figure, lookup, SCALE))


@pytest.mark.parametrize("figure", GOLDEN_FIGURES)
def test_store_path_equals_direct_path_bitwise(small_store, figure):
    from_store = _golden_view(figure, orchestrator.store_lookup(small_store))
    direct = _golden_view(figure, orchestrator.direct_lookup())
    # Dict equality on round-tripped JSON floats is bitwise float equality.
    assert from_store == direct


@pytest.mark.parametrize("figure", GOLDEN_FIGURES)
def test_figures_match_committed_goldens(small_store, figure):
    golden_path = GOLDEN_DIR / f"{figure}.json"
    view = _golden_view(figure, orchestrator.store_lookup(small_store))
    rendered = json.dumps(view, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if os.environ.get("REPRO_WRITE_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(rendered)
        pytest.skip(f"rewrote golden {golden_path}")
    assert golden_path.exists(), (
        f"missing golden {golden_path}; generate it with "
        "REPRO_WRITE_GOLDEN=1 pytest tests/test_experiments_figures.py"
    )
    golden = json.loads(golden_path.read_text())
    assert view == golden, (
        f"{figure} drifted from its golden; if the change is intentional, "
        "refresh with REPRO_WRITE_GOLDEN=1"
    )


def test_regenerated_store_reproduces_identical_figures(small_store, tmp_path):
    """A second sweep into a fresh store (simulating re-run after a crash
    wiped the first) lands on bitwise-identical figure data."""
    second = _populate(tmp_path / "experiments-rerun.sqlite")
    for figure in GOLDEN_FIGURES:
        assert _golden_view(figure, orchestrator.store_lookup(second)) == _golden_view(
            figure, orchestrator.store_lookup(small_store)
        )


def test_resumed_sweep_completes_only_the_remainder(tmp_path):
    """Populate half the matrix, then resume: the second sweep executes
    exactly the missing specs and the assembled figures match the goldens'
    source store anyway."""
    path = tmp_path / "experiments-resume.sqlite"
    store = ResultsStore(path)
    matrix = specs.matrix(SCALE, GOLDEN_FIGURES)
    half = matrix[: len(matrix) // 2]
    first = orchestrator.run_specs(half, store, workers=2)
    assert first.complete

    resumed = orchestrator.run_figures(GOLDEN_FIGURES, store, scale=SCALE, workers=2)
    assert resumed.complete
    executed = {spec.signature for spec in resumed.executed}
    skipped = {spec.signature for spec in resumed.skipped}
    assert skipped == {spec.signature for spec in half}
    assert executed == {spec.signature for spec in matrix} - skipped

    for figure in GOLDEN_FIGURES:
        assert _golden_view(figure, orchestrator.store_lookup(store)) == _golden_view(
            figure, orchestrator.direct_lookup()
        )


class TestFiguresCli:
    def test_check_passes_against_committed_goldens(self, small_store, capsys):
        if os.environ.get("REPRO_WRITE_GOLDEN"):
            pytest.skip("goldens are being rewritten this run")
        code = cli.main([
            "figures",
            "--store", str(small_store.path),
            "--scale", SCALE,
            "--figures", ",".join(GOLDEN_FIGURES),
            "--check", str(GOLDEN_DIR),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"{len(GOLDEN_FIGURES)} figures match their goldens" in out

    def test_check_flags_drift(self, small_store, tmp_path, capsys):
        drifted_dir = tmp_path / "golden"
        drifted_dir.mkdir()
        golden = json.loads((GOLDEN_DIR / "table1.json").read_text())
        golden["data"]["prices_cents_per_gb_hour"]["HDD"] = 123456.0
        (drifted_dir / "table1.json").write_text(json.dumps(golden))
        code = cli.main([
            "figures",
            "--store", str(small_store.path),
            "--scale", SCALE,
            "--figures", "table1",
            "--check", str(drifted_dir),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "drifted" in captured.err

    def test_check_refuses_an_empty_golden_dir(self, small_store, tmp_path, capsys):
        empty = tmp_path / "golden-empty"
        empty.mkdir()
        code = cli.main([
            "figures",
            "--store", str(small_store.path),
            "--scale", SCALE,
            "--figures", "fig9",
            "--check", str(empty),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "no goldens found" in captured.err

    def test_unpopulated_store_is_a_clear_error_not_a_crash(self, tmp_path, capsys):
        empty_store = tmp_path / "empty.sqlite"
        ResultsStore(empty_store)
        code = cli.main([
            "figures",
            "--store", str(empty_store),
            "--scale", SCALE,
            "--figures", "table1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "python -m repro.experiments run" in captured.err

    def test_a_missing_store_is_named_and_not_created(self, tmp_path, capsys):
        missing = tmp_path / "typo.sqlite"
        code = cli.main(["figures", "--store", str(missing), "--figures", "table1"])
        assert code == 1
        assert str(missing) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_writes_full_payloads_with_timing(self, small_store, tmp_path):
        out_dir = tmp_path / "out"
        code = cli.main([
            "figures",
            "--store", str(small_store.path),
            "--scale", SCALE,
            "--figures", "fig9",
            "--out", str(out_dir),
        ])
        assert code == 0
        written = json.loads((out_dir / "fig9.json").read_text())
        arm = next(iter(written.values()))
        assert "timing" in arm  # --out keeps the wall-clock zone
        assert specs.strip_timing(written) == _golden_view(
            "fig9", orchestrator.store_lookup(small_store)
        )


# ---------------------------------------------------------------------------
# Drivers without a figure golden
# ---------------------------------------------------------------------------

EVALUATION_FIELDS = ("layout_name", "toc_cents", "layout_cost_cents_per_hour",
                     "response_time_s", "transactions_per_minute", "psr")


def _solve(result):
    return {"feasible": result.feasible, "psr": result.psr,
            "toc_cents": result.toc_cents if result.feasible else None,
            "evaluated_layouts": result.evaluated_layouts,
            "assignment": result.layout and dict(result.layout.assignment())}


def _recommendation(rec):
    return rec and {
        "caps_ms": dict(rec.constraint.caps_ms), "toc_cents": rec.toc_cents,
        "estimated_toc_cents": rec.estimated_report.toc_cents, "psr": rec.psr,
        "validated": rec.validated, "refinements_used": rec.refinements_used,
        "relaxations_used": rec.relaxations_used, "assignment": dict(rec.layout.assignment()),
    }


def _driver_pin() -> dict:
    es_vs_dot = figures.es_vs_dot_tpch(
        scale_factor=2, repetitions=1,
        capacity_limits_gb={"Box 1": {"HDD RAID 0": 24.0}, "Box 2": {"HDD": 8.0}},
    )
    discrete = figures.discrete_cost_experiment(2.0, 0.5, (0.0, 0.5, 1.0), 1)
    grouping = figures.ablation_grouping(2.0, 0.5, 2)
    decision = figures.generalized_provisioning(2.0, 0.5, 1)["decision"]
    return {
        "es_vs_dot_tpch": {box: {
            "caps_ms": dict(entry["constraint"].caps_ms),
            "dot": _solve(entry["dot"]), "es": _solve(entry["es"]),
            **{key: {name: getattr(entry[key], name) for name in EVALUATION_FIELDS}
               for key in ("dot_evaluation", "es_evaluation") if key in entry},
        } for box, entry in es_vs_dot.items()},
        "discrete_cost_experiment": {
            "results": {f"{alpha:g}": _solve(result)
                        for alpha, result in discrete["results"].items()},
            "text": discrete["text"],
        },
        # The measured evaluations of the ablation surface only in its table.
        "ablation_grouping": {
            "results": {label: _solve(result) for label, result in grouping["results"].items()},
            "text": grouping["text"],
        },
        "generalized_provisioning": {
            "chosen": decision.chosen and decision.chosen.name,
            "per_option": {name: _recommendation(rec)
                           for name, rec in decision.per_option.items()},
        },
    }


def test_driver_numbers_match_the_pin():
    golden_path = GOLDEN_DIR / "drivers.json"
    pin = json.loads(json.dumps(_driver_pin(), allow_nan=False))
    if os.environ.get("REPRO_WRITE_GOLDEN"):
        golden_path.write_text(json.dumps(pin, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote golden {golden_path}")
    assert pin == json.loads(golden_path.read_text()), (
        "driver numbers drifted from their golden; if the change is "
        "intentional, refresh with REPRO_WRITE_GOLDEN=1"
    )
