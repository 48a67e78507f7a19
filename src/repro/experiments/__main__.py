"""CLI for the experiment orchestration layer.

Two subcommands drive the whole sweep lifecycle against one SQLite store::

    python -m repro.experiments run      # diff matrix vs store, run the rest
    python -m repro.experiments figures  # regenerate figures FROM the store

``python -m repro.obs.report`` lists what the store holds: experiment rows
and recorded runs alike.

``figures`` writes every assembled figure/table as JSON (and prints the
rendered text tables with ``--text``); ``--check DIR`` compares the
deterministic data zones against golden JSON files and fails on any
mismatch, ``--write-golden DIR`` refreshes those files.  An interrupted
``run`` is resumed by re-invoking it: already recorded specs are skipped via
the store diff, and partially enumerated Figure 9 searches resume from their
per-signature checkpoints under ``--checkpoint-dir``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.obs.recorder import DEFAULT_STORE


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Populate, inspect, and render the experiment results store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--store", type=Path, default=DEFAULT_STORE,
            help=f"results store path (default: {DEFAULT_STORE})",
        )

    run = sub.add_parser("run", help="execute the specs missing from the store")
    common(run)
    run.add_argument("--scale", choices=("small", "paper"), default="paper")
    run.add_argument(
        "--figures", default=None,
        help="comma-separated figures to cover (default: all)",
    )
    run.add_argument("--workers", type=int, default=1)
    run.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="directory for resumable in-spec search checkpoints",
    )
    run.add_argument(
        "--dry-run", action="store_true",
        help="print the matrix diff without executing anything",
    )

    figures = sub.add_parser(
        "figures", help="regenerate paper figures/tables from the store"
    )
    common(figures)
    figures.add_argument("--scale", choices=("small", "paper"), default="paper")
    figures.add_argument("--figures", default=None)
    figures.add_argument(
        "--out", type=Path, default=None,
        help="directory to write assembled <figure>.json files into",
    )
    figures.add_argument(
        "--check", type=Path, default=None, metavar="GOLDEN_DIR",
        help="compare deterministic figure data against golden JSONs; fail on drift",
    )
    figures.add_argument(
        "--write-golden", type=Path, default=None, metavar="GOLDEN_DIR",
        help="write/refresh the golden JSONs from the assembled figures",
    )
    figures.add_argument(
        "--text", action="store_true", help="print the rendered text tables"
    )
    return parser


def _figure_list(value: Optional[str]) -> List[str]:
    from repro.experiments import specs

    if value is None:
        return list(specs.FIGURES)
    wanted = [name.strip() for name in value.split(",") if name.strip()]
    unknown = sorted(set(wanted) - set(specs.FIGURES))
    if unknown:
        raise SystemExit(
            f"unknown figures {unknown}; expected a subset of {list(specs.FIGURES)}"
        )
    return wanted


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import orchestrator, specs
    from repro.experiments.store import ResultsStore

    store = ResultsStore(args.store)
    figures_wanted = _figure_list(args.figures)
    matrix = specs.matrix(args.scale, figures_wanted)
    missing, present = orchestrator.plan(matrix, store)
    print(
        f"matrix: {len(matrix)} specs ({args.scale}), "
        f"{len(present)} stored, {len(missing)} to run"
    )
    if args.dry_run:
        for spec in missing:
            print(f"  would run {spec.experiment:<10} {spec.signature[:12]}  "
                  f"{spec.canonical_json()}")
        return 0
    report = orchestrator.run_specs(
        matrix,
        store,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        log=print,
    )
    print(report.summary())
    return 0 if report.complete else 1


def _dump(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import orchestrator, specs
    from repro.experiments.store import ResultsStore

    if not args.store.exists():
        print(f"figures: no results store at {args.store} -- populate it with "
              "`python -m repro.experiments run`", file=sys.stderr)
        return 1
    store = ResultsStore(args.store)
    lookup = orchestrator.store_lookup(store)
    figures_wanted = _figure_list(args.figures)
    assembled = {}
    for figure in figures_wanted:
        try:
            assembled[figure] = specs.assemble_figure(figure, lookup, args.scale)
        except KeyError as exc:
            print(f"figures: {exc.args[0]}", file=sys.stderr)
            return 1

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for figure, payload in assembled.items():
            (args.out / f"{figure}.json").write_text(_dump(payload))
        print(f"wrote {len(assembled)} figure JSONs to {args.out}")

    if args.text:
        for figure, payload in assembled.items():
            print(f"===== {figure} =====")
            print(_render_text(payload))

    if args.write_golden is not None:
        args.write_golden.mkdir(parents=True, exist_ok=True)
        for figure, payload in assembled.items():
            path = args.write_golden / f"{figure}.json"
            path.write_text(_dump(specs.strip_timing(payload)))
        print(f"wrote {len(assembled)} goldens to {args.write_golden}")

    if args.check is not None:
        checked = 0
        drifted: List[str] = []
        for figure, payload in assembled.items():
            path = args.check / f"{figure}.json"
            if not path.exists():
                continue
            checked += 1
            golden = json.loads(path.read_text())
            if specs.strip_timing(payload) != golden:
                drifted.append(figure)
        if checked == 0:
            print(f"figures --check: no goldens found in {args.check}", file=sys.stderr)
            return 1
        if drifted:
            print(
                f"figures --check: {len(drifted)}/{checked} figures drifted from "
                f"their goldens: {', '.join(drifted)}",
                file=sys.stderr,
            )
            return 1
        print(f"figures --check: {checked} figures match their goldens")
    return 0


def _render_text(payload: object, depth: int = 0) -> str:
    """Pull the rendered ``text`` tables out of an assembled figure."""
    if isinstance(payload, dict):
        if "text" in payload and isinstance(payload["text"], str):
            return payload["text"]
        parts = []
        for key, value in payload.items():
            inner = _render_text(value, depth + 1)
            if inner:
                parts.append(f"--- {key} ---\n{inner}" if depth == 0 else inner)
        return "\n".join(parts)
    return ""


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_figures(args)


if __name__ == "__main__":
    sys.exit(main())
