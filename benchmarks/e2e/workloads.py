"""The benchmark's four workloads, and the child process that runs one.

Each workload is a closed loop: one client in one process sends the next
request when the previous one completes.  A *cycle* sends every request of
the workload's request set once, in an order drawn from ``--seed``; a run
repeats cycles until ``--seconds`` have passed and then finishes the cycle
in progress, so every run sends each request equally often and the outputs
(checked against ``expected.json``) never depend on the seed.

Run through ``run.py``; this module's command line is the child side::

    python workloads.py --mode setup    --workload W   # print "ready", exit
    python workloads.py --mode measure  --workload W --seed S --seconds T --trace 0|1
    python workloads.py --mode expected --workload W   # reference outputs

``measure`` prints one JSON line with the raw measurements.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: Parameters per workload and scale.  ``smoke`` keeps every code path but
#: shrinks the request sets so the smoke test finishes in seconds.
SCALES = {
    # TPC-H original requests take ~21 ms, TPC-H modified and TPC-C ~17 ms,
    # and ~14% of requests also pay a ~15 ms full garbage collection.  With
    # three of five scenarios in the slower group the median falls inside
    # it instead of on the edge between the groups (where it moved by 8%
    # from run to run).
    "advise": {
        "full": {
            "scenarios": [("tpch_original", "scale_factor", 20.0),
                          ("tpch_original", "scale_factor", 10.0),
                          ("tpch_original", "scale_factor", 2.0),
                          ("tpch_modified", "scale_factor", 20.0),
                          ("tpcc_fig8", "warehouses", 300)],
            "boxes": ("Box 1", "Box 2"),
            "slas": (0.5, 0.25, 0.125),
        },
        "smoke": {
            "scenarios": [("tpch_original", "scale_factor", 2.0),
                          ("tpcc_fig8", "warehouses", 300)],
            "boxes": ("Box 2",),
            "slas": (0.25,),
        },
    },
    "es_large": {
        "full": {"num_tables": 7, "capacity_fractions": (0.1, 0.2, 0.3, 0.45)},
        "smoke": {"num_tables": 4, "capacity_fractions": (0.1, 0.45)},
    },
    "fig9_arms": {
        "full": {"arms": [(300, None), (300, 21.0), (300, 15.0),
                          (100, None), (100, 21.0), (100, 10.0), (100, 5.0)]},
        "smoke": {"arms": [(100, None)]},
    },
    # Snapshots every 64 ticks, not 8: unlinking an fsynced file costs ~60 ms
    # on a disk mounted with online discard, so an 8-tick cadence would leave
    # ~1000 files per run and a minute of teardown.
    "service_fleet": {
        "full": {"replicas": 4, "epochs": 64, "snapshot_every_ticks": 64},
        "smoke": {"replicas": 1, "epochs": 8, "snapshot_every_ticks": 8},
    },
}

#: Worker processes for every parallel exhaustive search (the machine's CPUs).
ES_WORKERS = 2
#: Layout guard above the 3^14 = 4.78 M layouts of the largest ES request.
ES_MAX_LAYOUTS = 5_000_000


class Failed(Exception):
    """An operation completed but returned a degraded or infeasible result."""


# ---------------------------------------------------------------------------
# Operation log
# ---------------------------------------------------------------------------

class OpLog:
    """Latencies and failures of the operations of one cycle."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.latencies: List[float] = []
        self.failures: List[str] = []

    def run(self, label: str, fn, *args):
        """Run one operation, timing it; returns its result or ``None``."""
        recorder = self.recorder
        if recorder is not None:
            span = recorder.begin_op()
        started = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.latencies.append(perf_counter() - started)
            if recorder is not None:
                recorder.end(span)


def _solution(result) -> Dict[str, object]:
    if not result.feasible or result.layout is None:
        raise Failed(f"{result.solver} found no feasible layout")
    if result.stats.degraded:
        raise Failed(f"{result.solver} degraded: {result.stats.incidents}")
    return {"toc_cents": result.toc_cents, "assignment": result.layout.assignment()}


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

class Workload:
    """A request set, the call that serves one request, and its oracle.

    ``requests`` maps each request key to its parameters; ``solve`` serves
    one request (``reference=True`` takes the path ``expected.json`` is
    generated from); ``cycle`` sends the requests once in the given order.
    """

    name = ""
    #: The tail percentile reported: the highest with >= 10 samples beyond
    #: it in a full-scale run whose value repeated within ~5% over 10 runs.
    tail_pct = 0
    #: The modules the workload drives, imported first (``import.s``).
    MODULES: Tuple[str, ...] = ()

    def imports(self) -> None:
        for module in self.MODULES:
            importlib.import_module(module)

    def requests(self, scale: str) -> Dict[str, tuple]:
        raise NotImplementedError

    def keys(self, scale: str) -> List[str]:
        """The keys one cycle sends, once each."""
        return list(self.requests(scale))

    def shuffle(self, keys: List[str], rng: random.Random) -> List[str]:
        """One cycle's sending order, drawn from the seed."""
        return rng.sample(keys, len(keys))

    def setup(self, scale: str, seed: int):
        """Everything built before the first request; returns the state."""
        return None

    def solve(self, state, request, reference: bool = False) -> Dict[str, object]:
        raise NotImplementedError

    def cycle(self, state, order, requests, ops: OpLog) -> List[Tuple[str, object]]:
        pairs = []
        for key in order:
            pairs.append((key, ops.run(key, self.solve, state, requests[key])))
            if ops.recorder is not None:
                # Read the request's cache counters now: keeping every
                # request's estimator alive to the end of the cycle slowed
                # the following requests by ~60%.
                ops.recorder.fold_caches()
        return pairs

    def reference(self, state, requests) -> Dict[str, object]:
        return {key: self.solve(state, request, reference=True)
                for key, request in requests.items()}

    def toc(self, output) -> float:
        """The TOC (cents) of the layouts one output recommends."""
        return output["toc_cents"]

    def teardown(self, state) -> None:
        """Release what ``setup`` created (outside the timed window)."""


class Advise(Workload):
    """One DOT recommendation on a fresh estimator per request."""

    name = "advise"
    tail_pct = 80
    MODULES = ("repro.scenarios", "repro.core.solver", "repro.sla.constraints")

    def requests(self, scale: str) -> Dict[str, tuple]:
        params = SCALES[self.name][scale]
        return {
            f"{scenario}:{param}={value:g}|{box}|sla={ratio:g}":
                (scenario, param, value, box, ratio)
            for scenario, param, value in params["scenarios"]
            for box in params["boxes"]
            for ratio in params["slas"]
        }

    def setup(self, scale: str, seed: int):
        from repro import scenarios

        return {(scenario, value): scenarios.build(scenario, **{param: value})
                for scenario, param, value in SCALES[self.name][scale]["scenarios"]}

    def solve(self, bundles, request, reference: bool = False) -> Dict[str, object]:
        from repro.core.solver import DOTSolver
        from repro.sla.constraints import RelativeSLA

        scenario, _, value, box, ratio = request
        bundle = bundles[(scenario, value)]
        context = bundle.context(box=box, sla=RelativeSLA(ratio, metric=bundle.sla.metric),
                                 estimator=bundle.fresh_estimator())
        # The scalar (non-incremental) walk is the repo's DOT test oracle.
        return _solution(DOTSolver(incremental=not reference).solve(context))


class EsLarge(Workload):
    """One parallel exhaustive search over 3^(2n) layouts per request."""

    name = "es_large"
    tail_pct = 85
    MODULES = ("repro.scenarios", "repro.core.solver")

    def requests(self, scale: str) -> Dict[str, tuple]:
        params = SCALES[self.name][scale]
        return {f"tables={params['num_tables']}|cap={fraction:g}": (params["num_tables"], fraction)
                for fraction in params["capacity_fractions"]}

    def setup(self, scale: str, seed: int):
        from repro import scenarios

        return {
            request: scenarios.build("synthetic_scaling_limited", num_tables=request[0],
                                     capacity_fraction=request[1])
            for request in self.requests(scale).values()
        }

    def solve(self, bundles, request, reference: bool = False) -> Dict[str, object]:
        from repro.core.solver import ExhaustiveSolver

        bundle = bundles[request]
        context = bundle.context(estimator=bundle.fresh_estimator())
        solver = ExhaustiveSolver(workers=1 if reference else ES_WORKERS,
                                  max_layouts=ES_MAX_LAYOUTS)
        return _solution(solver.solve(context))


class Fig9Arms(Workload):
    """One Figure 9 arm (DOT over all TPC-C objects plus per-group ES)."""

    name = "fig9_arms"
    tail_pct = 70
    MODULES = ("repro.experiments.figures",)

    def requests(self, scale: str) -> Dict[str, tuple]:
        return {f"w{warehouses}|hssd={'none' if limit is None else format(limit, 'g')}":
                (warehouses, limit)
                for warehouses, limit in SCALES[self.name][scale]["arms"]}

    def solve(self, state, request, reference: bool = False) -> Dict[str, object]:
        from repro.experiments import figures

        warehouses, limit = request
        entry = figures.figure9_arm(limit, warehouses=warehouses,
                                    es_workers=1 if reference else ES_WORKERS)
        es, dot = _solution(entry["es"]), _solution(entry["dot"])
        return {"es_toc_cents": es["toc_cents"], "es_assignment": es["assignment"],
                "dot_toc_cents": dot["toc_cents"], "dot_assignment": dot["assignment"]}

    def toc(self, output) -> float:
        return output["es_toc_cents"] + output["dot_toc_cents"]


class ServiceFleet(Workload):
    """Ticks of a journaled multi-tenant advisor service.

    A cycle is one episode: a fresh service on a fresh state directory, the
    whole fleet registered in seed order, then ticked until every tenant
    committed its last epoch.  The operation is one ``AdvisorService.tick``.
    """

    name = "service_fleet"
    tail_pct = 99.5
    SCENARIOS = (("synthetic_small", {}),
                 ("tpch_original", {"scale_factor": 2.0}),
                 ("tpch_modified", {"scale_factor": 2.0}))
    DRIFTS = ("crossfade", "flash", "steady")
    MODULES = ("repro.service",)

    def requests(self, scale: str) -> Dict[str, tuple]:
        epochs = SCALES[self.name][scale]["epochs"]
        return {f"{scenario}{''.join(f':{k}={v:g}' for k, v in overrides.items())}"
                f"|{drift}|epochs={epochs}": (scenario, overrides, drift, epochs)
                for scenario, overrides in self.SCENARIOS for drift in self.DRIFTS}

    def keys(self, scale: str) -> List[str]:
        """One entry per tenant: the request key, once per replica."""
        replicas = SCALES[self.name][scale]["replicas"]
        return [key for key in self.requests(scale) for _ in range(replicas)]

    def shuffle(self, keys: List[str], rng: random.Random) -> List[str]:
        # The two workers serve neighbouring tenants of the queue in one
        # tick, and a tick takes 0.4 to 1.2 ms depending on which specs
        # share it.  Shuffling pairs of same-spec tenants keeps that mix the
        # same for every seed (single tenants moved the median tick by 17%).
        pairs = [keys[index:index + 2] for index in range(0, len(keys), 2)]
        return [key for pair in rng.sample(pairs, len(pairs)) for key in pair]

    def spec(self, request, tenant_id: str):
        from repro.service import TenantSpec

        scenario, overrides, drift, epochs = request
        return TenantSpec(tenant_id=tenant_id, scenario=scenario, overrides=overrides,
                          num_epochs=epochs, drift=drift)

    def start(self, state, order):
        """A fresh service on a fresh state directory with the fleet registered."""
        from repro.service import AdvisorService, ServiceConfig

        state["episodes"] += 1
        fleet = len(order)
        service = AdvisorService(
            state["root"] / f"episode-{state['episodes']}",
            ServiceConfig(workers=2, queue_depth=fleet,
                          snapshot_every_ticks=state["snapshot_every_ticks"]),
        )
        for index, key in enumerate(order):
            service.register(self.spec(state["requests"][key], f"tenant-{index}"))
        state["service"] = service
        state["order"] = order

    def setup(self, scale: str, seed: int):
        state = {"root": OUT / "state" / f"{self.name}-{os.getpid()}", "episodes": 0,
                 "requests": self.requests(scale),
                 "snapshot_every_ticks": SCALES[self.name][scale]["snapshot_every_ticks"]}
        shutil.rmtree(state["root"], ignore_errors=True)
        self.start(state, self.shuffle(self.keys(scale), random.Random(seed)))
        return state

    def cycle(self, state, order, requests, ops: OpLog):
        # The first episode's fleet was registered by setup (part of setup_s).
        if state.get("service") is None:
            self.start(state, order)
        service, order = state.pop("service"), state["order"]
        while not service.all_done:
            ops.run(f"tick {service.ticks + 1}", service.tick)
            if ops.failures:
                break
        service.journal.close()
        if ops.recorder is not None:
            counts = ops.recorder.counts
            counts["service.epochs"] += service.completed_epochs
            counts["service.shed"] += sum(service.shed_counts.values())
            counts["journal.bytes"] += service.journal.path.stat().st_size
        pairs = []
        for index, key in enumerate(order):
            runtime = service.tenants[f"tenant-{index}"]
            if service.shed_counts or runtime.failed or runtime.exhausted or not runtime.done:
                pairs.append((key, None))
                continue
            pairs.append((key, {"cumulative_cost_cents": runtime.loop.cumulative,
                                "assignment": runtime.loop.deployed.assignment()}))
        return pairs

    def reference(self, state, requests) -> Dict[str, object]:
        # Each tenant alone through the plain online loop: no scheduler, no
        # journal, its own breaker board.
        from repro.service import GuardedFallbackSolver, build_runtime

        outputs = {}
        for key, request in requests.items():
            runtime = build_runtime(self.spec(request, "reference"), GuardedFallbackSolver())
            result = runtime.advisor.run(runtime.epochs)
            outputs[key] = {"cumulative_cost_cents": result.cumulative_cost_cents,
                            "assignment": result.records[-1].layout.assignment()}
        return outputs

    def toc(self, output) -> float:
        return output["cumulative_cost_cents"]

    def teardown(self, state) -> None:
        service = state.pop("service", None)
        if service is not None:
            service.journal.close()
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {workload.name: workload for workload in
             (Advise(), EsLarge(), Fig9Arms(), ServiceFleet())}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def percentile(values: List[float], pct: float) -> float:
    """The ``pct``-th percentile, to 0.1, interpolating between ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_expected(workload: str) -> Dict[str, object]:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {})


def check(pairs, expected) -> List[str]:
    """Mismatches of one cycle's outputs against the expected outputs."""
    problems = []
    for key, output in pairs:
        if output is None:
            problems.append(f"{key}: no result")
        elif key not in expected:
            problems.append(f"{key}: no expected output (run run.py --write-expected)")
        elif output != expected[key]:
            problems.append(f"{key}: output differs from expected.json")
    return problems


def measure(workload, scale: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    started = perf_counter()
    workload.imports()
    import_s = perf_counter() - started
    recorder = None
    if trace:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    started = perf_counter()
    state = workload.setup(scale, seed)
    build_s = perf_counter() - started
    requests = workload.requests(scale)
    keys = workload.keys(scale)
    expected = load_expected(workload.name)
    rng = random.Random(seed)

    cycles = []
    latencies: List[float] = []
    failures: List[str] = []
    toc_cents = None
    window_start = perf_counter()
    deadline = window_start + seconds
    # With tracing, cycle 0 warms up untraced and odd cycles are traced, so
    # the even cycles after it give the untraced time to compare against.
    min_cycles = 3 if trace else 1
    while True:
        traced = trace and len(cycles) % 2 == 1
        order = workload.shuffle(keys, rng)
        ops = OpLog(recorder if traced else None)
        cycle_start = perf_counter()
        if traced:
            recorder.enabled = True
        pairs = workload.cycle(state, order, requests, ops)
        if traced:
            span = recorder.begin(layers.CHECK)
        problems = check(pairs, expected)
        if traced:
            recorder.end(span)
            recorder.enabled = False
            recorder.fold_caches()
        cycles.append({"traced": traced, "wall_s": perf_counter() - cycle_start,
                       "ops": len(ops.latencies), "op_s": sum(ops.latencies)})
        latencies.extend(ops.latencies)
        failures.extend(ops.failures + problems)
        if toc_cents is None and not problems and not ops.failures:
            toc_cents = sum(workload.toc(output) for _, output in pairs)
        if (perf_counter() >= deadline and len(cycles) >= min_cycles
                and (not trace or len(cycles) % 2 == 1)):
            break
    window_s = perf_counter() - window_start
    rss_mb = peak_rss_mb()
    started = perf_counter()
    workload.teardown(state)
    teardown_s = perf_counter() - started

    failed = min(len(failures), len(latencies))
    result = {
        "workload": workload.name,
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures[:20],
        "cycles": len(cycles),
        "window_s": window_s,
        "teardown_s": teardown_s,
        "throughput_ops_s": (len(latencies) - failed) / window_s,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "tail_pct": workload.tail_pct,
        "latency_tail_ms": percentile(latencies, workload.tail_pct) * 1e3,
        "toc_cents": toc_cents,
        "peak_rss_mb": rss_mb,
    }
    result["tail_beyond"] = sum(1 for value in latencies
                                if value * 1e3 > result["latency_tail_ms"])
    result["percentiles_ms"] = {pct: percentile(latencies, pct) * 1e3
                                for pct in (50, 70, 75, 80, 85, 90, 95, 99, 99.5)}
    if trace:
        result.update(layer_metrics(recorder, cycles, import_s, build_s))
        OUT.mkdir(parents=True, exist_ok=True)
        recorder.write(OUT / f"{workload.name}.spans.jsonl")
    return result


def layer_metrics(recorder, cycles, import_s: float, build_s: float) -> Dict[str, object]:
    """Per-layer metrics of the traced cycles, normalised per operation."""
    import layers

    ledger = layers.ledger(recorder)
    counts = recorder.counts
    traced = [cycle for cycle in cycles if cycle["traced"]]
    untraced = [cycle for cycle in cycles[1:] if not cycle["traced"]]
    ops = sum(cycle["ops"] for cycle in traced)
    wall = sum(cycle["wall_s"] for cycle in traced)

    def self_s(name):
        return ledger.get(name, {}).get("self_s", 0.0) / ops

    def per_op(name):
        return counts.get(name, 0.0) / ops

    def ratio(part, whole):
        return part / whole if whole else 0.0

    es_solve_s = ledger.get("es.solve", {}).get("total_s", 0.0) / ops
    epochs = counts.get("service.epochs", 0.0)
    metrics = {
        "import.s": (import_s, "s"),
        "scenarios.build_s": (build_s, "s"),
        "dbms.plan_s": (self_s("dbms.plan"), "s/op"),
        "dbms.plan_calls": (ledger.get("dbms.plan", {}).get("calls", 0) / ops, "count/op"),
        "dbms.plan_cache_hit_ratio": (ratio(counts["dbms.plan_hits"], counts["dbms.plan_hits"]
                                            + counts["dbms.plan_misses"]), "ratio"),
        "context.build_s": (self_s("context.build"), "s/op"),
        "profiler.profile_s": (self_s("profiler.profile"), "s/op"),
        "dot.solve_self_s": (self_s("dot.solve"), "s/op"),
        "dot.evaluated_layouts": (per_op("dot.evaluated_layouts"), "count/op"),
        "dot.moves_accepted": (per_op("dot.moves_accepted"), "count/op"),
        "estimate_cache.hit_ratio": (ratio(counts["estimate_cache.hits"],
                                           counts["estimate_cache.hits"]
                                           + counts["estimate_cache.misses"]), "ratio"),
        "es.solve_s": (es_solve_s, "s/op"),
        "es.boot_s": (per_op("es.boot_s"), "s/op"),
        "es.overhead_s": (es_solve_s - per_op("batch.eval_per_worker_s"), "s/op"),
        "batch.eval_s": (per_op("batch.eval_s"), "s/op"),
        "batch.layouts_per_s": (ratio(counts["batch.candidates"], counts["batch.eval_s"]),
                                "layouts/s"),
        "es.pruned_ratio": (ratio(counts["es.pruned"], counts["es.pruned"]
                                  + counts["es.evaluated"]), "ratio"),
        "es.steals": (per_op("es.steals"), "count/op"),
        "es.shards": (per_op("es.shards"), "count/op"),
        "figures.arm_self_s": (self_s("figures.arm"), "s/op"),
        "online.step_self_s": (self_s("online.step"), "s/op"),
        "online.steps": (per_op("online.steps"), "count/op"),
        "online.retiers": (per_op("online.retiers"), "count/op"),
        "service.tick_self_s": (self_s("service.tick"), "s/op"),
        "service.shed": (per_op("service.shed"), "count/op"),
        "journal.append_s": (self_s("journal.append"), "s/op"),
        "snapshot.save_s": (self_s("snapshot.save"), "s/op"),
        "journal.fsyncs_per_epoch": (ratio(counts["fsyncs"], epochs), "count/epoch"),
        "journal.bytes_per_epoch": (ratio(counts["journal.bytes"], epochs), "B/epoch"),
        "trace.coverage_ratio": (ratio(sum(row["self_s"] for name, row in ledger.items()
                                           if name != layers.OP), wall), "ratio"),
        "trace.overhead_ratio": (ratio(sum(c["op_s"] for c in traced),
                                       sum(c["op_s"] for c in untraced)) - 1.0, "ratio"),
    }
    return {
        "layers": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "ledger": {name: {"calls_per_op": row["calls"] / ops, "self_s_per_op": row["self_s"] / ops,
                          "share": ratio(row["self_s"], wall)}
                   for name, row in sorted(ledger.items(), key=lambda item: -item[1]["self_s"])},
        "traced_ops": ops,
        "traced_wall_s": wall,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "expected"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        workload.imports()
        state = workload.setup(args.scale, args.seed)
        print("ready", flush=True)
        workload.teardown(state)
        return 0
    if args.mode == "expected":
        workload.imports()
        state = workload.setup(args.scale, args.seed)
        try:
            outputs = workload.reference(state, workload.requests(args.scale))
        finally:
            workload.teardown(state)
        print(json.dumps(outputs, sort_keys=True))
        return 0
    result = measure(workload, args.scale, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
