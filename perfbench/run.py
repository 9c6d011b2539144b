"""valveplan benchmark: one workload per process.

    python3 perfbench/run.py --workload solve-ladder --seed 0 --seconds 20 --trace 0

Workloads: solve-ladder, sweep-frontier, verify-corpus, evaluate-large
(see DESIGN.md). The run sets up SETUP_ROUNDS times, then repeats the
workload's fixed work until `--seconds` is spent (at least once) and
checks every answer of every pass. Set-up and pass times are scaled to a
reference machine speed measured by a sampling child process (`speed.py`).
Progress and per-operation detail go to stderr; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
`--trace 0` reports the end-to-end metrics. `--trace 1` spends half the
time untraced and half with the layer boundaries wrapped, and reports the
per-layer metrics. Without the library sources beside this directory the
run exits non-zero and prints no result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 5
WORKLOAD_NAMES = ("solve-ladder", "sweep-frontier", "verify-corpus", "evaluate-large")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "proved": "count",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.nodes": "count",
    "solver.leaves": "count",
    "solver.feasible_leaf_ratio": "ratio",
    "solver.prunes.lb": "count",
    "solver.prunes.face": "count",
    "solver.prunes.budget": "count",
    "solver.prunes.conflict": "count",
    "solver.forced.face": "count",
    "solver.forced.reduced_cost": "count",
    "solver.forced.symmetry": "count",
    "solver.nodes_per_s": "1/s",
    "solver.decide_us": "us",
    "solver.decide_ok_ratio": "ratio",
    "solver.choose_branch_us": "us",
    "solver.self_s": "s",
    "solver.leaf_us": "us",
    "solver.solve_ms": "ms",
    "solver.best_ud_lps": "l/s",
    "solver.time_to_best_s": "s",
    "solver.rungs_without_incumbent": "count",
    "state.undo_frame_us": "us",
    "state.undo_frame_calls": "count",
    "isolation.worst_case_us": "us",
    "isolation.component_deletion_us": "us",
    "oracle.placements": "count",
    "oracle.placements_per_s": "1/s",
    "pareto.solves": "count",
    "pareto.useful_solve_ratio": "ratio",
    "pareto.best_extension_s": "s",
    "pareto.warm_start_hit_ratio": "ratio",
    "network.parse_s": "s",
    "cli.evaluate_ms": "ms",
    "trace.overhead_share": "ratio",
    "check.failed_share": "ratio",
    "run.raw_wall_s": "s",
    "run.slowdown": "ratio",
}

IMPORT_PROBE = """
import time
t0 = time.monotonic()
import valveplan
print(t0, time.monotonic())
"""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def import_region():
    """Monotonic start and end of `import valveplan` in a fresh interpreter
    (start-up excluded)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    t0, t1 = map(float, done.stdout.split()[-2:])
    return t0, t1


# one repetition of the fixed work: its monotonic start and end, the
# workload's answers, the solver's Solutions and the (offered, hit)
# warm-start counts
Pass = namedtuple("Pass", "start end answers solutions warm_starts")


def run_passes(wl, tracer, budget):
    """Repeat the fixed work while another pass fits in `budget` seconds."""
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        answers = wl.run_pass(tracer)
        t1 = time.monotonic()
        passes.append(Pass(t0, t1, answers, wl.solutions(answers, tracer),
                           wl.warm_starts(tracer)))
        tracer.forget_results()
        if t1 - start + (t1 - t0) > budget:
            return passes


def stat_sum(solutions, field):
    return sum(getattr(sol.stats, field) for sol in solutions)


def layer_metrics(wl, tracer, probe, untraced, traced, parse_s, failed_share):
    """Per-layer metrics. Times from the untraced and the traced passes are
    scaled by the slowdown measured during each."""
    un = probe.slowdown(untraced[0].start, untraced[-1].end)
    tr = probe.slowdown(traced[0].start, traced[-1].end)
    n = len(traced)
    sols = traced[-1].solutions
    nodes = stat_sum(sols, "nodes")
    leaves = stat_sum(sols, "leaves")
    counts = {}
    for key in wl.layer_counts(untraced[0].answers):
        counts[key] = statistics.median(wl.layer_counts(p.answers)[key] for p in untraced)
    solve_s = statistics.median(wl.solve_seconds(p.answers) for p in untraced) / un
    pareto_solves = tracer.calls("pareto.solve") / n
    offered, hits = traced[-1].warm_starts
    oracle_s = counts.get("oracle.seconds", 0.0) / un
    return {
        "solver.nodes": nodes,
        "solver.leaves": leaves,
        "solver.feasible_leaf_ratio":
            (leaves - stat_sum(sols, "infeasible_leaves")) / leaves if leaves else 0.0,
        "solver.prunes.lb": stat_sum(sols, "lb_prunes"),
        "solver.prunes.face": stat_sum(sols, "face_fails"),
        "solver.prunes.budget": stat_sum(sols, "budget_fails"),
        "solver.prunes.conflict": stat_sum(sols, "conflicts"),
        "solver.forced.face": stat_sum(sols, "face_forced"),
        "solver.forced.reduced_cost": stat_sum(sols, "reduced_cost_forced"),
        "solver.forced.symmetry": stat_sum(sols, "symmetry_fixed"),
        "solver.nodes_per_s": nodes / solve_s if solve_s else 0.0,
        "solver.decide_us": tracer.mean(1e6, "solver.decide") / tr,
        "solver.decide_ok_ratio": (tracer.truthy("solver.decide") / tracer.calls("solver.decide")
                                   if tracer.calls("solver.decide") else 0.0),
        "solver.choose_branch_us": tracer.mean(1e6, "solver.choose_branch") / tr,
        "solver.self_s": tracer.self_time("solver.solve", "pareto.solve") / n / tr,
        "solver.leaf_us": tracer.mean(1e6, "solver.leaf") / tr,
        "solver.solve_ms": tracer.mean(1e3, "solver.solve", "pareto.solve") / tr,
        "solver.best_ud_lps": counts.get("solver.best_ud_lps", 0.0),
        "solver.time_to_best_s": counts.get("solver.time_to_best_s", 0.0) / un,
        "solver.rungs_without_incumbent": counts.get("solver.rungs_without_incumbent", 0),
        "state.undo_frame_us": tracer.mean(1e6, "state.undo_frame") / tr,
        "state.undo_frame_calls": tracer.calls("state.undo_frame") / n,
        "isolation.worst_case_us": tracer.mean(1e6, "solver.leaf", "oracle.worst_case",
                                               "isolation.worst_case_ud") / tr,
        "isolation.component_deletion_us":
            tracer.mean(1e6, "isolation.component_deletion") / tr,
        "oracle.placements": counts.get("oracle.placements", 0),
        "oracle.placements_per_s":
            counts.get("oracle.placements", 0) / oracle_s if oracle_s else 0.0,
        "pareto.solves": pareto_solves,
        "pareto.useful_solve_ratio":
            counts.get("pareto.frontier_points", 0) / pareto_solves if pareto_solves else 0.0,
        "pareto.best_extension_s": tracer.total("pareto.best_extension") / n / tr,
        "pareto.warm_start_hit_ratio": hits / offered if offered else 0.0,
        "network.parse_s": parse_s / tr,
        "cli.evaluate_ms": tracer.mean(1e3, "cli.main") / tr,
        "trace.overhead_share": (statistics.median(probe.scaled(p.start, p.end) for p in traced)
                                 / statistics.median(probe.scaled(p.start, p.end)
                                                     for p in untraced) - 1.0),
        "check.failed_share": failed_share,
        "run.raw_wall_s": statistics.median(p.end - p.start for p in untraced),
        "run.slowdown": un,
    }


def run(wl, args):
    from speed import SpeedProbe
    from tracer import NullTracer, Tracer

    budget = args.seconds / 2 if args.trace else args.seconds
    setup_regions = []
    traced = []
    tracer = Tracer()
    parse_s = 0.0
    with SpeedProbe() as probe:
        for _ in range(SETUP_ROUNDS):
            imported = import_region()
            t0 = time.monotonic()
            wl.load()
            setup_regions.append((imported, (t0, time.monotonic())))
        untraced = run_passes(wl, NullTracer(), budget)
        if args.trace:
            tracer.install()
            try:
                traced = run_passes(wl, tracer, budget)
                before = tracer.total("network.parse")
                wl.load()
                parse_s = tracer.total("network.parse") - before
            finally:
                tracer.uninstall()
    setups = [sum(probe.scaled(*region) for region in rounds) for rounds in setup_regions]
    log(f"{wl.name}: seed {args.seed}, scaled set-up rounds {[round(s, 4) for s in setups]} s")
    for label, k in (("import", 0), ("load", 1)):
        log(f"set-up {label}: wall {[round(r[k][1] - r[k][0], 4) for r in setup_regions]} s, "
            f"wall over scaled "
            f"{[round((r[k][1] - r[k][0]) / probe.scaled(*r[k]), 4) for r in setup_regions]}")
    for label, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            log(f"{label} passes: wall {[round(p.end - p.start, 4) for p in passes]} s, "
                f"wall over scaled "
                f"{[round((p.end - p.start) / probe.scaled(p.start, p.end), 4) for p in passes]}")
    log(f"median slowdown against the reference speed over the run: {probe.slowdown():.3f}")
    for line in wl.describe(untraced[0].answers):
        log("  " + line)

    refs = wl.references()
    attempted = 0
    failures = []
    proved = []
    for p in untraced + traced:
        ops, bad, n_proved = wl.check(p.answers, refs)
        attempted += ops
        failures.extend(bad)
        proved.append(n_proved)

    # searches are deterministic, so every pass must expand the same nodes
    node_counts = [[s.stats.nodes for s in p.solutions] for p in untraced + traced if p.solutions]
    if len(node_counts) > 1:
        attempted += 1
        if any(c != node_counts[0] for c in node_counts):
            failures.append(f"search node counts differ between passes: {node_counts}")

    first = untraced[0].answers
    seen = len(wl.check(first, refs)[1])
    extra = len(wl.check(first, wl.corrupt(refs))[1]) - seen
    log(f"corrupted-reference self-check: {extra} extra failure(s), expected 1")

    for line in failures[:20]:
        log("FAIL " + line)
    if args.trace:
        log(json.dumps({"boundaries": tracer.snapshot()}, indent=1))

    if args.trace:
        values = layer_metrics(wl, tracer, probe, untraced, traced, parse_s,
                               len(failures) / attempted)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(probe.scaled(p.start, p.end) for p in untraced),
            "proved": statistics.median(proved),
            "ok_share": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not failures and extra == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the committed inputs and references")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "valveplan", "__init__.py")):
        log(f"error: the valveplan sources are missing from {SRC}")
        return 2
    sys.path.insert(0, SRC)
    import valveplan
    if not os.path.abspath(valveplan.__file__).startswith(SRC + os.sep):
        log(f"error: imported valveplan from {valveplan.__file__}, not from {SRC}")
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        return run(wl, args)
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
