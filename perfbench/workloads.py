"""The four workloads: frozen inputs, the timed fixed work, and its checks.

Each workload has the same shape:

* `load()` is the set-up: parse the frozen instance documents (planar
  faces included), read the references and draw the seed's inputs;
* `run_pass(tracer)` is the fixed work, timed by the runner; it calls the
  library through module attributes so that a traced run sees its wrappers;
* `check(answers, refs)` judges every operation of one pass against
  references computed by independent machinery and returns
  `(ops, failures, proved)`;
* `corrupt(refs)` returns the references with exactly one entry falsified,
  which `check` must count as exactly one more failure.
"""

import contextlib
import copy
import io
import json
import math
import os
import random
import shutil
import tempfile
import time

from valveplan import cli, isolation, network, oracle, pareto, solver
from valveplan.network import MLS, format_flow

from gen import PLACEMENTS_PER_NET, draw_placements

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
DEFAULT_SEED = 0

# (rung, instance, valves, capped). Proof rungs run to a proof and are
# checked against brute force; capped rungs stop at NODE_CAP and are checked
# by re-evaluating the returned placement. A capped rung that stops before a
# first incumbent (rand-1-m33 finds one at node 33,259 today) is no failure:
# it shows in solver.rungs_without_incumbent and drops out of best_ud_lps.
RUNGS = (
    ("fig1-nv6", "fig1", 6, False),
    ("rand-7-m12-nv8", "rand-7-m12", 8, False),
    ("rand-5-m14-nv8", "rand-5-m14", 8, False),
    ("rand-7-m16-nv6", "rand-7-m16", 6, False),
    ("rand-7-m20-nv8", "rand-7-m20", 8, True),
    ("rand-1-m33-nv8", "rand-1-m33", 8, True),
    ("apulian-density-0-nv6", "apulian-density-0", 6, True),
)
NODE_CAP = 40_000

SWEEPS = (("fig1", 2, 14), ("fig2", 2, 20), ("rand-7-m12", 2, 24))

CORPUS_SEEDS = tuple(range(50))
CORPUS_NVS = (2, 3, 4, 5)
FORMULATION_CHECKS = 100_000

LARGE = ("rand-0-m300", "rand-0-m600")


def read_text(*parts):
    with open(os.path.join(DATA, *parts), "r", encoding="utf-8") as fh:
        return fh.read()


def load_references():
    return json.loads(read_text("references.json"))


def load_instance(name):
    return network.parse_network(read_text("instances", f"{name}.json"))


def placement_file(name, k):
    return os.path.join(DATA, "placements", f"{name}-p{k}.txt")


# -- independent re-evaluation ------------------------------------------------

def sector_reps(net, placement):
    """Lowest pipe of every sector, by union-find over open valve slots.

    Two pipes share a sector when they meet at a node with no valve on
    either slot there. Written apart from the library's flood fill so that
    the two can check each other.
    """
    parent = list(range(net.num_edges))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for node in range(net.num_nodes):
        open_pipes = [e for e in net.incident[node] if net.slot_id(e, node) not in placement]
        for e in open_pipes[1:]:
            parent[find(e)] = find(open_pipes[0])
    reps = {}
    for e in range(net.num_edges):
        reps.setdefault(find(e), e)
    return sorted(reps.values())


def reference_worst_case(net, placement):
    """Worst-case undelivered demand (ml/s) by component deletion, or None
    when some sector holds a source. Never uses `worst_case_fast`."""
    worst = 0
    for rep in sector_reps(net, placement):
        feasible, ud = isolation.ud_by_component_deletion(net, placement, rep)
        if not feasible:
            return None
        worst = max(worst, ud)
    return worst


def _ud_or_inf(value):
    return math.inf if value is None else value


def _check_solution(net, nv, sol):
    """Failure text for a returned Solution, or None: a placement of
    exactly nv slots whose reported ud independent re-evaluation repeats."""
    if sol.placement is None:
        return f"no placement returned (proof {sol.proof})"
    if len(sol.placement) != nv:
        return f"placement has {len(sol.placement)} valves, expected {nv}"
    again = reference_worst_case(net, sol.placement)
    if again != sol.ud:
        return f"reported ud {sol.ud} but re-evaluation gives {again}"
    return None


def _timed_solve(tracer, net, nv, opts=None):
    """(Solution | None for a proven-infeasible budget | exception, seconds)."""
    t0 = time.perf_counter()
    try:
        with tracer.span("solver.solve"):
            result = solver.solve(net, nv, opts)
    except solver.InfeasibleBudget:
        result = None
    except Exception as exc:  # recorded and counted as a failed operation
        result = exc
    return result, time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.refs = None

    def close(self):
        pass

    def references(self):
        return self.refs

    def solutions(self, answers, tracer):
        """Solution objects of one pass, for the solver's layer counts."""
        return []

    def warm_starts(self, tracer):
        """(warm starts offered, warm starts the solve never improved)."""
        return 0, 0

    def layer_counts(self, answers):
        """Deterministic per-pass counts that are not solver statistics."""
        return {}

    def solve_seconds(self, answers):
        """Seconds one pass spent in solves, as timed by the benchmark."""
        return 0.0


class SolveLadder(Workload):
    name = "solve-ladder"

    def load(self):
        self.nets = {inst: load_instance(inst) for _, inst, _, _ in RUNGS}
        self.refs = load_references()["ladder"]

    def run_pass(self, tracer):
        answers = []
        for rung, inst, nv, capped in RUNGS:
            opts = solver.SolverOptions(node_limit=NODE_CAP if capped else None)
            sol, dt = _timed_solve(tracer, self.nets[inst], nv, opts)
            answers.append((rung, sol, dt))
        return answers

    def check(self, answers, refs):
        failures = []
        proved = 0
        for (rung, inst, nv, capped), (_, sol, _) in zip(RUNGS, answers):
            if not isinstance(sol, solver.Solution):
                failures.append(f"{rung}: {sol!r}")
                continue
            proved += sol.proof == "optimal"
            if capped and sol.placement is None and sol.proof == "best-found":
                continue    # cap hit before a first incumbent: a quality outcome
            why = _check_solution(self.nets[inst], nv, sol)
            if why is None and not capped:
                expect = refs[rung]["ud_mls"]
                if sol.proof != "optimal" or sol.ud != expect:
                    why = f"{sol.proof} ud {sol.ud}, brute force gives {expect}"
            if why:
                failures.append(f"{rung}: {why}")
        return len(RUNGS), failures, proved

    def corrupt(self, refs):
        bad = copy.deepcopy(refs)
        bad[RUNGS[0][0]]["ud_mls"] += 1
        return bad

    def solutions(self, answers, tracer):
        return [sol for _, sol, _ in answers if isinstance(sol, solver.Solution)]

    def layer_counts(self, answers):
        sols = self.solutions(answers, None)
        found = [s for s in sols if s.placement is not None]
        return {
            "solver.best_ud_lps": sum(s.ud for s in found) / MLS,
            "solver.time_to_best_s": sum(s.anytime[-1][0] for s in found if s.anytime),
            "solver.rungs_without_incumbent": len(RUNGS) - len(found),
        }

    def solve_seconds(self, answers):
        return sum(dt for _, _, dt in answers)

    def describe(self, answers):
        return [f"{rung}: {sol.proof} ud={format_flow(sol.ud)} l/s nodes={sol.stats.nodes} "
                f"leaves={sol.stats.leaves} {dt:.3f}s"
                if isinstance(sol, solver.Solution) else f"{rung}: {sol!r}"
                for rung, sol, dt in answers]


class SweepFrontier(Workload):
    name = "sweep-frontier"

    def load(self):
        self.nets = {inst: load_instance(inst) for inst, _, _ in SWEEPS}
        self.refs = load_references()["sweep"]

    def run_pass(self, tracer):
        answers = []
        for inst, lo, hi in SWEEPS:
            t0 = time.perf_counter()
            try:
                with tracer.span("pareto.sweep"):
                    result = pareto.sweep(self.nets[inst], range(lo, hi + 1))
            except Exception as exc:  # recorded and counted as failed operations
                result = exc
            answers.append((inst, result, time.perf_counter() - t0))
        return answers

    def check(self, answers, refs):
        ops = 0
        failures = []
        proved = 0
        for (inst, lo, hi), (_, result, _) in zip(SWEEPS, answers):
            nvs = range(lo, hi + 1)
            ops += len(nvs) + 1
            if not isinstance(result, pareto.SweepResult):
                failures.extend([f"{inst}: {result!r}"] * (len(nvs) + 1))
                continue
            net = self.nets[inst]
            solved = {pt.n_valves: pt for pt in result.points + result.dropped}
            for nv in nvs:
                expect = refs[inst][str(nv)]
                pt = solved.get(nv)
                if pt is None:
                    proved += expect is None
                    if expect is not None:
                        failures.append(f"{inst} nv={nv}: skipped, brute force gives {expect}")
                    continue
                proved += pt.proof == "optimal"
                if pt.proof != "optimal" or pt.ud != expect:
                    failures.append(f"{inst} nv={nv}: {pt.proof} ud {pt.ud}, "
                                    f"brute force gives {expect}")
                elif len(pt.placement) != nv:
                    failures.append(f"{inst} nv={nv}: {len(pt.placement)} valves")
                elif reference_worst_case(net, pt.placement) != pt.ud:
                    failures.append(f"{inst} nv={nv}: re-evaluation disagrees")
            best = math.inf
            frontier = []
            for nv in nvs:
                ud = _ud_or_inf(refs[inst][str(nv)])
                if ud < best:
                    best = ud
                    frontier.append(nv)
            got = [pt.n_valves for pt in result.points]
            if got != frontier:
                failures.append(f"{inst}: frontier {got}, brute force gives {frontier}")
        return ops, failures, proved

    def corrupt(self, refs):
        bad = copy.deepcopy(refs)
        inst, lo, _ = SWEEPS[0]
        bad[inst][str(lo)] += 1
        return bad

    def solutions(self, answers, tracer):
        return [sol for _, sol in tracer.results("pareto.solve")
                if isinstance(sol, solver.Solution)]

    def warm_starts(self, tracer):
        offered = hits = 0
        for (_, _, opts), sol in tracer.results("pareto.solve"):
            if opts.initial_incumbent is not None:
                offered += 1
                hits += sol.placement == opts.initial_incumbent
        return offered, hits

    def layer_counts(self, answers):
        return {"pareto.frontier_points": sum(len(r.points) for _, r, _ in answers
                                              if isinstance(r, pareto.SweepResult))}

    def solve_seconds(self, answers):
        return sum(dt for _, _, dt in answers)

    def describe(self, answers):
        return [f"{inst}: {len(r.points)} frontier points, {len(r.dropped)} dominated, "
                f"{len(r.notes)} infeasible budgets, {dt:.3f}s"
                if isinstance(r, pareto.SweepResult) else f"{inst}: {r!r}"
                for inst, r, dt in answers]


class VerifyCorpus(Workload):
    """`valveplan check --corpus 50 --nv 2..5` plus a criterion-6 sample."""

    name = "verify-corpus"

    def load(self):
        self.nets = [network.parse_network(read_text("corpus", f"rand-{s}.json"))
                     for s in CORPUS_SEEDS]
        self.refs = load_references()["corpus"]

    def run_pass(self, tracer):
        cases = []
        for seed, net in zip(CORPUS_SEEDS, self.nets):
            for nv in CORPUS_NVS:
                t0 = time.perf_counter()
                try:
                    with tracer.span("oracle.brute_force"):
                        found = oracle.brute_force(net, nv)
                except Exception as exc:  # recorded and counted as a failed operation
                    found = exc
                t_oracle = time.perf_counter() - t0
                sol, t_solve = _timed_solve(tracer, net, nv)
                cases.append((seed, nv, found, sol, t_oracle, t_solve))

        # criterion 6 on a seeded sample: one break per sector, judged by
        # component deletion and by reachability from the sources
        rng = random.Random(self.seed)
        checks = mismatches = 0
        while checks < FORMULATION_CHECKS:
            net = self.nets[rng.randrange(len(self.nets))]
            mask = rng.getrandbits(net.num_slots)
            placement = [s for s in range(net.num_slots) if mask >> s & 1]
            for rep, _, boundary, _, _, has_source in isolation.scan_sectors(net, mask):
                feasible, ud = isolation.ud_by_component_deletion(net, placement, rep)
                if has_source:
                    ok = not feasible
                else:
                    _, delivered = isolation.delivered_with_closed(net, boundary)
                    ok = feasible and ud == net.total_demand - delivered
                checks += 1
                mismatches += not ok
                if checks == FORMULATION_CHECKS:
                    break
        return cases, checks, mismatches

    def check(self, answers, refs):
        cases, checks, mismatches = answers
        nets = dict(zip(CORPUS_SEEDS, self.nets))
        failures = []
        proved = 0
        for seed, nv, found, sol, _, _ in cases:
            net = nets[seed]
            expect = _ud_or_inf(refs[str(seed)][str(nv)])
            if isinstance(found, oracle.OracleResult):
                got = math.inf if found.all_infeasible else found.ud
                if got != expect or found.count != math.comb(net.num_slots, nv):
                    failures.append(f"rand-{seed} nv={nv}: brute force {got} over "
                                    f"{found.count} placements, reference {expect}")
                expect = got
            else:
                failures.append(f"rand-{seed} nv={nv}: brute force {found!r}")
            # the solver is judged against the oracle, as `valveplan check` does
            if sol is None:
                proved += 1
                if expect != math.inf:
                    failures.append(f"rand-{seed} nv={nv}: solver says infeasible, "
                                    f"oracle {expect}")
            elif not isinstance(sol, solver.Solution):
                failures.append(f"rand-{seed} nv={nv}: solver {sol!r}")
            else:
                proved += sol.proof == "optimal"
                why = _check_solution(net, nv, sol)
                if why is None and (sol.proof != "optimal" or sol.ud != expect):
                    why = f"solver {sol.proof} {sol.ud}, oracle {expect}"
                if why:
                    failures.append(f"rand-{seed} nv={nv}: {why}")
        # the formulation sample counts as one operation, so that the share of
        # failed operations weighs a wrong solve or oracle answer fully
        if mismatches:
            failures.append(f"formulation check: {mismatches} of {checks} mismatch")
        return 2 * len(cases) + 1, failures, proved

    def corrupt(self, refs):
        bad = copy.deepcopy(refs)
        key = str(CORPUS_NVS[0])
        first = bad[str(CORPUS_SEEDS[0])]
        first[key] = 0 if first[key] is None else first[key] + 1
        return bad

    def solutions(self, answers, tracer):
        return [sol for *_, sol, _, _ in answers[0] if isinstance(sol, solver.Solution)]

    def layer_counts(self, answers):
        cases = answers[0]
        return {
            "oracle.placements": sum(f.count for _, _, f, *_ in cases
                                     if isinstance(f, oracle.OracleResult)),
            "oracle.seconds": sum(c[4] for c in cases),
        }

    def solve_seconds(self, answers):
        return sum(c[5] for c in answers[0])

    def describe(self, answers):
        cases, checks, mismatches = answers
        counts = self.layer_counts(answers)
        return [f"{len(cases)} brute-force + solve pairs, {counts['oracle.placements']} "
                f"placements in {counts['oracle.seconds']:.3f}s, solves "
                f"{self.solve_seconds(answers):.3f}s",
                f"{checks} formulation checks, {mismatches} mismatches"]


class EvaluateLarge(Workload):
    """`worst_case_ud` plus in-process `valveplan evaluate` on large networks."""

    name = "evaluate-large"

    def __init__(self, seed):
        super().__init__(seed)
        self._tmp = None
        self._fresh_refs = None

    def load(self):
        self.close()
        self.nets = {name: load_instance(name) for name in LARGE}
        self.placements = {}
        self.cli_files = {}
        if self.seed == DEFAULT_SEED:
            for name, net in self.nets.items():
                self.placements[name] = []
                for k in range(PLACEMENTS_PER_NET):
                    with open(placement_file(name, k), "r", encoding="utf-8") as fh:
                        self.placements[name].append(network.parse_placement(net, fh.read()))
                self.cli_files[name] = placement_file(name, 0)
            self.refs = load_references()["large"]
        else:
            # fresh placements for the CLI, in files kept inside the checkout
            # like everything else the run writes
            self._tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
            for name, net in self.nets.items():
                self.placements[name] = draw_placements(net, self.seed)
                path = os.path.join(self._tmp, f"{name}-p0.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(net.placement_tokens(self.placements[name][0])) + "\n")
                self.cli_files[name] = path
            self.refs = self._fresh_refs

    def close(self):
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def references(self):
        """Committed references for the default seed; otherwise computed
        once by component deletion, outside every timed region."""
        if self.refs is None:
            self.refs = self._fresh_refs = {
                f"{name}-p{k}": reference_worst_case(net, pl)
                for name, net in self.nets.items()
                for k, pl in enumerate(self.placements[name])}
        return self.refs

    def run_pass(self, tracer):
        evaluated = []
        for name, net in self.nets.items():
            for k, placement in enumerate(self.placements[name]):
                try:
                    with tracer.span("isolation.worst_case_ud"):
                        result = isolation.worst_case_ud(net, placement)
                except Exception as exc:  # recorded and counted as a failed operation
                    result = exc
                evaluated.append((f"{name}-p{k}", result))
        reports = []
        for name in self.nets:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["evaluate", os.path.join(DATA, "instances", f"{name}.json"),
                                 self.cli_files[name]])
            reports.append((f"{name}-p0", code, out.getvalue()))
        return evaluated, reports

    def check(self, answers, refs):
        evaluated, reports = answers
        failures = []
        proved = 0
        for key, result in evaluated:
            if not isinstance(result, isolation.WorstCase):
                failures.append(f"{key}: {result!r}")
                continue
            proved += result.feasible
            if not result.feasible or result.ud != refs[key]:
                failures.append(f"{key}: worst_case_ud {result.ud}, reference {refs[key]}")
        for key, code, text in reports:
            proved += code == cli.EXIT_OK
            line = f"worst_case_ud_lps: {format_flow(refs[key])}"
            if code != cli.EXIT_OK or line not in text.splitlines():
                failures.append(f"{key}: valveplan evaluate exit {code}, expected '{line}'")
        return len(evaluated) + len(reports), failures, proved

    def corrupt(self, refs):
        # a placement the CLI does not read, so exactly one check sees it
        bad = dict(refs)
        bad[f"{LARGE[0]}-p{PLACEMENTS_PER_NET - 1}"] += 1
        return bad

    def describe(self, answers):
        evaluated, reports = answers
        return [f"{len(evaluated)} worst_case_ud evaluations, "
                f"{len(reports)} valveplan evaluate calls"]


WORKLOADS = {cls.name: cls for cls in (SolveLadder, SweepFrontier, VerifyCorpus, EvaluateLarge)}
