"""Command-line front end.

Subcommands: `evaluate` a given placement, `solve` one valve budget,
`sweep` a budget range for the cost/damage frontier, and `check` the solver
against brute-force enumeration (single instance or a seeded random corpus).

Exit codes: 0 success, 1 input error, 2 infeasible, 3 limit expired with
only a best-found answer (or a check that a limit or the enumeration cap
kept from comparing), 4 check mismatch.
"""

import argparse
import math
import sys

from . import instances
from .generate import random_instance
from .isolation import INFEASIBLE_UD, _worst_break, mask_bits, present_mask, sector_damage
from .network import InstanceError, format_flow, parse_placement, read_text
from .oracle import DEFAULT_CAP, EnumerationCapExceeded, brute_force
from .pareto import sweep
from .solver import BudgetError, InfeasibleBudget, SolverOptions, check_budget, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_MISMATCH = 4


class _Report:
    """Collects output lines; timing lines are marked so reruns of the same
    command are byte-identical apart from them."""

    def __init__(self, fmt="text"):
        self.fmt = fmt
        self.lines = []

    def kv(self, key, value):
        self.lines.append(f"{key}: {value}")

    def timing(self, key, value):
        self.lines.append(f"{key}: {value}\t#timing")

    def row(self, *cells):
        sep = "," if self.fmt == "csv" else "  "
        self.lines.append(sep.join(str(c) for c in cells))

    def emit(self, stream=None):
        print("\n".join(self.lines), file=stream or sys.stdout)


def _instance_digest(report, net):
    report.kv("instance", net.name or "<unnamed>")
    report.kv("nodes", net.num_nodes)
    report.kv("edges", net.num_edges)
    report.kv("sources", len(net.sources))
    report.kv("total_demand_lps", format_flow(net.total_demand))


def _solver_options(args):
    return SolverOptions(
        face_constraints=not args.no_faces,
        symmetry=not args.no_symmetry,
        lb_prune=not args.no_bound,
        restart_mode=args.restart_mode,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
    )


def _add_solver_flags(p):
    p.add_argument("--no-faces", action="store_true", help="disable the face pruning rule")
    p.add_argument("--no-symmetry", action="store_true", help="disable degree-2 symmetry breaking")
    p.add_argument("--no-bound", action="store_true",
                   help="disable class-bound pruning and the bridge-floor stop")
    p.add_argument("--restart-mode", choices=("continuing", "restarting"), default="continuing")
    p.add_argument("--time-limit", type=_limit(float), default=None, help="seconds per solve")
    p.add_argument("--node-limit", type=_limit(int), default=None)


def _budget_range(text):
    """`--nv` as a non-empty range: "6" or "2..14"."""
    lo, dots, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty budget range {text!r}")
    return range(lo, hi + 1)


def _positive_count(text):
    """`--corpus` or `--cap` as a count of at least 1."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {text!r}")
    return count


def _limit(convert):
    """argparse type for `--time-limit` or `--node-limit`: a number of at
    least 0 (NaN is not)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"expected a number of at least 0, got {text!r}")
        return value
    return parse


def _write_anytime(path, anytime):
    with open(path, "w", encoding="utf-8") as fh:
        for elapsed, ud in anytime:
            fh.write(f"{int(elapsed * 1000)},{format_flow(ud)}\n")


def _solution_block(report, net, sol):
    report.kv("ud_lps", format_flow(sol.ud))
    report.kv("worst_break", net.edge_labels[sol.argmax_edge] if sol.argmax_edge is not None else "-")
    report.kv("proof", sol.proof)
    report.kv("placement", " ".join(sol.tokens(net)))
    for key, value in sol.stats.as_dict().items():
        report.kv(f"stat_{key}", value)
    report.timing("elapsed_s", f"{sol.elapsed:.3f}")


def cmd_evaluate(args):
    report = _Report(args.format)
    net = instances.load(args.instance)
    placement = parse_placement(net, read_text(args.placement))
    _instance_digest(report, net)
    report.kv("valves", len(placement))
    rows = [None] * net.num_edges
    damages = []
    for pos, (rep, edges_mask, boundary, ud) in enumerate(
            sector_damage(net, present_mask(net, placement))):
        for e in mask_bits(edges_mask):
            rows[e] = (pos, boundary.bit_count(), ud)
        damages.append((rep, ud))
    worst, worst_edge = _worst_break(damages)
    report.row("edge", "sector", "closed_valves", "ud_lps", "isolable")
    for e, (pos, closed, ud) in enumerate(rows):
        report.row(net.edge_labels[e], pos, closed, format_flow(ud),
                   "no" if ud == INFEASIBLE_UD else "yes")
    if worst == INFEASIBLE_UD:
        report.kv("result", "infeasible: some pipe cannot be isolated")
        report.emit()
        return EXIT_INFEASIBLE
    report.kv("worst_case_ud_lps", format_flow(worst))
    report.kv("worst_break", net.edge_labels[worst_edge] if worst_edge is not None else "-")
    report.emit()
    return EXIT_OK


def cmd_solve(args):
    report = _Report()
    net = instances.load(args.instance)
    _instance_digest(report, net)
    report.kv("n_valves", args.nv)
    try:
        sol = solve(net, args.nv, _solver_options(args))
    except InfeasibleBudget as exc:
        report.kv("result", f"infeasible budget: {exc}")
        if exc.witness_edge is not None:
            report.kv("witness_pipe", net.edge_labels[exc.witness_edge])
        report.emit()
        return EXIT_INFEASIBLE
    if args.anytime:
        _write_anytime(args.anytime, sol.anytime)
    if sol.placement is None:
        stopped = "interrupted" if sol.interrupted else "limit expired"
        report.kv("result", f"{stopped} before any solution was found")
        report.emit()
        return EXIT_LIMIT
    _solution_block(report, net, sol)
    report.emit()
    return EXIT_OK if sol.proof == "optimal" else EXIT_LIMIT


def cmd_sweep(args):
    report = _Report(args.format)
    net = instances.load(args.instance)
    _instance_digest(report, net)
    result = sweep(net, args.nv, _solver_options(args))
    report.row("nv", "ud", "proof", "elapsed_ms")
    for pt in result.points:
        elapsed_ms = int(pt.elapsed * 1000)
        # keep csv rows clean for plotting; mark timing for text consumers
        cell = elapsed_ms if args.format == "csv" else f"{elapsed_ms}\t#timing"
        report.row(pt.n_valves, format_flow(pt.ud), pt.proof, cell)
    for note in result.notes:
        report.kv("note", note)
    if args.out_dir:
        import os
        os.makedirs(args.out_dir, exist_ok=True)
        for pt in result.points:
            path = os.path.join(args.out_dir, f"placement_nv{pt.n_valves}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(net.placement_tokens(pt.placement)) + "\n")
        report.kv("placements_written", args.out_dir)
    report.emit()
    return EXIT_OK if result.complete else EXIT_LIMIT


def _check_one(report, net, nv, opts, cap):
    """Compare one budget with brute force and report it. Returns "PASS"
    when the solver proves the oracle's optimum, "FAIL" when it disagrees,
    "LIMIT" when a limit stopped the solve first, and "SKIP" when the
    enumeration cap skips the case."""
    label = net.name or "<instance>"
    try:
        reference = brute_force(net, nv, cap=cap)
    except EnumerationCapExceeded as exc:
        report.kv("check", f"SKIP {label} nv={nv}: {exc}")
        return "SKIP"
    try:
        sol = solve(net, nv, opts)
        if sol.interrupted:
            # solve swallows Ctrl-C; end the whole check, not this one solve
            raise KeyboardInterrupt
        solver_ud, proved = sol.ud, sol.proof == "optimal"
    except InfeasibleBudget:
        solver_ud, proved = math.inf, True
    if proved:
        status = "PASS" if solver_ud == reference.ud else "FAIL"
        shown = format_flow(solver_ud)
    else:
        # an unproved incumbent disagrees only by beating the optimum
        status = "FAIL" if solver_ud < reference.ud else "LIMIT"
        shown = "best-found" if sol.placement is None else f"best-found:{format_flow(solver_ud)}"
    report.kv("check",
              f"{status} {label} nv={nv} solver={shown} oracle={format_flow(reference.ud)}")
    return status


def cmd_check(args):
    report = _Report()
    if bool(args.instance) == bool(args.corpus) or args.instance and not args.nv:
        report.kv("error", "check needs either an instance with --nv or --corpus N")
        report.emit(sys.stderr)
        return EXIT_INPUT
    opts = _solver_options(args)
    outcomes = []
    if args.corpus:
        nvs = args.nv or range(2, 6)
        for i in range(args.corpus):
            net = random_instance(args.seed + i)
            for nv in nvs:
                if nv > net.num_slots:
                    # every later budget is too, so one line skips them all
                    shown = nv if nv == nvs[-1] else f"{nv}..{nvs[-1]}"
                    report.kv("check", f"SKIP {net.name} nv={shown}: more valves than its "
                                       f"{net.num_slots} slots")
                    outcomes.append("SKIP")
                    break
                outcomes.append(_check_one(report, net, nv, opts, args.cap))
    else:
        net = instances.load(args.instance)
        for nv in [check_budget(net, nv) for nv in args.nv]:   # all before enumerating
            outcomes.append(_check_one(report, net, nv, opts, args.cap))
    if "FAIL" in outcomes:
        result, code = "FAIL", EXIT_MISMATCH
    elif "LIMIT" in outcomes:
        result, code = "LIMIT", EXIT_LIMIT
    elif "PASS" in outcomes:
        result, code = "PASS", EXIT_OK
    else:
        # nothing was compared, so nothing passed: the cap is a limit
        result, code = "SKIP", EXIT_LIMIT
    report.kv("result", result)
    report.emit()
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT, not argparse's 2 ("infeasible")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="valveplan",
        description="Exact optimizer for isolation valve placement in water networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="evaluate a placement file against an instance")
    p.add_argument("instance", help="instance file or bundled name (fig1, fig2)")
    p.add_argument("placement", help="placement file of edge:node tokens")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("solve", help="optimal placement for one valve budget")
    p.add_argument("instance")
    p.add_argument("--nv", type=int, required=True, help="number of valves to place")
    p.add_argument("--anytime", metavar="PATH", help="write the incumbent log as CSV")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="frontier over a range of valve budgets")
    p.add_argument("instance")
    p.add_argument("--nv", type=_budget_range, required=True, help="budget range, e.g. 2..14")
    p.add_argument("--out-dir", help="directory for per-point placement files")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="compare solver against brute force")
    p.add_argument("instance", nargs="?", help="instance file or bundled name")
    p.add_argument("--nv", type=_budget_range, help="budget or range, e.g. 6 or 2..5")
    p.add_argument("--corpus", type=_positive_count, metavar="N",
                   help="check N seeded random instances instead")
    p.add_argument("--seed", type=int, default=0, help="first corpus seed")
    p.add_argument("--cap", type=_positive_count, default=DEFAULT_CAP,
                   help="enumeration cap; budgets with more placements are skipped")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
