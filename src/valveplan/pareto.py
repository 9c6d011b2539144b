"""Valve count versus worst-case damage: frontier by repeated exact solves.

Both objectives matter when designing an isolation system: valves cost
money, damage costs service. With an integer valve count the two-objective
problem decomposes into one exact solve per count, followed by dominance
filtering.
"""

from dataclasses import dataclass, replace

from .isolation import present_mask, worst_case_fast
from .solver import BudgetError, InfeasibleBudget, SolverOptions, check_budget, solve


@dataclass
class ParetoPoint:
    n_valves: int
    ud: float                  # ml/s
    placement: frozenset
    proof: str                 # "optimal" | "best-found"
    elapsed: float


@dataclass
class SweepResult:
    points: list               # the non-dominated frontier, ascending valve count
    dropped: list              # solved points removed by dominance
    notes: list                # human-readable skips (infeasible budgets etc.)
    complete: bool = True      # every budget ended in a proof or was shown infeasible


def _best_extension(net, placement):
    """Cheapest one-valve extension of a placement, or None.

    Used to seed the next solve's incumbent: a solution for k valves plus
    any extra valve is a candidate for k+1. The base is a solved placement,
    so it holds every source-side slot and every extension is feasible.
    Candidates are never trusted blindly; the solver re-evaluates before
    installing.
    """
    base = present_mask(net, placement)
    best = None
    best_ud = None
    for s in range(net.num_slots):
        if base >> s & 1:
            continue
        ud, _, _ = worst_case_fast(net, base | 1 << s)
        if best_ud is None or ud < best_ud:
            best_ud = ud
            best = placement | {s}
    return best


def sweep(net, n_valves_range, opts=None):
    """Solve each valve count in `n_valves_range` and keep the frontier.

    Each solve after the first starts from the best one-valve extension of
    the previous point. Adding a valve never raises any break's damage, so
    no point rises above an earlier one, limits or not; a point that does
    no better than the last kept one is dropped as dominated.

    Raises BudgetError, before any solve, when the range is empty or runs
    outside [1, 2 * num_edges].
    Points whose budget cannot isolate every pipe are skipped with a note.
    Points that hit a limit keep their best-found value and are flagged
    through their proof status. A KeyboardInterrupt during a solve ends the
    sweep after that budget, with a note, keeping the points so far.
    `complete` is False when any budget ended on a limit or an interrupt,
    with or without a solution, or the interrupt left budgets unsolved.
    """
    if opts is None:
        opts = SolverOptions()
    nvs = sorted(set(n_valves_range))
    if not nvs:
        raise BudgetError("empty valve-count range")
    check_budget(net, nvs[0])
    check_budget(net, nvs[-1])

    solved = []
    notes = []
    complete = True
    prev = None
    for nv in nvs:
        run_opts = opts
        if prev is not None:
            # at most nv valves: solve pads a shorter candidate itself
            candidate = _best_extension(net, prev)
            if candidate is not None:
                run_opts = replace(opts, initial_incumbent=candidate)
        try:
            sol = solve(net, nv, run_opts)
        except InfeasibleBudget as exc:
            notes.append(f"n_valves={nv}: {exc}")
            continue
        complete &= sol.proof == "optimal" and not sol.interrupted
        if sol.placement is None:
            notes.append(f"n_valves={nv}: no solution within limits")
        else:
            solved.append(ParetoPoint(nv, sol.ud, sol.placement, sol.proof, sol.elapsed))
            prev = sol.placement
        if sol.interrupted:
            notes.append(f"n_valves={nv}: interrupted; larger budgets were not solved")
            break

    points = []
    dropped = []
    for pt in solved:
        if not points or pt.ud < points[-1].ud:
            points.append(pt)
        else:
            dropped.append(pt)
    return SweepResult(points=points, dropped=dropped, notes=notes, complete=complete)
