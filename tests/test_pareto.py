import random

import pytest

from valveplan import pareto
from valveplan.generate import random_instance
from valveplan.isolation import (present_mask, scan_sectors, ud_by_component_deletion,
                                 worst_case_fast)
from valveplan.oracle import brute_force
from valveplan.pareto import sweep
from valveplan.solver import BudgetError, SolverOptions


def oracle_frontier(net, nvs):
    points = []
    best = None
    for nv in nvs:
        result = brute_force(net, nv)
        if result.all_infeasible:
            continue
        if best is None or result.ud < best:
            points.append((nv, result.ud))
            best = result.ud
    return points


FIG1_FRONTIER = [(2, 47000), (3, 36000), (4, 24000), (5, 17000), (6, 15000)]


def test_fig1_frontier_matches_oracle(fig1):
    result = sweep(fig1, range(2, 15))
    got = [(p.n_valves, p.ud) for p in result.points]
    assert got == oracle_frontier(fig1, range(2, 15)) == FIG1_FRONTIER
    assert all(p.proof == "optimal" for p in result.points)


def test_single_point_range(fig1):
    result = sweep(fig1, [6])
    assert [(p.n_valves, p.ud) for p in result.points] == [(6, 15000)]


def test_equal_ud_point_dropped(fig1):
    # 7 valves do no better than 6 on fig1: dominated, dropped
    result = sweep(fig1, [6, 7])
    assert [(p.n_valves, p.ud) for p in result.points] == [(6, 15000)]
    assert [(p.n_valves, p.ud) for p in result.dropped] == [(7, 15000)]


def test_infeasible_budgets_noted(fig1):
    result = sweep(fig1, range(1, 4))
    assert [(p.n_valves, p.ud) for p in result.points] == [(2, 47000), (3, 36000)]
    assert len(result.notes) == 1 and "1" in result.notes[0]


def test_frontier_is_antichain(fig1, corpus):
    nets = [fig1] + corpus[:6]
    for net in nets:
        result = sweep(net, range(2, min(net.num_slots, 8) + 1))
        pts = result.points
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                assert a.n_valves < b.n_valves
                assert b.ud < a.ud, "frontier is not an antichain"


def test_monotone_optimum_on_corpus(corpus, corpus_oracle):
    # adding a valve never worsens the optimum (checked, not assumed)
    from conftest import CORPUS_NVS
    for idx in range(len(corpus)):
        values = [corpus_oracle[(idx, nv)].ud for nv in CORPUS_NVS
                  if not corpus_oracle[(idx, nv)].all_infeasible]
        assert values == sorted(values, reverse=True) or all(
            a >= b for a, b in zip(values, values[1:]))


def test_warm_start_does_not_change_frontier(fig1, corpus):
    for net in (fig1, corpus[0], corpus[1]):
        nvs = range(2, min(net.num_slots, 8) + 1)
        result = sweep(net, nvs)
        assert [(p.n_valves, p.ud) for p in result.points] == oracle_frontier(net, nvs)


def test_limited_sweep_never_rises(fig1, fig2, corpus):
    # each warm start is the best one-valve extension of the previous
    # point, and a valve never raises any break's damage: even a starved
    # solve cannot end above the point before it. Cold solves starved at 5
    # nodes do rise on fig1, fig2, corpus[2] and corpus[4]
    for net in [fig1, fig2] + corpus[:6]:
        for limit in (1, 2, 3, 5):
            result = sweep(net, range(2, net.num_slots + 1), SolverOptions(node_limit=limit))
            solved = sorted(result.points + result.dropped, key=lambda p: p.n_valves)
            uds = [p.ud for p in solved]
            assert uds == sorted(uds, reverse=True), (net.name, limit)


def test_warm_start_seeds_incumbent(fig1):
    # with a warm start the later solves begin with a finite bound, so the
    # anytime log of an already-optimal warm candidate can be a single entry
    result = sweep(fig1, [5, 6])
    assert [(p.n_valves, p.ud) for p in result.points] == [(5, 17000), (6, 15000)]


def test_empty_range_rejected(fig1):
    with pytest.raises(ValueError):
        sweep(fig1, [])


def test_out_of_range_budget_fails_before_any_solve(fig1, monkeypatch):
    # the whole range is checked up front: no budget below the bad one is solved
    calls = []
    monkeypatch.setattr(pareto, "solve", lambda *args: calls.append(args))
    for nvs, bad in ((range(14, 16), 15), (range(0, 3), 0)):
        with pytest.raises(BudgetError, match=rf"^valve budget must be in \[1, 14\], got {bad}$"):
            sweep(fig1, nvs)
    assert calls == []


def test_huge_budget_range_fails_without_building_it(fig1):
    # the range is checked as it is read, so rejecting budget 15 of a
    # million-budget range holds at most 14 budgets, not a million
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"^valve budget must be in \[1, 14\], got 15$"):
            sweep(fig1, range(1, 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("nvs", [[3.0, 4], [2, 3.5, 5], [True, 3]])
def test_non_integer_budget_fails_before_any_solve(fig1, monkeypatch, nvs):
    # every budget is checked, not only the ends of the range
    calls = []
    monkeypatch.setattr(pareto, "solve", lambda *args: calls.append(args))
    with pytest.raises(BudgetError, match="^valve budget must be an integer, got "):
        sweep(fig1, nvs)
    assert calls == []


def test_best_found_points_participate(fig1):
    # starve the solver: warm-started candidates survive as best-found
    # points and still take part in dominance filtering, flagged non-proven
    opts = SolverOptions(node_limit=3, face_constraints=False, symmetry=False,
                         lb_prune=False)
    result = sweep(fig1, [2, 3], opts)
    assert all(p.proof in ("optimal", "best-found") for p in result.points)
    assert any(p.proof == "best-found" for p in result.points + result.dropped) or result.notes


def test_interrupt_ends_the_sweep_after_that_budget(fig1):
    def interrupt_below_30(elapsed, ud):
        if ud < 30000:
            raise KeyboardInterrupt

    result = sweep(fig1, range(2, 15), SolverOptions(on_incumbent=interrupt_below_30))
    assert [p.n_valves for p in result.points] == [2, 3, 4]
    assert result.points[-1].proof == "best-found"
    assert result.notes == ["n_valves=4: interrupted; larger budgets were not solved"]


# -- the warm start: the best one-valve extension -----------------------------


def exhaustive_extension(net, placement):
    """The best one-valve extension by trying every free slot, ascending;
    the first cheapest wins. None when every slot holds a valve."""
    base = present_mask(net, placement)
    best = best_ud = None
    for s in range(net.num_slots):
        if base >> s & 1:
            continue
        ud, _, _ = worst_case_fast(net, base | 1 << s)
        if best_ud is None or ud < best_ud:
            best, best_ud = placement | {s}, ud
    return best


def random_feasible_placements(net, count, rng):
    need = [s for s in range(net.num_slots) if net.source_slots_mask >> s & 1]
    free = [s for s in range(net.num_slots) if not net.source_slots_mask >> s & 1]
    for _ in range(count):
        yield frozenset(need + rng.sample(free, rng.randint(0, len(free))))


def test_best_extension_equals_exhaustive_scan(fig1, fig2, corpus):
    from conftest import real_density_net
    rng = random.Random(24)
    nets = [(fig1, 60), (fig2, 60)] + [(net, 12) for net in corpus]
    nets += [(random_instance(seed, 33), 15) for seed in range(3)]
    nets += [(real_density_net(seed), 15) for seed in range(2)]
    for net, count in nets:
        for placement in random_feasible_placements(net, count, rng):
            assert pareto._best_extension(net, placement) == exhaustive_extension(net, placement), \
                (net.name, sorted(placement))


def test_best_extension_both_valve_pipe_worst():
    # b holds a valve on both slots and is the worst break: no valve lowers
    # it, so every extension ties and the lowest free slot (a:2) wins
    from conftest import make_net
    net = make_net([1, 2, 3], [1], [("a", 1, 2, 1), ("b", 2, 3, 50), ("c", 3, 1, 2)])
    placement = frozenset(net.parse_slot_token(t) for t in ("a:1", "c:1", "b:2", "b:3"))
    assert worst_case_fast(net, present_mask(net, placement))[:2] == (50_000, net.edge_index["b"])
    expected = placement | {net.parse_slot_token("a:2")}
    assert pareto._best_extension(net, placement) == expected == exhaustive_extension(net, placement)


def test_best_extension_two_tied_worst_sectors():
    # two pendant paths of 10 l/s hang off the source: a valve inside one
    # leaves the other as bad, so the lowest free slot (a:2) wins
    from conftest import make_net
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 1, 2, 5), ("b", 2, 3, 5), ("c", 1, 4, 5), ("d", 4, 5, 5)])
    placement = frozenset(net.parse_slot_token(t) for t in ("a:1", "c:1"))
    assert worst_case_fast(net, present_mask(net, placement))[:2] == (10_000, net.edge_index["a"])
    expected = placement | {net.parse_slot_token("a:2")}
    assert pareto._best_extension(net, placement) == expected == exhaustive_extension(net, placement)


def test_best_extension_of_a_full_placement_is_none(fig1):
    assert pareto._best_extension(fig1, frozenset(range(fig1.num_slots))) is None


def test_best_extension_evaluates_only_the_worst_sector(fig2, monkeypatch):
    # no evaluation when another sector ties the worst damage; otherwise one
    # per empty slot of the worst sector, ascending, up to the first that
    # reaches the runner-up's damage. Sectors and damages come from the
    # reference floods and component deletion
    rng = random.Random(7)
    tied = stopped = 0
    for placement in random_feasible_placements(fig2, 60, rng):
        base = present_mask(fig2, placement)
        if base == (1 << fig2.num_slots) - 1:
            continue
        rows = [(edges_mask, ud_by_component_deletion(fig2, placement, rep)[1])
                for rep, edges_mask, *_ in scan_sectors(fig2, base)]
        worst_ud = max(ud for _, ud in rows)
        worst = [edges_mask for edges_mask, ud in rows if ud == worst_ud]
        expected = 0
        if len(worst) > 1:
            tied += 1
        else:
            runner_up = max((ud for edges_mask, ud in rows if edges_mask != worst[0]), default=0)
            empty = [s for s in range(fig2.num_slots)
                     if not base >> s & 1 and worst[0] >> (s >> 1) & 1]
            for s in empty:
                expected += 1
                if worst_case_fast(fig2, base | 1 << s)[0] <= runner_up:
                    stopped += expected < len(empty)
                    break
        calls = []

        def counted(net, mask):
            calls.append(mask)
            return worst_case_fast(net, mask)

        monkeypatch.setattr(pareto, "worst_case_fast", counted)
        pareto._best_extension(fig2, placement)
        monkeypatch.undo()
        assert len(calls) == expected, sorted(placement)
    assert tied and stopped


# -- the sweep's searches, pinned ---------------------------------------------

# per solved budget: (nv, SearchStats.nodes, ud, proof); budgets below the
# source-side slot count raise InfeasibleBudget before any search
SWEEP_PINS = {
    "fig1": (range(2, 15), [
        (2, 1, 47000, "optimal"), (3, 1, 36000, "optimal"), (4, 8, 24000, "optimal"),
        (5, 12, 17000, "optimal")] + [(nv, 0, 15000, "optimal") for nv in range(6, 15)]),
    "fig2": (range(2, 21), [
        (2, 1, 10000, "optimal"), (3, 1, 9000, "optimal"), (4, 18, 5000, "optimal"),
        (5, 54, 5000, "optimal"), (6, 98, 4000, "optimal"), (7, 98, 3000, "optimal"),
        (8, 69, 2000, "optimal"), (9, 19, 2000, "optimal"), (10, 34, 2000, "optimal"),
        (11, 68, 2000, "optimal"), (12, 150, 2000, "optimal"),
        (13, 38, 1000, "optimal")] + [(nv, 0, 1000, "optimal") for nv in range(14, 21)]),
    "rand-7-m12": (range(2, 25), [
        (4, 1, 147000, "optimal"), (5, 3, 117000, "optimal"), (6, 13, 97000, "optimal"),
        (7, 31, 77000, "optimal"), (8, 37, 57000, "optimal"), (9, 54, 40000, "optimal"),
        (10, 177, 39000, "optimal"), (11, 483, 30000, "optimal"), (12, 191, 28000, "optimal"),
        (13, 297, 25000, "optimal"), (14, 369, 22000, "optimal")]
        + [(nv, 0, 20000, "optimal") for nv in range(15, 25)]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_searches_are_pinned(name, fig1, fig2, monkeypatch):
    # a changed warm start changes the trees walked; it must show here
    net = {"fig1": fig1, "fig2": fig2}.get(name) or random_instance(7, 12)
    nvs, pinned = SWEEP_PINS[name]
    solved = []
    real = pareto.solve

    def recorded(net, nv, opts):
        sol = real(net, nv, opts)
        solved.append((nv, sol.stats.nodes, sol.ud, sol.proof))
        return sol

    monkeypatch.setattr(pareto, "solve", recorded)
    sweep(net, nvs)
    assert solved == pinned
