import pytest

from valveplan import pareto
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
