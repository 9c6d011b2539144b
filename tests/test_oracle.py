import math
from itertools import combinations

import pytest

from valveplan import oracle
from valveplan.isolation import worst_case_fast
from valveplan.oracle import EnumerationCapExceeded, brute_force
from valveplan.solver import BudgetError, solve

from conftest import k4_all_cycles, make_net, real_density_net


@pytest.fixture(scope="module")
def two_sources():
    # path fed from both ends: both end slots are source-side
    return make_net([1, 2, 3, 4, 5], [1, 5],
                    [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("d", 4, 5, 8)])


@pytest.fixture(scope="module")
def k4():
    return k4_all_cycles(3)


def reference_brute_force(net, n_valves):
    """Every placement evaluated by `worst_case_fast`, infeasible ones too:
    (ud, optimal, count, all_infeasible) as `brute_force` reports them."""
    best, winners, count = math.inf, [], 0
    for combo in combinations(range(net.num_slots), n_valves):
        count += 1
        ud, _, feasible = worst_case_fast(net, sum(1 << s for s in combo))
        if not feasible:
            continue
        if ud < best:
            best, winners = ud, [combo]
        elif ud == best:
            winners.append(combo)
    return best, tuple(frozenset(c) for c in winners), count, not winners


ORACLE_CASES = ([("fig1", nv) for nv in range(2, 7)]
                + [("two_sources", nv) for nv in range(1, 6)]
                + [("k4", nv) for nv in range(2, 7)]
                + [("triangle", 1)])


@pytest.mark.parametrize("name, nv", ORACLE_CASES)
def test_matches_evaluate_every_placement(request, name, nv):
    # skipping infeasible placements changes neither the optimum, nor the
    # witnesses and their order, nor the count
    net = request.getfixturevalue(name)
    got = brute_force(net, nv)
    assert (got.ud, got.optimal, got.count, got.all_infeasible) == \
        reference_brute_force(net, nv)


@pytest.mark.parametrize("name, nv", ORACLE_CASES)
def test_evaluates_only_feasible_placements(request, monkeypatch, name, nv):
    net = request.getfixturevalue(name)
    calls = []
    real = oracle.worst_case_fast

    def counted(net, present):
        calls.append(present)
        return real(net, present)

    monkeypatch.setattr(oracle, "worst_case_fast", counted)
    result = brute_force(net, nv)
    k = net.source_slots_mask.bit_count()
    assert result.count == math.comb(net.num_slots, nv)
    assert len(calls) == (math.comb(net.num_slots - k, nv - k) if nv >= k else 0)
    assert all(net.source_slots_mask & ~mask == 0 for mask in calls)



def test_fig1_enumeration_count(fig1):
    result = brute_force(fig1, 6)
    assert result.count == math.comb(14, 6) == 3003


def test_fig1_frozen_optimum(fig1):
    # this enumeration is the source of the repo's fig1 regression constants
    result = brute_force(fig1, 6)
    assert result.ud == 15000
    assert result.optimal
    for placement in result.optimal:
        ud, _, feasible = worst_case_fast(fig1, sum(1 << s for s in placement))
        assert feasible and ud == 15000


def test_demo_placement_is_not_optimal(fig1, fig1_demo_placement):
    ud, _, feasible = worst_case_fast(fig1, sum(1 << s for s in fig1_demo_placement))
    assert feasible and ud == 36000
    assert brute_force(fig1, 6).ud < 36000


def test_triangle_all_slots_single_candidate(triangle):
    result = brute_force(triangle, 6)
    assert result.count == 1
    # every pipe isolable on its own: worst break = heaviest pipe
    assert result.ud == max(triangle.demand) == 6000


def test_all_infeasible_reported(triangle):
    result = brute_force(triangle, 1)
    assert result.all_infeasible
    assert result.ud == math.inf
    assert result.optimal == ()
    assert result.count == 6


def test_cap_enforced(fig1):
    with pytest.raises(EnumerationCapExceeded):
        brute_force(fig1, 7, cap=700)


def test_cap_counts_the_placements_evaluated(fig1):
    # fig1 has 2 source-side slots, so nv=7 evaluates C(12, 5) = 792 of the
    # C(14, 7) placements, and nv=1 evaluates none
    result = brute_force(fig1, 7, cap=792)
    assert result.count == math.comb(14, 7) and result.ud == 15000
    result = brute_force(fig1, 1, cap=1)
    assert result.all_infeasible and result.count == 14
    with pytest.raises(EnumerationCapExceeded, match=r"C\(12, 5\) = 792 feasible placements"):
        brute_force(fig1, 7, cap=791)


def test_budget_validation(fig1):
    with pytest.raises(ValueError):
        brute_force(fig1, 0)
    with pytest.raises(ValueError):
        brute_force(fig1, 99)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_budget_not_an_integer(fig1, bad):
    with pytest.raises(BudgetError, match=rf"^valve budget must be an integer, got {bad!r}$"):
        brute_force(fig1, bad)


def test_face_compliant_witness_exists(corpus, corpus_oracle):
    # whenever the face-rule solver matches the oracle, some oracle witness
    # also satisfies the no-lone-valve-per-face rule
    from valveplan.solver import InfeasibleBudget
    from valveplan.tables import face_slot_lists
    checked = 0
    for idx, net in enumerate(corpus[:10]):
        faces = face_slot_lists(net)
        if not faces:
            continue
        for nv in (3, 4):
            expect = corpus_oracle[(idx, nv)]
            if expect.all_infeasible:
                continue
            try:
                sol = solve(net, nv)
            except InfeasibleBudget:
                continue
            if sol.ud != expect.ud:
                continue
            compliant = []
            for witness in expect.optimal:
                ok = all(sum(1 for s in face if s in witness) != 1 for face in faces)
                if ok:
                    compliant.append(witness)
            assert compliant, f"instance {idx} nv={nv}: no face-compliant witness"
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("seed", [0, 2])
def test_solver_agrees_at_real_density(seed):
    # 33 pipes are far past enumerating every placement, but the feasible
    # ones at nv 5..6 stay under the default cap
    net = real_density_net(seed)
    for nv in (5, 6):
        optimal = brute_force(net, nv)
        sol = solve(net, nv)
        assert sol.proof == "optimal" and sol.ud == optimal.ud
        assert sol.placement in optimal.optimal
