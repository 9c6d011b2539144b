import math

import pytest

from valveplan.isolation import worst_case_fast
from valveplan.oracle import EnumerationCapExceeded, brute_force
from valveplan.solver import solve



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
        brute_force(fig1, 7, cap=1000)


def test_budget_validation(fig1):
    with pytest.raises(ValueError):
        brute_force(fig1, 0)
    with pytest.raises(ValueError):
        brute_force(fig1, 99)


def test_face_compliant_witness_exists(corpus, corpus_oracle):
    # whenever the face-rule solver matches the oracle, some oracle witness
    # also satisfies the no-lone-valve-per-face rule
    from valveplan.solver import face_slot_lists, InfeasibleBudget
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
