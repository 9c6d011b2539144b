"""Corner cases the random corpus does not reach: several sources, and
face walks that traverse a bridge twice."""

import json

import pytest

from valveplan.generate import random_document
from valveplan.isolation import INFEASIBLE_UD, mask_bits, present_mask, scan_sectors
from valveplan.network import compute_faces, parse_network
from valveplan.oracle import brute_force
from valveplan.solver import InfeasibleBudget, SolverOptions, face_slot_lists, solve

from conftest import checked_damage, make_net, sector_ud


def with_second_source(seed):
    doc = json.loads(random_document(seed))
    n = len(doc["nodes"])
    doc["sources"] = sorted({doc["sources"][0], (doc["sources"][0] % n) + 1})
    return parse_network(json.dumps(doc))


def test_two_source_semantics_by_hand():
    # path 1-2-3 with sources at both ends: the middle pipe needs all four
    # outer slots closed before it dries up
    net = make_net([1, 2, 3], [1, 3], [("a", 1, 2, 2), ("b", 2, 3, 4)])
    p = frozenset({net.parse_slot_token("a:1"), net.parse_slot_token("a:2"),
                   net.parse_slot_token("b:2"), net.parse_slot_token("b:3")})
    ud = sector_ud(net, p, net.edge_index["a"])
    assert ud != INFEASIBLE_UD and ud == 2000
    # blocking only the source-1 side leaves pipe a in one sector with
    # source 3, which then sits interior: the break cannot be de-watered
    p = frozenset({net.parse_slot_token("a:1")})
    assert sector_ud(net, p, net.edge_index["a"]) == INFEASIBLE_UD


def test_two_source_sector_source_flags():
    net = make_net([1, 2, 3], [1, 3], [("a", 1, 2, 2), ("b", 2, 3, 4)])
    rows = scan_sectors(net, present_mask(net, {net.parse_slot_token("a:2")}))
    flags = {tuple(mask_bits(row[1])): row[5] for row in rows}
    assert flags == {(0,): True, (1,): True}


def test_multi_source_solver_matches_oracle():
    for seed in range(10):
        net = with_second_source(seed)
        for nv in (3, 4, 5):
            expect = brute_force(net, nv)
            try:
                sol = solve(net, nv)
                assert not expect.all_infeasible
                assert sol.ud == expect.ud, f"seed {seed} nv={nv}"
            except InfeasibleBudget:
                assert expect.all_infeasible, f"seed {seed} nv={nv}"


def test_multi_source_formulation_equivalence():
    import random
    rng = random.Random(1)
    for seed in range(6):
        net = with_second_source(seed)
        for _ in range(40):
            p = frozenset(s for s in range(net.num_slots) if rng.random() < 0.5)
            checked_damage(net, p)


@pytest.fixture
def pendant_in_square():
    # pendant pipe p drawn inside the square: the bounded face walk crosses
    # it twice, so its slots appear twice in the face multiset
    return make_net([1, 2, 3, 4, 5], [2],
                    [("a", 1, 2, 4), ("b", 2, 3, 5), ("c", 3, 4, 6),
                     ("d", 4, 1, 7), ("p", 1, 5, 3)],
                    coords={"1": [0, 0], "2": [2, 0], "3": [2, 2],
                            "4": [0, 2], "5": [0.7, 0.7]})


def test_bridge_walked_twice_in_face(pendant_in_square):
    net = pendant_in_square
    (face,) = compute_faces(net)
    assert sorted(face) == [1, 1, 2, 3, 4, 5]  # node 1 visited twice
    (slots,) = face_slot_lists(net)
    p = net.edge_index["p"]
    assert slots.count(2 * p) == 2 and slots.count(2 * p + 1) == 2
    assert len(slots) == 12


def test_lone_valve_on_bridge_is_allowed(pendant_in_square):
    # a single valve on the pendant pipe does separate it from the square,
    # and the face rule must not reject that placement (the walk counts the
    # bridge twice, so the face sum is 2, not 1)
    net = pendant_in_square
    for nv in (2, 3, 4, 5):
        expect = brute_force(net, nv)
        on = solve(net, nv)
        off = solve(net, nv, SolverOptions(face_constraints=False))
        assert on.ud == off.ud == expect.ud
