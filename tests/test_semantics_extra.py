"""Corner cases the random corpus does not reach: several sources, and
face walks that traverse a bridge twice."""

import json

import pytest

from valveplan.generate import random_document
from valveplan.isolation import INFEASIBLE_UD, mask_bits, present_mask, scan_sectors
from valveplan.network import compute_faces, parse_network
from valveplan.oracle import brute_force
from valveplan.solver import InfeasibleBudget, Search, SolverOptions, solve
from valveplan.tables import face_slot_lists
from valveplan.state import ABSENT, PRESENT

from conftest import checked_damage, make_net, sector_ud, walked_twice_nets


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
    # it twice
    return make_net([1, 2, 3, 4, 5], [2],
                    [("a", 1, 2, 4), ("b", 2, 3, 5), ("c", 3, 4, 6),
                     ("d", 4, 1, 7), ("p", 1, 5, 3)],
                    coords={"1": [0, 0], "2": [2, 0], "3": [2, 2],
                            "4": [0, 2], "5": [0.7, 0.7]})


def test_bridge_walked_twice_in_face(pendant_in_square):
    net = pendant_in_square
    (face,) = compute_faces(net)
    assert sorted(face) == [1, 1, 2, 3, 4, 5]  # node 1 visited twice
    # a pipe walked twice lies on no face; the face is the square's 8 slots
    (slots,) = face_slot_lists(net)
    square = sorted(s for label in "abcd" for e in [net.edge_index[label]]
                    for s in (2 * e, 2 * e + 1))
    assert slots == square
    p = net.edge_index["p"]
    assert 2 * p not in slots and 2 * p + 1 not in slots


def test_lone_valve_on_bridge_is_allowed(pendant_in_square):
    # a single valve on the pendant pipe does separate it from the square,
    # and the face rule must not reject that placement (the walk takes the
    # bridge twice, so its slots lie on no face)
    net = pendant_in_square
    for nv in (2, 3, 4, 5):
        expect = brute_force(net, nv)
        on = solve(net, nv)
        off = solve(net, nv, SolverOptions(face_constraints=False))
        assert on.ud == off.ud == expect.ud


@pytest.mark.parametrize("seed", range(3))
def test_faces_walking_pipes_twice_match_brute_force(seed):
    # the face rule keeps only the odd-walked pipes of a face, the cycles of
    # its boundary; every budget's proven optimum equals enumeration's
    for net in walked_twice_nets(seed):
        assert any(len(slots) < 2 * len(cycle)
                   for cycle, slots in zip(net.faces, face_slot_lists(net)))
        for nv in range(1, net.num_slots + 1):
            expect = brute_force(net, nv)
            try:
                sol = solve(net, nv)
            except InfeasibleBudget:
                assert expect.all_infeasible, nv
                continue
            assert (sol.proof, sol.ud, len(sol.placement)) == ("optimal", expect.ud, nv)


def test_declared_face_walking_a_pipe_three_times():
    # the walk 1-2-1-2-3 takes pipe a three times: an odd count, so the face
    # keeps a's slots and is the triangle; without them it would be a path
    net = make_net([1, 2, 3, 4], [4], [("a", 1, 2, 4), ("b", 2, 3, 5), ("c", 3, 1, 6),
                                       ("d", 3, 4, 2)], faces=[[1, 2, 1, 2, 3]])
    (slots,) = face_slot_lists(net)
    assert slots == list(range(6))
    # one valve on a and the rest of the triangle empty: the last slot
    # cannot stay empty, since a lone valve on the cycle separates nothing
    slot = net.parse_slot_token
    search = Search(net, 3, SolverOptions(symmetry=False))
    search.state.push_frame()
    assert search.decide(slot("a:2"), PRESENT)
    for token in ("b:2", "b:3", "c:3", "c:1"):
        assert search.decide(slot(token), ABSENT)
    assert search.state.value[slot("a:1")] == PRESENT
    for nv in range(1, net.num_slots + 1):
        expect = brute_force(net, nv)
        try:
            sol = solve(net, nv)
        except InfeasibleBudget:
            assert expect.all_infeasible, nv
            continue
        assert (sol.proof, sol.ud, len(sol.placement)) == ("optimal", expect.ud, nv)
