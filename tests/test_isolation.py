import json
import math
import os
import random
import re
import sys
from itertools import combinations

import pytest

from valveplan import isolation
from valveplan.generate import random_document, random_instance
from valveplan.isolation import (
    INFEASIBLE_UD,
    delivered_with_closed,
    mask_bits,
    present_mask,
    scan_sectors,
    sector_damage,
    sector_from,
    ud_by_component_deletion,
    worst_case_fast,
    worst_case_ud,
)
from valveplan.network import parse_network
from conftest import (checked_damage, damage_by_reference, disjoint_triangles, make_net,
                      path_net, real_density_net, sector_ud)


def edge(net, label):
    return net.edge_index[label]


def slots(net, *tokens):
    return frozenset(net.parse_slot_token(t) for t in tokens)


def edge_labels(net, ids):
    return sorted(net.edge_labels[e] for e in ids)


def slot_tokens(net, ids):
    return sorted(net.slot_token(s) for s in ids)


def sector_at(net, placement, e):
    """sector_from's (edges, boundary, interior nodes, demand, holds a
    source) for the sector of pipe `e`, with the three masks as bit lists."""
    edges_mask, boundary, nodes_mask, demand, has_source = sector_from(
        net, present_mask(net, placement), e)
    return mask_bits(edges_mask), mask_bits(boundary), mask_bits(nodes_mask), demand, has_source


def dewatered(net, closed):
    """Mask of the pipes left without water while the slots in `closed` block."""
    return ((1 << net.num_edges) - 1) & ~delivered_with_closed(net, closed)[0]


def test_frozen_placement_takes_the_smaller_table():
    # a sweep keeps one placement per budget: 16-18 valves fit the table
    # that growing gives, 19 and more the one that copying a set gives
    for k in range(1, 40):
        bits = list(range(0, 3 * k, 3))
        got = isolation.frozen_placement(bits)
        assert got == frozenset(bits)
        assert sys.getsizeof(got) == min(sys.getsizeof(frozenset(bits)),
                                         sys.getsizeof(frozenset(set(bits))))
    assert sys.getsizeof(isolation.frozen_placement(list(range(17)))) \
        < sys.getsizeof(frozenset(set(range(17))))


# -- sector_from ---------------------------------------------------------------


def test_sector_of_pair_with_shared_boundary(fig1, fig1_demo_placement):
    edges, boundary, _, _, _ = sector_at(fig1, fig1_demo_placement, edge(fig1, "e34"))
    assert edge_labels(fig1, edges) == ["e34", "e45"]
    assert slot_tokens(fig1, boundary) == ["e23:3", "e45:5"]


def test_sector_of_heavy_pair(fig1, fig1_demo_placement):
    edges, boundary, _, demand, has_source = sector_at(fig1, fig1_demo_placement,
                                                       edge(fig1, "e25"))
    assert edge_labels(fig1, edges) == ["e12", "e25"]
    assert slot_tokens(fig1, boundary) == ["e12:1", "e23:2", "e45:5", "e56:5"]
    assert demand == 20000
    assert not has_source


def test_sector_of_doubly_valved_pipe(fig1):
    p = slots(fig1, "e34:3", "e34:4")
    edges, boundary, _, _, _ = sector_at(fig1, p, edge(fig1, "e34"))
    assert edge_labels(fig1, edges) == ["e34"]
    assert slot_tokens(fig1, boundary) == ["e34:3", "e34:4"]


# -- scan_sectors --------------------------------------------------------------


def test_demo_placement_has_four_sectors(fig1, fig1_demo_placement):
    rows = scan_sectors(fig1, present_mask(fig1, fig1_demo_placement))
    got = sorted(edge_labels(fig1, mask_bits(row[1])) for row in rows)
    assert got == [["e12", "e25"], ["e16", "e56"], ["e23"], ["e34", "e45"]]


def test_no_valves_single_sector(fig1):
    rows = list(scan_sectors(fig1, 0))
    assert len(rows) == 1
    assert rows[0][5]
    assert rows[0][4] == fig1.total_demand


def test_all_slots_singleton_sectors(fig1):
    rows = list(scan_sectors(fig1, (1 << fig1.num_slots) - 1))
    assert len(rows) == fig1.num_edges
    assert all(row[1].bit_count() == 1 for row in rows)


def test_partition_property_random(corpus):
    rng = random.Random(7)
    for net in corpus[:10]:
        for _ in range(20):
            p = frozenset(s for s in range(net.num_slots) if rng.random() < 0.4)
            rows = list(scan_sectors(net, present_mask(net, p)))
            assert sum(row[4] for row in rows) == net.total_demand
            counted = sorted(e for row in rows for e in mask_bits(row[1]))
            assert counted == list(range(net.num_edges))


# -- single breaks -------------------------------------------------------------


@pytest.mark.parametrize("label,expected_ud", [
    ("e23", 3000), ("e34", 13000), ("e45", 13000),
    ("e16", 11000), ("e56", 11000), ("e12", 36000), ("e25", 36000),
])
def test_demo_break_outcomes(fig1, fig1_demo_placement, label, expected_ud):
    ud = sector_ud(fig1, fig1_demo_placement, edge(fig1, label))
    assert ud != INFEASIBLE_UD
    assert ud == expected_ud


def test_demo_break_dewatered_sets(fig1, fig1_demo_placement):
    _, boundary, _, _, _ = sector_from(fig1, present_mask(fig1, fig1_demo_placement),
                                       edge(fig1, "e34"))
    assert edge_labels(fig1, mask_bits(dewatered(fig1, boundary))) == ["e34", "e45"]
    _, boundary, _, _, _ = sector_from(fig1, present_mask(fig1, fig1_demo_placement),
                                       edge(fig1, "e25"))
    assert edge_labels(fig1, mask_bits(dewatered(fig1, boundary))) == [
        "e12", "e23", "e25", "e34", "e45"]


def test_closure_soundness_and_near_minimality(fig1, fig1_demo_placement, corpus):
    # Closing C really cuts the broken pipe off. Every valve of C matters in
    # a sharp sense: dropping it either re-connects the broken pipe, or (when
    # the region just outside that valve is itself de-watered by the closure)
    # changes the delivered set not at all. A boundary valve can be outright
    # redundant only through unintended isolation, never silently.
    rng = random.Random(5)
    cases = [(fig1, fig1_demo_placement)]
    for net in corpus[:5]:
        for _ in range(8):
            cases.append((net, frozenset(
                s for s in range(net.num_slots) if rng.random() < 0.5)))
    for net, placement in cases:
        for e in range(net.num_edges):
            _, closed, _, _, _ = sector_from(net, present_mask(net, placement), e)
            if not dewatered(net, closed) >> e & 1:
                continue
            base_delivered, _ = delivered_with_closed(net, closed)
            assert not base_delivered >> e & 1, "closure is unsound"
            for drop in mask_bits(closed):
                partial = closed & ~(1 << drop)
                delivered, _ = delivered_with_closed(net, partial)
                if delivered >> e & 1:
                    continue  # the valve was load-bearing
                assert delivered == base_delivered
                # and its outer side must already be dry
                assert not delivered >> (drop >> 1) & 1


def test_unintended_isolation_superset(corpus):
    # the de-watered set always contains the whole sector
    rng = random.Random(13)
    for net in corpus[:10]:
        for _ in range(10):
            p = frozenset(s for s in range(net.num_slots) if rng.random() < 0.5)
            for _, edges_mask, boundary, _, _, has_source in scan_sectors(
                    net, present_mask(net, p)):
                if has_source:
                    continue
                assert edges_mask & ~dewatered(net, boundary) == 0


# -- worst_case_ud ---------------------------------------------------------------


def test_demo_worst_case(fig1, fig1_demo_placement):
    wc = worst_case_ud(fig1, fig1_demo_placement)
    assert wc.ud == 36000
    assert fig1.edge_labels[wc.edge] == "e12"  # lowest edge id of the worst sector
    assert wc.feasible


def test_no_valves_is_infeasible(fig1):
    wc = worst_case_ud(fig1, frozenset())
    assert not wc.feasible
    assert wc.ud == INFEASIBLE_UD
    assert wc.ud == math.inf


def test_network_without_pipes():
    # valid input with no pipe to break: no damage, no worst break
    net = make_net([1], [1], [])
    wc = worst_case_ud(net, frozenset())
    assert (wc.ud, wc.edge, wc.feasible) == (0, None, True)
    assert list(sector_damage(net, 0)) == []


def test_all_slots_regression_value(fig1):
    # with every slot valved each pipe is its own sector; worst break is the
    # heaviest pipe (computed once with this evaluator and frozen)
    wc = worst_case_ud(fig1, frozenset(range(fig1.num_slots)))
    assert wc.ud == 15000
    assert fig1.edge_labels[wc.edge] == "e25"


# -- formulation equivalence ------------------------------------------------------


def test_deletion_formulation_matches_reachability(corpus):
    # spot version of the exhaustive acceptance check
    rng = random.Random(99)
    for net in corpus[:6]:
        for _ in range(60):
            p = frozenset(s for s in range(net.num_slots) if rng.random() < 0.5)
            checked_damage(net, p)


def test_deletion_formulation_exhaustive_tiny():
    net = make_net([1, 2, 3, 4], [1],
                   [("a", 1, 2, 3), ("b", 2, 3, 5), ("c", 3, 4, 7), ("d", 4, 1, 11)],
                   coords={"1": [0, 0], "2": [1, 0], "3": [1, 1], "4": [0, 1]})
    for k in range(net.num_slots + 1):
        for combo in combinations(range(net.num_slots), k):
            checked_damage(net, frozenset(combo))


def test_redundant_boundary_valve_counted_once(fig1):
    # e25 carries a valve on the node-5 side while both its sides stay in the
    # sector reachable around the lower face: the valve shows up in C once
    p = slots(fig1, "e12:1", "e16:1", "e25:5", "e56:5")
    edges, boundary, _, _, _ = sector_at(fig1, p, edge(fig1, "e25"))
    assert edge(fig1, "e25") in edges
    assert 4 in {fig1.slot_node(s) for s in boundary} or True  # sanity only
    assert slot_tokens(fig1, boundary).count("e25:5") == 1


def deletion_agrees(net, placement, broken, expected_ud):
    """ud_by_component_deletion gives `expected_ud` for every break in
    `broken`, and so does the reachability path."""
    for label in broken:
        e = edge(net, label)
        assert ud_by_component_deletion(net, placement, e) == (True, expected_ud)
        assert sector_ud(net, placement, e) == expected_ud


def test_deletion_sector_reached_through_a_chain():
    # the sector {p2..p5} runs down a chain of degree-2 nodes; a break at
    # either end must find all of it, not just the pipes next to the break
    net = make_net([1, 2, 3, 4, 5, 6], [1],
                   [(f"p{i}", i, i + 1, 2 ** i) for i in range(1, 6)])
    deletion_agrees(net, slots(net, "p1:2"), ["p5", "p2", "p3"], 60_000)


def test_deletion_pipe_hangs_off_surviving_endpoint():
    # q loses node 4 to the sector {b, c} behind its valve but still hangs
    # off node 1, which the sources reach; t loses node 3 the same way but
    # hangs off the dead end 5, so it dries with the sector
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("q", 1, 4, 8),
                    ("t", 3, 5, 16)])
    deletion_agrees(net, slots(net, "a:2", "q:4", "t:3"), ["b", "c"], 22_000)


def test_deletion_pipe_with_both_ends_interior_and_valved():
    # p joins two interior nodes of the sector {a, b} with a valve at each
    # end: it is its own sector and dries with {a, b}, even though s and q
    # lead from the source to those same nodes
    net = make_net([1, 2, 3, 4], [1],
                   [("s", 1, 2, 1), ("a", 2, 3, 2), ("b", 3, 4, 4), ("p", 2, 4, 8),
                    ("q", 1, 4, 16)])
    placement = slots(net, "s:2", "p:2", "p:4", "q:4")
    deletion_agrees(net, placement, ["a", "b"], 14_000)
    deletion_agrees(net, placement, ["p"], 8_000)


def test_deletion_second_source_beyond_the_sector():
    # the break in {b, c} cuts d and e off source 1, but source 6 still
    # feeds them from the far side
    net = make_net([1, 2, 3, 4, 5, 6], [1, 6],
                   [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("d", 4, 5, 8),
                    ("e", 5, 6, 16)])
    deletion_agrees(net, slots(net, "a:2", "c:4", "e:6"), ["b", "c"], 6_000)


def test_deletion_uses_none_of_the_other_floods(monkeypatch, fig1, fig1_demo_placement):
    # component deletion checks the other floods, so it must not run on them
    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} called")
        return call

    for name in ("sector_labels", "segment_damage", "sector_from", "scan_sectors",
                 "delivered_with_closed"):
        monkeypatch.setattr(isolation, name, forbidden(name))
    expected = {"e23": 3000, "e34": 13000, "e45": 13000, "e16": 11000,
                "e56": 11000, "e12": 36000, "e25": 36000}
    for label, ud in expected.items():
        assert ud_by_component_deletion(fig1, fig1_demo_placement, edge(fig1, label)) == (True, ud)
    # no valve: the one sector holds the source
    assert ud_by_component_deletion(fig1, [], edge(fig1, "e34")) == (False, None)


def nx_reached(g, sources):
    """Vertices of `g` connected to some vertex in `sources`."""
    nx = pytest.importorskip("networkx")
    reached = set()
    for s in sources:
        if s in g and s not in reached:
            reached |= nx.node_connected_component(g, s)
    return reached


def nx_incidence(net, closed):
    """The pipe-node incidence graph with one edge per slot not in `closed`:
    pipe e is vertex ("p", e), node k is vertex ("n", k)."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(("p", e) for e in range(net.num_edges))
    g.add_nodes_from(("n", k) for k in range(net.num_nodes))
    for slot in range(net.num_slots):
        if not closed >> slot & 1:
            g.add_edge(("p", slot >> 1), ("n", net.slot_node(slot)))
    return g


def check_references_against_networkx(net, mask):
    """sector_from, ud_by_component_deletion and delivered_with_closed for
    every break under placement `mask`, each against networkx on graphs
    built from the network's endpoints alone. Returns the breaks checked."""
    nx = pytest.importorskip("networkx")
    placement = mask_bits(mask)
    sources = [("n", s) for s in net.source_list]
    open_slots = nx_incidence(net, mask)
    for e in range(net.num_edges):
        sector = nx.node_connected_component(open_slots, ("p", e))
        pipes = {x for kind, x in sector if kind == "p"}
        interior = {x for kind, x in sector if kind == "n"}
        boundary = {s for s in placement
                    if s >> 1 in pipes or net.slot_node(s) in interior}
        got = sector_from(net, mask, e)
        assert mask_bits(got[0]) == sorted(pipes)
        assert mask_bits(got[1]) == sorted(boundary)
        assert mask_bits(got[2]) == sorted(interior)
        assert got[3] == sum(net.demand[f] for f in pipes)
        assert got[4] == bool(interior & net.sources)

        # deletion: drop the sector's pipes and interior nodes, ignore valves
        rest = nx.Graph()
        rest.add_nodes_from(k for k in range(net.num_nodes) if k not in interior)
        rest.add_edges_from(uv for f, uv in enumerate(net.endpoints)
                            if f not in pipes and not set(uv) & interior)
        reached = nx_reached(rest, net.source_list)
        delivered = sum(net.demand[f] for f, (u, v) in enumerate(net.endpoints)
                        if f not in pipes and (u in reached or v in reached))
        if interior & net.sources:
            assert ud_by_component_deletion(net, placement, e) == (False, None)
        else:
            assert ud_by_component_deletion(net, placement, e) == (True, net.total_demand - delivered)

        # a single closure: the pipes still joined to a source once the boundary blocks
        closed = sum(1 << s for s in boundary)
        fed = {x for kind, x in nx_reached(nx_incidence(net, closed), sources) if kind == "p"}
        delivered_mask, delivered = delivered_with_closed(net, closed)
        assert mask_bits(delivered_mask) == sorted(fed)
        assert net.total_demand - delivered == sum(net.demand[f] for f in range(net.num_edges)
                                                   if f not in fed)
    return net.num_edges


def test_reference_floods_match_networkx():
    rng = random.Random(2011)
    cases = 0
    for seed in range(30):
        net = random_instance(seed, (6, 14))
        for _ in range(6):
            cases += check_references_against_networkx(net, rng.getrandbits(net.num_slots))
    # two sources on a ladder of two squares, so a break can cut either side off
    ladder = make_net([1, 2, 3, 4, 5, 6], [1, 6],
                      [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 4, 5, 4), ("d", 5, 6, 8),
                       ("e", 1, 4, 16), ("f", 2, 5, 32), ("g", 3, 6, 64)])
    for _ in range(100):
        cases += check_references_against_networkx(ladder, rng.getrandbits(ladder.num_slots))
    assert cases >= 2_000


# -- segment-graph evaluator against both references ------------------------------


def test_all_valved_junction():
    # node 2 has every slot valved: a segment-graph vertex with no sector
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("d", 2, 5, 8)])
    p = slots(net, "a:1", "a:2", "b:2", "d:2")
    a, b, d = edge(net, "a"), edge(net, "b"), edge(net, "d")
    assert checked_damage(net, p) == {a: 15_000, b: 6_000, d: 8_000}


def test_pipe_valved_at_both_ends():
    # {b} has no interior node; its break also dries c beyond it
    net = make_net([1, 2, 3, 4], [1], [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4)])
    p = slots(net, "a:1", "b:2", "b:3")
    assert sector_at(net, p, edge(net, "b"))[2] == []
    assert checked_damage(net, p) == {0: 7_000, 1: 6_000, 2: 4_000}


def test_parallel_segment_graph_edges():
    # the ring sector {a, d} reaches {b, c} through two valves (b:2, c:4),
    # and the doubly valved chord e joins {a, d} twice
    net = make_net([1, 2, 3, 4, 5], [5],
                   [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("d", 4, 1, 8),
                    ("s", 5, 1, 16), ("e", 2, 4, 32)])
    p = slots(net, "s:5", "s:1", "b:2", "c:4", "e:2", "e:4")
    a, b, s_, e = edge(net, "a"), edge(net, "b"), edge(net, "s"), edge(net, "e")
    assert checked_damage(net, p) == {a: 47_000, b: 6_000, s_: 63_000, e: 32_000}


def test_source_at_all_valved_node():
    # a degree-3 source whose every slot holds a valve: each branch is its
    # own sector and nothing else dries with it
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 1, 2, 1), ("b", 1, 3, 2), ("c", 1, 4, 4), ("d", 2, 5, 8)])
    p = slots(net, "a:1", "b:1", "c:1")
    a, b, c = edge(net, "a"), edge(net, "b"), edge(net, "c")
    assert checked_damage(net, p) == {a: 9_000, b: 2_000, c: 4_000}


def test_break_between_two_sources():
    # the middle sector is fed from both ends, so its break dries only
    # itself; a single-source reading would dry everything downstream
    net = make_net([1, 2, 3, 4, 5], [1, 5],
                   [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("d", 4, 5, 8)])
    p = slots(net, "a:1", "b:2", "c:4", "d:5")
    a, b, d = edge(net, "a"), edge(net, "b"), edge(net, "d")
    assert checked_damage(net, p) == {a: 1_000, b: 6_000, d: 8_000}


def test_infeasible_reports_lowest_source_sector():
    # sector {a} is feasible; {b, c} and {d} each hold a source
    net = make_net([1, 2, 3, 4, 5], [3, 5],
                   [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("d", 4, 5, 8)])
    p = slots(net, "a:2", "c:4")
    a, b, d = edge(net, "a"), edge(net, "b"), edge(net, "d")
    assert checked_damage(net, p) == {a: 1_000, b: INFEASIBLE_UD, d: INFEASIBLE_UD}
    wc = worst_case_ud(net, p)
    assert (wc.ud, wc.edge, wc.feasible) == (INFEASIBLE_UD, b, False)


def test_segment_graph_random_networks():
    # random_document has one source; every other network gets a second
    # one, and a path fed from both ends adds a sector graph that is all
    # articulation vertices
    rng = random.Random(2010)
    infeasible = feasible = 0
    for m in range(8, 34):
        doc = json.loads(random_document(m, n_edges=m))
        if m % 2:
            doc["sources"] = sorted(set(doc["sources"]) | {doc["nodes"][-1]})
        path = make_net(list(range(1, m + 2)), [1, m + 1],
                        [(f"p{i}", i, i + 1, i) for i in range(1, m + 1)])
        for net in (parse_network(json.dumps(doc)), path):
            for k in range(12):
                density = 0.3 + 0.7 * k / 11
                p = frozenset(s for s in range(net.num_slots) if rng.random() < density)
                got = checked_damage(net, p)
                if INFEASIBLE_UD in got.values():
                    infeasible += 1
                else:
                    feasible += 1
    assert infeasible > 100 and feasible > 100, (infeasible, feasible)


def test_worst_case_never_refloods(monkeypatch):
    # 1,000 valves on a 700-pipe path: hundreds of sectors, none re-flooded
    net = path_net(700)
    rng = random.Random(700)
    placement = frozenset([0] + rng.sample(range(1, net.num_slots), 999))
    mask = present_mask(net, placement)
    ref = damage_by_reference(net, placement)
    assert INFEASIBLE_UD not in ref.values() and len(ref) > 500
    worst = max(ref.values())
    expected = (worst, min(r for r, ud in ref.items() if ud == worst), True)

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(isolation, "delivered_with_closed", forbidden("delivered_with_closed"))
    with monkeypatch.context() as m:
        # one node flood labels every sector: no flood per sector either
        m.setattr(isolation, "sector_from", forbidden("sector_from"))
        assert worst_case_fast(net, mask) == expected
        assert {rep: ud for rep, _, _, ud in sector_damage(net, mask)} == ref


# -- feasibility from the source-side slots -----------------------------------


def worst_from_rows(net, mask):
    """worst_case_fast's answer from `scan_sectors` rows alone: the first row
    that holds a source gives (INFEASIBLE_UD, rep, False); otherwise the worst
    row by `total - delivered_with_closed(boundary)`, lowest rep on ties."""
    worst = (0, None, True)
    for rep, _, boundary, _, _, has_source in scan_sectors(net, mask):
        if has_source:
            return INFEASIBLE_UD, rep, False
        ud = net.total_demand - delivered_with_closed(net, boundary)[1]
        if worst[1] is None or ud > worst[0]:
            worst = (ud, rep, True)
    return worst


def check_feasibility_rule(net, mask):
    got = worst_case_fast(net, mask)
    assert got == worst_from_rows(net, mask), (net, mask)
    assert got[2] == (net.source_slots_mask & ~mask == 0)
    return got[2]


def test_source_slots_mask(fig1):
    # fig1 is fed at node 1 through e12 and e16
    assert fig1.source_slots_mask == sum(1 << fig1.parse_slot_token(t)
                                         for t in ("e12:1", "e16:1"))
    assert make_net([1], [1], []).source_slots_mask == 0


def test_feasibility_rule_every_mask(fig1, corpus):
    feasible = infeasible = 0
    for net in [fig1] + corpus[:12]:
        for mask in range(1 << net.num_slots):
            if check_feasibility_rule(net, mask):
                feasible += 1
            else:
                infeasible += 1
    assert feasible > 1000 and infeasible > 100_000, (feasible, infeasible)


def test_feasibility_two_sources_share_a_sector(monkeypatch):
    # sources 2 and 3 both lie in the sector {a, b, c}: four open
    # source-side slots, one witness, and no sector flooded again
    net = make_net([1, 2, 3, 4], [2, 3], [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4)])
    mask = present_mask(net, slots(net, "a:1", "c:4"))
    calls = []

    def counted(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    for name in ("sector_from", "delivered_with_closed"):
        monkeypatch.setattr(isolation, name, counted(name))
    assert worst_case_fast(net, mask) == (INFEASIBLE_UD, edge(net, "a"), False)
    assert calls == []
    monkeypatch.undo()
    assert not check_feasibility_rule(net, mask)


def test_feasibility_degree_three_source_with_one_open_slot():
    # source 1 has valves on c:1 and d:1 but not on b:1; b's sector also
    # holds a, which comes first, so a (not b) is the witness
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 2, 4, 1), ("b", 1, 2, 2), ("c", 1, 3, 4), ("d", 1, 5, 8)])
    mask = present_mask(net, slots(net, "c:1", "d:1"))
    assert not check_feasibility_rule(net, mask)
    assert worst_case_fast(net, mask) == (INFEASIBLE_UD, edge(net, "a"), False)


def test_feasibility_source_with_every_slot_valved():
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 1, 2, 1), ("b", 1, 3, 2), ("c", 1, 4, 4), ("d", 2, 5, 8)])
    mask = present_mask(net, slots(net, "a:1", "b:1", "c:1"))
    assert mask == net.source_slots_mask
    assert check_feasibility_rule(net, mask)
    assert worst_case_fast(net, mask) == (9_000, edge(net, "a"), True)


# -- the one-flood labelling against the per-sector rows ----------------------


def test_sector_labels_match_scan_sectors(corpus):
    # every sector's interior nodes carry its lowest one, which weighs the
    # sector's demand; a fully valved node keeps its own label and weighs
    # nothing; each pipe sits on its sector's label, or on n + e. The
    # sector_damage rows read off those labels are the scan_sectors rows,
    # infeasible exactly where the sector holds a source
    rng = random.Random(24)
    for net in corpus[:20]:
        n = net.num_nodes
        for _ in range(40):
            mask = rng.getrandbits(net.num_slots)
            label, weight, vertex = isolation.sector_labels(net, mask)
            want_label, want_weight = list(range(n)), [0] * n
            want_vertex = [n + e for e in range(net.num_edges)]
            scanned = list(scan_sectors(net, mask))
            damaged = list(sector_damage(net, mask))
            assert len(damaged) == len(scanned)
            for (rep, edges_mask, boundary, _, _, has_source), row in zip(scanned, damaged):
                assert row[:3] == (rep, edges_mask, boundary)
                assert (row[3] == INFEASIBLE_UD) == has_source
            for _, edges_mask, _, nodes_mask, demand, _ in scanned:
                if not nodes_mask:
                    continue
                low = mask_bits(nodes_mask)[0]
                for k in mask_bits(nodes_mask):
                    want_label[k] = low
                want_weight[low] = demand
                for e in mask_bits(edges_mask):
                    want_vertex[e] = low
            assert (label, weight, vertex) == (want_label, want_weight, want_vertex)


def test_worst_case_on_two_source_fed_components():
    net = disjoint_triangles()
    for mask in range(1 << net.num_slots):
        check_feasibility_rule(net, mask)


def test_worst_case_across_a_fully_valved_junction():
    # junction 3 holds a valve on every slot, between the sector {a, b} and
    # the single-pipe sectors c and d: a break in {a, b} also dries c and d
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4), ("d", 3, 5, 8)])
    mask = present_mask(net, slots(net, "a:1", "b:3", "c:3", "d:3"))
    label, _, _ = isolation.sector_labels(net, mask)
    assert label[net.node_index[3]] == net.node_index[3]
    assert check_feasibility_rule(net, mask)
    assert worst_case_fast(net, mask) == (15_000, edge(net, "a"), True)


def valved_cycle(first, second):
    """Triangle fed from node 1 with valves on both source-side slots and
    on both slots of b; `first` and `second` name the two pipes that come
    first in edge order, as (label, demand)."""
    ends = {"a": (1, 2), "b": (2, 3), "c": (3, 1)}
    demand = {"c": 2, **dict([first, second])}
    order = [first[0], second[0]] + [x for x in "abc" if x not in (first[0], second[0])]
    net = make_net([1, 2, 3], [1], [(x, *ends[x], demand[x]) for x in order])
    return net, present_mask(net, slots(net, "a:1", "c:1", "b:2", "b:3"))


def test_worst_case_both_valve_pipe_is_the_unique_worst():
    net, mask = valved_cycle(("a", 1), ("b", 50))
    assert check_feasibility_rule(net, mask)
    assert worst_case_fast(net, mask) == (50_000, edge(net, "b"), True)


@pytest.mark.parametrize("first, second, witness", [
    (("a", 3), ("b", 3), "a"),          # the sector {a} comes first
    (("b", 3), ("a", 3), "b"),          # the both-valve pipe b comes first
])
def test_worst_case_tie_between_sector_and_pipe_vertex(first, second, witness):
    net, mask = valved_cycle(first, second)
    assert check_feasibility_rule(net, mask)
    assert worst_case_fast(net, mask) == (3_000, edge(net, witness), True)


def test_infeasible_witness_is_not_edge_zero():
    # source 3 is interior to {b, c}; edge 0 (a) is a sector of its own
    net = make_net([1, 2, 3, 4], [3], [("a", 1, 2, 1), ("b", 2, 3, 2), ("c", 3, 4, 4)])
    mask = present_mask(net, slots(net, "a:2"))
    assert not check_feasibility_rule(net, mask)
    assert worst_case_fast(net, mask) == (INFEASIBLE_UD, edge(net, "b"), False)


@pytest.mark.parametrize("net_name", [f"rand-{s}-m33" for s in range(6)]
                         + [f"real-{s}" for s in range(4)])
def test_worst_case_on_33_pipe_networks(net_name):
    seed = int(net_name.split("-")[1])
    net = real_density_net(seed) if net_name.startswith("real") else random_instance(seed, 33)
    rng = random.Random(seed)
    for _ in range(60):
        mask = rng.getrandbits(net.num_slots) & rng.getrandbits(net.num_slots)
        check_feasibility_rule(net, mask)
        check_feasibility_rule(net, mask | net.source_slots_mask)


# -- the reference stays apart from production --------------------------------

REFERENCE = ("sector_from", "scan_sectors", "delivered_with_closed", "ud_by_component_deletion")


def test_only_isolation_names_the_reference_floods():
    # production runs the one node flood; the reference floods check it, so
    # a change to one of them must not move network parsing or the sweep.
    # The package re-exports ud_by_component_deletion.
    assert all(callable(getattr(isolation, name)) for name in REFERENCE)
    package = os.path.dirname(isolation.__file__)
    modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert {"isolation.py", "network.py", "pareto.py", "solver.py"} <= set(modules)
    for module in modules:
        if module == "isolation.py":
            continue
        with open(os.path.join(package, module), "r", encoding="utf-8") as fh:
            text = fh.read()
        named = {name for name in REFERENCE if re.search(rf"\b{name}\b", text)}
        allowed = {"ud_by_component_deletion"} if module == "__init__.py" else set()
        assert named <= allowed, (module, sorted(named - allowed))
