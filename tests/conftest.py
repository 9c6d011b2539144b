import itertools
import json
import random

import pytest

from valveplan import instances
from valveplan.generate import random_instance
from valveplan.isolation import (
    INFEASIBLE_UD,
    delivered_with_closed,
    mask_bits,
    present_mask,
    scan_sectors,
    sector_damage,
    ud_by_component_deletion,
    worst_case_fast,
)
from valveplan.network import parse_network
from valveplan.state import ABSENT

# Regression corpus: 50 seeded random planar instances with 5..8 edges.
CORPUS_SEEDS = tuple(range(50))
CORPUS_NVS = (2, 3, 4, 5)


def real_density_net(seed):
    """23 nodes and 33 pipes, the density of a municipal network, fed from
    a node of degree at least 2 ("real-<seed>")."""
    return random_instance(seed, 33, n_nodes=23, min_source_degree=2)


def make_net(nodes, sources, edges, **extra):
    """Shorthand builder: edges as (label, u, v, demand_lps)."""
    doc = {"nodes": nodes, "sources": sources,
           "edges": [list(e) for e in edges]}
    doc.update(extra)
    return parse_network(json.dumps(doc))


def path_net(n_pipes):
    """Path 1 - 2 - ... fed from node 1."""
    return make_net(list(range(1, n_pipes + 2)), [1],
                    [(f"p{i}", i, i + 1, 1 + i % 3) for i in range(1, n_pipes + 1)])


def k4_all_cycles(seed):
    """K4 fed from node 1, seeded demands, with every triangle and every
    4-cycle declared as a face: each pipe lies on four faces."""
    rng = random.Random(seed)
    edges = [(f"p{u}{v}", u, v, rng.randint(1, 9))
             for u, v in itertools.combinations([1, 2, 3, 4], 2)]
    faces = [list(t) for t in itertools.combinations([1, 2, 3, 4], 3)]
    faces += [[1, 2, 3, 4], [1, 3, 2, 4], [1, 2, 4, 3]]
    return make_net([1, 2, 3, 4], [1], edges, faces=faces)


SQUARE = {"1": [0, 0], "2": [4, 0], "3": [4, 4], "4": [0, 4]}
TRIANGLES = {"1": [0, 0], "2": [4, 0], "3": [2, 3], "4": [2, -3], "5": [1.5, 1], "6": [2.2, -1]}


def walked_twice_nets(seed):
    """Networks whose traced faces walk pipes twice: a pendant pipe and a
    2-pipe pendant path drawn inside a square, fed from a corner or from the
    path's tip, and a pendant inside each of two triangles, fed from a
    corner or from a pendant's tip. Demands are drawn from `seed`."""
    rng = random.Random(seed)

    def pipes(*ends):
        return [(f"p{u}{v}", u, v, rng.randint(1, 9)) for u, v in ends]

    square = [(1, 2), (2, 3), (3, 4), (4, 1)]
    path = {**SQUARE, "5": [1, 1], "6": [2, 1.5]}
    triangles = [(1, 2), (2, 3), (3, 1), (1, 4), (4, 2), (1, 5), (2, 6)]
    yield make_net([1, 2, 3, 4, 5], [2], pipes(*square, (1, 5)), coords={**SQUARE, "5": [1, 1]})
    yield make_net([1, 2, 3, 4, 5, 6], [2], pipes(*square, (1, 5), (5, 6)), coords=path)
    yield make_net([1, 2, 3, 4, 5, 6], [6], pipes(*square, (1, 5), (5, 6)), coords=path)
    yield make_net([1, 2, 3, 4, 5, 6], [3], pipes(*triangles), coords=TRIANGLES)
    yield make_net([1, 2, 3, 4, 5, 6], [5], pipes(*triangles), coords=TRIANGLES)


def disjoint_triangles():
    """Two disjoint triangles drawn side by side, one fed from node 1 and
    the other from node 4: a traced drawing of two components."""
    return make_net([1, 2, 3, 4, 5, 6], [1, 4],
                    [("a", 1, 2, 4), ("b", 2, 3, 7), ("c", 3, 1, 2),
                     ("d", 4, 5, 5), ("e", 5, 6, 3), ("f", 6, 4, 6)],
                    coords={"1": [0, 0], "2": [2, 0], "3": [1, 2],
                            "4": [4, 0], "5": [6, 0], "6": [5, 2]})


def class_roots(state):
    """The class roots of a `TrailedState`: the nodes labelled with themselves."""
    return [n for n, r in enumerate(state.root) if r == n]


def classes(state):
    """A `TrailedState`'s classes as {frozenset(node ids): lb}."""
    return {frozenset(mask_bits(state.members[r])): state.lb[r] for r in class_roots(state)}


def max_lb(state):
    """The largest class bound of a `TrailedState`."""
    return max(state.lb[r] for r in class_roots(state))


def max_cutoff(search):
    """The largest cut-off bound of a `Search`'s classes that hold a pipe:
    those with an empty slot at one of their nodes (0 when none does)."""
    st = search.state
    roots = {st.root[st.slot_node[s]] for s, v in enumerate(st.value) if v == ABSENT}
    return max(map(search.cutoff_bound, roots), default=0)


def sector_ud(net, placement, edge):
    """ud of a break in `edge`, as sector_damage reports it for the sector
    that holds the pipe (INFEASIBLE_UD when that sector holds a source)."""
    return next(ud for _, edges_mask, _, ud in sector_damage(net, present_mask(net, placement))
                if edges_mask >> edge & 1)


def damage_by_reference(net, placement):
    """{representative: ud} by `total - delivered_with_closed(boundary)`,
    INFEASIBLE_UD where the sector holds a source; never calls sector_damage."""
    out = {}
    for rep, _, boundary, _, _, has_source in scan_sectors(net, present_mask(net, placement)):
        out[rep] = (INFEASIBLE_UD if has_source
                    else net.total_demand - delivered_with_closed(net, boundary)[1])
    return out


def checked_damage(net, placement):
    """sector_damage as {representative: ud}, after checking every sector
    against the reference formula and component deletion, and
    worst_case_fast against the worst sector (lowest feasible-tie rep,
    lowest source-holding rep when infeasible)."""
    mask = present_mask(net, placement)
    got = {rep: ud for rep, _, _, ud in sector_damage(net, mask)}
    assert list(got) == sorted(got)
    assert got == damage_by_reference(net, placement)
    for rep, ud in got.items():
        feasible, ud2 = ud_by_component_deletion(net, placement, rep)
        assert feasible == (ud != INFEASIBLE_UD)
        if feasible:
            assert ud == ud2
    infeasible = [rep for rep, ud in got.items() if ud == INFEASIBLE_UD]
    if infeasible:
        expected = (INFEASIBLE_UD, infeasible[0], False)
    else:
        worst = max(got.values())
        expected = (worst, min(r for r, ud in got.items() if ud == worst), True)
    assert worst_case_fast(net, mask) == expected
    return got


@pytest.fixture(scope="session")
def fig1():
    return instances.fig1()


@pytest.fixture(scope="session")
def fig2():
    return instances.fig2()


@pytest.fixture(scope="session")
def fig1_demo_placement(fig1):
    from valveplan.network import parse_placement
    return parse_placement(fig1, " ".join(instances.FIG1_SIX_VALVES))


@pytest.fixture(scope="session")
def corpus():
    return [random_instance(seed) for seed in CORPUS_SEEDS]


@pytest.fixture(scope="session")
def corpus_oracle(corpus):
    """Ground-truth optima for every (instance, n_valves) pair of the corpus.

    Value is math.inf when every placement of that size is infeasible.
    Computed once per session; several suites compare against it.
    """
    from valveplan.oracle import brute_force
    results = {}
    for idx, net in enumerate(corpus):
        for nv in CORPUS_NVS:
            results[(idx, nv)] = brute_force(net, nv)
    return results


@pytest.fixture(scope="session")
def triangle():
    return make_net([1, 2, 3], [1],
                    [("a", 1, 2, 4), ("b", 2, 3, 5), ("c", 1, 3, 6)])


@pytest.fixture(scope="session")
def source_path():
    """3-pipe path with a degree-2 source in the middle of one end."""
    return make_net([1, 2, 3, 4], [2],
                    [("a", 1, 2, 5), ("b", 2, 3, 1), ("c", 3, 4, 9)])
