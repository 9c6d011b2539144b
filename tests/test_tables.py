from collections import Counter

import pytest

from valveplan import instances, tables
from valveplan.isolation import bridge_lower_bound
from valveplan.pareto import sweep
from valveplan.solver import SolverOptions, solve

from conftest import k4_all_cycles, make_net, real_density_net, walked_twice_nets


def table_nets():
    """Traced, declared and overlapping declared faces, faces walking pipes
    twice, a network without faces and one without pipes."""
    yield instances.fig1()
    yield instances.fig2()
    yield k4_all_cycles(0)
    yield real_density_net(1)
    yield from walked_twice_nets(0)
    yield make_net([1, 2, 3], [2], [("a", 1, 2, 3), ("b", 2, 3, 3)])
    yield make_net([1], [1], [])


def fresh_face_slots(net):
    """Per face, the slots of the pipes its boundary walks an odd number of
    times, counted pipe by pipe."""
    out = []
    for cycle in net.faces or ():
        walked = Counter(net.edge_between(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        out.append(tuple(s for e in sorted(walked) if walked[e] % 2 for s in (2 * e, 2 * e + 1)))
    return tuple(out)


@pytest.mark.parametrize("net", list(table_nets()), ids=lambda net: net.name or repr(net))
def test_cached_tables_equal_a_fresh_build(net):
    t = net.tables
    assert net.tables is t
    slots = range(net.num_slots)
    assert t.slot_node == tuple(net.slot_node(s) for s in slots)
    assert t.slot_other == tuple(net.slot_other_node(s) for s in slots)
    assert t.slot_demand == tuple(net.demand[s >> 1] for s in slots)
    assert t.floor == bridge_lower_bound(net)
    nodes = range(net.num_nodes)
    assert t.node_nbrs == tuple(sum(1 << (u ^ v ^ n) for u, v in net.endpoints if n in (u, v))
                                for n in nodes)
    assert t.node_pipes == tuple(sum(1 << e for e, ends in enumerate(net.endpoints) if n in ends)
                                 for n in nodes)
    face_slots = fresh_face_slots(net)
    assert t.faces.slots == face_slots
    assert t.faces.through == tuple(tuple(f for f, face in enumerate(face_slots) if s in face)
                                    for s in slots)
    assert t.faces.reach == max((len(faces) for faces in t.faces.through), default=0)
    assert (t.no_faces.slots, t.no_faces.through, t.no_faces.reach) == ((), ((),) * len(slots), 0)
    # the heaviest pipe ranks first, then the lowest slot
    order = sorted(slots, key=lambda s: (-net.demand[s >> 1], s))
    assert sorted(slots, key=lambda s: -t.tie[s]) == order
    assert t.scale == net.num_slots + 1
    assert t.pipe_key == tuple(2 * net.demand[s >> 1] * t.scale + t.tie[s] for s in slots)


@pytest.mark.parametrize("first", [True, False])
def test_one_network_solves_with_and_without_faces(first):
    # the faced and the unfaced solve read different face tables of one
    # network; in either order each matches the same solve on a fresh copy
    nv = 6
    net = real_density_net(0)
    stats = {}
    for faced in (first, not first):
        opts = SolverOptions(face_constraints=faced)
        stats[faced] = solve(net, nv, opts).stats
        assert stats[faced] == solve(real_density_net(0), nv, opts).stats
    assert stats[True].nodes < stats[False].nodes


def test_sweep_computes_the_floor_once_per_network(monkeypatch):
    calls = []

    def counted(net):
        calls.append(net)
        return bridge_lower_bound(net)

    monkeypatch.setattr(tables, "bridge_lower_bound", counted)
    fig1 = instances.fig1()
    assert [p.n_valves for p in sweep(fig1, range(2, 15)).points] == [2, 3, 4, 5, 6]
    sweep(fig1, range(2, 8))
    assert calls == [fig1]
    fig2 = instances.fig2()
    sweep(fig2, range(2, 8))
    assert calls == [fig1, fig2]
