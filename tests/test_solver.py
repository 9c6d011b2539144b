import json
import math
import os
import random
import traceback
from itertools import combinations

import pytest

from valveplan import solver as solver_module
from valveplan import state as state_module
from valveplan.generate import random_document, random_instance
from valveplan.isolation import bridge_lower_bound, worst_case_fast
from valveplan.network import Network, parse_network
from valveplan.oracle import brute_force
from valveplan.solver import (
    BudgetError,
    InfeasibleBudget,
    Search,
    SearchStats,
    SolverOptions,
    required_source_slots,
    solve,
    symmetry_forced_slots,
)
from valveplan.state import ABSENT, PRESENT, UNDECIDED
from valveplan.tables import face_slot_lists

from conftest import (
    disjoint_triangles,
    k4_all_cycles,
    make_net,
    max_lb,
    path_net,
    real_density_net,
    walked_twice_nets,
)

ALL_OFF = dict(face_constraints=False, symmetry=False, lb_prune=False)

INSTANCES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data", "instances")


def frozen_instance(name):
    """A frozen benchmark instance, read only."""
    with open(os.path.join(INSTANCES, f"{name}.json"), "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


@pytest.fixture(scope="module")
def apulian():
    # 23 nodes, 33 pipes and a degree-1 source: the density of the paper's network
    return frozen_instance("apulian-density-0")


# -- preprocessing -------------------------------------------------------------


def test_symmetry_pins_degree2_nodes(fig2):
    forced = symmetry_forced_slots(fig2)
    tokens = sorted(fig2.slot_token(s) for s in forced)
    # nodes 5, 7 and 8 have degree two; the slot on the higher edge is pinned
    assert tokens == ["e56:5", "e78:7", "e78:8"]


def test_symmetry_skips_degree3_nodes(fig2):
    forced = {fig2.slot_node(s) for s in symmetry_forced_slots(fig2)}
    for node in range(fig2.num_nodes):
        if fig2.degree(node) != 2:
            assert node not in forced


def test_symmetry_exempts_degree2_sources(source_path):
    # source node sits between pipes a and b with degree 2
    assert [source_path.slot_token(s) for s in symmetry_forced_slots(source_path)] == ["c:3"]


def test_degree2_source_exemption_is_required(source_path):
    # the unique feasible 2-valve placement uses both source-side slots,
    # including the one a blind degree-2 rule would pin empty
    result = brute_force(source_path, 2)
    assert result.ud == 10000
    assert [sorted(source_path.placement_tokens(p)) for p in result.optimal] == [["a:2", "b:2"]]
    placements = list(combinations(range(source_path.num_slots), 2))
    assert len(placements) == 15
    feasible = [frozenset(p) for p in placements
                if worst_case_fast(source_path, sum(1 << s for s in p))[2]]
    assert feasible == [frozenset({source_path.parse_slot_token("a:2"),
                                   source_path.parse_slot_token("b:2")})]


def test_required_source_slots(fig1, source_path):
    assert required_source_slots(fig1) == 2
    assert required_source_slots(source_path) == 2


def test_source_slots_fixed_at_the_root(fig1, source_path):
    for net in (fig1, source_path):
        search = Search(net, 4, SolverOptions(symmetry=False))
        assert search.init_root()
        fixed = {s for s in range(net.num_slots) if search.state.value[s] == PRESENT}
        assert {net.slot_node(s) for s in fixed} == set(net.sources)
        assert len(fixed) == search.stats.source_fixed == required_source_slots(net)


# -- bridge floor -----------------------------------------------------------------


def nx_bridge_floor(net):
    """The bridge floor from networkx's bridges and components."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    for e, (u, v) in enumerate(net.endpoints):
        g.add_edge(u, v, edge=e)
    floor = max(net.demand)
    for u, v in nx.bridges(g):
        e = g.edges[u, v]["edge"]
        g.remove_edge(u, v)
        for side in (nx.node_connected_component(g, u), nx.node_connected_component(g, v)):
            if not side & net.sources:
                inside = sum(w for (a, b), w in zip(net.endpoints, net.demand)
                             if a in side and b in side)
                floor = max(floor, net.demand[e] + inside)
        g.add_edge(u, v, edge=e)
    return floor


def thinned(net, rng):
    """Random subnetwork of `net` with one source per piece and sometimes a
    second one, so that pendant parts and bridges are common."""
    kept = [e for e in range(net.num_edges) if rng.random() < 0.6] or [0]
    piece = list(range(net.num_nodes))

    def find(x):
        while piece[x] != x:
            x = piece[x]
        return x

    for e in kept:
        u, v = net.endpoints[e]
        piece[find(u)] = find(v)
    members = {}
    for e in kept:
        for n in net.endpoints[e]:
            members.setdefault(find(n), set()).add(n)
    groups = [sorted(m) for _, m in sorted(members.items())]
    sources = {rng.choice(g) for g in groups}
    if rng.random() < 0.5:
        sources.add(rng.choice(rng.choice(groups)))
    labels = net.node_labels
    return Network(labels, [labels[n] for n in sources],
                   [(net.edge_labels[e], labels[net.endpoints[e][0]],
                     labels[net.endpoints[e][1]], net.demand[e]) for e in kept])


def test_bridge_floor_matches_networkx(apulian):
    rng = random.Random(1974)
    above_heaviest = 0
    for seed in range(1000):
        net = random_instance(seed, n_edges=8 + seed % 26)
        for case in (net, thinned(net, rng)):
            floor = bridge_lower_bound(case)
            assert floor == nx_bridge_floor(case), f"seed {seed}"
            above_heaviest += floor > max(case.demand)
    assert above_heaviest >= 200
    assert bridge_lower_bound(apulian) == nx_bridge_floor(apulian) == apulian.total_demand
    assert apulian.total_demand == 382000


def test_bridge_floor_without_pipes():
    # no pipe, no break: the floor is 0
    assert bridge_lower_bound(make_net([1], [1], [])) == 0


def test_bridge_floor_admissible_where_it_bites(corpus):
    # thinned corpus networks have bridges with sourceless far sides: the
    # floor must stay at or below every optimum, and solves that stop on it
    # must still return the oracle's optimum
    rng = random.Random(2007)
    bites = 0
    for net in corpus:
        case = thinned(net, rng)
        floor = bridge_lower_bound(case)
        bites += floor > max(case.demand)
        for nv in (2, 3, 4, 5):
            if nv > case.num_slots:
                continue
            expect = brute_force(case, nv)
            if expect.all_infeasible:
                continue
            assert floor <= expect.ud
            sol = solve(case, nv)
            assert sol.proof == "optimal" and sol.ud == expect.ud
    assert bites >= 10


def test_degree1_source_proves_at_first_incumbent(apulian):
    # breaking the source pipe cuts off everything, so the floor is the
    # total demand and the first feasible leaf already meets it
    sol = solve(apulian, 6, SolverOptions(node_limit=1000))
    assert sol.proof == "optimal"
    assert sol.ud == sol.stats.lower_bound == apulian.total_demand
    assert len(sol.anytime) == 1


# -- face propagation -----------------------------------------------------------


@pytest.fixture
def square_plus():
    # quadrilateral face (slots 0..7) plus a pendant pipe for budget slack
    return make_net([1, 2, 3, 4, 5], [1],
                    [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1), ("d", 4, 1, 1),
                     ("e", 1, 5, 1)],
                    faces=[[1, 2, 3, 4]])


def test_face_slot_lists(square_plus):
    lists = face_slot_lists(square_plus)
    assert len(lists) == 1
    assert sorted(lists[0]) == list(range(8))


def test_face_forces_last_slot_absent(square_plus):
    # seven of eight face slots absent, none present: the last cannot be a
    # lone valve on the cycle, so it is pinned empty too
    search = Search(square_plus, 2, SolverOptions(symmetry=False))
    search.state.push_frame()
    for slot in range(7):
        assert search.decide(slot, ABSENT)
    assert search.state.value[7] == ABSENT
    assert search.stats.face_forced >= 1


def test_face_with_single_valve_fails(square_plus):
    # a fully decided face with exactly one valve is a dead branch; reach it
    # by writing the first seven slots without propagation (the propagator
    # itself would intercept earlier, which the next test covers)
    search = Search(square_plus, 2, SolverOptions(symmetry=False))
    search.state.push_frame()
    search.state.set_value(0, PRESENT)
    for slot in range(1, 7):
        search.state.set_value(slot, ABSENT)
    assert not search.decide(7, ABSENT)
    assert search.stats.face_fails == 1


def test_face_single_valve_intercepted_by_propagation(square_plus):
    # the propagating path: with one valve and one undecided slot left, the
    # last slot is forced present, so the losing completion never forms
    search = Search(square_plus, 2, SolverOptions(symmetry=False))
    search.state.push_frame()
    assert search.decide(0, PRESENT)
    for slot in range(1, 7):
        assert search.decide(slot, ABSENT)
    assert search.state.value[7] == PRESENT
    assert not search.decide(7, ABSENT)  # contradicts the forced value
    assert search.stats.conflicts == 1


def test_face_forces_second_valve_present(square_plus):
    # one valve on the face, six empty slots, one undecided: forced present
    search = Search(square_plus, 2, SolverOptions(symmetry=False))
    search.state.push_frame()
    assert search.decide(0, PRESENT)
    for slot in range(1, 7):
        assert search.decide(slot, ABSENT)
    assert search.state.value[7] == PRESENT
    assert search.state.n_present == 2
    assert search.stats.face_forced >= 1


def test_face_entailed_with_two_valves(square_plus):
    search = Search(square_plus, 2, SolverOptions(symmetry=False))
    search.state.push_frame()
    assert search.decide(0, PRESENT)
    assert search.decide(2, PRESENT)
    before = search.stats.face_forced
    for slot in (1, 3, 4, 5, 6, 7):
        assert search.decide(slot, ABSENT)
    assert search.stats.face_forced == before


@pytest.mark.parametrize("seed", range(3))
def test_face_lookahead_sound_on_overlapping_faces(seed):
    # every pipe lies on four declared faces, so one valve can relieve four
    # lonely faces; a look-ahead that assumed two would call nv=3 infeasible
    net = k4_all_cycles(seed)
    assert Search(net, 1, SolverOptions()).reach == 4
    for nv in range(1, net.num_slots + 1):
        expect = brute_force(net, nv)
        try:
            sol = solve(net, nv)
        except InfeasibleBudget:
            assert expect.all_infeasible, nv
            continue
        assert not expect.all_infeasible, nv
        assert (sol.proof, sol.ud, len(sol.placement)) == ("optimal", expect.ud, nv)


def test_face_lookahead_pruning_strength():
    # the look-ahead's share of the work on the ladder's most expensive rung:
    # the same proof took 34,227 nodes with the face rule alone, 11,367 with
    # the reach look-ahead, 9,055 with the per-slot cover, 2,327 with the
    # component bound that also empties the off-face slots when it is tight,
    # 1,472 with the branching score, 907 once the cover also empties
    # every slot whose valve would leave more lonely faces than the valves
    # left can relieve, and 527 with the cut-off bound
    sol = solve(frozen_instance("rand-1-m33"), 8)
    assert (sol.proof, sol.ud) == ("optimal", 285000)
    assert sol.stats.nodes <= 1_000


def face_valid_completion(search, valve=None):
    """Whether some completion of the current partial assignment, within
    the budget, leaves every face with a valve count other than one. With
    `valve`, only completions that put a valve on that undecided slot."""
    st = search.state
    faces = face_slot_lists(search.net)
    slots = range(search.net.num_slots)
    base = {s for s in slots if st.value[s] == PRESENT}
    undecided = [s for s in slots if st.value[s] == UNDECIDED]
    if valve is not None:
        base.add(valve)
        undecided.remove(valve)
    for k in range(search.nv - len(base) + 1):
        for extra in combinations(undecided, k):
            chosen = base.union(extra)
            if all(sum(s in chosen for s in face) != 1 for face in faces):
                return True
    return False


class FaceAuditedSearch(Search):
    """A search that records, at every branch the face rule fails and at
    every slot the lonely-face cover empties, whether a face-valid
    completion (with a valve on that slot) existed after all. `starved`
    counts the slots the cover empties below a tight `need` (z > 0)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.unsound = []
        self.audited = 0
        self.starved = 0
        off_face_slots = self.state.off_face_slots

        def audited_off_face_slots(z=0):
            forced = off_face_slots(z)
            for slot in forced:
                self.audited += 1
                self.starved += z > 0
                if face_valid_completion(self, valve=slot):
                    self.unsound.append((slot, PRESENT, bytes(self.state.value)))
            return forced

        self.state.off_face_slots = audited_off_face_slots

    def decide(self, slot, value):
        before = self.stats.face_fails
        ok = super().decide(slot, value)
        if not ok and self.stats.face_fails > before:
            self.audited += 1
            if face_valid_completion(self):
                self.unsound.append((slot, value, bytes(self.state.value)))
        return ok


def face_audit_nets():
    """Small networks on which the face rule's audits enumerate completions:
    traced faces (reach 2) and K4 with every cycle declared (reach 4)."""
    nets = [random_instance(seed, n_edges=m) for m in (6, 7, 8) for seed in range(8)]
    return nets + [k4_all_cycles(seed) for seed in range(2)]


def test_face_lookahead_admissible():
    # every branch the face rule (look-ahead included) fails holds no
    # face-valid leaf, and no slot the lonely-face cover empties carries a
    # valve in any, whether the cover is tight or the valve would starve
    # the lonely faces: enumerate the completions at each failure and forcing
    audited = starved = 0
    for net in face_audit_nets():
        for nv in range(required_source_slots(net), net.num_slots + 1):
            search = FaceAuditedSearch(net, nv, SolverOptions())
            if search.init_root():
                search.run()
            assert search.unsound == [], (net.name, nv)
            audited += search.audited
            starved += search.starved
    assert audited >= 1000
    assert starved >= 500


class SettledAudit(Search):
    """A search that makes, after every successful `decide` (so also after
    `init_root`), the check the fixpoint makes, and asserts that it finds
    nothing: the lonely faces need at most the valves left, and the cover
    for that z is empty. `decide` skips the check after a walk that placed
    no valve and emptied no slot of a lonely face, which is exact only
    while this holds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checked = 0

    def decide(self, slot, value):
        ok = super().decide(slot, value)
        if ok:
            st = self.state
            left = self.nv - st.n_present
            need = st.need()
            assert need <= left
            if need == left:
                z = 0
            elif st.lonely > self.reach * (left - 2):
                z = self.reach * (left - 1) - st.lonely + 1
            else:
                z = None
            if z is not None:
                assert st.off_face_slots(z) == [], (slot, value, z)
                self.checked += 1
        return ok


def test_decide_leaves_a_settled_state():
    checked = 0
    for net in face_audit_nets():
        for nv in range(required_source_slots(net), net.num_slots + 1):
            search = SettledAudit(net, nv, SolverOptions())
            if search.init_root():
                search.run()
            checked += search.checked
    real_checked = 0
    for seed, optimum in ((0, 179000), (2, 207000), (3, 140000)):
        search = SettledAudit(real_density_net(seed), 8, SolverOptions())
        assert search.init_root()
        search.run()
        assert search.incumbent_ud == optimum
        real_checked += search.checked
    assert checked >= 1000 and real_checked >= 1000


@pytest.fixture
def two_triangles():
    # triangles 1-2-3 and 2-4-3 share pipe b; pendant pipe f hangs off node 4
    return make_net([1, 2, 3, 4, 5], [1],
                    [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 1, 1), ("d", 2, 4, 1),
                     ("e", 4, 3, 1), ("f", 4, 5, 1)],
                    faces=[[1, 2, 3], [2, 4, 3]])


def test_face_forced_counts_each_slot_once(two_triangles):
    # b:2 is the last undecided slot on two one-valve faces at once: it is
    # queued by both, but decided, and counted, once
    net = two_triangles
    slot = net.parse_slot_token
    search = Search(net, net.num_slots, SolverOptions(symmetry=False))
    search.state.push_frame()
    assert search.decide(slot("a:1"), PRESENT)
    assert search.decide(slot("d:2"), PRESENT)
    for token in ("a:2", "c:3", "c:1", "d:4", "e:4", "e:3"):
        assert search.decide(slot(token), ABSENT)
    before = search.stats.face_forced
    assert search.decide(slot("b:3"), ABSENT)
    assert search.state.value[slot("b:2")] == PRESENT
    assert search.stats.face_forced - before == 1


def test_tight_cover_empties_off_face_slots(two_triangles):
    # one valve on triangle 1-2-3 leaves it lonely, and the one valve left
    # must go there: every slot off that face is emptied by the one decide
    net = two_triangles
    slot = net.parse_slot_token
    search = Search(net, 2, SolverOptions(symmetry=False))
    search.state.push_frame()
    assert search.decide(slot("a:1"), PRESENT)
    off_face = [slot(t) for t in ("d:2", "d:4", "e:4", "e:3", "f:4", "f:5")]
    assert [search.state.value[s] for s in off_face] == [ABSENT] * 6
    assert search.stats.face_forced == 6
    on_face = [slot(t) for t in ("a:2", "b:2", "b:3", "c:3", "c:1")]
    assert [search.state.value[s] for s in on_face] == [UNDECIDED] * 5


def test_starving_valve_slots_are_emptied(two_triangles):
    # the source pins leave triangle 1-2-3 with two valves and one valve
    # left: a valve on triangle 2-4-3 would leave it lonely with none left
    # to relieve it, so the root empties its six slots, pendant f stays open
    net = two_triangles
    slot = net.parse_slot_token
    search = Search(net, 3, SolverOptions())
    assert search.init_root()
    starved = [slot(t) for t in ("b:2", "b:3", "d:2", "d:4", "e:4", "e:3")]
    assert [search.state.value[s] for s in starved] == [ABSENT] * 6
    assert search.stats.face_forced == 6
    open_slots = [slot(t) for t in ("a:2", "c:3", "f:4", "f:5")]
    assert [search.state.value[s] for s in open_slots] == [UNDECIDED] * 4
    assert solve(net, 3).ud == 5000


def test_fresh_state_is_not_settled(two_triangles):
    # with one valve, a valve on either triangle would leave it lonely and
    # none left to relieve it, so the fresh state's cover (z = 1) holds all
    # ten triangle slots; the first decide must empty them although its walk
    # places no valve, and so must a decide after undoing back to that state
    net = two_triangles
    slot = net.parse_slot_token
    search = Search(net, 1, SolverOptions())
    st = search.state
    triangles = [s for s in range(net.num_slots) if s >> 1 != net.edge_index["f"]]
    for _ in range(2):
        st.push_frame()
        assert search.decide(slot("f:5"), ABSENT)
        assert [st.value[s] for s in triangles] == [ABSENT] * 10
        assert st.value[slot("f:4")] == UNDECIDED
        st.undo_frame()
    assert search.stats.face_forced == 20


@pytest.mark.parametrize("faces", [True, False])
def test_spent_budget_empties_the_rest_unforced(square_plus, faces):
    # the decide that places the last valve empties every other undecided
    # slot; that is the tight cover with no valve left, not the face rule
    search = Search(square_plus, 3, SolverOptions(symmetry=False, face_constraints=faces))
    st = search.state
    st.push_frame()
    assert search.decide(8, PRESENT)
    assert search.decide(0, PRESENT)
    before = search.stats.face_forced
    assert search.decide(2, PRESENT)
    assert UNDECIDED not in st.value and st.n_present == 3
    assert [st.value[s] for s in (1, 3, 4, 5, 6, 7)] == [ABSENT] * 6
    assert search.stats.face_forced == before


class BudgetAuditedSearch(Search):
    """A search that records every decide, passed or failed, after which
    more than `nv` valves are placed, and counts those that place exactly
    `nv`. Valves are only added within a decide, so the count after it is
    the largest any step of its propagation reached."""

    def __init__(self, *args):
        super().__init__(*args)
        self.over = []
        self.at_budget = 0

    def decide(self, slot, value):
        ok = super().decide(slot, value)
        n_present = self.state.n_present
        if n_present > self.nv:
            self.over.append((slot, value, ok, bytes(self.state.value)))
        self.at_budget += n_present == self.nv
        return ok


@pytest.mark.parametrize("toggle", [{}, dict(face_constraints=False), dict(symmetry=False),
                                    dict(lb_prune=False)],
                         ids=["default", "no-face", "no-symmetry", "no-lb"])
def test_no_decide_exceeds_the_budget(corpus, toggle):
    # the valve budget has no check of its own in decide: the source pins,
    # the spent-budget cover and the face rule's reach test keep every
    # branch, and every step of its propagation, at most `nv` valves deep.
    # Without faces (reach 0) only the spent-budget cover does. Budgets go
    # up to 7, so the sample keeps over 1,000 at-budget decides now that the
    # starvation cover cuts many of them early
    at_budget = 0
    for net in corpus:
        for nv in range(max(2, required_source_slots(net)), 8):
            search = BudgetAuditedSearch(net, nv, SolverOptions(**toggle))
            if search.init_root():
                search.run()
            assert search.over == [], (net.name, nv)
            assert search.stats.budget_fails == 0
            at_budget += search.at_budget
    assert at_budget >= 1000


# -- the cut-off bound ------------------------------------------------------------


def best_completion(search):
    """The least ud over the completions of the current partial assignment
    within the budget (math.inf when none is feasible). Adding a valve
    never raises any damage, so completions that spend the whole budget, or
    fill every undecided slot, are enough."""
    st = search.state
    undecided = [s for s, v in enumerate(st.value) if v == UNDECIDED]
    base = st.present_mask()
    best = math.inf
    for combo in combinations(undecided, min(search.nv - st.n_present, len(undecided))):
        mask = base
        for s in combo:
            mask |= 1 << s
        ud, _, feasible = worst_case_fast(search.net, mask)
        if feasible and ud < best:
            best = ud
    return best


class CutoffAuditedSearch(Search):
    """A search that records, at every branch the cut-off bound fails,
    whether a completion of the state left behind beats the incumbent
    after all."""

    def __init__(self, *args):
        super().__init__(*args)
        self.unsound = []
        self.audited = 0

    def decide(self, slot, value):
        before = self.stats.cutoff_prunes
        incumbent = self.incumbent_ud
        ok = super().decide(slot, value)
        if self.stats.cutoff_prunes > before:
            self.audited += 1
            if best_completion(self) < incumbent:
                self.unsound.append((slot, value, bytes(self.state.value)))
        return ok


def bridged_nets(seed):
    """Two triangles joined by a bridge, fed from a corner of one and with
    a pendant pipe on the other, and the same with a 2-pipe bridge."""
    rng = random.Random(seed)

    def pipes(*ends):
        return [(f"p{u}{v}", u, v, rng.randint(1, 9)) for u, v in ends]

    coords = {"1": [0, 0], "2": [2, 0], "3": [1, 2], "4": [5, 0], "5": [7, 0], "6": [6, 2],
              "7": [8, 2]}
    triangles = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (6, 7)]
    yield make_net(list(range(1, 8)), [1], pipes(*triangles, (2, 4)), coords=coords)
    yield make_net(list(range(1, 9)), [3], pipes(*triangles, (2, 8), (8, 4)),
                   coords={**coords, "8": [3.5, 0]})


def test_cutoff_bound_admissible():
    # no branch the cut-off bound fails holds a completion that beats the
    # incumbent: enumerate the completions at each failure, on networks
    # with traced faces, faces that walk pipes twice and bridges
    nets = list(face_audit_nets())
    for seed in range(6):
        nets += [*walked_twice_nets(seed), *bridged_nets(seed)]
    audited = 0
    for net in nets:
        for nv in range(required_source_slots(net), net.num_slots + 1):
            search = CutoffAuditedSearch(net, nv, SolverOptions())
            if search.init_root():
                search.run()
            assert search.unsound == [], (net.name, nv)
            audited += search.audited
    assert audited >= 500


def reference_cutoff(net, st, root):
    """The cut-off bound of the class rooted at `root`, by plain sets: the
    demand of the pipes with no endpoint that a source reaches once the
    class's nodes are deleted, or with an empty slot at one of its nodes."""
    members = {n for n in range(net.num_nodes) if st.root[n] == root}
    reached = set(net.source_list) - members
    stack = list(reached)
    while stack:
        n = stack.pop()
        for e in net.incident[n]:
            u, v = net.endpoints[e]
            other = v if u == n else u
            if other not in members and other not in reached:
                reached.add(other)
                stack.append(other)
    total = 0
    for e, ends in enumerate(net.endpoints):
        emptied = any(st.value[2 * e + i] == ABSENT and end in members
                      for i, end in enumerate(ends))
        if emptied or not reached & set(ends):
            total += net.demand[e]
    return total


def test_cutoff_bound_equals_a_set_reference(corpus):
    # the bound's value, not only its admissibility: random decisions and
    # rollbacks with the bound off, so nothing prunes, and at every state
    # each class that holds a pipe against the set reference
    nets = list(corpus)
    for seed in range(3):
        nets += [*walked_twice_nets(seed), *bridged_nets(seed), real_density_net(seed)]
    rng = random.Random(33)
    compared = 0
    for net in nets:
        for _ in range(3):
            search = Search(net, rng.randint(2, net.num_slots), SolverOptions(lb_prune=False))
            st = search.state
            depth = 0
            for _ in range(30):
                undecided = [s for s in range(net.num_slots) if st.value[s] == UNDECIDED]
                if depth and (not undecided or rng.random() < 0.2):
                    st.undo_frame()
                    depth -= 1
                elif undecided:
                    st.push_frame()
                    depth += 1
                    if not search.decide(rng.choice(undecided), rng.choice((PRESENT, ABSENT))):
                        st.undo_frame()
                        depth -= 1
                roots = {st.root[st.slot_node[s]] for s, v in enumerate(st.value) if v == ABSENT}
                for root in roots:
                    assert search.cutoff_bound(root) == reference_cutoff(net, st, root)
                compared += len(roots)
    assert compared >= 5000


# -- bound propagation -----------------------------------------------------------


def test_lb_prune_against_incumbent(fig1):
    # class bound reaching the incumbent kills the branch
    search = Search(fig1, 4, SolverOptions(symmetry=False, face_constraints=False))
    search._best = (10000, frozenset(), 0)  # pretend incumbent of 10 l/s
    search.state.push_frame()
    # e25 (15 l/s) joins node 2's class: bound 15 >= 10
    assert not search.decide(fig1.parse_slot_token("e25:2"), ABSENT)
    assert search.stats.lb_prunes == 1


def test_merge_counts_edge_once():
    net = make_net([1, 2, 3], [1], [("a", 1, 2, 7), ("b", 2, 3, 1)])
    search = Search(net, 2, SolverOptions(symmetry=False))
    search.state.push_frame()
    assert search.decide(net.parse_slot_token("a:1"), ABSENT)
    assert search.decide(net.parse_slot_token("a:2"), ABSENT)
    st = search.state
    assert st.lb[st.root[0]] == 7000
    assert st.root[0] == st.root[1]


def test_reduced_cost_skips_same_class():
    # closing a triangle inside one class keeps one class, counts each pipe
    # once and, below the incumbent, forces nothing
    net = make_net([1, 2, 3, 4], [1],
                   [("a", 1, 2, 6), ("b", 2, 3, 6), ("c", 1, 3, 6), ("d", 3, 4, 1)])
    search = Search(net, 2, SolverOptions(symmetry=False))
    search._best = (30000, frozenset(), 0)
    search.state.push_frame()
    for token in ("a:1", "a:2", "b:2", "b:3"):
        assert search.decide(net.parse_slot_token(token), ABSENT)
    st = search.state
    assert st.root[0] == st.root[2]
    assert search.decide(net.parse_slot_token("c:1"), ABSENT)
    assert st.lb[st.root[0]] == 18000
    assert st.value[net.parse_slot_token("c:3")] == UNDECIDED


# -- branching -------------------------------------------------------------------


def reference_branch(search):
    """The full slot scan of the branching score: the undecided slot with
    the largest lb(C) + 2 * add(s), C being its node's class and add(s) the
    demand emptying it adds to C; then heaviest pipe, then lowest slot id."""
    net, st = search.net, search.state

    def added(slot):
        if st.value[slot ^ 1] != ABSENT:
            return net.demand[slot >> 1]
        here = st.root[net.slot_node(slot)]
        across = st.root[net.slot_other_node(slot)]
        return 0 if across == here else st.lb[across]

    def key(slot):
        score = st.lb[st.root[net.slot_node(slot)]] + 2 * added(slot)
        return (-score, -net.demand[slot >> 1], slot)

    undecided = [s for s in range(net.num_slots) if st.value[s] == UNDECIDED]
    return min(undecided, key=key, default=None)


def test_choose_branch_matches_full_slot_scan(fig1, fig2, corpus):
    # random decisions and rollbacks; ties in demand and in class bound are
    # common on fig2 (unit demands) and on the corpus's small demands
    rng = random.Random(909)
    checked = across_empty = 0
    for net in [fig1, fig2] + corpus[:10]:
        for _ in range(5):
            search = Search(net, rng.randint(2, net.num_slots), SolverOptions(face_constraints=False))
            st = search.state
            depth = 0
            for _ in range(40):
                undecided = [s for s in range(net.num_slots) if st.value[s] == UNDECIDED]
                if depth and (not undecided or rng.random() < 0.3):
                    st.undo_frame()
                    depth -= 1
                elif undecided:
                    st.push_frame()
                    depth += 1
                    if not search.decide(rng.choice(undecided), rng.choice((PRESENT, ABSENT))):
                        st.undo_frame()
                        depth -= 1
                slot = search.choose_branch()
                assert slot == reference_branch(search)
                checked += 1
                across_empty += slot is not None and st.value[slot ^ 1] == ABSENT
    assert checked == 12 * 5 * 40
    # the score's other case, a slot whose opposite slot is empty, is reached
    assert across_empty > 0


def test_choose_branch_tiebreak_lowest_slot(fig2):
    # unit demands, empty state: all keys tie, lowest slot id wins
    search = Search(fig2, 4, SolverOptions(symmetry=False))
    assert search.choose_branch() == 0


def test_choose_branch_prefers_merging_slot_to_heavier_pipe():
    # square 1-2-3-4 fed from 1; emptying b:3 and c:3 gives node 3's class
    # a bound of 15 l/s. Emptying b:2 or c:4 would merge that class in, a
    # score of 0 + 2 * 15 against 2 * 10 for the heaviest pipe d, so the
    # merging slot on the heavier of b and c wins
    net = make_net([1, 2, 3, 4], [1],
                   [("a", 1, 2, 2), ("b", 2, 3, 8), ("c", 3, 4, 7), ("d", 1, 4, 10)])
    search = Search(net, 4, SolverOptions(face_constraints=False, symmetry=False))
    search.state.push_frame()
    assert net.slot_token(search.choose_branch()) in ("d:1", "d:4")
    for token in ("b:3", "c:3"):
        assert search.decide(net.parse_slot_token(token), ABSENT)
    st = search.state
    assert st.lb[st.root[net.node_index["3"]]] == 15000
    assert net.slot_token(search.choose_branch()) == "b:2"


def test_fig1_root_branch_is_frozen(fig1):
    # regression constants from a reference run
    search = Search(fig1, 6, SolverOptions())
    assert search.init_root()
    assert fig1.slot_token(search.choose_branch()) == "e25:2"
    bare = Search(fig1, 6, SolverOptions(symmetry=False))
    assert bare.init_root()
    assert fig1.slot_token(bare.choose_branch()) == "e25:2"


# -- end-to-end solves ------------------------------------------------------------


FIG1_OPTIMA = {2: 47000, 3: 36000, 4: 24000, 5: 17000, 6: 15000}


def test_fig1_optima_all_budgets(fig1):
    for nv in range(2, 15):
        sol = solve(fig1, nv)
        assert sol.proof == "optimal"
        assert sol.ud == FIG1_OPTIMA.get(nv, 15000)
        assert len(sol.placement) == nv
        ud, _, feasible = worst_case_fast(
            fig1, sum(1 << s for s in sol.placement))
        assert feasible and ud == sol.ud


def test_fig1_saturated_budget_unique_placement(fig1):
    sol = solve(fig1, 14)
    assert sol.placement == frozenset(range(14))
    assert sol.ud == 15000


def test_budget_out_of_range(fig1):
    with pytest.raises(BudgetError):
        solve(fig1, 0)
    with pytest.raises(BudgetError):
        solve(fig1, 15)
    assert issubclass(BudgetError, ValueError)


@pytest.mark.parametrize("bad", [6.5, 6.0, True, "6", None])
def test_budget_not_an_integer(fig1, bad):
    with pytest.raises(BudgetError, match=rf"^valve budget must be an integer, got {bad!r}$"):
        solve(fig1, bad)


def test_infeasible_budget_reports_witness(triangle):
    with pytest.raises(InfeasibleBudget) as err:
        solve(triangle, 1)
    assert err.value.witness_edge is not None
    assert brute_force(triangle, 1).all_infeasible


def test_infeasible_budget_with_a_pipeless_source():
    # the lowest-numbered source has no pipes: the witness comes from the
    # other source's slots
    net = make_net(["a", "b", "c", "d"], ["a", "b"],
                   [("p", "b", "c", 1), ("q", "b", "d", 1), ("r", "c", "d", 1)])
    assert required_source_slots(net) == 2
    with pytest.raises(InfeasibleBudget) as err:
        solve(net, 1)
    assert net.edge_labels[err.value.witness_edge] == "p"


def test_infeasible_budget_beyond_root_check():
    # the root check passes (2 >= 2 source slots), and that is enough: the
    # two source-side valves isolate the far pipes of both branches too
    net = make_net([1, 2, 3, 4, 5], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 1, 4, 1), ("d", 4, 5, 1)])
    assert required_source_slots(net) == 2
    result = brute_force(net, 2)
    assert not result.all_infeasible
    assert solve(net, 2).ud == result.ud


def test_leaf_count_matches_search_space(triangle):
    # with every optional rule off, the k source-side slots are fixed and
    # leaves enumerate every placement of at most nv - k further valves,
    # sum over j <= nv - k of C(2m - k, j), exactly
    k = required_source_slots(triangle)
    assert k == 2
    for nv, leaves in ((2, 1), (3, 5)):
        sol = solve(triangle, nv, SolverOptions(**ALL_OFF))
        assert sol.stats.leaves == sum(math.comb(6 - k, j) for j in range(nv - k + 1)) == leaves
        assert len(sol.placement) == nv


def test_anytime_log_strictly_improves(fig1):
    sol = solve(fig1, 6, SolverOptions(**ALL_OFF))
    uds = [ud for _, ud in sol.anytime]
    times = [t for t, _ in sol.anytime]
    assert uds == sorted(uds, reverse=True) and len(set(uds)) == len(uds)
    assert times == sorted(times)
    assert uds[-1] == sol.ud


def test_node_limit_returns_best_found(fig1):
    sol = solve(fig1, 6, SolverOptions(node_limit=10, **ALL_OFF))
    assert sol.proof == "best-found"


def test_leaf_candidates_and_strict_bound(fig1, fig1_demo_placement):
    def drive_to_leaf(search):
        """Decide the demo placement in slot order and evaluate the leaf;
        returns the slot whose decide failed, or None once at the leaf."""
        search.state.push_frame()
        for slot in range(fig1.num_slots):
            if search.state.value[slot] == UNDECIDED:
                value = PRESENT if slot in fig1_demo_placement else ABSENT
                if not search.decide(slot, value):
                    return slot
        assert UNDECIDED not in search.state.value
        search._leaf()
        return None

    # the demo placement enters as a 36 l/s incumbent on a fresh search
    search = Search(fig1, 6, SolverOptions(symmetry=False, face_constraints=False))
    assert drive_to_leaf(search) is None
    assert search.snapshot()[0] == 36000

    # an equal-valued leaf is rejected: improvements must be strict. With
    # the bound on, the cut-off bound stops the drive before the leaf:
    # emptying e25:5 puts nodes 2 and 5 in one class of bound 20 l/s (e12
    # and e25), and deleting them leaves e23, e34 and e45 (16 l/s) without
    # a source path
    cut = Search(fig1, 6, SolverOptions(symmetry=False, face_constraints=False))
    cut._best = (36000, frozenset(), 0)
    assert drive_to_leaf(cut) == 7
    assert (cut.stats.lb_prunes, cut.stats.cutoff_prunes) == (0, 1)
    assert cut.cutoff_bound(cut.state.root[fig1.slot_node(7)]) == 36000
    # the bound off, the same drive reaches the leaf, which is rejected
    repeat = Search(fig1, 6, SolverOptions(symmetry=False, face_constraints=False,
                                           lb_prune=False))
    repeat._best = (36000, frozenset(), 0)
    assert drive_to_leaf(repeat) is None
    assert repeat.stats.rejected_leaves == 1
    assert repeat.snapshot()[0] == 36000


def test_determinism(fig1):
    a = solve(fig1, 5)
    b = solve(fig1, 5)
    assert a.placement == b.placement
    assert a.stats.as_dict() == b.stats.as_dict()


def test_stats_as_dict_in_field_order():
    # `valveplan solve` prints the counters in this order
    stats = SearchStats(nodes=5, restarts=2)
    assert list(stats.as_dict().items()) == [
        ("nodes", 5), ("leaves", 0), ("lb_prunes", 0), ("cutoff_prunes", 0), ("face_fails", 0),
        ("face_forced", 0), ("budget_fails", 0), ("conflicts", 0), ("reduced_cost_forced", 0),
        ("symmetry_fixed", 0), ("source_fixed", 0), ("lower_bound", 0),
        ("infeasible_leaves", 0), ("rejected_leaves", 0), ("restarts", 2)]


# (seed, pipes) or "fig1", budget, ud in ml/s, sorted placement, counters in
# SEARCH_COUNTERS order: the search on the ladder's instances, pinned
SEARCH_COUNTERS = ("nodes", "leaves", "lb_prunes", "cutoff_prunes", "face_fails", "face_forced",
                   "budget_fails", "conflicts", "symmetry_fixed", "source_fixed", "rejected_leaves")
PINNED_SEARCHES = [
    ("fig1", 6, 15000, [0, 2, 3, 6, 7, 9], (5, 1, 0, 0, 0, 0, 0, 0, 3, 2, 0)),
    ((7, 12), 8, 57000, [3, 10, 11, 12, 14, 16, 18, 23], (50, 3, 35, 4, 6, 125, 0, 0, 1, 4, 0)),
    ((5, 14), 8, 51000, [1, 6, 8, 10, 14, 18, 23, 27],
     (345, 33, 163, 60, 57, 956, 0, 0, 1, 2, 20)),
    ((7, 16), 6, 149000, [0, 1, 8, 10, 12, 13], (26, 4, 9, 5, 5, 154, 0, 0, 0, 4, 1)),
    ((7, 20), 8, 143000, [0, 4, 5, 25, 27, 30, 31, 34],
     (234, 8, 127, 45, 47, 1548, 0, 0, 2, 4, 2)),
    ((1, 33), 8, 285000, [0, 12, 17, 25, 27, 29, 43, 58],
     (527, 51, 125, 103, 198, 5264, 0, 0, 1, 4, 47)),
]


@pytest.mark.parametrize("case, nv, ud, placement, counters", PINNED_SEARCHES,
                         ids=[("fig1" if case == "fig1" else "rand-%d-m%d" % case) + f"-nv{nv}"
                              for case, nv, *_ in PINNED_SEARCHES])
def test_search_is_pinned(fig1, case, nv, ud, placement, counters):
    # a change to how fast a decision runs must not change which tree is walked
    net = fig1 if case == "fig1" else random_instance(*case)
    sol = solve(net, nv)
    assert sol.proof == "optimal"
    assert sol.ud == ud
    assert sorted(sol.placement) == placement
    assert tuple(getattr(sol.stats, name) for name in SEARCH_COUNTERS) == counters


def test_layer_boundaries_are_looked_up_at_call_time(monkeypatch):
    # a profiler wraps these at class or module level, as perfbench/tracer.py
    # does; an alias bound at import time would bypass the wrappers unseen
    net = random_instance(5, 14)
    plain = solve(net, 8)
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    targets = [(solver_module.Search, "decide"), (solver_module.Search, "choose_branch"),
               (state_module.TrailedState, "undo_frame"), (solver_module, "worst_case_fast")]
    for owner, attr in targets:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    wrapped = solve(net, 8)
    assert sorted(calls) == sorted(attr for _, attr in targets)
    assert calls["decide"] >= plain.stats.nodes - 1
    assert calls["worst_case_fast"] >= len(plain.anytime)
    assert (wrapped.ud, wrapped.placement) == (plain.ud, plain.placement)
    assert wrapped.stats.as_dict() == plain.stats.as_dict()


class LeafDamageAudit(Search):
    """A search that checks, at every leaf of exactly `nv` valves, the
    worst damage read off the classes against `worst_case_fast`."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checked = 0

    def _leaf(self):
        st = self.state
        if st.n_present == self.nv:
            assert st.worst_damage() == worst_case_fast(self.net, st.present_mask())[0]
            self.checked += 1
        super()._leaf()


def test_leaf_filter_damage_equals_worst_case_fast(corpus):
    # a leaf of exactly nv valves is rejected on the classes' damage alone,
    # so that damage must be the one worst_case_fast reports; the two-source
    # networks root the segment graph at more than one junction
    cases = [(net, range(2, 6)) for net in corpus]
    extra = [net for seed in range(3) for net in walked_twice_nets(seed)]
    extra += [k4_all_cycles(seed) for seed in range(3)]
    extra += [random_instance(seed, 33) for seed in range(4)]
    for m in (9, 13, 17, 21):
        doc = json.loads(random_document(m, n_edges=m))
        doc["sources"] = sorted(set(doc["sources"]) | {doc["nodes"][-1]})
        extra.append(parse_network(json.dumps(doc)))
    extra += [make_net(list(range(1, 10)), [1, 9],
                       [(f"p{i}", i, i + 1, i) for i in range(1, 9)]), disjoint_triangles()]
    cases += [(net, range(required_source_slots(net), required_source_slots(net) + 4))
              for net in extra]
    checked = 0
    for net, nvs in cases:
        for nv in nvs:
            if not required_source_slots(net) <= nv <= net.num_slots:
                continue
            search = LeafDamageAudit(net, nv, SolverOptions())
            if search.init_root():
                search.run()
            checked += search.checked
    assert checked >= 500


@pytest.mark.parametrize("seed", range(8))
def test_brute_force_agrees_at_33_pipes(seed):
    # 14-15 nodes and 19-20 traced faces: the tight cover empties the most
    # slots here. C(66, 5) is over the default cap, so the cap is explicit
    net = random_instance(seed, 33)
    k = required_source_slots(net)
    for nv in range(k, k + (4 if seed < 3 else 3)):
        expect = brute_force(net, nv, cap=10**15)
        sol = solve(net, nv)
        assert (sol.proof, sol.ud) == ("optimal", expect.ud), nv
        assert sol.placement in expect.optimal, nv


def test_brute_force_agrees_on_two_traced_components():
    # each triangle's traced face feeds the face rule, fed from its own source
    net = disjoint_triangles()
    assert net.faces == ((0, 1, 2), (3, 4, 5))
    for nv in range(1, net.num_slots + 1):
        expect = brute_force(net, nv)
        try:
            sol = solve(net, nv)
        except InfeasibleBudget:
            assert expect.all_infeasible, nv
            continue
        assert (sol.proof, sol.ud, len(sol.placement)) == ("optimal", expect.ud, nv)
        assert sol.placement in expect.optimal, nv


def test_warm_start_candidate_is_verified(fig1):
    # a bogus initial incumbent (more valves than the budget) is ignored
    assert not Search(fig1, 6, SolverOptions()).try_incumbent(frozenset(range(7)))
    sol = solve(fig1, 6, SolverOptions(initial_incumbent=frozenset(range(7))))
    assert sol.ud == 15000 and len(sol.placement) == 6
    # a valid one bounds the search from the start
    good = solve(fig1, 6).placement
    sol = solve(fig1, 6, SolverOptions(initial_incumbent=good))
    assert sol.ud == 15000
    assert sol.placement == good
    # it meets the bridge floor, so there is nothing left to search
    assert sol.proof == "optimal" and sol.stats.nodes == 0
    assert solve(fig1, 6, SolverOptions(initial_incumbent=good,
                                        lb_prune=False)).stats.nodes > 0
    # so is one with a slot outside the network, even at the right size
    for bad_slot in (fig1.num_slots, 99, -1):
        sol = solve(fig1, 7, SolverOptions(initial_incumbent=good | {bad_slot}))
        assert sol.proof == "optimal" and sol.ud == 15000
        assert all(0 <= s < fig1.num_slots for s in sol.placement)
        assert len(sol.tokens(fig1)) == 7


def test_warm_start_with_fewer_valves(fig1):
    # a candidate below the budget is padded with the lowest free slots
    four = solve(fig1, 4).placement
    padded = four | {min(set(range(fig1.num_slots)) - four)}
    sol = solve(fig1, 5, SolverOptions(initial_incumbent=four))
    assert sol.anytime[0][1] == worst_case_fast(fig1, sum(1 << s for s in padded))[0]
    assert len(sol.placement) == 5 and sol.ud == brute_force(fig1, 5).ud == 17000
    # one that meets the bridge floor ends the solve before the search
    six = solve(fig1, 6).placement
    sol = solve(fig1, 9, SolverOptions(initial_incumbent=six))
    assert sol.proof == "optimal" and sol.stats.nodes == 0
    assert len(sol.placement) == 9 and six < sol.placement
    assert sol.ud == brute_force(fig1, 9).ud == 15000


def test_warm_start_ignored_unless_feasible_and_better(fig1):
    # six valves off the source-side slots isolate nothing; the optimum
    # offered twice is not a strict improvement the second time
    off_source = frozenset([s for s in range(fig1.num_slots)
                            if not fig1.source_slots_mask >> s & 1][:6])
    assert not worst_case_fast(fig1, sum(1 << s for s in off_source))[2]
    best = solve(fig1, 6).placement
    search = Search(fig1, 6, SolverOptions())
    assert not search.try_incumbent(off_source)
    assert search.snapshot() == (math.inf, None, None)
    assert search.try_incumbent(best)
    assert not search.try_incumbent(best)
    assert len(search.anytime) == 1
    sol = solve(fig1, 6, SolverOptions(initial_incumbent=off_source))
    assert sol.proof == "optimal" and sol.ud == brute_force(fig1, 6).ud
    assert len(sol.placement) == 6


@pytest.mark.parametrize("name", ["fig1", "fig2"])
@pytest.mark.parametrize("nv", [4, 6])
def test_warm_start_at_optimum_without_bound_keeps_the_tree(request, name, nv):
    # with lb_prune off no rule prunes on the incumbent, so starting at the
    # optimum explores the same nodes and leaves as a cold start
    net = request.getfixturevalue(name)
    cold = solve(net, nv, SolverOptions(lb_prune=False))
    warm = solve(net, nv, SolverOptions(lb_prune=False, initial_incumbent=cold.placement))
    assert warm.proof == cold.proof == "optimal" and warm.ud == cold.ud
    assert (warm.stats.nodes, warm.stats.leaves) == (cold.stats.nodes, cold.stats.leaves)


def test_time_limit_zero_returns_best_found_without_placement(fig1):
    sol = solve(fig1, 6, SolverOptions(time_limit=0))
    assert sol.proof == "best-found" and not sol.interrupted
    assert sol.placement is None and sol.ud == math.inf and sol.argmax_edge is None
    assert sol.stats.nodes == 1 and sol.anytime == []


def test_on_incumbent_callback(fig1):
    seen = []
    solve(fig1, 6, SolverOptions(on_incumbent=lambda t, ud: seen.append(ud)))
    assert seen and seen[-1] == 15000


def test_interrupt_returns_best_found(fig1):
    def interrupt(elapsed, ud):
        raise KeyboardInterrupt

    # fig1 at 4 valves improves at least once before its optimum of 24 l/s.
    # That premise is asserted: a pruning or branching change that finds
    # the optimum first would leave nothing here to interrupt
    full = solve(fig1, 4)
    assert full.ud == 24000 and len(full.anytime) >= 2
    sol = solve(fig1, 4, SolverOptions(on_incumbent=interrupt))
    assert sol.interrupted and sol.proof == "best-found"
    assert len(sol.anytime) == 1 and sol.ud == sol.anytime[0][1] > 24000
    assert worst_case_fast(fig1, sum(1 << s for s in sol.placement))[0] == sol.ud
    # at 7 valves the first incumbent meets the floor, which proves it
    sol = solve(fig1, 7, SolverOptions(on_incumbent=interrupt))
    assert sol.interrupted and sol.proof == "optimal" and sol.ud == 15000


def test_snapshot_contract(fig1):
    search = Search(fig1, 6, SolverOptions())
    assert search.snapshot() == (math.inf, None, None)
    assert search.init_root()
    search.run()
    ud, placement, edge = search.snapshot()
    assert ud == 15000 and len(placement) == 6


def test_search_depth_does_not_deepen_the_python_stack():
    # the search tree on the longer path is about five times deeper, but the
    # interpreter's stack at each incumbent must stay as deep as on the short one
    depths = []
    for n_pipes, nv in ((10, 15), (60, 100)):
        seen = set()
        opts = SolverOptions(node_limit=200, on_incumbent=lambda t, ud: seen.add(
            sum(1 for _ in traceback.walk_stack(None))))
        sol = solve(path_net(n_pipes), nv, opts)
        assert sol.placement is not None and seen
        depths.append(seen)
    assert depths[0] == depths[1]


# -- restart mode -----------------------------------------------------------------


def test_restart_mode_same_optimum_more_nodes(fig1):
    cont = solve(fig1, 4, SolverOptions(restart_mode="continuing"))
    rest = solve(fig1, 4, SolverOptions(restart_mode="restarting"))
    assert cont.ud == rest.ud == 24000
    assert rest.stats.restarts >= 1
    assert rest.stats.nodes >= cont.stats.nodes


def test_options_reject_negative_or_nan_limits():
    for name in ("time_limit", "node_limit"):
        for bad in (-1, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be at least 0"):
                SolverOptions(**{name: bad})
        # 0 stops at the root; None means no limit
        assert getattr(SolverOptions(**{name: 0}), name) == 0
        assert getattr(SolverOptions(**{name: None}), name) is None


def test_restart_closes_every_open_frame(fig1):
    search = Search(fig1, 4, SolverOptions(restart_mode="restarting"))
    assert search.init_root()
    root = bytes(search.state.value)
    search.run()
    assert search.stats.restarts >= 1
    assert search.state._frames == []
    assert bytes(search.state.value) == root


def test_floor_stop_closes_every_open_frame(fig1):
    search = Search(fig1, 6, SolverOptions())
    assert search.init_root()
    root = bytes(search.state.value)
    search.run()
    assert search.floor_met and search.snapshot()[0] == search.floor == 15000
    assert search.state._frames == []
    assert bytes(search.state.value) == root


def test_node_count_dominance(fig1, corpus):
    # face + bound pruning never explores more nodes than the bare search
    off = SolverOptions(**ALL_OFF)
    on = SolverOptions()
    cases = [(fig1, nv) for nv in (4, 5, 6)] + [(net, 4) for net in corpus[:8]]
    for net, nv in cases:
        try:
            full = solve(net, nv, on)
            bare = solve(net, nv, off)
        except InfeasibleBudget:
            continue
        assert full.stats.nodes <= bare.stats.nodes


# -- admissibility of the class bound ----------------------------------------------


def test_bound_admissible_on_random_partials(corpus):
    rng = random.Random(4242)
    checked = 0
    for net in corpus[:8]:
        nv = rng.choice((3, 4, 5))
        for _ in range(6):
            search = Search(net, nv, SolverOptions(**ALL_OFF))
            search.state.push_frame()
            order = list(range(net.num_slots))
            rng.shuffle(order)
            ok = True
            for slot in order[:rng.randint(0, net.num_slots * 3 // 4)]:
                if search.state.value[slot] != UNDECIDED:
                    continue
                if not search.decide(slot, rng.choice((PRESENT, ABSENT))):
                    ok = False
                    break
            if not ok:
                continue
            st = search.state
            undecided = [s for s in range(net.num_slots) if st.value[s] == UNDECIDED]
            need = nv - st.n_present
            if need < 0 or need > len(undecided):
                continue
            best = math.inf
            for combo in combinations(undecided, need):
                mask = st.present_mask()
                for s in combo:
                    mask |= 1 << s
                ud, _, feasible = worst_case_fast(net, mask)
                if feasible:
                    best = min(best, ud)
            assert max_lb(st) <= best
            checked += 1
    assert checked >= 20


# -- solver vs oracle (unit-sized sample; the acceptance suite does the full corpus)


def test_matches_oracle_on_small_sample(corpus, corpus_oracle):
    for idx in range(6):
        net = corpus[idx]
        for nv in (2, 3, 4, 5):
            expect = corpus_oracle[(idx, nv)]
            try:
                sol = solve(net, nv)
                assert not expect.all_infeasible
                assert sol.proof == "optimal"
                assert sol.ud == expect.ud
            except InfeasibleBudget:
                assert expect.all_infeasible
