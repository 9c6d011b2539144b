import math
import os
import random
import traceback
from itertools import combinations

import pytest

from valveplan import solver as solver_module
from valveplan import state as state_module
from valveplan.generate import random_instance
from valveplan.isolation import worst_case_fast
from valveplan.network import Network, parse_network
from valveplan.oracle import brute_force
from valveplan.solver import (
    BudgetError,
    InfeasibleBudget,
    Search,
    SolverOptions,
    bridge_lower_bound,
    face_slot_lists,
    required_source_slots,
    solve,
    symmetry_forced_slots,
)
from valveplan.state import ABSENT, PRESENT, UNDECIDED

from conftest import k4_all_cycles, make_net, path_net

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
    # the reach look-ahead, 9,055 with the per-slot cover and 2,327 with the
    # component bound that also empties the off-face slots when it is tight
    sol = solve(frozen_instance("rand-1-m33"), 8)
    assert (sol.proof, sol.ud) == ("optimal", 285000)
    assert sol.stats.nodes <= 2_500


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
    completion (with a valve on that slot) existed after all."""

    def __init__(self, *args):
        super().__init__(*args)
        self.unsound = []
        self.audited = 0
        off_face_slots = self.state.off_face_slots

        def audited_off_face_slots():
            forced = off_face_slots()
            for slot in forced:
                self.audited += 1
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


def test_face_lookahead_admissible():
    # every branch the face rule (look-ahead included) fails holds no
    # face-valid leaf, and no slot the lonely-face cover empties carries a
    # valve in any: enumerate the completions at each failure and forcing
    nets = [random_instance(seed, n_edges=m) for m in (6, 7, 8) for seed in range(8)]
    nets += [k4_all_cycles(seed) for seed in range(2)]
    audited = 0
    for net in nets:
        for nv in range(required_source_slots(net), net.num_slots + 1):
            search = FaceAuditedSearch(net, nv, SolverOptions())
            if search.init_root():
                search.run()
            assert search.unsound == [], (net.name, nv)
            audited += search.audited
    assert audited >= 1000


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
    assert st.n_undecided == 0 and st.n_present == 3
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
    # Without faces (reach 0) only the spent-budget cover does
    at_budget = 0
    for net in corpus:
        for nv in range(max(2, required_source_slots(net)), 7):
            search = BudgetAuditedSearch(net, nv, SolverOptions(**toggle))
            if search.init_root():
                search.run()
            assert search.over == [], (net.name, nv)
            assert search.stats.budget_fails == 0
            at_budget += search.at_budget
    assert at_budget >= 1000


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
    assert st.lb[st.find(0)] == 7000
    assert st.find(0) == st.find(1)


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
    assert st.find(0) == st.find(2)
    assert search.decide(net.parse_slot_token("c:1"), ABSENT)
    assert st.lb[st.find(0)] == 18000
    assert st.value[net.parse_slot_token("c:3")] == UNDECIDED


# -- branching -------------------------------------------------------------------


def reference_branch(search):
    """The full slot scan: the undecided slot of the largest class bound,
    then heaviest pipe, then lowest slot id."""
    net, st = search.net, search.state
    order = sorted(range(net.num_slots), key=lambda s: (-net.demand[s >> 1], s))
    node_lb = [st.lb[st.find(n)] for n in range(net.num_nodes)]
    best = None
    best_lb = -1
    for slot in order:
        node = net.slot_node(slot)
        if st.value[slot] == UNDECIDED and node_lb[node] > best_lb:
            best_lb = node_lb[node]
            best = slot
    return best


def test_choose_branch_matches_full_slot_scan(fig1, fig2, corpus):
    # random decisions and rollbacks; ties in demand and in class bound are
    # common on fig2 (unit demands) and on the corpus's small demands
    rng = random.Random(909)
    checked = 0
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
                assert search.choose_branch() == reference_branch(search)
                checked += 1
    assert checked == 12 * 5 * 40


def test_choose_branch_tiebreak_lowest_slot(fig2):
    # unit demands, empty state: all keys tie, lowest slot id wins
    search = Search(fig2, 4, SolverOptions(symmetry=False))
    assert search.choose_branch() == 0


def test_choose_branch_prefers_largest_class(fig1):
    search = Search(fig1, 6, SolverOptions(symmetry=False))
    search.state.push_frame()
    # attach e34 (7 l/s) to node 3's class
    assert search.decide(fig1.parse_slot_token("e34:3"), ABSENT)
    slot = search.choose_branch()
    node = fig1.slot_node(slot)
    st = search.state
    assert st.find(node) == st.find(fig1.node_index[3])


def test_fig1_root_branch_is_frozen(fig1):
    # regression constants from a reference run
    search = Search(fig1, 6, SolverOptions())
    assert search.init_root()
    assert fig1.slot_token(search.choose_branch()) == "e23:3"
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
        search.state.push_frame()
        for slot in range(fig1.num_slots):
            if search.state.value[slot] == UNDECIDED:
                value = PRESENT if slot in fig1_demo_placement else ABSENT
                assert search.decide(slot, value)
        assert search.state.n_undecided == 0
        search._leaf()

    # the demo placement enters as a 36 l/s incumbent on a fresh search
    search = Search(fig1, 6, SolverOptions(symmetry=False, face_constraints=False))
    drive_to_leaf(search)
    assert search.snapshot()[0] == 36000

    # an equal-valued leaf is rejected: improvements must be strict
    repeat = Search(fig1, 6, SolverOptions(symmetry=False, face_constraints=False))
    repeat._best = (36000, frozenset(), 0)
    drive_to_leaf(repeat)
    assert repeat.stats.rejected_leaves == 1
    assert repeat.snapshot()[0] == 36000


def test_determinism(fig1):
    a = solve(fig1, 5)
    b = solve(fig1, 5)
    assert a.placement == b.placement
    assert a.stats.as_dict() == b.stats.as_dict()


# (seed, pipes) or "fig1", budget, ud in ml/s, sorted placement, counters in
# SEARCH_COUNTERS order: the search on the ladder's instances, pinned
SEARCH_COUNTERS = ("nodes", "leaves", "lb_prunes", "face_fails", "face_forced", "budget_fails",
                   "conflicts", "symmetry_fixed", "source_fixed", "rejected_leaves")
PINNED_SEARCHES = [
    ("fig1", 6, 15000, [0, 2, 5, 6, 7, 11], (26, 5, 13, 0, 1, 0, 0, 3, 2, 0)),
    ((7, 12), 8, 57000, [3, 10, 11, 12, 14, 16, 18, 23], (88, 4, 61, 20, 175, 0, 0, 1, 4, 0)),
    ((5, 14), 8, 51000, [1, 6, 8, 10, 14, 18, 23, 27],
     (1784, 173, 853, 586, 2391, 0, 0, 1, 2, 163)),
    ((7, 16), 6, 149000, [0, 1, 8, 10, 11, 12], (59, 8, 13, 31, 183, 0, 0, 0, 4, 6)),
    ((7, 20), 8, 143000, [0, 4, 5, 25, 27, 30, 31, 34],
     (815, 19, 356, 422, 2257, 0, 0, 2, 4, 12)),
    ((1, 33), 8, 285000, [0, 12, 17, 25, 27, 29, 43, 58],
     (2327, 150, 594, 1434, 12806, 0, 0, 1, 4, 142)),
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
    assert calls["worst_case_fast"] >= plain.stats.leaves
    assert (wrapped.ud, wrapped.placement) == (plain.ud, plain.placement)
    assert wrapped.stats.as_dict() == plain.stats.as_dict()


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

    # fig1 at 5 valves improves at least once before its optimum of 17 l/s.
    # That premise is asserted: a pruning change that finds the optimum
    # first would leave nothing here to interrupt
    full = solve(fig1, 5)
    assert full.ud == 17000 and len(full.anytime) >= 2
    sol = solve(fig1, 5, SolverOptions(on_incumbent=interrupt))
    assert sol.interrupted and sol.proof == "best-found"
    assert len(sol.anytime) == 1 and sol.ud == sol.anytime[0][1] > 17000
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
    cont = solve(fig1, 6, SolverOptions(restart_mode="continuing"))
    rest = solve(fig1, 6, SolverOptions(restart_mode="restarting"))
    assert cont.ud == rest.ud == 15000
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
    search = Search(fig1, 6, SolverOptions(restart_mode="restarting"))
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
            assert st.max_lb() <= best
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
