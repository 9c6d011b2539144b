import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valveplan import instances
from valveplan import solver as solver_module
from valveplan.generate import random_instance
from valveplan.isolation import mask_bits
from valveplan.solver import Search, SolverOptions, solve
from valveplan.state import ABSENT, PRESENT, UNDECIDED, TrailedState
from valveplan.tables import FaceTable, face_slot_lists

from conftest import classes, k4_all_cycles, make_net, path_net, walked_twice_nets


def build_state(net, decisions):
    """Fresh state with `decisions` = [(slot, value)] applied in order."""
    state = TrailedState(net, net.tables.faces)
    for slot, value in decisions:
        state.set_value(slot, value)
    return state


def attachment(state):
    """Each pipe with an absent slot, mapped to the class its demand joined:
    the class at an absent slot's node (with both slots absent, both nodes
    are in one class), read from the slot values alone."""
    net = state.net
    return {slot >> 1: frozenset(mask_bits(state.members[state.root[net.slot_node(slot)]]))
            for slot in range(net.num_slots) if state.value[slot] == ABSENT}


def snapshot(state):
    return (bytes(state.value), state.n_present,
            attachment(state), classes(state),
            tuple(state.face_valves), tuple(state.face_undecided), state.lonely)


def rescan_faces(state, face_slots):
    """The face counters recomputed from the slot values alone."""
    value = state.value
    valves = [sum(value[s] == PRESENT for s in slots) for slots in face_slots]
    undecided = [sum(value[s] == UNDECIDED for s in slots) for slots in face_slots]
    return valves, undecided, valves.count(1)


def _random_ops(rng, net, length):
    """Random interleaving of frame pushes, assignments and rollbacks."""
    ops = []
    for _ in range(length):
        ops.append(rng.choice(("push", "assign", "assign", "undo")))
    return ops


def replay(net, ops, rng, check=None):
    """Apply `ops` to a fresh state, calling `check(state)` after each."""
    state = TrailedState(net, net.tables.faces)
    open_frames = 0
    live = []           # decisions applied and not (yet) rolled back
    frame_stack = []
    for op in ops:
        if op == "push":
            state.push_frame()
            frame_stack.append(len(live))
            open_frames += 1
        elif op == "undo":
            if not open_frames:
                continue
            state.undo_frame()
            del live[frame_stack.pop():]
            open_frames -= 1
        else:
            undecided = [s for s in range(net.num_slots) if state.value[s] == UNDECIDED]
            if not undecided:
                continue
            slot = rng.choice(undecided)
            value = rng.choice((PRESENT, ABSENT))
            state.set_value(slot, value)
            live.append((slot, value))
        if check:
            check(state)
    # close any frames left open; what survives is the committed prefix
    while open_frames:
        state.undo_frame()
        del live[frame_stack.pop():]
        open_frames -= 1
    return state, live


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(0, 60))
def test_rollback_restores_exact_state(fig1_net_doc, seed, length):
    net = fig1_net_doc
    rng = random.Random(seed)
    ops = _random_ops(rng, net, length)
    state, survivors = replay(net, ops, rng)
    rebuilt = build_state(net, survivors)
    assert snapshot(state) == snapshot(rebuilt)


# hypothesis and function-scoped fixture reuse do not mix; keep one
# module-scoped network for the property tests
@pytest.fixture(scope="module")
def fig1_net_doc():
    from valveplan.instances import fig1
    return fig1()


@pytest.mark.parametrize("name", ["fig1", "k4-all-cycles", "walked-twice"])
def test_face_counters_match_rescan(fig1_net_doc, name):
    # fig1 has traced faces; K4 puts every pipe on four declared faces; the
    # square's second face walks pipes 1-2 and 2-3 twice, so it holds none
    # of their slots
    nets = {"fig1": fig1_net_doc, "k4-all-cycles": k4_all_cycles(0),
            "walked-twice": make_net([1, 2, 3, 4], [1],
                                     [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1),
                                      ("d", 4, 1, 1)],
                                     faces=[[1, 2, 3, 4], [1, 2, 3, 2]])}
    net = nets[name]
    faces = face_slot_lists(net)

    def check(state):
        assert (state.face_valves, state.face_undecided,
                state.lonely) == rescan_faces(state, faces)

    rng = random.Random(77)
    for _ in range(40):
        state, _ = replay(net, _random_ops(rng, net, rng.randint(0, 60)), rng, check)
        check(state)


def state_with_faces(faces, present=(), absent=()):
    """A state over hand-written face slot lists on an 8-slot path."""
    net = make_net([1, 2, 3, 4, 5], [1], [(f"p{i}", i, i + 1, 1) for i in range(1, 5)])
    state = TrailedState(net, FaceTable(faces, net.num_slots))
    for slot in present:
        state.set_value(slot, PRESENT)
    for slot in absent:
        state.set_value(slot, ABSENT)
    return state


def test_need_two_lonely_faces_sharing_a_slot():
    state = state_with_faces([[0, 1, 2], [2, 3, 4]], present=(0, 4))
    assert state.lonely == 2 and state.need() == 1
    assert state.off_face_slots() == [5, 6, 7]


def test_need_chain_of_three_lonely_faces():
    # slot 2 links the first two faces, slot 4 the last two: one valve
    # relieves at most two of the three
    state = state_with_faces([[0, 1, 2], [2, 3, 4], [4, 5, 6]], present=(0, 3, 6))
    assert state.lonely == 3 and state.need() == 2
    assert state.off_face_slots() == [7]


def test_need_isolated_lonely_faces():
    state = state_with_faces([[0, 1, 2], [4, 5, 6]], present=(0,))
    assert state.lonely == 1 and state.need() == 1
    # the face without a valve is no lonely face: its slots are off-face,
    # and with z = 1 only they are kept (slots 3 and 7 lie on no face)
    assert state.off_face_slots() == [3, 4, 5, 6, 7]
    assert state.off_face_slots(1) == [4, 5, 6]
    assert state.off_face_slots(2) == []
    state.set_value(4, PRESENT)
    assert state.lonely == 2 and state.need() == 2


def test_need_unrelievable_lonely_face():
    state = state_with_faces([[0, 1, 2]], present=(0,), absent=(1, 2))
    assert state.lonely == 1 and state.need() == math.inf


def test_need_on_overlapping_declared_faces():
    # K4 with every cycle declared: a valve on p12:1 leaves the four faces
    # through pipe p12 lonely, and the slot p12:2 lies on all four, so one
    # more valve relieves them all (w = 4; a bound for reach 2 would say 2)
    net = k4_all_cycles(0)
    state = TrailedState(net, net.tables.faces)
    state.set_value(net.parse_slot_token("p12:1"), PRESENT)
    assert state.lonely == 4 and state.need() == 1
    # with p12:2 empty, every other slot lies on two of the four at most
    state.set_value(net.parse_slot_token("p12:2"), ABSENT)
    assert state.lonely == 4 and state.need() == 2


def fewest_relieving_valves(state, faces):
    """Fewest undecided slots that put a second valve on every lonely face,
    by enumeration (math.inf when none do)."""
    value = state.value
    lonely = [set(f) for f in faces if sum(value[s] == PRESENT for s in f) == 1]
    undecided = sorted({s for f in lonely for s in f if value[s] == UNDECIDED})
    for k in range(len(lonely) + 1):
        for chosen in combinations(undecided, k):
            if all(f.intersection(chosen) for f in lonely):
                return k
    return math.inf


@pytest.mark.parametrize("name", ["fig1", "k4-all-cycles"])
def test_need_is_a_lower_bound_never_weaker_than_the_slot_cover(fig1_net_doc, name):
    # `need` never exceeds the true fewest valves, and is never below
    # ceil(lonely / cover), cover being the most lonely faces on one
    # undecided slot (the bound it replaced); `off_face_slots(z)` keeps the
    # off-face slots on at least z faces without a valve
    net = fig1_net_doc if name == "fig1" else k4_all_cycles(1)
    faces = face_slot_lists(net)
    seen = 0

    def check(state):
        nonlocal seen
        need = state.need()
        assert need <= fewest_relieving_valves(state, faces)
        off = state.off_face_slots()
        for z in (1, 2, 3):
            assert state.off_face_slots(z) == [
                s for s in off if sum(state.face_valves[f] == 0 for f in state.slot_faces[s]) >= z]
        if not state.lonely:
            assert need == 0
            return
        seen += 1
        cover = max((sum(state.face_valves[f] == 1 for f in state.slot_faces[s])
                     for s in range(net.num_slots) if state.value[s] == UNDECIDED),
                    default=0)
        assert need == math.inf if cover == 0 else need >= -(-state.lonely // cover)
        assert all(state.face_valves[f] != 1 for s in off for f in state.slot_faces[s])

    rng = random.Random(2024)
    for _ in range(30):
        replay(net, _random_ops(rng, net, rng.randint(0, 40)), rng, check)
    assert seen >= 100


def rebuilt_classes(state):
    """The sector classes from a fresh union-find over the pipes whose two
    slots are both absent, with each class's summed attached demand."""
    net = state.net
    parent = list(range(net.num_nodes))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e, (u, v) in enumerate(net.endpoints):
        if state.value[2 * e] == ABSENT and state.value[2 * e + 1] == ABSENT:
            parent[find(u)] = find(v)
    groups = {}
    for n in range(net.num_nodes):
        groups.setdefault(find(n), set()).add(n)
    lb = dict.fromkeys(groups, 0)
    for slot in range(net.num_slots):
        # an absent slot attaches its pipe to the class at its node, once
        if state.value[slot] == ABSENT and not (slot & 1 and state.value[slot ^ 1] == ABSENT):
            lb[find(net.slot_node(slot))] += net.demand[slot >> 1]
    return {frozenset(nodes): lb[r] for r, nodes in groups.items()}


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_class_labels_match_rebuilt_union_find(fig1_net_doc, name):
    from valveplan.instances import fig2
    net = fig1_net_doc if name == "fig1" else fig2()

    def check(state):
        expect = rebuilt_classes(state)
        assert classes(state) == expect
        for nodes in expect:
            labels = {state.root[n] for n in nodes}
            assert len(labels) == 1 and labels.pop() in nodes

    rng = random.Random(5150)
    for _ in range(40):
        state, _ = replay(net, _random_ops(rng, net, rng.randint(0, 80)), rng, check)
        check(state)


def test_full_undo_returns_to_pristine(fig1_net_doc):
    net = fig1_net_doc
    state = TrailedState(net, net.tables.faces)
    pristine = snapshot(state)
    state.push_frame()
    for slot in range(net.num_slots):
        state.set_value(slot, ABSENT if slot % 2 else PRESENT)
    state.undo_frame()
    assert snapshot(state) == pristine


def test_lower_bound_single_count():
    # both slots of a 7 l/s pipe absent: classes merge, weight counted once
    net = make_net([1, 2, 3], [1], [("a", 1, 2, 7), ("b", 2, 3, 2)])
    state = TrailedState(net, net.tables.no_faces)
    a0 = net.parse_slot_token("a:1")
    a1 = net.parse_slot_token("a:2")
    r = state.set_value(a0, ABSENT)
    assert state.lb[r] == 7000
    r = state.set_value(a1, ABSENT)
    assert state.lb[r] == 7000
    assert state.root[0] == state.root[1]


def test_lb_matches_attached_edges(fig1_net_doc):
    # invariant: at any point, a class bound equals the summed demand of the
    # edges attached to it, each counted once
    net = fig1_net_doc
    rng = random.Random(31)
    for _ in range(50):
        state = TrailedState(net, net.tables.no_faces)
        order = list(range(net.num_slots))
        rng.shuffle(order)
        for slot in order[:rng.randint(0, net.num_slots)]:
            state.set_value(slot, rng.choice((PRESENT, ABSENT)))
        by_class = dict.fromkeys(classes(state), 0)
        for e, nodes in attachment(state).items():
            by_class[nodes] += net.demand[e]
        assert classes(state) == by_class



def state_image(state):
    """Everything a rollback must restore."""
    return (bytes(state.value), list(state.root), list(state.members),
            list(state.lb), list(state.face_valves), list(state.face_undecided),
            state.lonely, state.n_present)


def drive_decide(net, nv, incumbent, rng, steps, batches):
    """Random push / `Search.decide` / undo sequence, comparing the state
    after every `undo_frame` with the image taken at its `push_frame`.
    Appends (slots offered, slots emptied, stopped by the bound) per batch
    to `batches`."""
    search = Search(net, nv, SolverOptions())
    search._best = (incumbent, None, None)
    st = search.state
    batch = st.empty_off_face

    def recorded(slots, bound):
        done, cascades = batch(slots, bound)
        batches.append((len(slots), done, cascades is None))
        return done, cascades

    st.empty_off_face = recorded
    images = []
    for _ in range(steps):
        undecided = [s for s in range(net.num_slots) if st.value[s] == UNDECIDED]
        if images and (not undecided or rng.random() < 0.3):
            st.undo_frame()
            assert state_image(st) == images.pop()
            continue
        if not undecided:
            break
        images.append(state_image(st))
        st.push_frame()
        if not search.decide(rng.choice(undecided), rng.choice((PRESENT, ABSENT))):
            st.undo_frame()
            assert state_image(st) == images.pop()
    while images:
        st.undo_frame()
        assert state_image(st) == images.pop()
    assert st._frames == [] and st.n_present == st.value.count(ABSENT) == 0


def batch_nets():
    yield instances.fig1()
    for seed in range(3):
        yield k4_all_cycles(seed)
        yield from walked_twice_nets(seed)
    for seed in range(3):
        yield random_instance(seed, 33)


def test_batch_rollback_restores_the_pushed_state():
    # a tight cover empties its off-face slots in one batch under one trail
    # record; with a finite incumbent the bound stops some batches partway
    rng = random.Random(1812)
    batches = []
    for net in batch_nets():
        k = net.source_slots_mask.bit_count()
        for _ in range(12):
            nv = rng.randint(max(1, k), k + 3)
            incumbent = rng.choice((math.inf, net.total_demand // rng.randint(2, 6)))
            drive_decide(net, nv, incumbent, rng, rng.randint(5, 60), batches)
    stopped = [b for b in batches if b[2]]
    assert len(batches) >= 500
    assert sum(done < offered for offered, done, _ in stopped) >= 100
    assert all(done == offered for offered, done, stop in batches if not stop)


def frame_image(frame):
    """A frame snapshot with every array copied into a tuple."""
    return tuple(tuple(x) if isinstance(x, (list, bytes)) else x for x in frame)


@pytest.mark.parametrize("how", ["set_value", "empty_off_face"])
def test_union_inside_a_frame_leaves_its_snapshot_alone(how):
    # class {1, 2} is built before the frame; emptying both slots of p2
    # inside it merges {3} into that class. Every snapshot must still read
    # as it did at its `push_frame`, and the undo puts that state back
    net = path_net(3)
    st = TrailedState(net, net.tables.no_faces)
    for token in ("p1:1", "p1:2"):
        st.set_value(net.parse_slot_token(token), ABSENT)
    image = state_image(st)
    st.push_frame()
    held = frame_image(st._frames[-1])
    slots = [net.parse_slot_token(token) for token in ("p2:2", "p2:3")]
    if how == "set_value":
        for slot in slots:
            st.set_value(slot, ABSENT)
    else:
        assert st.empty_off_face(slots, math.inf) == (2, [])
    assert mask_bits(st.members[st.root[0]]) == [0, 1, 2]
    assert frame_image(st._frames[-1]) == held
    st.undo_frame()
    assert state_image(st) == image


def test_open_snapshots_stay_intact_under_search():
    # random pushes, decides (batches included) and undos: after every step
    # each open frame's snapshot reads as it did when it was pushed
    rng = random.Random(77)
    checked = 0
    for net in batch_nets():
        k = net.source_slots_mask.bit_count()
        search = Search(net, rng.randint(max(1, k), k + 3), SolverOptions())
        search._best = (net.total_demand // 3, None, None)
        st = search.state
        held = []
        for _ in range(60):
            undecided = [s for s in range(net.num_slots) if st.value[s] == UNDECIDED]
            if held and (not undecided or rng.random() < 0.3):
                st.undo_frame()
                held.pop()
            elif undecided:
                st.push_frame()
                held.append(frame_image(st._frames[-1]))
                if not search.decide(rng.choice(undecided), rng.choice((PRESENT, ABSENT))):
                    st.undo_frame()
                    held.pop()
            assert [frame_image(f) for f in st._frames] == held
            checked += len(held)
    assert checked >= 1000


def test_deep_frames_undo_to_the_root(monkeypatch):
    # a capped 100-pipe solve opens far more frames than the proofs above
    # (132 against about 50); its tree is pinned, and undoing the frames the
    # limit left open returns the state to the root's
    net = random_instance(0, 100, n_nodes=70, min_source_degree=2)
    searches = []
    depth = [0]
    push = TrailedState.push_frame

    class Recorded(Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    def deepest(state):
        push(state)
        depth[0] = max(depth[0], len(state._frames))

    monkeypatch.setattr(solver_module, "Search", Recorded)
    monkeypatch.setattr(TrailedState, "push_frame", deepest)
    sol = solve(net, 25, SolverOptions(node_limit=3000))
    stats = sol.stats
    assert (sol.proof, sol.ud, stats.nodes, stats.leaves, stats.lb_prunes, stats.cutoff_prunes,
            stats.face_fails) == ("best-found", 248000, 3001, 401, 913, 278, 986)
    assert depth[0] == 132
    st = searches[0].state
    while st._frames:
        st.undo_frame()
    root = Search(net, 25, SolverOptions())
    assert root.init_root()
    assert state_image(st) == state_image(root.state)
