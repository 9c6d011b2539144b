import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valveplan.solver import face_slot_lists
from valveplan.state import ABSENT, PRESENT, UNDECIDED, TrailedState

from conftest import k4_all_cycles, make_net


def build_state(net, decisions):
    """Fresh state with `decisions` = [(slot, value)] applied in order."""
    state = TrailedState(net, face_slot_lists(net))
    for slot, value in decisions:
        state.set_value(slot, value)
        if value == ABSENT:
            state.register_absent(slot)
    return state


def snapshot(state):
    return (bytes(state.value), state.n_present, state.n_absent,
            bytes(state.attached), state.classes(),
            tuple(state.face_valves), tuple(state.face_undecided),
            tuple(state.face_undecided_sum), state.lonely)


def rescan_faces(state, face_slots):
    """The face counters recomputed from the slot values alone."""
    value = state.value
    valves = [sum(value[s] == PRESENT for s in slots) for slots in face_slots]
    undecided = [[s for s in slots if value[s] == UNDECIDED] for slots in face_slots]
    return (valves, [len(u) for u in undecided], [sum(u) for u in undecided],
            valves.count(1))


def _random_ops(rng, net, length):
    """Random interleaving of frame pushes, assignments and rollbacks."""
    ops = []
    for _ in range(length):
        ops.append(rng.choice(("push", "assign", "assign", "undo")))
    return ops


def replay(net, ops, rng, check=None):
    """Apply `ops` to a fresh state, calling `check(state)` after each."""
    state = TrailedState(net, face_slot_lists(net))
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
            if value == ABSENT:
                state.register_absent(slot)
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
    # square's second face walks pipes 1-2 and 2-3 twice, so their slots
    # count twice
    nets = {"fig1": fig1_net_doc, "k4-all-cycles": k4_all_cycles(0),
            "walked-twice": make_net([1, 2, 3, 4], [1],
                                     [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1),
                                      ("d", 4, 1, 1)],
                                     faces=[[1, 2, 3, 4], [1, 2, 3, 2]])}
    net = nets[name]
    faces = face_slot_lists(net)

    def check(state):
        assert (state.face_valves, state.face_undecided, state.face_undecided_sum,
                state.lonely) == rescan_faces(state, faces)

    rng = random.Random(77)
    for _ in range(40):
        state, _ = replay(net, _random_ops(rng, net, rng.randint(0, 60)), rng, check)
        check(state)


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
        assert state.classes() == expect
        for nodes in expect:
            labels = {state.find(n) for n in nodes}
            assert len(labels) == 1 and labels.pop() in nodes

    rng = random.Random(5150)
    for _ in range(40):
        state, _ = replay(net, _random_ops(rng, net, rng.randint(0, 80)), rng, check)
        check(state)


def test_full_undo_returns_to_pristine(fig1_net_doc):
    net = fig1_net_doc
    state = TrailedState(net, face_slot_lists(net))
    pristine = snapshot(state)
    state.push_frame()
    for slot in range(net.num_slots):
        state.set_value(slot, ABSENT if slot % 2 else PRESENT)
        if slot % 2:
            state.register_absent(slot)
    state.undo_frame()
    assert snapshot(state) == pristine


def test_lower_bound_single_count():
    # both slots of a 7 l/s pipe absent: classes merge, weight counted once
    net = make_net([1, 2, 3], [1], [("a", 1, 2, 7), ("b", 2, 3, 2)])
    state = TrailedState(net)
    a0 = net.parse_slot_token("a:1")
    a1 = net.parse_slot_token("a:2")
    state.set_value(a0, ABSENT)
    r = state.register_absent(a0)
    assert state.lb[r] == 7000
    state.set_value(a1, ABSENT)
    r = state.register_absent(a1)
    assert state.lb[r] == 7000
    assert state.find(0) == state.find(1)


def test_lb_matches_attached_edges(fig1_net_doc):
    # invariant: at any point, a class bound equals the summed demand of the
    # edges attached to it, each counted once
    net = fig1_net_doc
    rng = random.Random(31)
    for _ in range(50):
        state = TrailedState(net)
        attach_root = {}
        order = list(range(net.num_slots))
        rng.shuffle(order)
        for slot in order[:rng.randint(0, net.num_slots)]:
            value = rng.choice((PRESENT, ABSENT))
            state.set_value(slot, value)
            if value == ABSENT:
                before = not state.attached[slot >> 1]
                state.register_absent(slot)
                if before:
                    attach_root[slot >> 1] = net.slot_node(slot)
        by_class = {}
        for e, node in attach_root.items():
            by_class.setdefault(state.find(node), 0)
            by_class[state.find(node)] += net.demand[e]
        for root in state.roots():
            assert state.lb[root] == by_class.get(root, 0)

