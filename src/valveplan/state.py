"""Reversible search state: slot assignments plus sector lower bounds.

The trail holds one record per decision; `push_frame` / `undo_frame`
bracket one search decision and restore the exact prior state on
backtracking, deriving all but the slot value back from the record.

The bound bookkeeping follows single-count accounting: an edge's demand
enters a class lower bound exactly once, when its first slot is decided
absent (the pipe then certainly shares a sector with that endpoint).
When the opposite slot is absent already, the endpoint classes merge
instead and their bounds add, the shared edge having been counted.
"""

import math
from itertools import compress

UNDECIDED, PRESENT, ABSENT = 0, 1, 2

# byte translations of slot values: UNDECIDED to 1, decided to 0; and
# PRESENT to the digit "1", the others to "0"
_IS_UNDECIDED = bytes.maketrans(bytes((UNDECIDED, PRESENT, ABSENT)), bytes((1, 0, 0)))
_PRESENT_DIGIT = bytes.maketrans(bytes((UNDECIDED, PRESENT, ABSENT)), b"010")


class TrailedState:
    """Slot values, sector classes and face counters under one trail.

    `face_slots` holds the slot set of each face (see
    `solver.face_slot_lists`), kept as `face_slot_sets`; the state keeps,
    per slot, the faces through it in `slot_faces`, and three face counters
    that `set_value` updates and `undo_frame` reverses, so the face rule
    reads them in O(1) per face instead of rescanning cycles:

    * `face_valves[f]`: PRESENT slots on face f;
    * `face_undecided[f]`: UNDECIDED slots on face f;
    * `lonely`: the number of faces that hold exactly one valve.

    `need` reads the counters to bound how many more valves the lonely
    faces still need, and `off_face_slots` lists the undecided slots that
    would relieve none of them.

    Sector classes are labels, not a union-find forest: `root[n]` is node
    n's class root, so `find` is one read, and `members[r]` lists the nodes
    of the class rooted at r. A union relabels the members of the smaller
    class, so a node is relabelled O(log n) times along any branch, and
    undoing the union relabels the same members back.

    `set_value` is the only mutator. Its record is (slot, merged), merged
    being the class root its union absorbed or -1. Undo runs last in, first
    out, so it sees the opposite slot and every class as the write did; an
    absorbed root's members and bound stay untouched while it is merged.

    Both run once per slot decision, so they read the network through
    per-slot tables built at construction instead of calling it: the
    slot's node (`_slot_node`), the node across its pipe (`_slot_other`)
    and the pipe's demand (`_slot_demand`). `undo_frame` pops exactly the
    frame's records and writes the counters back once per frame.
    """

    def __init__(self, net, face_slots=()):
        self.net = net
        n = net.num_nodes
        self.value = bytearray(net.num_slots)
        self.n_present = 0
        self.n_absent = 0
        self.root = list(range(n))
        self.members = [[x] for x in range(n)]  # valid at class roots
        self.lb = [0] * n                       # valid at class roots
        self._trail = []
        self._frames = []
        # per slot: its node, the node across its pipe, and the pipe's demand
        self._slot_node = [net.slot_node(s) for s in range(net.num_slots)]
        self._slot_other = [net.slot_other_node(s) for s in range(net.num_slots)]
        self._slot_demand = [net.demand[s >> 1] for s in range(net.num_slots)]

        # per slot: every face that holds it
        self.slot_faces = [[] for _ in range(net.num_slots)]
        for f, slots in enumerate(face_slots):
            for slot in slots:
                self.slot_faces[slot].append(f)
        self.face_slot_sets = face_slots
        self.face_valves = [0] * len(face_slots)
        self.face_undecided = [len(slots) for slots in face_slots]
        self.lonely = 0

    @property
    def n_undecided(self):
        return self.net.num_slots - self.n_present - self.n_absent

    def find(self, x):
        return self.root[x]

    def need(self):
        """Fewest more valves that give every lonely face a second one.

        Two lonely faces are linked when an undecided slot lies on both. One
        valve relieves only the lonely faces its slot lies on, and those all
        lie in one component of that relation, so a component C needs at
        least ceil(|C| / w) more valves, w being the most lonely faces that
        any one undecided slot of C lies on. Returns the sum over the
        components, or `math.inf` when a lonely face has no undecided slot."""
        value = self.value
        valves = self.face_valves
        slot_faces = self.slot_faces
        face_slot_sets = self.face_slot_sets
        seen = bytearray(len(valves))
        total = 0
        for f, c in enumerate(valves):
            if c != 1 or seen[f]:
                continue
            seen[f] = 1
            component = [f]
            width = 0
            for g in component:                 # grows while it is walked
                for s in face_slot_sets[g]:
                    if value[s] != UNDECIDED:
                        continue
                    w = 0
                    for h in slot_faces[s]:
                        if valves[h] == 1:
                            w += 1
                            if not seen[h]:
                                seen[h] = 1
                                component.append(h)
                    if w > width:
                        width = w
            if not width:
                return math.inf
            total += -(-len(component) // width)
        return total

    def off_face_slots(self):
        """Undecided slots that lie on no lonely face: a valve there gives
        no lonely face its second valve."""
        marked = bytearray(self.value)          # slots on lonely faces marked decided
        face_slot_sets = self.face_slot_sets
        for f, c in enumerate(self.face_valves):
            if c == 1:
                for s in face_slot_sets[f]:
                    marked[s] = PRESENT
        return list(compress(range(len(marked)), marked.translate(_IS_UNDECIDED)))

    def push_frame(self):
        self._frames.append(len(self._trail))

    def undo_frame(self):
        trail = self._trail
        count = len(trail) - self._frames.pop()
        value = self.value
        slot_faces = self.slot_faces
        valves = self.face_valves
        undecided = self.face_undecided
        labels = self.root
        members = self.members
        lb = self.lb
        n_present = lonely = 0
        for _ in range(count):
            slot, merged = trail.pop()
            faces = slot_faces[slot]
            if value[slot] == PRESENT:
                n_present += 1
                for f in faces:
                    c = valves[f]
                    valves[f] = c - 1
                    lonely += (c == 2) - (c == 1)
                    undecided[f] += 1
            else:
                if merged >= 0:
                    root = labels[merged]
                    moved = members[merged]
                    for x in moved:
                        labels[x] = merged
                    del members[root][-len(moved):]
                    lb[root] -= lb[merged]
                elif value[slot ^ 1] != ABSENT:
                    lb[labels[self._slot_node[slot]]] -= self._slot_demand[slot]
                for f in faces:
                    undecided[f] += 1
            value[slot] = UNDECIDED
        self.n_present -= n_present
        self.n_absent -= count - n_present
        self.lonely += lonely

    def set_value(self, slot, v):
        """Decide `slot`. For ABSENT, returns the class root whose bound may
        have grown: its pipe's demand joined it, or the smaller endpoint
        class was merged into it."""
        value = self.value
        assert value[slot] == UNDECIDED
        value[slot] = v
        faces = self.slot_faces[slot]
        undecided = self.face_undecided
        root = merged = -1
        if v == PRESENT:
            self.n_present += 1
            valves = self.face_valves
            lonely = self.lonely
            for f in faces:
                c = valves[f]
                valves[f] = c + 1
                lonely += (c == 0) - (c == 1)
                undecided[f] -= 1
            self.lonely = lonely
        else:
            self.n_absent += 1
            labels = self.root
            root = labels[self._slot_node[slot]]
            if value[slot ^ 1] != ABSENT:
                self.lb[root] += self._slot_demand[slot]
            elif (other := labels[self._slot_other[slot]]) != root:
                members = self.members
                if len(members[root]) < len(members[other]):
                    root, other = other, root
                moved = members[other]      # left as it is: undo relabels from it
                for x in moved:
                    labels[x] = root
                members[root].extend(moved)
                self.lb[root] += self.lb[other]
                merged = other
            for f in faces:
                undecided[f] -= 1
        self._trail.append((slot, merged))
        return root

    # -- inspection helpers (search heuristics and tests) --------------------

    def roots(self):
        return [n for n in range(self.net.num_nodes) if self.root[n] == n]

    def max_lb(self):
        return max(self.lb[r] for r in self.roots())

    def classes(self):
        """Canonical snapshot {frozenset(node ids): lb}."""
        return {frozenset(self.members[r]): self.lb[r] for r in self.roots()}

    def present_mask(self):
        # slot s is bit s: the values as '0'/'1' digits, highest slot first
        return int(b"0" + self.value.translate(_PRESENT_DIGIT)[::-1], 2)
