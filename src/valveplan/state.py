"""Reversible search state: slot assignments plus sector lower bounds.

`push_frame` / `undo_frame` bracket one search decision: a frame is a
copy of the state, put back on backtracking, so no decision is replayed
(copying rather than trailing: Schulte, "Comparing trailing and copying
for constraint programming", ICLP 1999).

The bound bookkeeping follows single-count accounting: an edge's demand
enters a class lower bound exactly once, when its first slot is decided
absent (the pipe then certainly shares a sector with that endpoint).
When the opposite slot is absent already, the endpoint classes merge
instead and their bounds add, the shared edge having been counted.
"""

import math
from itertools import compress

from .isolation import segment_damage

UNDECIDED, PRESENT, ABSENT = 0, 1, 2

# byte translations of slot values: each value to 1 when it is the one
# named, else to 0; and PRESENT to the digit "1", the others to "0"
_IS_UNDECIDED = bytes.maketrans(bytes((UNDECIDED, PRESENT, ABSENT)), bytes((1, 0, 0)))
_IS_ABSENT = bytes.maketrans(bytes((UNDECIDED, PRESENT, ABSENT)), bytes((0, 0, 1)))
_PRESENT_DIGIT = bytes.maketrans(bytes((UNDECIDED, PRESENT, ABSENT)), b"010")


class TrailedState:
    """Slot values, sector classes and face counters, undone by frames.

    `faces` is a `tables.FaceTable`: the slot set of each face, kept as
    `face_slot_sets`, and per slot the faces through it, kept as
    `slot_faces`; a state without the face rule takes the network's table
    over no face, `tables.no_faces`. The state keeps three face counters
    that `set_value` updates and `undo_frame` restores, so the face rule
    reads them in O(1) per face instead of rescanning cycles:

    * `face_valves[f]`: PRESENT slots on face f;
    * `face_undecided[f]`: UNDECIDED slots on face f;
    * `lonely`: the number of faces that hold exactly one valve.

    `need` reads the counters to bound how many more valves the lonely
    faces still need, and `off_face_slots` lists the undecided slots that
    would relieve none of them, or only those among them that would leave
    at least z more faces lonely.

    Sector classes are labels, not a union-find forest: `root[n]` is node
    n's class root, read in O(1), and `members[r]` is the node bitmask of
    the class rooted at r (bit n for node n). A union ORs the two masks and
    relabels the nodes of the smaller class, walking its bits, so a node is
    relabelled O(log n) times along any branch. The solver's cut-off bound
    reads a class's mask as the node set to delete, and `slot_demand` for
    the crossing slots that are empty.

    `push_frame` saves what the mutators `set_value` and `empty_off_face`
    write: `value` as bytes, copies of the class labels, `lb`, `members`,
    `face_valves` and `face_undecided`, and `n_present` and `lonely`.
    `undo_frame` puts it back by slice assignment, so every array keeps its
    identity. The masks are ints, which no union mutates, so a snapshot
    shares them safely. Of the slot counts only `n_present` is kept; the
    others are read off `value`.

    A frame holds about 24 bytes per pipe (CPython 3.11: 1.2 KB at 33
    pipes, 2.8 KB at 100, 6.7 KB at 300, 12.9 KB at 600). The class masks
    a union builds, about n / 8 bytes each for n nodes, are shared by every
    frame that holds them. Each open frame decided at least one slot, so a
    network of m pipes has at most 2m open and they hold at most
    48 * m**2 bytes (4.3 MB at 300 pipes). Capped solves at nv = m / 2
    opened 300 frames at 300 pipes and 578 at 600; 33-pipe proofs open
    about 50. The capped 300-pipe solve of the CI peaks at 1.8 MB
    (tracemalloc).

    Both mutators, and the solver's branching score, read the network
    through per-slot tables instead of calling it: the slot's node
    (`slot_node`), the node across its pipe (`slot_other`) and the pipe's
    demand (`slot_demand`). They and the face tables are the network's
    read-only `Network.tables`, built once per network by its first solve
    and shared by every state over it.
    """

    def __init__(self, net, faces):
        self.net = net
        n = net.num_nodes
        self.value = bytearray(net.num_slots)
        self.n_present = 0
        self.root = list(range(n))
        self.members = [1 << x for x in range(n)]   # node masks, valid at class roots
        self.lb = [0] * n                       # valid at class roots
        self._frames = []
        tables = net.tables
        self.slot_node = tables.slot_node
        self.slot_other = tables.slot_other
        self.slot_demand = tables.slot_demand
        self.slot_faces = faces.through
        self.face_slot_sets = faces.slots
        self.face_valves = [0] * len(faces.slots)
        self.face_undecided = list(map(len, faces.slots))
        self.lonely = 0

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

    def undecided_slots(self):
        """The undecided slots in ascending order, as an iterator."""
        value = self.value
        return compress(range(len(value)), value.translate(_IS_UNDECIDED))

    def off_face_slots(self, z=0):
        """Undecided slots that lie on no lonely face and on at least `z`
        faces that hold no valve, in ascending order: a valve there gives
        no lonely face its second valve and leaves those faces lonely. The
        solver's cover passes z = 0 when the lonely faces need exactly the
        valves left, else the fewest new lonely faces that fail the next
        valve's reach test.

        With z > 0 only the undecided slots of faces without a valve can
        qualify, so only those faces are walked: most calls find none."""
        value = self.value
        valves = self.face_valves
        face_slot_sets = self.face_slot_sets
        if z > 0:
            if 0 not in valves:
                return []
            undecided = self.face_undecided
            hits = {}                           # undecided slot: valve-less faces on it
            for f, c in enumerate(valves):
                if not c and undecided[f]:
                    for s in face_slot_sets[f]:
                        if value[s] == UNDECIDED:
                            hits[s] = hits.get(s, 0) + 1
            slot_faces = self.slot_faces
            return sorted(s for s, k in hits.items()
                          if k >= z and 1 not in map(valves.__getitem__, slot_faces[s]))
        marked = bytearray(value)               # slots on lonely faces marked decided
        for f, c in enumerate(valves):
            if c == 1:
                for s in face_slot_sets[f]:
                    marked[s] = PRESENT
        return list(compress(range(len(marked)), marked.translate(_IS_UNDECIDED)))

    def push_frame(self):
        self._frames.append((bytes(self.value), self.root[:], self.lb[:], self.members[:],
                             self.face_valves[:], self.face_undecided[:],
                             self.n_present, self.lonely))

    def undo_frame(self):
        (self.value[:], self.root[:], self.lb[:], self.members[:], self.face_valves[:],
         self.face_undecided[:], self.n_present, self.lonely) = self._frames.pop()

    def set_value(self, slot, v):
        """Decide `slot`. For ABSENT, returns the class root whose bound may
        have grown: its pipe's demand joined it, or the smaller endpoint
        class was merged into it."""
        value = self.value
        assert value[slot] == UNDECIDED
        value[slot] = v
        faces = self.slot_faces[slot]
        undecided = self.face_undecided
        root = -1
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
            labels = self.root
            root = labels[self.slot_node[slot]]
            if value[slot ^ 1] != ABSENT:
                self.lb[root] += self.slot_demand[slot]
            elif (other := labels[self.slot_other[slot]]) != root:
                members = self.members
                if members[root].bit_count() < members[other].bit_count():
                    root, other = other, root
                moved = members[other]
                members[root] |= moved
                while moved:
                    low = moved & -moved
                    labels[low.bit_length() - 1] = root
                    moved ^= low
                self.lb[root] += self.lb[other]
            for f in faces:
                undecided[f] -= 1
        return root

    def empty_off_face(self, slots, bound):
        """Decide the undecided `slots` of the lonely-face cover (see
        `off_face_slots`), which lie on no lonely face, ABSENT in order,
        as `set_value` would, until one of them makes a class
        bound reach `bound`. Returns (slots decided, cascades): the cascades
        are the last undecided slots of the faces left holding no valve,
        in the order found, or None when the bound stopped the batch.

        Faces through the slots hold no valve or at least two, and the
        batch adds none, so no face can fail inside it. The frame around the
        decision undoes the batch with the rest."""
        value = self.value
        labels = self.root
        members = self.members
        lb = self.lb
        undecided = self.face_undecided
        valves = self.face_valves
        slot_faces = self.slot_faces
        face_slot_sets = self.face_slot_sets
        slot_node = self.slot_node
        slot_other = self.slot_other
        slot_demand = self.slot_demand
        cascades = []
        done = 0
        for slot in slots:
            value[slot] = ABSENT
            done += 1
            root = labels[slot_node[slot]]
            if value[slot ^ 1] != ABSENT:
                lb[root] += slot_demand[slot]
            elif (other := labels[slot_other[slot]]) != root:
                if members[root].bit_count() < members[other].bit_count():
                    root, other = other, root
                moved = members[other]
                members[root] |= moved
                while moved:
                    low = moved & -moved
                    labels[low.bit_length() - 1] = root
                    moved ^= low
                lb[root] += lb[other]
            for f in slot_faces[slot]:
                left = undecided[f] - 1
                undecided[f] = left
                if left == 1 and not valves[f]:
                    for last in face_slot_sets[f]:
                        if value[last] == UNDECIDED:
                            break
                    cascades.append(last)
            if lb[root] >= bound:
                cascades = None
                break
        return done, cascades

    def worst_damage(self):
        """Worst break damage of a complete assignment, read off the
        classes: at a leaf a class that holds an empty slot is a sector and
        its bound is the sector's demand, and a class without one is a
        junction whose every slot holds a valve. So the class labels and
        `lb` are the node labelling and weights `isolation.segment_damage`
        takes; the worst break is its largest damage over those sectors and
        the pipes with a valve on both slots. Equal to `worst_case_fast`'s
        ud on the present mask for a feasible leaf."""
        labels = self.root
        damage = segment_damage(self.net, self.present_mask(), labels, self.lb)
        sectors = {labels[k] for k in compress(self.slot_node, self.value.translate(_IS_ABSENT))}
        return max([damage[r] for r in sectors] + damage[len(labels):-1], default=0)

    def present_mask(self):
        # slot s is bit s: the values as '0'/'1' digits, highest slot first
        return int(b"0" + self.value.translate(_PRESENT_DIGIT)[::-1], 2)
