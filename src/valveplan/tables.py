"""Per-network tables that every solve reads.

Everything here depends on the network alone, and a sweep solves one
network at many budgets, so `Network.tables` builds one `NetworkTables` on
first use and every later solve on that network reads the same read-only
tuples. Parsing and evaluation never solve, so they never build it.
"""

from .isolation import bridge_lower_bound


def face_slot_lists(net):
    """Per face: the sorted slots of the pipes its boundary walks an odd
    number of times, two per pipe. Those pipes form edge-disjoint cycles;
    a pipe walked twice hangs inside the face and lies on none of them."""
    if net.faces is None:
        return []
    out = []
    for cycle in net.faces:
        odd = set()
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            odd ^= {net.edge_between(a, b)}
        out.append([s for e in sorted(odd) for s in (2 * e, 2 * e + 1)])
    return out


class FaceTable:
    """Face slot lists read both ways: `slots[f]` holds the slots of face
    f, `through[s]` the faces that hold slot s, ascending, and `reach` the
    most faces one slot lies on, so the most lonely faces one more valve
    can relieve (traced faces give 2, declared faces may give more)."""

    __slots__ = ("slots", "through", "reach")

    def __init__(self, face_slots, num_slots):
        through = [[] for _ in range(num_slots)]
        for f, slots in enumerate(face_slots):
            for slot in slots:
                through[slot].append(f)
        self.slots = tuple(map(tuple, face_slots))
        self.through = tuple(map(tuple, through))
        self.reach = max(map(len, through), default=0)


class NetworkTables:
    """What `Search` and `TrailedState` read of a network on every solve:

    * per slot, its node (`slot_node`), the node across its pipe
      (`slot_other`) and the pipe's demand (`slot_demand`);
    * `faces`, the `FaceTable` of the network's face slot lists, and
      `no_faces`, one over no face, for a solve without the face rule;
    * `floor`, the bridge floor (`isolation.bridge_lower_bound`);
    * per node, the bitmask of its neighbours (`node_nbrs`) and of its
      pipes (`node_pipes`), for the solver's cut-off flood;
    * the branching key's static parts. A slot's key packs its score and
      its tie weight into one int, score * `scale` + tie, with `scale` =
      2m + 1. `tie[s]` is 2m minus the slot's rank (heaviest pipe first,
      then lowest slot id), and `pipe_key[s]` adds to it the score of the
      slot's pipe demand counted twice.
    """

    __slots__ = ("slot_node", "slot_other", "slot_demand", "faces", "no_faces", "floor",
                 "node_nbrs", "node_pipes", "scale", "tie", "pipe_key")

    def __init__(self, net):
        n_slots = net.num_slots
        slots = range(n_slots)
        self.slot_node = tuple(map(net.slot_node, slots))
        self.slot_other = tuple(map(net.slot_other_node, slots))
        self.slot_demand = tuple(net.demand[s >> 1] for s in slots)
        self.faces = FaceTable(face_slot_lists(net), n_slots)
        self.no_faces = FaceTable((), n_slots)
        self.floor = bridge_lower_bound(net)
        self.node_nbrs = tuple(sum(1 << other for _, _, other, _ in rows) for rows in net._inc)
        self.node_pipes = tuple(sum(1 << e for e in es) for es in net.incident)
        self.scale = n_slots + 1
        tie = [0] * n_slots
        for rank, slot in enumerate(sorted(slots, key=lambda s: (-net.demand[s >> 1], s))):
            tie[slot] = n_slots - rank
        self.tie = tuple(tie)
        self.pipe_key = tuple(2 * demand * self.scale + t
                              for demand, t in zip(self.slot_demand, tie))
