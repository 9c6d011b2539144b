"""Exact semantics of valve closure.

Water flows along pipes and through junctions; a slot that holds a valve
blocks flow between its pipe and its node only while that valve is closed.
Repairing a pipe means closing the *boundary valves* of the pipe's sector:
the valves reached by walking out from the pipe over the node/pipe incidence
structure without ever crossing a valve slot. Sectors therefore partition
the pipes, and every pipe of a sector entails the same closure.

Closing a boundary set can cut off pipes far outside the sector as well
(every path from the sources crosses a closed valve). The *undelivered
demand* of a break is the total demand of all pipes without a source path
once the boundary is closed; the solver minimizes the worst case of this
over all single-pipe breaks.

Break damage is read off the *segment graph* (Jun & Loganathan,
"Valve-controlled segments in water distribution systems", JWRPM 133(2),
2007; Giustolisi & Savic, "Identification of segments and optimal
isolation valve system design in water distribution networks", Urban
Water J. 7(1), 2010). Its vertices are the sectors and the junctions whose
every slot holds a valve; each valve joins its pipe's sector to its node's
vertex, and a virtual root joins every source. Breaking a sector closes
exactly the valves on its vertex, so what it leaves dry is the sector plus
whatever the sector separates from the root as an articulation vertex. One
lowpoint DFS (Hopcroft & Tarjan 1973) gives that for every sector at once, in time
linear in sectors plus valves. `segment_damage` builds the graph from a
labelling of nodes by sector and runs that DFS. One node flood over the
whole network labels the sectors (`sector_labels`) for both
`worst_case_fast` and `sector_damage`, which also reads each sector's
pipe and boundary masks off the labels; the solver's leaves label by
their sector classes (`TrailedState.worst_damage`); network validation
and the sweep's warm start read the same flood. The reference floods,
`sector_from` and `scan_sectors` (one sector at a time),
`delivered_with_closed` (a single closure) and `ud_by_component_deletion`
(the subtraction formulation), have no production caller: tests and the
benchmark check the one flood against them. Each holds its node, pipe and
slot sets as int masks. The first three walk the `Network._inc` rows that
`sector_labels` walks too. `ud_by_component_deletion` is kept on machinery
of its own: slot ids from `endpoints` and `incident`, and no call to any
other function of this module. So a fault in the shared rows or floods
cannot make every formulation agree on a wrong answer; keep it so.

Adding a valve never raises any break's damage: the new closure is a subset
of the old boundary plus valves inside the old sector, so every source path
that survived before still survives. The placement with a valve on every
slot is therefore the least damaging of all. Its sectors are single pipes,
so it is always feasible, and a break there dries exactly its own pipe plus
whatever a bridge cuts off from the sources. Its worst case is the floor no
placement goes below (`bridge_lower_bound`): the heaviest pipe, or a bridge
plus everything beyond it.

A placement is feasible exactly when every slot at a source holds a valve
(`Network.source_slots_mask`): the flood makes a node interior only through
an open slot, and every pipe lies in some sector, so some sector holds a
source exactly when some source-side slot is empty. `segment_damage` is
where that is decided: it gives each source's vertex INFEASIBLE_UD, and
`worst_case_fast`, `sector_damage` and the solver's leaves read the damage
it returns. The solver fixes every source-side slot at the root, so no
sector of its leaves holds a source.

All functions here are pure with respect to (network, placement). The mask
core takes a placement as an int whose set bits are the present slots
(`present_mask` builds it from slot ids); `worst_case_ud` and
`ud_by_component_deletion` take any iterable of present slot ids. Flows are
integer ml/s.
"""

import math
import sys
from dataclasses import dataclass

INFEASIBLE_UD = math.inf


@dataclass(frozen=True, slots=True)
class WorstCase:
    ud: int          # ml/s; INFEASIBLE_UD when some pipe cannot be isolated
    edge: int        # a worst break (lowest edge id among maximizers), or None
    feasible: bool


# -- mask core (shared by the solver, the oracle, the sweep and `evaluate`) ---

def present_mask(net, placement):
    mask = 0
    for slot in placement:
        if not 0 <= slot < net.num_slots:
            raise ValueError(f"slot {slot} out of range")
        mask |= 1 << slot
    return mask


def mask_bits(mask):
    """Set bit positions of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def frozen_placement(bits):
    """The slots in the list `bits` as a frozenset, built the way that gives
    the smaller hash table. Copied from a set, the table is sized once for
    the final count: a 19-24-valve placement takes 1,240 bytes instead of
    the 2,264 it takes grown one slot at a time. Grown, 16-18 valves still
    fit the 728-byte table that copying skips past."""
    return min(frozenset(bits), frozenset(set(bits)), key=sys.getsizeof)


def sector_damage(net, present):
    """Yield (representative_edge, edges_mask, boundary, ud) for every sector,
    representatives ascending: the rows `scan_sectors` would give, with each
    sector's damage. Every pipe of a sector entails the same closure, so one
    break per sector is evaluated. The sectors are the pipe vertices of one
    `sector_labels` flood, and `segment_damage` gives every damage at once:
    `total_demand - delivered_with_closed(boundary)` per sector, in
    O(sectors + valves), and INFEASIBLE_UD for a sector that holds a
    source. A sector's boundary is each valve on one of its pipes or at one
    of its interior nodes."""
    label, weight, vertex = sector_labels(net, present)
    # every pipe reaches a source with all valves open (Network checks it),
    # so the DFS visits every sector
    damage = segment_damage(net, present, label, weight)
    rows = {}
    for e, v in enumerate(vertex):
        rows.setdefault(v, [e, 0])[1] |= 1 << e
    ep = net.endpoints
    closed = [0] * (len(label) + len(vertex))
    for slot in mask_bits(present):
        e = slot >> 1
        closed[vertex[e]] |= 1 << slot
        closed[label[ep[e][slot & 1]]] |= 1 << slot
    for v, (rep, edges_mask) in rows.items():
        yield rep, edges_mask, closed[v], damage[v]


def segment_damage(net, present, label, weight):
    """Per vertex v of the segment graph of `present`: weight[v] plus every
    DFS subtree below v that v separates from the root, which is what a
    break in sector v leaves dry. Vertex k < n is the node vertex `label`
    names for some node (its sector, or the node itself when every slot at
    it holds a valve), weighing weight[k]; vertex n + e is pipe e when both
    its slots hold a valve, weighing its demand; the root comes last. Each
    valve joins its pipe's sector to its node's vertex unless they are one,
    and the root joins every source's vertex. A child c's subtree is cut
    off exactly when low(c) >= disc(v): one iterative lowpoint DFS from the
    root, and a vertex it does not reach keeps its weight. Last, every
    source's vertex gets INFEASIBLE_UD, since a sector that holds a source
    cannot be de-watered (a fully valved source is a vertex no pipe takes).
    This is the one place infeasibility is decided."""
    n = len(label)
    ep = net.endpoints
    root = n + len(ep)
    subtree = weight + [0] * (root + 1 - n)
    adj = [[] for _ in range(root + 1)]
    for slot in mask_bits(present):
        e = slot >> 1
        here = label[ep[e][slot & 1]]
        if present >> (slot ^ 1) & 1:
            across = n + e
            subtree[across] = net.demand[e]
        else:
            across = label[ep[e][(slot & 1) ^ 1]]
            if across == here:
                continue
        adj[here].append(across)
        adj[across].append(here)
    for s in net.source_list:
        adj[root].append(label[s])
        adj[label[s]].append(root)
    damage = subtree[:]
    disc = [0] * (root + 1)
    low = disc[:]
    disc[root] = low[root] = clock = 1
    stack = [(root, iter(adj[root]))]
    while stack:
        v, nbrs = stack[-1]
        for u in nbrs:
            if not disc[u]:
                clock += 1
                disc[u] = low[u] = clock
                stack.append((u, iter(adj[u])))
                break
            if disc[u] < low[v]:
                low[v] = disc[u]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                subtree[p] += subtree[v]
                if low[v] >= disc[p]:
                    damage[p] += subtree[v]
    for s in net.source_list:
        damage[label[s]] = INFEASIBLE_UD
    return damage


def sector_labels(net, present):
    """(label, weight, vertex) of the segment graph of `present`, from one
    node flood in O(nodes + pipes). label[k] is the lowest interior node of
    node k's sector, or k itself when every slot at k holds a valve; weight
    is indexed by those labels and sums each sector's demand, a pipe with
    both slots empty counted once, at its first endpoint. vertex[e] is pipe
    e's segment-graph vertex: its sector's label, or n + e when both its
    slots hold a valve. (label, weight) is what `segment_damage` takes."""
    inc = net._inc
    w = net.demand
    n = len(inc)
    label = [-1] * n
    weight = [0] * n
    vertex = list(range(n, n + len(w)))
    for k in range(n):
        if label[k] >= 0:
            continue
        # nodes below k are labelled, so k is its sector's lowest interior node
        label[k] = k
        demand = 0
        stack = [k]
        while stack:
            for g, here, other, there in inc[stack.pop()]:
                if present >> here & 1:
                    continue
                if present >> there & 1:
                    demand += w[g]
                    vertex[g] = k
                    continue
                if not here & 1:
                    demand += w[g]
                    vertex[g] = k
                if label[other] < 0:
                    label[other] = k
                    stack.append(other)
        weight[k] = demand
    return label, weight, vertex


def worst_case_fast(net, present):
    """(ud, argmax_edge, feasible) over all single-pipe breaks, mask input:
    the damage of the worst row `sector_damage` would give, ties going to
    the lowest representative edge, read off one `sector_labels` flood and
    one `segment_damage` DFS instead of a flood per sector. Pipes are read
    in ascending order and the first maximum wins, so the argmax is the
    lowest pipe of a worst sector, its representative. `segment_damage`
    gives a sector that holds a source INFEASIBLE_UD, so a placement with an
    empty source-side slot reports that and the lowest pipe of such a
    sector, and is infeasible; a fully valved source keeps its own label,
    which no pipe takes. A network without pipes has no break: (0, None,
    True)."""
    label, weight, vertex = sector_labels(net, present)
    if not vertex:
        return 0, None, True
    damage = segment_damage(net, present, label, weight)
    per_pipe = list(map(damage.__getitem__, vertex))
    ud = max(per_pipe)
    return ud, per_pipe.index(ud), ud != INFEASIBLE_UD


def bridge_lower_bound(net):
    """Worst-case damage (ml/s) that no feasible placement goes below: the
    worst case with a valve on every slot (module docstring)."""
    return worst_case_fast(net, (1 << net.num_slots) - 1)[0]


# -- the WorstCase record for a placement given as slot ids -------------------

def worst_case_ud(net, placement):
    ud, edge, feasible = worst_case_fast(net, present_mask(net, placement))
    return WorstCase(ud=ud, edge=edge, feasible=feasible)


# -- reference floods (tests and the benchmark; no production caller) --------

def sector_from(net, present, edge):
    """Flood out from `edge` without crossing valves, over `net._inc`: an
    endpoint reached through an open slot becomes interior, and an interior
    node pulls in every pipe whose slot there is open.

    Returns (edges_mask, boundary_slot_mask, interior_node_mask, demand,
    contains_source).
    """
    inc = net._inc
    w = net.demand
    edges_mask = 1 << edge
    boundary = 0
    nodes_mask = 0
    demand = w[edge]
    stack = []
    slot = 2 * edge                             # 2e at the first endpoint, 2e + 1 at the second
    for node in net.endpoints[edge]:
        if present >> slot & 1:
            boundary |= 1 << slot
        else:
            nodes_mask |= 1 << node
            stack.append(node)
        slot += 1
    while stack:
        for g, here, other, there in inc[stack.pop()]:
            if present >> here & 1:
                boundary |= 1 << here
            elif not edges_mask >> g & 1:
                # a pipe joins at the first open slot the flood meets, so its far end is settled now
                edges_mask |= 1 << g
                demand += w[g]
                if present >> there & 1:
                    boundary |= 1 << there
                elif not nodes_mask >> other & 1:
                    nodes_mask |= 1 << other
                    stack.append(other)
    return edges_mask, boundary, nodes_mask, demand, bool(nodes_mask & net.sources_mask)


def delivered_with_closed(net, closed):
    """Edges still fed from some source while the slots in `closed` block,
    by one flood from the sources over `net._inc`.

    Returns (delivered_edges_mask, delivered_demand).
    """
    inc = net._inc
    w = net.demand
    delivered = 0
    demand = 0
    node_seen = net.sources_mask
    stack = list(net.source_list)
    while stack:
        for g, here, other, there in inc[stack.pop()]:
            # a pipe delivered from its other end has that end seen already
            if delivered >> g & 1 or closed >> here & 1:
                continue
            delivered |= 1 << g
            demand += w[g]
            if not (closed >> there & 1 or node_seen >> other & 1):
                node_seen |= 1 << other
                stack.append(other)
    return delivered, demand


def scan_sectors(net, present):
    """Yield (representative_edge, edges_mask, boundary, nodes_mask, demand,
    contains_source) for every sector, one `sector_from` flood each;
    representatives ascend."""
    seen = 0
    for e in range(net.num_edges):
        if seen >> e & 1:
            continue
        edges_mask, boundary, nodes_mask, demand, has_source = sector_from(net, present, e)
        seen |= edges_mask
        yield e, edges_mask, boundary, nodes_mask, demand, has_source


def ud_by_component_deletion(net, placement, edge):
    """Undelivered demand computed the subtraction way.

    Identify the broken pipe's sector with a worklist of interior nodes:
    each endpoint of the broken pipe behind an open slot is interior, an
    interior node pulls in every pipe whose slot there is open, and such a
    pipe makes its far endpoint interior when its slot there is open too.
    Delete the sector's pipes and interior nodes from the graph, flood from
    the sources over what remains (valves ignored entirely), and subtract
    the demand of the pipes that flood delivers from the network total. A
    pipe that lost one endpoint with the sector hangs off its surviving
    endpoint, so it counts as delivered when either endpoint was reached:
    the flood counts each pipe the first time it leaves a reached node
    along it.

    Returns (feasible, ud) with ud None when the sector holds a source.
    Deliberately written against different machinery than the reachability
    path so the two can check each other: slot ids come from `endpoints` and
    `incident`, never from `net._inc`, and no other function here is called.
    """
    present = set(placement)
    endpoints = net.endpoints
    incident = net.incident
    member = 1 << edge
    interior = 0
    work = []
    slot = 2 * edge                             # 2e at the first endpoint, 2e + 1 at the second
    for k in endpoints[edge]:
        if slot not in present:
            interior |= 1 << k
            work.append(k)
        slot += 1
    while work:
        k = work.pop()
        for g in incident[k]:
            if member >> g & 1:
                continue
            u, v = endpoints[g]
            near = 2 * g + (u != k)
            if near in present:
                continue
            member |= 1 << g
            far = v if u == k else u
            if (near ^ 1) not in present and not interior >> far & 1:
                interior |= 1 << far
                work.append(far)

    if interior & net.sources_mask:
        return False, None

    w = net.demand
    blocked = interior | net.sources_mask       # interior nodes, then every node reached
    counted = member                            # the sector, then every pipe delivered
    deliverable = 0
    stack = list(net.source_list)
    while stack:
        a = stack.pop()
        for f in incident[a]:
            # a pipe counted from its other end has that end reached already
            if counted >> f & 1:
                continue
            counted |= 1 << f
            deliverable += w[f]
            u, v = endpoints[f]
            b = v if a == u else u
            if not blocked >> b & 1:
                blocked |= 1 << b
                stack.append(b)
    return True, net.total_demand - deliverable
