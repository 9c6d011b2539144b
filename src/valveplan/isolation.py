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
linear in sectors plus valves; `delivered_with_closed` stays as the plain
reachability reference for a single closure.

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
source exactly when some source-side slot is empty.

All functions here are pure with respect to (network, placement). The mask
core takes a placement as an int whose set bits are the present slots
(`present_mask` builds it from slot ids); `worst_case_ud` and
`ud_by_component_deletion` take any iterable of present slot ids. Flows are
integer ml/s.
"""

import math
from dataclasses import dataclass

INFEASIBLE_UD = math.inf


@dataclass(frozen=True)
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
    """The slots in `bits` as a frozenset whose table is sized once for the
    final count: copied from a set rather than grown one slot at a time,
    a 19-24-valve placement takes 1,240 bytes instead of 2,264."""
    return frozenset(set(bits))


def sector_from(net, present, edge):
    """Flood out from `edge` without crossing valves.

    Returns (edges_mask, boundary_slot_mask, interior_node_mask, demand,
    contains_source).
    """
    inc = net._inc
    ep = net.endpoints
    w = net.demand
    edges_mask = 1 << edge
    boundary = 0
    nodes_mask = 0
    demand = w[edge]
    stack = [edge]
    while stack:
        f = stack.pop()
        base = 2 * f
        for slot, node in ((base, ep[f][0]), (base + 1, ep[f][1])):
            if present >> slot & 1:
                boundary |= 1 << slot
                continue
            if nodes_mask >> node & 1:
                continue
            nodes_mask |= 1 << node
            for g, slot_here, _, _ in inc[node]:
                if present >> slot_here & 1:
                    boundary |= 1 << slot_here
                elif not (edges_mask >> g & 1):
                    edges_mask |= 1 << g
                    demand += w[g]
                    stack.append(g)
    return edges_mask, boundary, nodes_mask, demand, bool(nodes_mask & net.sources_mask)


def delivered_with_closed(net, closed):
    """Edges still fed from some source while the slots in `closed` block.

    Returns (delivered_edges_mask, delivered_demand).
    """
    inc = net._inc
    delivered = 0
    demand = 0
    node_seen = 0
    stack = []
    for s in net.source_list:
        node_seen |= 1 << s
        stack.append(s)
    while stack:
        node = stack.pop()
        for g, slot_here, other, slot_other in inc[node]:
            if closed >> slot_here & 1:
                continue
            if not (delivered >> g & 1):
                delivered |= 1 << g
                demand += net.demand[g]
            if not (node_seen >> other & 1) and not (closed >> slot_other & 1):
                node_seen |= 1 << other
                stack.append(other)
    return delivered, demand


def scan_sectors(net, present):
    """Yield (representative_edge, edges_mask, boundary, nodes_mask, demand,
    contains_source) for every sector; representatives ascend."""
    seen = 0
    for e in range(net.num_edges):
        if seen >> e & 1:
            continue
        res = sector_from(net, present, e)
        seen |= res[0]
        yield (e,) + res


def sector_damage(net, present):
    """Yield (representative_edge, edges_mask, boundary, ud) for every sector,
    representatives ascending: the one per-sector damage evaluator. Every
    pipe of a sector entails the same closure, so one break per sector is
    evaluated; a sector that holds a source cannot be de-watered at all and
    gets INFEASIBLE_UD.

    The damage of every sector comes from one lowpoint DFS over the segment
    graph (module docstring): a break in sector S closes every valve on S's
    vertex, and the DFS subtree of a child c of S is left without water
    exactly when low(c) >= disc(S), so ud(S) = w(S) + the demand of those
    subtrees. Equal to `total_demand - delivered_with_closed(boundary)` for
    each sector, in O(sectors + valves) instead of one flood per sector.
    """
    scanned = list(scan_sectors(net, present))
    n_sec = len(scanned)
    # vertices: sectors 0..n_sec-1, then the all-valved junctions, then the root
    vertex = [-1] * net.num_nodes
    for i, row in enumerate(scanned):
        for k in mask_bits(row[3]):
            vertex[k] = i
    n_vert = n_sec
    for k, v in enumerate(vertex):
        if v < 0:
            vertex[k] = n_vert
            n_vert += 1
    root = n_vert
    adj = [[] for _ in range(root + 1)]
    ep = net.endpoints
    for i, (_, edges_mask, boundary, _, _, _) in enumerate(scanned):
        for slot in mask_bits(boundary):
            e = slot >> 1
            if edges_mask >> e & 1:      # the pipe side: record each valve once
                v = vertex[ep[e][slot & 1]]
                if v != i:
                    adj[i].append(v)
                    adj[v].append(i)
    for s in net.source_list:
        adj[root].append(vertex[s])
        adj[vertex[s]].append(root)

    damage = [row[4] for row in scanned]
    subtree = damage + [0] * (root + 1 - n_sec)
    disc = [0] * (root + 1)
    low = [0] * (root + 1)
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
                if p < n_sec and low[v] >= disc[p]:
                    damage[p] += subtree[v]

    # every pipe reaches a source with all valves open (Network checks it),
    # so the DFS visits every sector
    for (rep, edges_mask, boundary, _, _, has_source), ud in zip(scanned, damage):
        yield rep, edges_mask, boundary, INFEASIBLE_UD if has_source else ud


def worst_case_fast(net, present):
    """(ud, argmax_edge, feasible) over all single-pipe breaks, mask input:
    the worst row of `sector_damage`, ties going to the lowest
    representative edge. A sector that holds a source has INFEASIBLE_UD,
    which beats every finite damage, so an infeasible placement reports the
    lowest such sector. A network without pipes has no break:
    (0, None, True)."""
    ud, edge = _worst_break((rep, ud) for rep, _, _, ud in sector_damage(net, present))
    return ud, edge, ud != INFEASIBLE_UD


def _worst_break(damages):
    """(ud, representative) of the worst break among `damages`, pairs of
    (representative, ud) with ascending representatives. The first maximum
    wins, so ties go to the lowest representative and INFEASIBLE_UD beats
    every finite damage; (0, None) when there is no pipe."""
    worst, worst_edge = 0, None
    for rep, ud in damages:
        if worst_edge is None or ud > worst:
            worst, worst_edge = ud, rep
    return worst, worst_edge


def bridge_lower_bound(net):
    """Worst-case damage (ml/s) that no feasible placement goes below: the
    worst case with a valve on every slot (module docstring)."""
    return worst_case_fast(net, (1 << net.num_slots) - 1)[0]


# -- the WorstCase record for a placement given as slot ids -------------------

def worst_case_ud(net, placement):
    ud, edge, feasible = worst_case_fast(net, present_mask(net, placement))
    return WorstCase(ud=ud, edge=edge, feasible=feasible)


# -- independent formulation (verification path) ------------------------------

def ud_by_component_deletion(net, placement, edge):
    """Undelivered demand computed the subtraction way.

    Identify the broken pipe's sector with a worklist: a sector pipe makes
    each endpoint it reaches through an open slot interior, and an interior
    node pulls in every pipe whose slot there is open. Delete the sector's
    pipes and interior nodes from the graph, flood from the sources over
    what remains (valves ignored entirely), and subtract the demand of the
    pipes that flood delivers from the network total. A pipe that lost one
    endpoint with the sector hangs off its surviving endpoint, so it counts
    as delivered when either endpoint was reached.

    Returns (feasible, ud) with ud None when the sector holds a source.
    Deliberately written against different machinery than the reachability
    path so the two can check each other.
    """
    present = set(placement)
    member = {edge}
    interior = set()
    work = [edge]
    while work:
        f = work.pop()
        for k in net.endpoints[f]:
            if k in interior or net.slot_id(f, k) in present:
                continue
            interior.add(k)
            for g in net.incident[k]:
                if g not in member and net.slot_id(g, k) not in present:
                    member.add(g)
                    work.append(g)

    if any(s in interior for s in net.source_list):
        return False, None

    reached = set(net.source_list)
    stack = list(net.source_list)
    while stack:
        a = stack.pop()
        for f in net.incident[a]:
            if f in member:
                continue
            u, v = net.endpoints[f]
            b = v if a == u else u
            if b not in interior and b not in reached:
                reached.add(b)
                stack.append(b)

    deliverable = 0
    for f in range(net.num_edges):
        if f in member:
            continue
        u, v = net.endpoints[f]
        if u in reached or v in reached:
            deliverable += net.demand[f]
    return True, net.total_demand - deliverable
