"""Seeded input generators shared by the benchmark and `freeze.py`.

Only `freeze.py` builds instance documents; a benchmark run reads the
frozen files, so a later change to `valveplan.generate` cannot move a
workload. `draw_placements` runs in both: the default seed reproduces the
committed evaluate-large placements, any other seed draws fresh ones.
"""

import json
import random

N_NODES = 23
N_EDGES = 33
VALVE_SHARE = 0.6
PLACEMENTS_PER_NET = 6


def apulian_document(seed):
    """Instance document with the density of the paper's municipal network.

    About 1.4 pipes per node and a single degree-1 source, which
    `valveplan.generate.random_document` cannot produce because it has no
    node-count knob. Recipe: Delaunay triangulation of N_NODES - 1 random
    points, a spanning tree plus random extra triangulation edges up to
    N_EDGES - 1 pipes, then the source hung off a convex-hull node,
    pushed outwards so its pipe crosses nothing. Demands are uniform
    integers of 1..20 l/s, as in the library generator.
    """
    import numpy as np
    from scipy.spatial import Delaunay, QhullError

    rng = random.Random(seed)
    k = N_NODES - 1
    for _ in range(64):
        pts = [(rng.random(), rng.random()) for _ in range(k)]
        try:
            tri = Delaunay(np.array(pts))
        except QhullError:
            continue
        pool = set()
        for simplex in tri.simplices:
            for a, b in ((0, 1), (1, 2), (0, 2)):
                u, v = sorted((int(simplex[a]), int(simplex[b])))
                pool.add((u, v))
        adjacency = [[] for _ in range(k)]
        for u, v in pool:
            adjacency[u].append(v)
            adjacency[v].append(u)
        tree, seen, stack = [], {0}, [0]
        while stack:
            u = stack.pop()
            for v in sorted(adjacency[u]):
                if v not in seen:
                    seen.add(v)
                    tree.append((min(u, v), max(u, v)))
                    stack.append(v)
        if len(seen) < k or len(pool) < N_EDGES - 1:
            continue
        extra = sorted(pool - set(tree))
        chosen = sorted(tree + rng.sample(extra, N_EDGES - 1 - len(tree)))

        # the ray from the centroid through a hull vertex leaves the hull
        # there, so a source placed on it beyond the vertex crosses no pipe
        anchor = rng.choice(sorted({int(i) for i in tri.convex_hull.ravel()}))
        cx = sum(x for x, _ in pts) / k
        cy = sum(y for _, y in pts) / k
        ax, ay = pts[anchor]
        norm = ((ax - cx) ** 2 + (ay - cy) ** 2) ** 0.5
        source_xy = (ax + 0.05 * (ax - cx) / norm, ay + 0.05 * (ay - cy) / norm)

        edges = [[f"p{u + 1}_{v + 1}", u + 1, v + 1, rng.randint(1, 20)] for u, v in chosen]
        edges.append([f"p{anchor + 1}_{N_NODES}", anchor + 1, N_NODES, rng.randint(1, 20)])
        doc = {
            "name": f"apulian-density-{seed}",
            "nodes": list(range(1, N_NODES + 1)),
            "sources": [N_NODES],
            "edges": edges,
            "coords": {str(i + 1): [round(x, 6), round(y, 6)]
                       for i, (x, y) in enumerate(pts + [source_xy])},
        }
        return json.dumps(doc, indent=2)
    raise RuntimeError(f"could not generate an instance for seed {seed}")


def draw_placements(net, seed):
    """PLACEMENTS_PER_NET feasible placements with about VALVE_SHARE of the slots valved.

    Every slot next to a source holds a valve, so no sector contains a
    source and every placement is feasible; each other slot holds one with
    probability VALVE_SHARE. Depends only on (seed, pipe count).
    """
    rng = random.Random(seed * 1_000_003 + net.num_edges)
    forced = {net.slot_id(e, s) for s in net.sources for e in net.incident[s]}
    return [frozenset(forced | {s for s in range(net.num_slots) if rng.random() < VALVE_SHARE})
            for _ in range(PLACEMENTS_PER_NET)]
