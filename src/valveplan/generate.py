"""Seeded generator of small planar test networks.

Recipe (documented so the regression corpus is reproducible from seeds
alone): scatter random points in the unit square, take the Delaunay
triangulation's edges as the pool, keep a spanning tree plus random extra
pool edges until the target edge count, give every pipe a uniform integer
demand of 1..20 l/s, and pick one node as the source. The result is always
connected and planar as drawn.

Two knobs reach realistic density: `n_nodes` fixes the point count, and
`min_source_degree` draws the source among the nodes with at least that
many chosen pipes. The defaults reproduce the seeded corpus unchanged.
"""

import json
import random

from .network import parse_network


def random_document(seed, n_edges=(5, 8), n_nodes=None, min_source_degree=1):
    """Instance document text for a random planar network.

    `n_nodes` fixes the number of points (by default it follows the edge
    count). With `min_source_degree` above 1, the source is drawn by
    `rng.choice` over the nodes, in ascending order, whose degree in the
    chosen pipes meets it; at 1 it is `rng.randint` over all nodes."""
    # imported here so that `import valveplan` does not pay for scipy
    import numpy as np
    from scipy.spatial import Delaunay, QhullError

    rng = random.Random(seed)
    if isinstance(n_edges, int):
        m = n_edges
    else:
        m = rng.randint(*n_edges)
    if m < 1:
        raise ValueError("need at least one edge")
    # a spanning tree must fit in the pipes, and a triangulation bounds them
    if n_nodes is not None and not (n_nodes >= 3 and n_nodes - 1 <= m <= 3 * n_nodes - 6):
        raise ValueError(f"{m} pipes cannot join {n_nodes} points in a plane drawing")

    for attempt in range(64):
        if n_nodes is not None:
            n = n_nodes
        else:
            n = max(4, -(-(m + 6) // 3)) + attempt % 4
            if n > m + 1:
                n = m + 1
            if n < 3:
                n = 3
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        try:
            tri = Delaunay(np.array(pts))
        except QhullError:
            continue
        pool = set()
        for simplex in tri.simplices:
            for a, b in ((0, 1), (1, 2), (0, 2)):
                u, v = sorted((int(simplex[a]), int(simplex[b])))
                pool.add((u, v))

        adjacency = [[] for _ in range(n)]
        for u, v in pool:
            adjacency[u].append(v)
            adjacency[v].append(u)
        tree = []
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in sorted(adjacency[u]):
                if v not in seen:
                    seen.add(v)
                    tree.append((min(u, v), max(u, v)))
                    stack.append(v)
        if len(seen) < n or len(pool) < m or len(tree) > m:
            continue

        extra_pool = sorted(pool - set(tree))
        chosen = tree + rng.sample(extra_pool, m - len(tree))
        chosen.sort()
        if min_source_degree > 1:
            degree = [0] * n
            for u, v in chosen:
                degree[u] += 1
                degree[v] += 1
            eligible = [x for x in range(n) if degree[x] >= min_source_degree]
            if not eligible:
                continue
            source = rng.choice(eligible) + 1
        else:
            source = rng.randint(1, n)

        doc = {
            "name": f"rand-{seed}",
            "nodes": list(range(1, n + 1)),
            "sources": [source],
            "edges": [[f"p{u + 1}_{v + 1}", u + 1, v + 1, rng.randint(1, 20)]
                      for u, v in chosen],
            "coords": {str(i + 1): [round(x, 6), round(y, 6)] for i, (x, y) in enumerate(pts)},
        }
        return json.dumps(doc, indent=2)
    raise RuntimeError(f"could not generate a planar instance for seed {seed}")


def random_instance(seed, n_edges=(5, 8), n_nodes=None, min_source_degree=1):
    return parse_network(random_document(seed, n_edges, n_nodes, min_source_degree))
