import itertools
import json
import random

import pytest

from valveplan import instances
from valveplan.generate import random_instance
from valveplan.network import parse_network

# Regression corpus: 50 seeded random planar instances with 5..8 edges.
CORPUS_SEEDS = tuple(range(50))
CORPUS_NVS = (2, 3, 4, 5)


def make_net(nodes, sources, edges, **extra):
    """Shorthand builder: edges as (label, u, v, demand_lps)."""
    doc = {"nodes": nodes, "sources": sources,
           "edges": [list(e) for e in edges]}
    doc.update(extra)
    return parse_network(json.dumps(doc))


def path_net(n_pipes):
    """Path 1 - 2 - ... fed from node 1."""
    return make_net(list(range(1, n_pipes + 2)), [1],
                    [(f"p{i}", i, i + 1, 1 + i % 3) for i in range(1, n_pipes + 1)])


def k4_all_cycles(seed):
    """K4 fed from node 1, seeded demands, with every triangle and every
    4-cycle declared as a face: each pipe lies on four faces."""
    rng = random.Random(seed)
    edges = [(f"p{u}{v}", u, v, rng.randint(1, 9))
             for u, v in itertools.combinations([1, 2, 3, 4], 2)]
    faces = [list(t) for t in itertools.combinations([1, 2, 3, 4], 3)]
    faces += [[1, 2, 3, 4], [1, 3, 2, 4], [1, 2, 4, 3]]
    return make_net([1, 2, 3, 4], [1], edges, faces=faces)


@pytest.fixture(scope="session")
def fig1():
    return instances.fig1()


@pytest.fixture(scope="session")
def fig2():
    return instances.fig2()


@pytest.fixture(scope="session")
def fig1_demo_placement(fig1):
    from valveplan.network import parse_placement
    return parse_placement(fig1, " ".join(instances.FIG1_SIX_VALVES))


@pytest.fixture(scope="session")
def corpus():
    return [random_instance(seed) for seed in CORPUS_SEEDS]


@pytest.fixture(scope="session")
def corpus_oracle(corpus):
    """Ground-truth optima for every (instance, n_valves) pair of the corpus.

    Value is math.inf when every placement of that size is infeasible.
    Computed once per session; several suites compare against it.
    """
    from valveplan.oracle import brute_force
    results = {}
    for idx, net in enumerate(corpus):
        for nv in CORPUS_NVS:
            results[(idx, nv)] = brute_force(net, nv)
    return results


@pytest.fixture(scope="session")
def triangle():
    return make_net([1, 2, 3], [1],
                    [("a", 1, 2, 4), ("b", 2, 3, 5), ("c", 1, 3, 6)])


@pytest.fixture(scope="session")
def source_path():
    """3-pipe path with a degree-2 source in the middle of one end."""
    return make_net([1, 2, 3, 4], [2],
                    [("a", 1, 2, 5), ("b", 2, 3, 1), ("c", 3, 4, 9)])
