"""Regenerate the benchmark's frozen inputs and references under data/.

    python3 perfbench/freeze.py

Not part of a benchmark run; it takes several minutes, mostly in
brute-force enumeration. Everything it writes is a pure function of the
seeds named below, so rerunning it reproduces the committed files as long
as the library's generator and semantics are unchanged.

References come from machinery independent of what the workloads time:

* proof rungs and sweep points: `brute_force` (all fit its default cap);
* the verify corpus: an enumeration of every placement, each judged by
  component deletion, because that workload times `brute_force` itself;
* evaluate-large placements: component deletion.

None is taken from `solve` or from `worst_case_fast` called directly.
"""

import json
import math
import os
import sys
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from valveplan import instances  # noqa: E402
from valveplan.generate import random_document  # noqa: E402
from valveplan.network import parse_network  # noqa: E402
from valveplan.oracle import brute_force  # noqa: E402

import workloads as W  # noqa: E402
from gen import apulian_document, draw_placements  # noqa: E402

# instance name -> (seed, pipes) for valveplan.generate.random_document
RANDOM = {"rand-7-m12": (7, 12), "rand-5-m14": (5, 14), "rand-7-m16": (7, 16),
          "rand-7-m20": (7, 20), "rand-1-m33": (1, 33),
          "rand-0-m300": (0, 300), "rand-0-m600": (0, 600)}


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def brute_ud(net, nv):
    result = brute_force(net, nv)
    return None if result.all_infeasible else result.ud, result.count


def enumerated_ud(net, nv):
    """Optimum over every placement, each judged by component deletion."""
    best = math.inf
    for combo in combinations(range(net.num_slots), nv):
        ud = W.reference_worst_case(net, frozenset(combo))
        if ud is not None and ud < best:
            best = ud
    return None if best == math.inf else best


def main():
    provenance = {
        "fig1": "valveplan.instances.FIG1_DOCUMENT",
        "fig2": "valveplan.instances.FIG2_DOCUMENT",
        "apulian-density-0": "perfbench/gen.py apulian_document(0): 23 nodes, 33 pipes, "
                             "one degree-1 source",
    }
    docs = {"fig1": instances.FIG1_DOCUMENT, "fig2": instances.FIG2_DOCUMENT,
            "apulian-density-0": apulian_document(0)}
    for name, (seed, m) in RANDOM.items():
        docs[name] = random_document(seed, m)
        provenance[name] = f"valveplan.generate.random_document({seed}, {m})"
    for name, text in docs.items():
        write(os.path.join(W.DATA, "instances", f"{name}.json"), text)
    for seed in W.CORPUS_SEEDS:
        write(os.path.join(W.DATA, "corpus", f"rand-{seed}.json"), random_document(seed))
    provenance["corpus/rand-<s>"] = "valveplan.generate.random_document(s), s = 0..49"

    refs = {"inputs": provenance, "ladder": {}, "sweep": {}, "corpus": {}, "large": {}}

    for rung, inst, nv, capped in W.RUNGS:
        if not capped:
            ud, count = brute_ud(W.load_instance(inst), nv)
            refs["ladder"][rung] = {"ud_mls": ud, "placements": count}
            log(f"ladder {rung}: {ud} over {count} placements")

    for inst, lo, hi in W.SWEEPS:
        net = W.load_instance(inst)
        refs["sweep"][inst] = {str(nv): brute_ud(net, nv)[0] for nv in range(lo, hi + 1)}
        log(f"sweep {inst}: {refs['sweep'][inst]}")

    for seed in W.CORPUS_SEEDS:
        net = parse_network(W.read_text("corpus", f"rand-{seed}.json"))
        refs["corpus"][str(seed)] = {str(nv): enumerated_ud(net, nv) for nv in W.CORPUS_NVS}
    log("corpus references done")

    for name in W.LARGE:
        net = W.load_instance(name)
        for k, placement in enumerate(draw_placements(net, W.DEFAULT_SEED)):
            write(W.placement_file(name, k), "\n".join(net.placement_tokens(placement)))
            refs["large"][f"{name}-p{k}"] = W.reference_worst_case(net, placement)
    log(f"large: {refs['large']}")

    write(os.path.join(W.DATA, "references.json"), json.dumps(refs, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
