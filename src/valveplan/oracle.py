"""Brute-force ground truth for small instances.

Enumerates every way to place the valves, evaluates each placement exactly,
and reports the optimum with all witnesses. The solver's central
correctness property is agreement with this module wherever enumeration is
affordable.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .isolation import frozen_placement, worst_case_fast
from .solver import check_budget

DEFAULT_CAP = 5_000_000


class EnumerationCapExceeded(Exception):
    pass


@dataclass
class OracleResult:
    ud: float                    # ml/s; math.inf when every placement is infeasible
    optimal: tuple               # all optimal placements, as frozensets of slots
    count: int                   # placements enumerated, C(2m, nv)
    all_infeasible: bool


def brute_force(net, n_valves, cap=DEFAULT_CAP):
    """Exhaustive optimum over all C(2m, n_valves) placements.

    Enumeration is lexicographic by slot index. Raises
    EnumerationCapExceeded when the count would exceed `cap`.
    """
    check_budget(net, n_valves)
    expected = math.comb(net.num_slots, n_valves)
    if expected > cap:
        raise EnumerationCapExceeded(
            f"C({net.num_slots}, {n_valves}) = {expected} exceeds the cap of {cap}")

    best = math.inf
    winners = []
    count = 0
    for combo in combinations(range(net.num_slots), n_valves):
        count += 1
        mask = 0
        for s in combo:
            mask |= 1 << s
        ud, _, feasible = worst_case_fast(net, mask)
        if not feasible:
            continue
        if ud < best:
            best = ud
            winners = [combo]
        elif ud == best:
            winners.append(combo)
    return OracleResult(ud=best,
                        optimal=tuple(frozen_placement(c) for c in winners),
                        count=count,
                        all_infeasible=not winners)
