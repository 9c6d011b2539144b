"""Brute-force ground truth for small instances.

Enumerates the feasible ways to place the valves, evaluates each one
exactly, and reports the optimum with all witnesses. The solver's central
correctness property is agreement with this module wherever enumeration is
affordable.

A placement is feasible exactly when it holds every source-side slot (the
rule in the `isolation` docstring), so only the other, free slots are
chosen: every combination of them, in lexicographic slot order, together
with all source-side slots. Two feasible placements differ only in free
slots, so this is the lexicographic order of the placements themselves.
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
    count: int                   # placements of n_valves valves, C(2m, nv)
    all_infeasible: bool


def brute_force(net, n_valves, cap=DEFAULT_CAP):
    """Exhaustive optimum over all C(2m, n_valves) placements.

    `count` is that number, computed; only the C(2m - k, n_valves - k)
    placements that hold all k source-side slots are built and evaluated,
    none when n_valves < k. Witnesses come in lexicographic slot order.
    Raises EnumerationCapExceeded when `count` would exceed `cap`.
    """
    check_budget(net, n_valves)
    count = math.comb(net.num_slots, n_valves)
    if count > cap:
        raise EnumerationCapExceeded(
            f"C({net.num_slots}, {n_valves}) = {count} exceeds the cap of {cap}")

    need = net.source_slots_mask
    free = [1 << s for s in range(net.num_slots) if not need >> s & 1]
    n_free = n_valves - need.bit_count()
    best = math.inf
    winners = []
    # with fewer valves than source-side slots no placement is feasible
    for combo in combinations(free, n_free) if n_free >= 0 else ():
        mask = need + sum(combo)
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
