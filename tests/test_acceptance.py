"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (visible
with `pytest -s` or in the captured output). Every tolerance is exact
integer equality unless the criterion itself states a ratio or fraction.
Run order follows the criterion numbering; the corpus fixtures are shared
across criteria and computed once per session.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from valveplan.generate import random_instance
from valveplan.instances import load
from valveplan.isolation import (
    INFEASIBLE_UD,
    delivered_with_closed,
    mask_bits,
    present_mask,
    sector_damage,
    sector_from,
    ud_by_component_deletion,
    worst_case_fast,
)
from valveplan.oracle import brute_force
from valveplan.pareto import sweep
from valveplan.isolation import bridge_lower_bound
from valveplan.solver import InfeasibleBudget, Search, SolverOptions, solve
from valveplan.state import ABSENT, PRESENT, UNDECIDED

from conftest import CORPUS_NVS, CORPUS_SEEDS, max_cutoff, max_lb, real_density_net, sector_ud


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def solver_optimum(net, nv, opts=None):
    """UD of a proven-optimal solve, math.inf for an infeasible budget,
    None when a limit got in the way (never expected here)."""
    try:
        sol = solve(net, nv, opts or SolverOptions())
        return sol.ud if sol.proof == "optimal" else None
    except InfeasibleBudget:
        return math.inf


def oracle_optimum(result):
    return math.inf if result.all_infeasible else result.ud


def test_criterion_01_fig1_golden_breaks(fig1, fig1_demo_placement):
    with criterion(1, "fig1 golden per-break suite"):
        expected = {"e23": 3000, "e34": 13000, "e45": 13000, "e16": 11000,
                    "e56": 11000, "e12": 36000, "e25": 36000}
        for label, ud in expected.items():
            got = sector_ud(fig1, fig1_demo_placement, fig1.edge_index[label])
            assert got != INFEASIBLE_UD and got == ud, label
        wc = worst_case_fast(fig1, sum(1 << s for s in fig1_demo_placement))
        assert wc[0] == 36000

        # the whole seven-break evaluation must run in under a millisecond
        mask = sum(1 << s for s in fig1_demo_placement)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            worst_case_fast(fig1, mask)
            for e in range(fig1.num_edges):
                _, boundary, _, _, _ = sector_from(fig1, mask, e)
                delivered_with_closed(fig1, boundary)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.001, f"golden evaluation took {best * 1e3:.2f} ms"


def test_criterion_02_closure_set_golden(fig1, fig1_demo_placement):
    with criterion(2, "closure-set golden"):
        mask = present_mask(fig1, fig1_demo_placement)
        _, boundary34, _, _, _ = sector_from(fig1, mask, fig1.edge_index["e34"])
        assert {fig1.slot_token(s) for s in mask_bits(boundary34)} == {"e23:3", "e45:5"}
        _, boundary25, _, _, _ = sector_from(fig1, mask, fig1.edge_index["e25"])
        assert {fig1.slot_token(s) for s in mask_bits(boundary25)} == {
            "e12:1", "e23:2", "e45:5", "e56:5"}


def test_criterion_03_oracle_equivalence(fig1, corpus, corpus_oracle):
    with criterion(3, "oracle equivalence on the corpus"):
        t0 = time.perf_counter()
        cases = 0
        for idx, net in enumerate(corpus):
            for nv in CORPUS_NVS:
                expect = oracle_optimum(corpus_oracle[(idx, nv)])
                got = solver_optimum(net, nv)
                assert got == expect, f"seed {CORPUS_SEEDS[idx]} nv={nv}: {got} != {expect}"
                cases += 1
        for nv in range(2, 15):
            expect = oracle_optimum(brute_force(fig1, nv))
            got = solver_optimum(fig1, nv)
            assert got == expect, f"fig1 nv={nv}: {got} != {expect}"
            cases += 1
        elapsed = time.perf_counter() - t0
        assert cases == len(corpus) * len(CORPUS_NVS) + 13
        assert elapsed < 600, f"comparison took {elapsed:.0f}s"


def test_criterion_04_pruning_soundness_ab(fig1, corpus, corpus_oracle):
    with criterion(4, "pruning soundness A/B"):
        toggles = {
            "face": dict(face_constraints=False),
            "symmetry": dict(symmetry=False),
            "lb": dict(lb_prune=False),
        }
        for idx, net in enumerate(corpus):
            for nv in CORPUS_NVS:
                expect = oracle_optimum(corpus_oracle[(idx, nv)])
                for name, kw in toggles.items():
                    got = solver_optimum(net, nv, SolverOptions(**kw))
                    assert got == expect, (
                        f"seed {CORPUS_SEEDS[idx]} nv={nv} without {name}: {got} != {expect}")
        for nv in range(2, 15):
            expect = solver_optimum(fig1, nv)
            for name, kw in toggles.items():
                got = solver_optimum(fig1, nv, SolverOptions(**kw))
                assert got == expect, f"fig1 nv={nv} without {name}"
        # the bound at real density, where the cut-off bound prunes most
        real0 = real_density_net(0)
        assert solver_optimum(real0, 8) == solver_optimum(real0, 8, SolverOptions(lb_prune=False))

        # all rules on shrinks the fig1 nv=6 tree by at least 2x versus all off
        on = solve(fig1, 6, SolverOptions())
        off = solve(fig1, 6, SolverOptions(face_constraints=False, symmetry=False,
                                           lb_prune=False))
        assert on.ud == off.ud == 15000
        ratio = off.stats.nodes / on.stats.nodes
        assert ratio >= 2, f"node ratio {ratio:.1f} < 2"


def test_criterion_05_bound_admissibility(fig1, corpus, corpus_oracle):
    with criterion(5, "class bound admissibility"):
        # the search looks for at most N valves, which is exact only if the
        # brute-force optimum never rises with the budget
        for idx in range(len(corpus)):
            optima = [oracle_optimum(corpus_oracle[(idx, nv)]) for nv in CORPUS_NVS]
            assert optima == sorted(optima, reverse=True), f"seed {CORPUS_SEEDS[idx]}: {optima}"
        optima = [oracle_optimum(brute_force(fig1, nv)) for nv in range(2, 15)]
        assert optima == sorted(optima, reverse=True), f"fig1: {optima}"

        # the static bridge floor never exceeds an optimum
        for idx, net in enumerate(corpus):
            floor = bridge_lower_bound(net)
            for nv in CORPUS_NVS:
                if not corpus_oracle[(idx, nv)].all_infeasible:
                    assert floor <= corpus_oracle[(idx, nv)].ud, (
                        f"seed {CORPUS_SEEDS[idx]} nv={nv}: floor {floor}")

        rng = random.Random(20260810)
        opts = SolverOptions(face_constraints=False, symmetry=False, lb_prune=False)
        checked = 0
        violations = 0
        tighter = 0
        while checked < 1000:
            net = corpus[rng.randrange(len(corpus))]
            nv = rng.choice(CORPUS_NVS)
            search = Search(net, nv, opts)
            search.state.push_frame()
            order = list(range(net.num_slots))
            rng.shuffle(order)
            alive = True
            for slot in order[:rng.randint(2, net.num_slots)]:
                if search.state.value[slot] != UNDECIDED:
                    continue
                if not search.decide(slot, rng.choice((PRESENT, ABSENT))):
                    alive = False
                    break
            if not alive:
                continue
            st = search.state
            undecided = [s for s in range(net.num_slots) if st.value[s] == UNDECIDED]
            need = nv - st.n_present
            if need < 0 or need > len(undecided):
                continue
            if math.comb(len(undecided), need) > 1500:
                continue
            base = st.present_mask()
            best = math.inf
            for combo in combinations(undecided, need):
                mask = base
                for s in combo:
                    mask |= 1 << s
                ud, _, feasible = worst_case_fast(net, mask)
                if feasible and ud < best:
                    best = ud
            if max_lb(st) > best:
                violations += 1
            # the cut-off bound of every class that holds a pipe, too
            cutoff = max_cutoff(search)
            if cutoff > best:
                violations += 1
            tighter += cutoff > max_lb(st)
            checked += 1
        assert checked == 1000
        assert violations == 0
        assert tighter >= 400


def test_criterion_06_formulation_equivalence(corpus):
    with criterion(6, "formulation equivalence, exhaustive"):
        mismatches = 0
        checks = 0
        for net in corpus:
            assert net.num_edges <= 8
            total = net.total_demand
            slots = net.num_slots
            for mask in range(1 << slots):
                placement = [s for s in range(slots) if mask >> s & 1]
                # pipes of one sector share the closure, so one break per
                # sector covers every distinct outcome of this placement;
                # the production evaluator must agree with both references
                for rep, _, boundary, ud in sector_damage(net, mask):
                    feasible2, ud2 = ud_by_component_deletion(net, placement, rep)
                    checks += 1
                    if ud == INFEASIBLE_UD:
                        ok = not feasible2
                    else:
                        _, delivered = delivered_with_closed(net, boundary)
                        ok = feasible2 and ud == ud2 == total - delivered
                    if not ok:
                        mismatches += 1
        assert checks > 1_000_000
        assert mismatches == 0


def test_criterion_07_enumeration_count(corpus):
    with criterion(7, "enumeration count"):
        for net in corpus[:10]:
            for nv in (2, 3):
                result = brute_force(net, nv)
                assert result.count == math.comb(net.num_slots, nv)


def test_criterion_08_anytime_behaviour(fig1):
    with criterion(8, "anytime behaviour"):
        for net, nv in ((fig1, 4), (random_instance(101, n_edges=(12, 15)), 5)):
            sol = solve(net, nv)
            assert sol.proof == "optimal"
            uds = [ud for _, ud in sol.anytime]
            times = [t for t, _ in sol.anytime]
            assert len(uds) >= 2, "expected several incumbents"
            assert all(a > b for a, b in zip(uds, uds[1:])), "log not strictly decreasing"
            assert times == sorted(times)
            assert uds[-1] == sol.ud


def test_criterion_09_restart_mode_comparison(corpus, corpus_oracle):
    with criterion(9, "restart-mode comparison"):
        wins = 0
        cases = 0
        for idx, net in enumerate(corpus):
            for nv in CORPUS_NVS:
                if corpus_oracle[(idx, nv)].all_infeasible:
                    continue
                cont = solve(net, nv, SolverOptions(restart_mode="continuing"))
                rest = solve(net, nv, SolverOptions(restart_mode="restarting"))
                assert cont.ud == rest.ud == corpus_oracle[(idx, nv)].ud
                cases += 1
                if rest.stats.nodes >= cont.stats.nodes:
                    wins += 1
        assert cases > 0
        fraction = wins / cases
        assert fraction >= 0.8, f"restarting explored less on {1 - fraction:.0%} of cases"


APULIAN_ENV = "VALVEPLAN_APULIAN_INSTANCE"


def test_criterion_10_optional_large_instance():
    # a 23-node/33-pipe instance document from the environment, else the
    # generated network of that density, real-0
    with criterion(10, "optional large-instance track"):
        path = os.environ.get(APULIAN_ENV)
        net = load(path) if path else real_density_net(0)
        assert net.num_nodes == 23 and net.num_edges == 33
        opts = SolverOptions(time_limit=3600 * 3)
        result = sweep(net, range(5, 9), opts)
        by_nv = {p.n_valves: p for p in result.points}
        assert all(p.proof == "optimal" for p in result.points), "ran out of time"
        uds = [by_nv[nv].ud for nv in sorted(by_nv)]
        assert uds == sorted(uds, reverse=True)
        assert 6 in by_nv and 5 in by_nv
        assert by_nv[6].ud < by_nv[5].ud, "a strictly better 6-valve solution must exist"
