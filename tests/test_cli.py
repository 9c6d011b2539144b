import csv
import dataclasses
import json
import random

import pytest

from valveplan import cli, instances, solver
from valveplan.cli import main
from valveplan.generate import random_instance
from valveplan.instances import FIG1_SIX_VALVES
from valveplan.isolation import mask_bits, present_mask, scan_sectors, worst_case_ud
from valveplan.network import format_flow, serialize_network

from conftest import damage_by_reference, make_net


@pytest.fixture
def demo_placement_file(tmp_path):
    path = tmp_path / "placement.txt"
    path.write_text("\n".join(FIG1_SIX_VALVES) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timing(text):
    return "\n".join(line for line in text.splitlines() if "#timing" not in line)


def test_evaluate_demo_placement(capsys, demo_placement_file):
    code, out, _ = run(capsys, "evaluate", "fig1", demo_placement_file)
    assert code == 0
    assert "worst_case_ud_lps: 36" in out
    assert "worst_break: e12" in out


def test_evaluate_empty_placement_infeasible(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n")
    code, out, _ = run(capsys, "evaluate", "fig1", str(path))
    assert code == 2
    assert "infeasible" in out


def test_evaluate_missing_file(capsys):
    code, _, err = run(capsys, "evaluate", "fig1", "/nonexistent/placement.txt")
    assert code == 1
    assert "error" in err


def test_evaluate_bad_instance(capsys, tmp_path, demo_placement_file):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [1, 2], "sources": [1], "edges": [["a", 2, 2, 1]]}')
    code, _, err = run(capsys, "evaluate", str(bad), demo_placement_file)
    assert code == 1
    assert "self-loop" in err


def test_evaluate_rejects_a_label_placement_files_cannot_hold(capsys, tmp_path,
                                                              demo_placement_file):
    spaced = tmp_path / "spaced.json"
    spaced.write_text('{"nodes": [1, 2], "sources": [1], "edges": [["a b", 1, 2, 1]]}')
    code, _, err = run(capsys, "evaluate", str(spaced), demo_placement_file)
    assert code == 1
    assert err == "error: edge id 'a b' must not hold whitespace or '#'\n"


def test_evaluate_rejects_a_demand_too_large_for_ml_per_second(capsys, tmp_path,
                                                              demo_placement_file):
    huge = tmp_path / "huge.json"
    huge.write_text('{"nodes": [1, 2], "sources": [1], "edges": [["a", 1, 2, 1e308]]}')
    code, out, err = run(capsys, "evaluate", str(huge), demo_placement_file)
    assert code == 1 and out == ""
    assert err == "error: edge 'a': flow is too large (at most 1.798e+305 l/s)\n"


def test_evaluate_rejects_an_integer_past_the_digit_limit(capsys, tmp_path,
                                                          demo_placement_file):
    huge = tmp_path / "digits.json"
    huge.write_text('{"nodes": [1, 2], "sources": [1], "edges": [["a", 1, 2, %s]]}'
                    % ("1" * 5000))
    code, out, err = run(capsys, "evaluate", str(huge), demo_placement_file)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def evaluate_cases(tmp_path):
    """(instance path, network, placement): fig1 with the demo and the empty
    placement, a network whose edge labels need csv quoting, then random
    placements on corpus instances."""
    fig1 = instances.fig1()
    demo = frozenset(fig1.parse_slot_token(t) for t in FIG1_SIX_VALVES)
    cases = [("fig1", fig1, demo), ("fig1", fig1, frozenset())]
    quoted = make_net([1, 2, 3, 4], [1], [("a,b", 1, 2, 3), ('q"t', 2, 3, 2),
                                          ('x,"y"', 3, 4, 1), ("plain", 2, 4, 5)])
    path = tmp_path / "quoted.json"
    path.write_text(serialize_network(quoted))
    for tokens in (["a,b:1", 'q"t:2', "plain:2"], ["a,b:2"]):
        cases.append((str(path), quoted, frozenset(map(quoted.parse_slot_token, tokens))))
    rng = random.Random(7)
    for seed in range(6):
        net = random_instance(seed)
        path = tmp_path / f"rand-{seed}.json"
        path.write_text(serialize_network(net))
        for _ in range(4):
            k = rng.randint(1, net.num_slots)
            cases.append((str(path), net, frozenset(rng.sample(range(net.num_slots), k))))
    return cases


def test_evaluate_rows_match_sectors_and_breaks(capsys, tmp_path):
    infeasible_seen = feasible_seen = 0
    for i, (instance, net, placement) in enumerate(evaluate_cases(tmp_path)):
        path = tmp_path / f"placement-{i}.txt"
        path.write_text("\n".join(net.placement_tokens(placement)) + "\n")
        code, out, _ = run(capsys, "evaluate", instance, str(path), "--format", "csv")
        lines = out.splitlines()
        header = lines.index("edge,sector,closed_valves,ud_lps,isolable")
        rows = list(csv.reader(lines[header + 1:header + 1 + net.num_edges]))
        reference = damage_by_reference(net, placement)
        sector_rows = list(scan_sectors(net, present_mask(net, placement)))
        for e, row in enumerate(rows):
            pos = next(i for i, sec in enumerate(sector_rows) if sec[1] >> e & 1)
            rep, _, boundary, _, _, has_source = sector_rows[pos]
            if has_source:
                expect = ["inf", "no"]
            else:
                expect = [format_flow(reference[rep]), "yes"]
            assert row == [net.edge_labels[e], str(pos), str(len(mask_bits(boundary)))] + expect
        worst = worst_case_ud(net, placement)
        if worst.feasible:
            feasible_seen += 1
            assert code == 0
            assert f"worst_case_ud_lps: {format_flow(worst.ud)}" in lines
            assert f"worst_break: {net.edge_labels[worst.edge]}" in lines
        else:
            infeasible_seen += 1
            assert code == 2
            assert "result: infeasible: some pipe cannot be isolated" in lines
    assert feasible_seen and infeasible_seen


def test_evaluate_network_without_pipes(capsys, tmp_path):
    instance = tmp_path / "empty.json"
    instance.write_text('{"nodes": [1], "sources": [1], "edges": []}')
    placement = tmp_path / "none.txt"
    placement.write_text("# no pipes, no valves\n")
    code, out, _ = run(capsys, "evaluate", str(instance), str(placement))
    assert code == 0
    lines = out.splitlines()
    assert "worst_case_ud_lps: 0" in lines
    assert "worst_break: -" in lines


def test_evaluate_worst_matches_worst_case_ud(capsys, tmp_path):
    # evaluate and worst_case_fast share one argmax, so the reported worst
    # break follows worst_case_ud's tie rule on every case
    fig1 = instances.fig1()
    pipeless = tmp_path / "pipeless.json"
    pipeless.write_text('{"nodes": [1], "sources": [1], "edges": []}')
    cases = [("fig1", fig1, frozenset(fig1.parse_slot_token(t) for t in FIG1_SIX_VALVES)),
             ("fig1", fig1, frozenset(range(fig1.num_slots))),
             (str(pipeless), instances.load(str(pipeless)), frozenset())]
    for i, (instance, net, placement) in enumerate(cases):
        path = tmp_path / f"placement-{i}.txt"
        path.write_text("\n".join(["# case"] + net.placement_tokens(placement)) + "\n")
        for fmt in ("text", "csv"):
            code, out, _ = run(capsys, "evaluate", instance, str(path), "--format", fmt)
            assert code == 0
            worst = worst_case_ud(net, placement)
            lines = out.splitlines()
            assert f"worst_case_ud_lps: {format_flow(worst.ud)}" in lines
            label = "-" if worst.edge is None else net.edge_labels[worst.edge]
            assert f"worst_break: {label}" in lines


def test_usage_errors_exit_input_code(capsys):
    # argparse rejects the first group; the budgets of the second pass the
    # parser and are rejected by the solver or the oracle
    for argv in ([], ["solve", "fig1"], ["solve", "fig1", "--nv", "6", "--bogus"],
                 ["solve", "fig1", "--nv", "6", "--seed", "1"],
                 ["sweep", "fig1", "--nv", "2..4", "--seed", "1"],
                 ["check", "--corpus", "1", "--seed", "x"],
                 ["check", "--corpus", "-1", "--nv", "3"], ["check", "--corpus", "0"],
                 ["check", "--corpus", "x"], ["check", "fig1", "--nv", "3", "--cap", "0"],
                 ["check", "fig1", "--nv", "3", "--cap", "-1"],
                 ["sweep", "fig1", "--nv", "5..3"], ["sweep", "fig1", "--nv", "2..x"],
                 ["sweep", "fig1", "--nv", "2.."], ["check", "fig1", "--nv", "x"],
                 ["solve", "fig1", "--nv", "6", "--format", "csv"],
                 *(["solve", "fig1", "--nv", "6", flag, value]
                   for flag in ("--time-limit", "--node-limit")
                   for value in ("nan", "-1", "x"))):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    for argv in (["solve", "fig1", "--nv", "0"], ["check", "fig1", "--nv", "99"],
                 ["sweep", "fig1", "--nv", "14..15"]):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: valve budget must be in [1, 14]"), argv
    # check takes exactly one of an instance (with --nv) and a corpus
    for argv in (["check", "fig1", "--corpus", "1", "--nv", "3"], ["check", "fig1"],
                 ["check", "--nv", "3"], ["check"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv
        assert err == "error: check needs either an instance with --nv or --corpus N\n", argv


@pytest.mark.parametrize("which", ["instance", "placement"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, demo_placement_file, which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("# vanne d\u00e9j\u00e0 pos\u00e9e\n".encode("latin-1"))
    argv = (["solve", str(bad), "--nv", "6"] if which == "instance"
            else ["evaluate", "fig1", str(bad)])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text (invalid continuation byte at byte 9)\n"


def test_internal_value_error_propagates(capsys, monkeypatch):
    # only input errors become exit 1; a bug inside the solve must surface
    def broken(self):
        raise ValueError("internal")

    monkeypatch.setattr(solver.Search, "choose_branch", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["solve", "fig1", "--nv", "6"])


FIG1_NV6_SOLVE = """instance: fig1
nodes: 6
edges: 7
sources: 1
total_demand_lps: 47
n_valves: 6
ud_lps: 15
worst_break: e12
proof: optimal
placement: e12:1 e16:1 e16:6 e25:2 e25:5 e34:4
stat_nodes: 5
stat_leaves: 1
stat_lb_prunes: 0
stat_cutoff_prunes: 0
stat_face_fails: 0
stat_face_forced: 0
stat_budget_fails: 0
stat_conflicts: 0
stat_reduced_cost_forced: 0
stat_symmetry_fixed: 3
stat_source_fixed: 2
stat_lower_bound: 15000
stat_infeasible_leaves: 0
stat_rejected_leaves: 0
stat_restarts: 0"""


def test_solve_fig1(capsys):
    # the whole report, the search counters in SearchStats field order
    code, out, _ = run(capsys, "solve", "fig1", "--nv", "6")
    assert code == 0
    assert strip_timing(out) == FIG1_NV6_SOLVE


@pytest.mark.parametrize("mode, restarts", [("continuing", 0), ("restarting", 3)])
def test_solve_restart_modes_same_answer(capsys, mode, restarts):
    # restarting abandons the tree after each of fig1's three improvements
    # at nv=4 and proves the same optimum
    code, out, _ = run(capsys, "solve", "fig1", "--nv", "4", "--restart-mode", mode)
    assert code == 0
    assert "ud_lps: 24" in out
    assert "proof: optimal" in out
    assert f"stat_restarts: {restarts}" in out


def test_solve_rules_off_same_ud_more_nodes(capsys):
    code, out_on, _ = run(capsys, "solve", "fig1", "--nv", "6")
    assert code == 0
    code, out_off, _ = run(capsys, "solve", "fig1", "--nv", "6", "--no-bound", "--no-faces",
                           "--no-symmetry")
    assert code == 0

    def stat(out, key):
        return int(next(l for l in out.splitlines() if l.startswith(key)).split(":")[1])

    assert "ud_lps: 15" in out_off
    assert stat(out_off, "stat_nodes") > stat(out_on, "stat_nodes")


def test_solve_infeasible_budget(capsys):
    code, out, _ = run(capsys, "solve", "fig1", "--nv", "1")
    assert code == 2
    assert "infeasible budget" in out
    assert "witness_pipe" in out


def test_solve_infeasible_budget_with_a_pipeless_source(capsys, tmp_path):
    # the lowest-numbered source has no pipes; the witness is the first
    # pipe at the other source
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": ["a", "b", "c", "d"], "sources": ["a", "b"],
                                "edges": [["p", "b", "c", 1], ["q", "b", "d", 1],
                                          ["r", "c", "d", 1]]}))
    code, out, _ = run(capsys, "solve", str(path), "--nv", "1")
    assert code == 2
    assert "witness_pipe: p" in out


def test_solve_writes_anytime_log(capsys, tmp_path):
    path = tmp_path / "anytime.csv"
    code, _, _ = run(capsys, "solve", "fig1", "--nv", "6", "--anytime", str(path))
    assert code == 0
    rows = [line.split(",") for line in path.read_text().splitlines()]
    uds = [float(ud) for _, ud in rows]
    assert uds == sorted(uds, reverse=True) and len(set(uds)) == len(uds)
    assert uds[-1] == 15.0


def test_solve_bad_anytime_path_fails_before_the_solve(capsys, monkeypatch, tmp_path):
    def no_solve(*args):
        raise AssertionError("solved before the anytime file was opened")

    monkeypatch.setattr(cli, "solve", no_solve)
    code, out, err = run(capsys, "solve", "fig1", "--nv", "6",
                         "--anytime", str(tmp_path / "missing" / "a.csv"))
    assert code == 1
    assert err.startswith("error: ") and "ud_lps" not in out


def test_solve_node_limit_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "fig1", "--nv", "6", "--node-limit", "5",
                       "--no-bound", "--no-faces", "--no-symmetry")
    assert code == 3


def test_solve_time_limit_before_any_solution(capsys):
    code, out, _ = run(capsys, "solve", "fig1", "--nv", "6", "--time-limit", "0")
    assert code == 3
    assert "result: limit expired before any solution was found" in out


def test_solve_interrupted_before_any_solution(capsys, monkeypatch):
    def interrupt(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(solver.Search, "choose_branch", interrupt)
    code, out, _ = run(capsys, "solve", "fig1", "--nv", "6")
    assert code == 3
    assert "result: interrupted before any solution was found" in out


def test_check_stops_on_interrupt(capsys, monkeypatch):
    # solve turns Ctrl-C into an interrupted result; check must not go on
    # to the next budget or report a mismatch
    calls = []

    def interrupt(self):
        calls.append(self.nv)
        raise KeyboardInterrupt

    monkeypatch.setattr(solver.Search, "choose_branch", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(capsys, "check", "fig1", "--nv", "5..7")
    assert calls == [5]
    assert "FAIL" not in capsys.readouterr().out


def test_sweep_csv_antichain(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "fig1", "--nv", "2..14", "--format", "csv",
                       "--out-dir", str(tmp_path / "pts"))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()
            if line and line[0].isdigit()]
    got = [(int(nv), float(ud)) for nv, ud, _, _ in rows]
    assert got == [(2, 47.0), (3, 36.0), (4, 24.0), (5, 17.0), (6, 15.0)]
    assert (tmp_path / "pts" / "placement_nv6.txt").exists()


def test_sweep_limit_without_solution_exit_code(capsys):
    code, out, _ = run(capsys, "sweep", "fig1", "--nv", "4..6", "--node-limit", "0")
    assert code == 3
    assert out.count("no solution within limits") == 3


def test_sweep_interrupted_before_any_point(capsys, monkeypatch):
    def interrupt(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(solver.Search, "choose_branch", interrupt)
    code, out, _ = run(capsys, "sweep", "fig1", "--nv", "4..6")
    assert code == 3
    assert "n_valves=4: interrupted" in out


def test_sweep_out_dir_that_is_a_file_fails_before_the_sweep(capsys, monkeypatch, tmp_path):
    def no_sweep(*args):
        raise AssertionError("swept before the out dir was made")

    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(cli, "sweep", no_sweep)
    code, _, err = run(capsys, "sweep", "fig1", "--nv", "2..6", "--out-dir", str(taken))
    assert code == 1
    assert err.startswith("error: ")


def test_sweep_every_budget_infeasible_exit_code(capsys):
    # fig1 has two source-side slots: budget 1 is infeasible, as in `solve`
    code, out, _ = run(capsys, "sweep", "fig1", "--nv", "1..1")
    assert code == 2
    assert "n_valves=1:" in out
    assert run(capsys, "sweep", "fig1", "--nv", "1..2")[0] == 0


def test_sweep_placement_files_parse_back(capsys, tmp_path):
    from valveplan.instances import fig1
    from valveplan.network import parse_placement
    run(capsys, "sweep", "fig1", "--nv", "5..6", "--out-dir", str(tmp_path))
    net = fig1()
    text = (tmp_path / "placement_nv6.txt").read_text()
    assert len(parse_placement(net, text)) == 6


def test_check_fig1(capsys):
    code, out, _ = run(capsys, "check", "fig1", "--nv", "6")
    assert code == 0
    assert "PASS" in out


def test_check_range(capsys):
    code, out, _ = run(capsys, "check", "fig1", "--nv", "5..7")
    assert code == 0
    assert out.count("check: PASS") == 3


def test_check_all_skipped_is_not_a_pass(capsys):
    # C(12, 1) = 12 feasible placements exceed the cap, so nothing was compared
    code, out, _ = run(capsys, "check", "fig1", "--nv", "3", "--cap", "1")
    assert code == 3
    assert "PASS" not in out
    assert out.endswith("result: SKIP\n")
    # one budget checked, one skipped: the checked one decides
    code, out, _ = run(capsys, "check", "fig1", "--nv", "2..3", "--cap", "10")
    assert code == 0
    assert "check: SKIP fig1 nv=3: C(12, 1) = 12 feasible placements exceed the cap of 10\n" in out
    assert out.endswith("result: PASS\n")


def test_check_limit_is_not_a_mismatch(capsys):
    # the solver never disagreed with the oracle; a limit stopped it first
    code, out, _ = run(capsys, "check", "fig1", "--nv", "5..6", "--node-limit", "0")
    assert code == 3
    assert "FAIL" not in out and out.count("check: LIMIT fig1") == 2
    assert out.endswith("result: LIMIT\n")
    # a proved budget next to a limited one: still a limit, not a pass
    code, out, _ = run(capsys, "check", "fig1", "--nv", "2..3", "--node-limit", "3")
    assert code == 3
    assert "check: PASS fig1 nv=2" in out and "check: LIMIT fig1 nv=3" in out
    assert out.endswith("result: LIMIT\n")


def test_check_best_found_below_optimum_fails(capsys, monkeypatch):
    # an unproved incumbent that beats the oracle's optimum is a mismatch
    def too_good(net, nv, opts):
        sol = solver.solve(net, nv, opts)
        return dataclasses.replace(sol, ud=sol.ud - 1000, proof="best-found")

    monkeypatch.setattr(cli, "solve", too_good)
    code, out, _ = run(capsys, "check", "fig1", "--nv", "6")
    assert code == 4
    assert "check: FAIL fig1 nv=6 solver=best-found:14 oracle=15" in out
    assert out.endswith("result: FAIL\n")


def test_check_corpus(capsys):
    code, out, _ = run(capsys, "check", "--corpus", "3", "--seed", "0", "--nv", "3..4")
    assert code == 0
    assert out.count("check: PASS") == 6
    assert "result: PASS" in out


def test_check_corpus_skips_budgets_an_instance_cannot_take(capsys):
    # seed 2 has 5 pipes, so 10 slots: its nv=11 is skipped with its name and
    # the comparisons already made, and those of seeds 3 and 4, still count
    code, out, err = run(capsys, "check", "--corpus", "5", "--nv", "2..11")
    assert (code, err) == (0, "")
    assert "check: SKIP rand-2 nv=11: more valves than its 10 slots\n" in out
    assert out.count("check: SKIP") == 1 and "FAIL" not in out
    assert "check: PASS rand-2 nv=10 " in out and "check: PASS rand-4 nv=11 " in out
    assert out.endswith("result: PASS\n")
    # the later budgets of a smaller instance go in the same line
    code, out, _ = run(capsys, "check", "--corpus", "3", "--seed", "2", "--nv", "10..12",
                       "--cap", "1")
    assert "check: SKIP rand-2 nv=11..12: more valves than its 10 slots\n" in out
    # a budget over the enumeration cap names its instance too, so the
    # corpus's skipped cases can be told apart
    assert "check: SKIP rand-3 nv=10: C(9, 7) = 36 feasible placements exceed the cap of 1\n" in out
    assert "check: SKIP rand-4 nv=10: C(9, 7) = 36 feasible placements exceed the cap of 1\n" in out
    # a budget below 1 fits no instance: an input error before any check
    code, out, err = run(capsys, "check", "--corpus", "2", "--nv", "0..3")
    assert (code, out) == (1, "")
    assert err == "error: valve budget must be in [1, 16], got 0\n"


def test_check_instance_budgets_fail_before_any_enumeration(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "brute_force", lambda *args, **kw: calls.append(args))
    code, out, err = run(capsys, "check", "fig1", "--nv", "13..15")
    assert (code, out, calls) == (1, "", [])
    assert err == "error: valve budget must be in [1, 14], got 15\n"


def test_check_corpus_fifty(capsys):
    # the full seeded regression corpus, end to end through the CLI
    code, out, _ = run(capsys, "check", "--corpus", "50", "--seed", "0", "--nv", "2..5")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("check: PASS") == 200


def strip_elapsed_column(csv_text):
    out = []
    for line in csv_text.splitlines():
        if line and line[0].isdigit():
            line = ",".join(line.split(",")[:-1])
        out.append(line)
    return "\n".join(out)


def test_determinism_excluding_timing(capsys):
    _, first, _ = run(capsys, "solve", "fig1", "--nv", "6")
    _, second, _ = run(capsys, "solve", "fig1", "--nv", "6")
    assert strip_timing(first) == strip_timing(second)
    _, s1, _ = run(capsys, "sweep", "fig1", "--nv", "2..8", "--format", "csv")
    _, s2, _ = run(capsys, "sweep", "fig1", "--nv", "2..8", "--format", "csv")
    assert strip_elapsed_column(s1) == strip_elapsed_column(s2)


def test_bundled_instance_names(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "fig2", "--nv", "4")
    assert code == 0
    # a real file path works the same way
    from valveplan.instances import FIG1_DOCUMENT
    path = tmp_path / "net.json"
    path.write_text(FIG1_DOCUMENT)
    code, out, _ = run(capsys, "solve", str(path), "--nv", "6")
    assert code == 0
    assert "ud_lps: 15" in out
