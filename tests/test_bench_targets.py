"""The benchmark's tracer wraps library functions by name from outside
`valveplan`, its workloads call library functions by name, and its runner
reads search statistics by name. A rename or move in the library must
fail here, not only when a benchmark run does."""

import ast
import dataclasses
import importlib
import os
import re
import sys

import pytest

from valveplan.solver import SearchStats

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    # imported read only: no bytecode is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    sys.modules.pop("tracer", None)
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def test_every_target_resolves_to_a_callable(tracer):
    for owner, attr, name, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_install_and_uninstall_restore_every_original(tracer):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracer.TARGETS]
    t = tracer.Tracer()
    try:
        t.install()
        for owner, attr, original in originals:
            wrapped = getattr(owner, attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, attr
    finally:
        t.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr


def test_every_summed_stat_is_a_search_stats_field():
    # the runner is read as text, not imported
    with open(os.path.join(PERFBENCH, "run.py"), "r", encoding="utf-8") as fh:
        names = set(re.findall(r'stat_sum\(\s*\w+\s*,\s*"(\w+)"\s*\)', fh.read()))
    assert "nodes" in names
    fields = {f.name for f in dataclasses.fields(SearchStats)}
    assert names <= fields, sorted(names - fields)


def names_taken_from_valveplan(path):
    """Dotted names of what a benchmark script takes from `valveplan`: each
    name it imports from a `valveplan` module, and each attribute it reads
    off one it imported that way, e.g. "valveplan.isolation.scan_sectors".
    The script is read as text."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}                           # local name: dotted valveplan name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "valveplan":
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = set(imported.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            names.add(f"{imported[node.value.id]}.{node.attr}")
    return names


def valveplan_object(dotted):
    """The module, or the attribute of a module, that `dotted` names;
    AttributeError when there is none."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        owner, _, attr = dotted.rpartition(".")
        return getattr(valveplan_object(owner), attr)


@pytest.mark.parametrize("script", ["workloads.py", "freeze.py"])
def test_every_library_name_a_workload_uses_resolves(script):
    missing = []
    for dotted in sorted(names_taken_from_valveplan(os.path.join(PERFBENCH, script))):
        try:
            valveplan_object(dotted)
        except AttributeError:
            missing.append(dotted)
    assert not missing, (script, missing)


def test_the_verify_workload_reference_names_are_read():
    # verify-corpus calls the reference floods by name, so a move of them
    # fails the test above
    names = names_taken_from_valveplan(os.path.join(PERFBENCH, "workloads.py"))
    assert {"valveplan.isolation.scan_sectors", "valveplan.isolation.delivered_with_closed",
            "valveplan.isolation.ud_by_component_deletion", "valveplan.cli.main"} <= names
