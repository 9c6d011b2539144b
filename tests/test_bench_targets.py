"""The benchmark's tracer wraps library functions by name from outside
`valveplan`. A rename or move in the library must fail here, not only when
a traced benchmark run installs its wrappers."""

import importlib
import os
import sys

import pytest

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
