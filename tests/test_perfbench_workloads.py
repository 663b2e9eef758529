"""The benchmark's workloads against the current package.

``perfbench/workloads.py`` calls the library and the CLI with the
signatures and options it was written for.  A changed signature or a
failing output check would first show up as failed benchmark operations;
this test runs one operation of each workload and makes it fail here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as the module ``name``, without writing a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    load_perfbench(monkeypatch, "spans")  # workloads.py imports it by this name
    return load_perfbench(monkeypatch, "workloads")


def test_reference_cli_op(workloads, tmp_path):
    config = str(PERFBENCH / "tiny" / "reference.ini")
    _, problems = workloads.ReferenceCli(config, 1, str(tmp_path), 1).op(0)
    assert problems == []


def test_ensemble_injection_op(workloads):
    _, problems = workloads.EnsembleInjection(str(ROOT / "configs" / "ensemble.ini"), 1).op(0)
    assert problems == []


def test_receiver_sweep_op(workloads):
    _, problems = workloads.ReceiverSweep(str(ROOT / "configs" / "reference.ini"), 1).op(0)
    assert problems == []
