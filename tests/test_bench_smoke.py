"""The benchmark's lattice and verify workloads at smoke size, in-process.

Every op is checked as a benchmark run checks it (``workloads.check``):
against the independent integer oracle in ``perfbench/oracle.py`` and
against ``perfbench/expected.json``.  This keeps the harness from rotting
and runs the library on the benchmark's own inputs.
"""

import importlib
import pathlib

import pytest

import qfca

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["lattice", "verify"])
def test_smoke_workload_outputs(workloads, workload):
    golden = workloads.load_expected()
    setup = workloads.build(qfca, workload, 0, "smoke", golden)
    assert setup.ops
    failed = [op.name for op in setup.ops if not workloads.check(op, op.run(), golden)]
    assert not failed
