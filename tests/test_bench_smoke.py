"""The benchmark's lattice and verify workloads at smoke size, in-process.

Every op is checked as a benchmark run checks it (``workloads.check``):
against the independent integer oracle in ``perfbench/oracle.py`` and
against ``perfbench/expected.json``.  This keeps the harness from rotting
and runs the library on the benchmark's own inputs.  The traced run's
wrappers (``perfbench/tracing.py``) must find every name they trace.
"""

import importlib
import pathlib
import sys

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


def test_tracer_wraps_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("qfca.cli")
    targets = [(m, name) for m, names in tracing.SPAN_TARGETS.items() for name in names]
    targets += [("qfca.quantaloid", name) for name in tracing.HOT_TARGETS]

    def current(mod_name, qualname):
        owner = sys.modules[mod_name]
        if "." in qualname:  # a method must be defined on its own class
            cls_name, attr = qualname.split(".")
            return vars(getattr(owner, cls_name))[attr]
        return getattr(owner, qualname)

    originals = {t: current(*t) for t in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unwrapped = [t for t in targets
                     if getattr(current(*t), "__wrapped__", None) is not originals[t]]
    finally:
        tracer.uninstall()
    assert not unwrapped
    assert all(current(*t) is originals[t] for t in targets)
