"""The public surface: exported names resolve, and every name the
benchmark harness reads exists.

`perfbench/run.py --trace 1` wraps the functions listed in
`perfbench/spans.py` and fails when one is missing, but only after minutes
of set-up; these checks fail in a second when a deletion would break it.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import szegolab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(szegolab.__path__))


def load_spans():
    name = "perfbench_spans"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    sys.modules[name] = spans  # dataclasses look their module up there
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[name]
    return spans


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"szegolab.{name}")
    exported = getattr(module, "__all__", ())
    assert [a for a in exported if not hasattr(module, a)] == []


def test_package_all_resolves():
    assert [a for a in szegolab.__all__ if not hasattr(szegolab, a)] == []


def test_benchmark_reads_existing_names():
    spans = load_spans()
    reads = [(t.module, t.attr) for t in spans.TARGETS]
    # read by the tracer outside TARGETS, and by run.py's environment record
    reads += [("acceptance", "CHECKS"), ("acceptance", "Lab._get"),
              ("cli", "Experiment.sweep"), ("cli", "_max_workers")]
    missing = []
    for module_name, attr in reads:
        obj = importlib.import_module(f"szegolab.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj) and not isinstance(obj, (list, tuple)):
            missing.append(f"{module_name}.{attr}")
    # the `measure` callbacks bind these arguments by name
    for module_name, func, names in [
            ("assembly", "assemble_T", ("trunc", "sub", "a", "quad")),
            ("assembly", "pair_trace_integral", ("quad",)),
            ("spectral", "eigensolve", ("op",))]:
        module = importlib.import_module(f"szegolab.{module_name}")
        params = inspect.signature(getattr(module, func)).parameters
        missing += [f"{module_name}.{func}({n})" for n in names
                    if n not in params]
    # and read these attributes of the arguments and results
    for module_name, cls, attrs in [
            ("manifold", "Quadrature", ("size", "total_mass")),
            ("assembly", "HermitianOperator", ("matrix", "dim"))]:
        module = importlib.import_module(f"szegolab.{module_name}")
        missing += [f"{module_name}.{cls}.{a}" for a in attrs
                    if not hasattr(getattr(module, cls), a)]
    assert missing == []

