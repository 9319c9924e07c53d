"""The benchmark harness (perfbench/) wraps heatkern by name from outside.

Its tracer lists the functions and methods it rebinds and rebuilds every
coefficient set from eight named callables, and its worker calls the library
with keyword arguments; a rename or signature change in the library would
break the benchmark without failing any other test.
"""

import importlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heatkern import (BurgersProblem, CoefficientSet, InitialData, expectation,
                      make_kernel, profile)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("kernel-sweep", "cauchy", "burgers", "validate")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", PERFBENCH / "tracing.py")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's worker, reference and workloads modules, imported the way
    perfbench/run.py imports them: by plain name from perfbench/."""
    names = ("reference", "tracing", "workloads")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        for name in names:
            mp.delitem(sys.modules, name, raising=False)
        worker = _load("perfbench_worker", PERFBENCH / "worker.py")
        yield worker, sys.modules["reference"], sys.modules["workloads"]
        for name in names:
            sys.modules.pop(name, None)


def test_traced_functions_exist(tracing):
    for mod_name, attr in tracing.FUNCTIONS:
        module = importlib.import_module(f"heatkern.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_traced_methods_exist(tracing):
    for mod_name, cls_name, methods in tracing.METHODS:
        cls = getattr(importlib.import_module(f"heatkern.{mod_name}"), cls_name)
        for meth in methods:
            assert callable(getattr(cls, meth, None)), f"{cls_name}.{meth}"


def test_coefficient_set_builds_from_traced_fields(tracing):
    fn = lambda t: 1.0
    co = CoefficientSet(domain_end=2.0, **{name: fn for name in tracing.COEFF_FIELDS})
    assert all(getattr(co, name) is fn for name in tracing.COEFF_FIELDS)
    # the tracer's rebuild keeps every value of every built-in and a custom
    # set to the bit; repr keeps signed zeros apart (ou-drift's default g is -0.0)
    for kind, params in [
            ("constant-heat", {}), ("cable", {"lam": 1.3, "tau": 3.0}),
            ("fokker-planck", {}), ("ou-drift", {"k": 2.0}),
            ("ou-drift", {"k": 2.0, "g": 0.5}),
            ("custom", {"poly": {"a": [1.0, -0.2], "c": [-0.0],
                                 "f": [0.0, 0.5, -0.1]}})]:
        co = profile(kind, **params)
        counted = tracing.Tracer()._counted_coefficients(co)
        for t in (0.0, 0.3, 1.7):
            assert [repr(getattr(counted, n)(t)) for n in tracing.COEFF_FIELDS] \
                == [repr(getattr(co, n)(t)) for n in tracing.COEFF_FIELDS]


# c = prod_k (t - k/4): zero at the 9 times k T/8 of a T = 2 horizon only
_NINE_ROOTS = np.polynomial.polynomial.polyfromroots(np.arange(9) / 4.0).tolist()


@pytest.mark.parametrize("kind, params", [
    ("constant-heat", {}), ("cable", {"lam": 1.3, "tau": 3.0}),
    ("fokker-planck", {}), ("ou-drift", {"k": 2.0, "g": 0.5}),
    ("custom", {"poly": {"a": [1.0, -0.2], "c": [-0.0], "f": [0.0, 0.5]}}),
    ("custom", {"poly": {"a": [0.7], "c": _NINE_ROOTS}})])
def test_traced_coefficients_keep_the_structure_decisions(tracing, kind, params):
    # the tracer rebuilds every set from counting closures, which keeps the
    # values the characteristic solve reads structure from
    co = profile(kind, **params)
    counted = tracing.Tracer()._counted_coefficients(co)
    ones = InitialData.from_callable(lambda y: 1.0)
    decisions = []
    for each in (co, counted):
        classical = BurgersProblem(each, lambda y: 0.0, [0.0]).classical
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expectation(make_kernel(each), ones, 0.0, 0.5)
        decisions.append((classical, [w.category for w in caught]))
    assert decisions[0] == decisions[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_runs_the_first_op_of_every_kind(perfbench, tmp_path, workload):
    worker, reference, workloads = perfbench
    inputs = workloads.generate(workload, 1)
    for name, config in workloads.config_files(inputs).items():
        (tmp_path / name).write_text(json.dumps(config))
    state = worker.Pass(inputs, str(tmp_path), None)
    state.prepare()
    first = {}
    for op in inputs["ops"]:
        first.setdefault(op["kind"], op)
    outputs = {}
    for op in first.values():
        value = state.run(op)
        outputs[op["id"]] = (worker.parse_csv(value) if isinstance(value, str)
                             else np.asarray(value, dtype=float))
    checked = reference.check({**inputs, "ops": list(first.values())}, outputs)
    assert sorted(checked) == sorted(outputs)
    assert all(r["ok"] for r in checked.values()), checked
