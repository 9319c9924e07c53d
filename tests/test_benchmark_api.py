"""The benchmark harness (perfbench/) wraps heatkern by name from outside.

Its tracer lists the functions and methods it rebinds and rebuilds every
coefficient set from eight named callables; a rename or signature change in
the library would break the benchmark without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from heatkern import CoefficientSet, profile

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
