"""Self-tests of the benchmark: inputs, checker, metric names, tracing.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import heatkern  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    if workload != "validate":
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_inputs_are_plain_json():
    for workload in workloads.WORKLOADS:
        inputs = workloads.generate(workload, 3)
        assert json.loads(json.dumps(inputs)) == inputs


@pytest.mark.parametrize("seed", range(3))
def test_custom_sets_keep_a_positive_and_times_below_T_valid(seed):
    specs = [op["coeffs"] for op in workloads.generate("kernel-sweep", seed)["ops"]]
    specs += list(workloads.generate("cauchy", seed)["kernels"].values())
    specs += [p["coeffs"] for p in workloads.generate("burgers", seed)["problems"]]
    ts = np.linspace(0.0, workloads.T_CUSTOM, 201)
    seen = set()
    for spec in specs:
        if spec["profile"] != "custom" or json.dumps(spec) in seen:
            continue
        seen.add(json.dumps(spec))
        a = np.polynomial.polynomial.polyval(ts, spec["poly"]["a"])
        assert a.min() >= 0.3
        K = heatkern.make_kernel(heatkern.from_config(spec), tol=1e-10)
        assert K.T_valid == spec["T"] > workloads.T_MAX_CUSTOM


def test_closed_form_exponents_match_the_program_closed_forms():
    specs = workloads.builtin_specs(np.random.default_rng(5))
    kinds = {"constant-heat": "heat"}
    x, y = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7))
    for spec in specs.values():
        ref = heatkern.closed_form(kinds.get(spec["profile"], spec["profile"]),
                                   **spec["params"])
        for t in (0.1, 0.7, 2.0):
            e = reference.closed_form_exponent(spec, t)
            np.testing.assert_allclose(reference.log_kernel(e, x, y),
                                       ref.log_evaluate(x, y, t),
                                       rtol=1e-12, atol=1e-12)


def _program_outputs(inputs, ids, tmp_path):
    """Run ops in-process, untraced, as a pass would."""
    for name, config in workloads.config_files(inputs).items():
        (tmp_path / name).write_text(json.dumps(config))
    state = worker.Pass(inputs, str(tmp_path), None)
    state.prepare()
    outs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op in inputs["ops"]:
            if op["id"] in ids:
                value = state.run(op)
                outs[op["id"]] = (worker.parse_csv(value) if isinstance(value, str)
                                  else np.asarray(value, dtype=float))
    return outs


def _first_ids(inputs, **match):
    ids = []
    for key, value in match.items():
        ids.append(next(op["id"] for op in inputs["ops"] if op.get(key) == value))
    return ids


def _perturbed(out, tol):
    """``out`` with its largest value moved by ten tolerances, relative and absolute."""
    out = out.copy()
    if out.ndim == 2 and out.shape[1] in (4, 7):     # CLI tables: skip x, y, t
        values = out[:, 3:] if out.shape[1] == 4 else out[:, 1:]
    else:
        values = out.reshape(out.shape[0] if out.ndim else 1, -1)
    i, j = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    v = values[i, j]
    values[i, j] = v * (1.0 + 10.0 * tol) + math.copysign(10.0 * tol, v)
    return out


@pytest.mark.parametrize("workload,match", [
    ("kernel-sweep", {"kind": "cli-kernel"}),
    ("kernel-sweep", {"kind": "cli-riccati"}),
    ("cauchy", {"kind": "solve"}),
    ("cauchy", {"kind": "expect"}),
    ("burgers", {"problem": "p0"}),
    ("burgers", {"problem": "p4"}),
])
def test_checker_accepts_program_output_and_rejects_a_perturbed_one(
        workload, match, tmp_path):
    inputs = workloads.generate(workload, 11)
    inputs["ops"] = [op for op in inputs["ops"]
                     if op["id"] in _first_ids(inputs, **match)]
    outs = _program_outputs(inputs, {op["id"] for op in inputs["ops"]}, tmp_path)
    good = reference.check(inputs, outs)
    assert all(c["ok"] and c["digits"] > 0.0 for c in good.values())

    bad = {}
    for op_id, out in outs.items():
        bad[op_id] = _perturbed(out, good[op_id]["tol"])
    rejected = reference.check(inputs, bad)
    assert all(not c["ok"] and c["digits"] < 0.0 for c in rejected.values())


def test_checker_fails_a_failed_check():
    inputs = {"workload": "validate", "seed": 0,
              "ops": [{"id": 0, "kind": "check", "name": "x"}]}
    out = {0: np.array([2e-8, 1e-8, 0.0])}
    res = reference.check(inputs, out)[0]
    assert not res["ok"] and math.isclose(res["digits"], -math.log10(2.0))


def test_metric_names_and_bounds():
    spec = bench()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_registered_check_has_per_layer_metrics():
    names = {m["name"] for m in bench()["per_layer"]}
    for check, _ in heatkern.checks.ALL_CHECKS:
        key = "checks." + check.replace("/", ".")
        assert {key + ".s", key + ".err_digits"} <= names


def _run_worker(workdir, pass_no, trace):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(workdir),
                    str(pass_no), str(trace)], cwd=ROOT, env=env, check=True,
                   timeout=300)
    with np.load(workdir / f"outputs_{pass_no}.npz") as npz:
        outputs = {k: npz[k] for k in npz.files}
    with open(workdir / f"pass_{pass_no}.json") as fh:
        return outputs, json.load(fh)


@pytest.mark.parametrize("workload,keep", [
    ("kernel-sweep", 4), ("cauchy", 4), ("burgers", 4)])
def test_traced_and_untraced_outputs_are_identical(workload, keep, tmp_path):
    inputs = workloads.generate(workload, 2)
    inputs["ops"] = [dict(op, id=i) for i, op in enumerate(inputs["ops"][:keep])]
    for name, config in workloads.config_files(inputs).items():
        (tmp_path / name).write_text(json.dumps(config))
    (tmp_path / "inputs.json").write_text(json.dumps(inputs))
    plain, plain_rec = _run_worker(tmp_path, 0, 0)
    traced, traced_rec = _run_worker(tmp_path, 1, 1)
    assert all(r["error"] is None for r in plain_rec["ops"] + traced_rec["ops"])
    assert plain.keys() == traced.keys() and len(plain) == keep
    for key in plain:
        assert np.array_equal(plain[key], traced[key]), key
    layers = traced_rec["per_layer"]
    assert set(layers) <= {m["name"] for m in bench()["per_layer"]}
    assert traced_rec["spans"]["name"]


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cauchy", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# Known defects of the program that the timed workloads leave out, kept
# visible here; strict, so the benchmark's inputs are widened once fixed.

@pytest.mark.xfail(strict=True, raises=heatkern.QuadratureError,
                   reason="solve_ivp raises QuadratureError on piecewise-linear data")
def test_known_defect_sampled_initial_data():
    K = heatkern.make_kernel(heatkern.profile("ou-drift", T=2.5, a=1.0, k=1.0, g=0.5),
                             tol=1e-12)
    ys = np.linspace(-3.0, 3.0, 41)
    phi = heatkern.InitialData.from_samples(ys, np.exp(-ys ** 2))
    heatkern.solve_ivp(K, phi, np.linspace(-4.0, 4.0, 161), 0.5)


@pytest.mark.xfail(strict=True, reason="quadrature misses a narrow bump of phi "
                                       "far from the kernel's y-window")
def test_known_defect_narrow_initial_data():
    spec = {"profile": "fokker-planck", "params": {}, "T": 2.5}
    K = heatkern.make_kernel(heatkern.from_config(spec), tol=1e-12)
    xs = np.linspace(-4.0, 4.0, 161)
    phi = workloads.gaussian(1.0, -0.5, 0.5)
    got = heatkern.solve_ivp(K, heatkern.InitialData.from_callable(phi), xs, 2.0)
    want = reference.gaussian_convolution(reference.closed_form_exponent(spec, 2.0),
                                          1.0, -0.5, 0.5, xs)
    assert np.max(np.abs(got.values[0] - want)) / np.max(want) <= 1e-6
