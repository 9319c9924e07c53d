"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKDIR PASS TRACE

Reads ``WORKDIR/inputs.json``, imports heatkern, prepares what the workload
builds once, runs every op (each after a calibration slice), and writes ``WORKDIR/outputs_PASS.npz`` (one
array per op) plus ``WORKDIR/pass_PASS.json`` (timings and, when TRACE is 1,
per-layer metrics and spans).  A fresh process per pass is what keeps every
pass cold: ``checks._kernel_cache``, per-kernel memos and ``BurgersProblem``
lazies all start empty.
"""

import time

T0 = time.perf_counter()

import heatkern  # noqa: E402  (the import is part of set-up time)
from heatkern import burgers as hk_burgers  # noqa: E402
from heatkern import checks as hk_checks  # noqa: E402
from heatkern import cli as hk_cli  # noqa: E402
from heatkern import kernel as hk_kernel  # noqa: E402

T_IMPORT = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import quad, solve_ivp  # noqa: E402

from reference import digits  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import burgers_xs, gaussian, moment, one  # noqa: E402

CAUCHY_TOL = 1e-12


def _oscillator(t, y):
    return np.array([y[1], -y[0] - 0.1 * y[1]])


def _bump(y):
    return math.exp(-y * y) * math.cos(3.0 * y)


def calibration_slice() -> float:
    """Seconds for a fixed scipy ODE solve and quadrature that use no heatkern.

    The machine's speed drifts by tens of percent over seconds; a slice
    before every op (and one after the last) lets the runner express times
    at a fixed reference speed.
    """
    t0 = time.perf_counter()
    solve_ivp(_oscillator, (0.0, 10.0), [1.0, 0.0], method="DOP853",
              rtol=1e-10, atol=1e-13)
    quad(_bump, -8.0, 8.0, epsabs=1e-12, epsrel=1e-10)
    return time.perf_counter() - t0


def cli_argv(op, workdir):
    cmd = op["kind"].split("-", 1)[1]
    argv = [cmd, "--tol", repr(op["tol"]), "--out", "-"]
    if op["config"]:
        argv += ["--config", os.path.join(workdir, op["config"])]
    else:
        spec = op["coeffs"]
        argv += ["--profile", spec["profile"], "--T", repr(spec["T"])]
        for key, value in spec["params"].items():
            argv += ["--param", f"{key}={value!r}"]
    if cmd == "kernel":
        lo, hi, n = op["grid"]
        argv += ["--t", repr(op["t"]), f"--grid={lo!r}:{hi!r}:{n}"]
    else:
        argv += ["--tmin", repr(op["tmin"]), "--tmax", repr(op["tmax"]),
                 "--points", str(op["points"])]
    return argv


def parse_csv(text):
    lines = text.strip().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


class Pass:
    """The program-side state of one pass and the ops that use it."""

    def __init__(self, inputs, workdir, tracer):
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.kernels = {}
        self.problems = {}
        self.checks = {}    # check name -> (seconds, err_digits)

    def count(self, counter, fn):
        return self.tracer.counted(counter, fn) if self.tracer else fn

    def span(self, name, fn, *args):
        return self.tracer.call(name, fn, *args) if self.tracer else fn(*args)

    def prepare(self):
        """What the workload builds once, before its first op."""
        for key, spec in self.inputs.get("kernels", {}).items():
            self.kernels[key] = hk_kernel.make_kernel(heatkern.from_config(spec),
                                                      tol=CAUCHY_TOL)
        if self.inputs["workload"] == "validate":
            self.check_fns = dict(hk_checks.ALL_CHECKS)
            self.inputs["ops"] = [{"id": i, "kind": "check", "name": name}
                                  for i, name in enumerate(self.check_fns)]

    def run(self, op):
        return getattr(self, "op_" + op["kind"].replace("-", "_"))(op)

    def op_cli_kernel(self, op):
        out, err = io.StringIO(), io.StringIO()
        argv = cli_argv(op, self.workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.span("cli." + argv[0], hk_cli.main, argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    op_cli_riccati = op_cli_kernel

    def op_solve(self, op):
        spec = op["phi"]
        if spec["type"] == "gauss":
            phi = heatkern.InitialData.from_callable(self.count(
                "phi", gaussian(spec["amp"], spec["center"], spec["width"])))
        else:
            phi = heatkern.InitialData.from_callable(self.count("phi", one),
                                                     L=spec["L"])
        t = op["t"] if len(op["t"]) > 1 else op["t"][0]
        field = hk_kernel.solve_ivp(self.kernels[op["kernel"]], phi,
                                    np.linspace(*op["grid"]), t)
        return field.values

    def op_expect(self, op):
        phi = heatkern.InitialData.from_callable(moment(op["moment"]))
        return hk_kernel.expectation(self.kernels[op["kernel"]], phi,
                                     op["x"], op["t"])

    def op_burgers(self, op):
        prob = self.problems.get(op["problem"])
        if prob is None:
            spec = next(p for p in self.inputs["problems"]
                        if p["name"] == op["problem"])
            prob = self.problems[op["problem"]] = self.problem(spec)
        return hk_burgers.solve_burgers_ivp(prob, op["t"]).values

    def problem(self, spec):
        coeffs = heatkern.from_config(spec["coeffs"])
        xs = burgers_xs(spec["grid"])
        v0 = spec["v0"]
        if v0["type"] == "kink":
            wave = hk_burgers.BatemanWave(A=v0["A"], V=v0["V"], a=coeffs.a(0.0),
                                          c=v0["c"], sign="-")
            anti = wave.initial_antiderivative() if spec["analytic"] else None
            return hk_burgers.BurgersProblem(
                coeffs, self.count("v0", wave.initial_profile()), xs,
                v0_antiderivative=anti)
        return hk_burgers.BurgersProblem(
            coeffs, self.count("v0", gaussian(v0["amp"], v0["center"], 1.0)), xs)

    def op_check(self, op):
        res = self.span("checks." + op["name"], self.check_fns[op["name"]])
        self.checks[op["name"]] = (res.seconds, digits(res.measured, res.tolerance))
        return np.array([res.measured, res.tolerance, float(res.passed)])


def main(workdir, pass_no, trace):
    with open(os.path.join(workdir, "inputs.json")) as fh:
        inputs = json.load(fh)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    t_prep = time.perf_counter()
    state = Pass(inputs, workdir, tracer)
    state.prepare()
    setup_s = (T_IMPORT - T0) + (time.perf_counter() - t_prep)

    ops = inputs["ops"]
    results = []
    calibration = []
    truncation = 0
    for op in ops:
        calibration.append(calibration_slice())
        if tracer:
            tracer.op = op["id"]
        error = None
        value = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                value = state.run(op)
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        truncation += sum(issubclass(w.category, heatkern.TruncationWarning)
                          for w in caught)
        results.append((op["id"], t1 - t0, value, error))
    calibration.append(calibration_slice())

    arrays = {}
    per_op = []
    for op_id, seconds, value, error in results:
        if error is None:
            arrays[f"op{op_id}"] = (parse_csv(value) if isinstance(value, str)
                                    else np.asarray(value, dtype=float))
        per_op.append({"id": op_id, "seconds": seconds, "error": error})
    np.savez(os.path.join(workdir, f"outputs_{pass_no}.npz"), **arrays)

    record = {
        "pass": pass_no, "trace": trace, "setup_s": setup_s,
        "wall_s": sum(seconds for _, seconds, _, _ in results),
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": per_op, "truncation_warnings": truncation,
    }
    if inputs["workload"] == "validate":
        record["ops_list"] = ops
    if tracer:
        tracer.counts["truncation_warnings"] = truncation
        record["per_layer"] = tracer.layer_metrics(len(ops), state.checks)
        record["self_s"] = tracer.self_times()
        record["spans"] = tracer.export()
    with open(os.path.join(workdir, f"pass_{pass_no}.json"), "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
