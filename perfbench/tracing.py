"""Spans and counters around calls into heatkern, recorded from outside.

The tracer rebinds public functions in every ``heatkern`` module namespace
that holds them (so ``from .kernel import make_kernel`` copies are covered
too) and wraps public methods on their classes.  Each wrapped call records a
span ``[name, start, end, parent, op, arg]``; spans stay in memory until the
pass ends.  The callables the benchmark hands to the program (coefficient
functions, phi, v0) and the V0 antiderivative the program hands back are
counted, not spanned, because they run millions of times.

Nothing here changes a value the program computes: traced and untraced
passes must give bit-identical outputs, and the runner checks that.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

perf = time.perf_counter

LAYERS = ("characteristic", "riccati", "kernel", "burgers", "oracle",
          "checks", "cli")

FUNCTIONS = (
    ("characteristic", "solve_characteristic"),
    ("riccati", "fundamental"),
    ("riccati", "integrate_direct"),
    ("kernel", "make_kernel"),
    ("kernel", "solve_ivp"),
    ("kernel", "expectation"),
    ("kernel", "transform_solve"),
    ("kernel", "normalization"),
    ("burgers", "solve_burgers_ivp"),
    ("oracle", "fd_diffusion"),
    ("oracle", "fd_burgers"),
    ("coefficients", "expand_profile"),
)

ACCESSORS = ("values", "mu0", "alpha0", "beta0", "gamma0", "delta0", "eps0",
             "kappa0")
METHODS = (
    ("riccati", "FundamentalRiccati", ACCESSORS),
    ("kernel", "HeatKernel", ("evaluate", "exponent_coefficients")),
    ("burgers", "BurgersProblem", ("antiderivative", "v0_bound", "kernel")),
)

COEFF_FIELDS = ("a", "b", "c", "d", "f", "g", "da", "dd")

# counters whose change inside these spans is attributed to them
_MEASURED = ("kernel.solve_ivp", "burgers.solve_burgers_ivp")
_COUNTERS = ("phi", "v0", "V0_calls", "V0_s", "exponent_calls")


def _is_accessor(span_name: str) -> bool:
    return span_name.startswith("riccati.") and span_name[8:] in ACCESSORS


def n_elements(x) -> int:
    return 1 if type(x) is float else int(np.size(x))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.counts = defaultdict(float)
        self.inside = defaultdict(float)   # (span name, counter) -> total
        self._seen_t = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ recording
    def wrap(self, name, fn, arg_of=None, on_return=None):
        tracer = self
        measured = name in _MEASURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            arg = arg_of(parent, *args, **kwargs) if arg_of else None
            span = [name, 0.0, 0.0, parent, tracer.op, arg]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            before = [tracer.counts[c] for c in _COUNTERS] if measured else None
            span[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
                if measured:
                    for c, b in zip(_COUNTERS, before):
                        tracer.inside[name, c] += tracer.counts[c] - b
            return on_return(out) if on_return else out

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def counted(self, counter, fn):
        """``fn`` that adds the element count of its argument to a counter."""
        counts = self.counts

        def counting(y):
            counts[counter] += n_elements(y)
            return fn(y)

        return counting

    def _timed_v0(self, V0):
        counts = self.counts

        def proxy(y):
            t0 = perf()
            try:
                return V0(y)
            finally:
                counts["V0_s"] += perf() - t0
                counts["V0_calls"] += 1

        return proxy

    def _new_times(self, obj, t) -> int:
        seen = self._seen_t.setdefault(obj, set())
        ts = np.atleast_1d(np.asarray(t, dtype=float)).tolist()
        new = [v for v in ts if v not in seen]
        seen.update(new)
        return len(new)

    # ----------------------------------------------------------- installing
    def install(self):
        """Wrap heatkern's public layer boundaries for the rest of the process."""
        import heatkern  # noqa: F401  (loads every submodule)

        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name.startswith("heatkern.")}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "heatkern" or n.startswith("heatkern.")]
        spans = self.spans
        counts = self.counts

        def exponent_arg(parent, K, t):
            counts["exponent_calls"] += 1
            return self._new_times(K, t)

        args_of = {
            "kernel.solve_ivp": lambda p, K, phi, xs, t, *a, **k:
                len(xs) * len(np.atleast_1d(t)),
            "burgers.solve_burgers_ivp": lambda p, prob, t, *a, **k:
                len(prob.xs) * len(np.atleast_1d(t)),
            "kernel.evaluate": lambda p, K, x, y, t:
                int(np.ndim(x) > 0 or np.ndim(y) > 0),
            "kernel.exponent_coefficients": exponent_arg,
        }
        for acc in ACCESSORS:
            # None marks an accessor called by another (values calls all seven)
            args_of[f"riccati.{acc}"] = lambda p, fund, t: \
                None if p >= 0 and _is_accessor(spans[p][0]) else self._new_times(fund, t)
        on_return = {
            "coefficients.expand_profile": self._counted_coefficients,
            "burgers.antiderivative": self._timed_v0,
        }

        for mod_name, attr in FUNCTIONS:
            orig = getattr(mods[mod_name], attr)
            name = f"{mod_name}.{attr}"
            traced = self.wrap(name, orig, args_of.get(name), on_return.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, traced)
        for mod_name, cls_name, methods in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            for meth in methods:
                name = f"{mod_name}.{meth}"
                setattr(cls, meth, self.wrap(name, getattr(cls, meth),
                                             args_of.get(name),
                                             on_return.get(name)))

    def _counted_coefficients(self, coeffs):
        fields = {name: self.counted("coeff", getattr(coeffs, name))
                  for name in COEFF_FIELDS}
        return type(coeffs)(domain_end=coeffs.domain_end, **fields)

    # ---------------------------------------------------------- aggregating
    def self_times(self) -> dict:
        """Seconds per layer spent in its spans minus their child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (name, t0, t1, _, _, _) in enumerate(self.spans):
            out[name.split(".")[0]] += (t1 - t0) - child[k]
        return dict(out)

    def layer_metrics(self, n_ops: int, checks: dict) -> dict:
        """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
        total = defaultdict(float)
        calls = defaultdict(int)
        args = defaultdict(float)
        for name, t0, t1, _, _, arg in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if arg is not None:
                args[name] += arg

        def per_call(name, scale):
            return scale * total[name] / calls[name] if calls[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "characteristic.solve_ms": per_call("characteristic.solve_characteristic", 1e3),
            "riccati.fundamental_ms": per_call("riccati.fundamental", 1e3),
            "riccati.integrate_direct_ms": per_call("riccati.integrate_direct", 1e3),
            "kernel.make_kernel_ms": per_call("kernel.make_kernel", 1e3),
            "oracle.fd_diffusion_ms": per_call("oracle.fd_diffusion", 1e3),
            "oracle.fd_burgers_ms": per_call("oracle.fd_burgers", 1e3),
            "burgers.antiderivative_build_ms": per_call("burgers.antiderivative", 1e3),
            "burgers.v0_bound_ms": per_call("burgers.v0_bound", 1e3),
            "burgers.kernel_ms": per_call("burgers.kernel", 1e3),
            "cli.kernel_ms": per_call("cli.kernel", 1e3),
            "cli.riccati_ms": per_call("cli.riccati", 1e3),
        }

        # riccati accessors: outermost calls, per new (instance, t)
        acc_time = 0.0
        acc_new = 0.0
        grid_time = 0.0
        grid_calls = 0
        new_t_time = 0.0
        new_t_calls = 0
        for name, t0, t1, _, _, arg in self.spans:
            if _is_accessor(name) and arg is not None:
                acc_time += t1 - t0
                acc_new += arg
            elif name == "kernel.evaluate" and arg:
                grid_time += t1 - t0
                grid_calls += 1
            elif name == "kernel.exponent_coefficients" and arg:
                new_t_time += t1 - t0
                new_t_calls += 1
        m["riccati.values_us"] = 1e6 * ratio(acc_time, acc_new)
        m["kernel.evaluate_grid_us"] = 1e6 * ratio(grid_time, grid_calls)
        m["kernel.exponent_new_t_us"] = 1e6 * ratio(new_t_time, new_t_calls)

        solve, points = "kernel.solve_ivp", args["kernel.solve_ivp"]
        m["kernel.solve_us_per_point"] = 1e6 * ratio(total[solve], points)
        m["kernel.exponent_calls_per_point"] = ratio(
            self.inside[solve, "exponent_calls"], points)
        m["kernel.phi_evals_per_point"] = ratio(self.inside[solve, "phi"], points)
        m["kernel.truncation_warnings"] = self.counts["truncation_warnings"]

        bsolve, bpoints = "burgers.solve_burgers_ivp", args["burgers.solve_burgers_ivp"]
        m["burgers.solve_ms_per_point"] = 1e3 * ratio(total[bsolve], bpoints)
        m["burgers.V0_calls_per_point"] = ratio(self.inside[bsolve, "V0_calls"], bpoints)
        m["burgers.V0_share"] = ratio(self.inside[bsolve, "V0_s"], total[bsolve])
        m["burgers.v0_evals_per_point"] = ratio(self.inside[bsolve, "v0"], bpoints)

        m["coefficients.calls_per_op"] = ratio(self.counts["coeff"], n_ops)

        selfs = self.self_times()
        m["cli.self_share"] = ratio(selfs.get("cli", 0.0),
                                    total["cli.kernel"] + total["cli.riccati"])
        for layer, seconds in selfs.items():
            if layer in LAYERS:
                m[f"{layer}.self_ms_per_op"] = 1e3 * ratio(seconds, n_ops)

        for check, (seconds, digits) in checks.items():
            key = "checks." + check.replace("/", ".")
            m[key + ".s"] = seconds
            m[key + ".err_digits"] = digits
        return m

    def export(self) -> dict:
        """Columnar span table for the result file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start_us": [round((s[1] - base) * 1e6, 3) for s in self.spans],
            "end_us": [round((s[2] - base) * 1e6, 3) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "op": [s[4] for s in self.spans],
        }
