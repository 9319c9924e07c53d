"""The cross-validation suite behind the ``validate`` CLI command.

Every check pits one computation route against an independent one (closed
forms, direct ODE integration, finite differences, algebraic roundtrips,
hand-derived constants) at a fixed tolerance, and reports the measured
error.  A check is one function under :func:`check`, which declares its
name, its acceptance criterion and its tolerance; the function returns
``(measured, detail)``.  The registry ``ALL_CHECKS`` and the table
``CRITERIA`` are built from these declarations, and one runner times every
call, so the CLI table and the acceptance tests cannot drift apart.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import burgers as bg
from . import kernel as kn
from . import oracle as oc
from . import riccati as rc
from .coefficients import CoefficientSet, profile, tau_sigma
from .errors import BlowUpError
from ._differences import d1_uniform4

PROFILE_SPECS = {
    "heat": ("constant-heat", {"a": 1.0}),
    "cable": ("cable", {"lam": 1.0, "tau": 2.0}),
    "fokker-planck": ("fokker-planck", {}),
    "ou-drift": ("ou-drift", {"a": 1.0, "k": 1.0, "g": 0.5}),
}


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    seconds: float
    detail: str = ""


# (name, zero-argument callable returning a CheckResult), in declaration order
ALL_CHECKS: list[tuple[str, Callable[[], CheckResult]]] = []
# criterion number -> the names of its checks
CRITERIA: dict[int, list[str]] = {}


def check(criterion: int, name: str, tolerance: float, per_profile: bool = False):
    """Register the decorated measure function as check ``name``.

    A per-profile check is registered as ``name/<profile>`` for every entry
    of ``PROFILE_SPECS`` and receives the profile name.  The check passes
    when the measured value is at most ``tolerance``.
    """
    def register(measure):
        variants = ([(f"{name}/{p}", (p,)) for p in PROFILE_SPECS]
                    if per_profile else [(name, ())])
        for full, args in variants:
            ALL_CHECKS.append((full, functools.partial(_run, full, tolerance,
                                                       measure, *args)))
            CRITERIA.setdefault(criterion, []).append(full)
        return measure

    return register


def _run(name, tolerance, measure, *args) -> CheckResult:
    t0 = time.perf_counter()
    measured, detail = measure(*args)
    return CheckResult(name=name, measured=float(measured),
                       tolerance=float(tolerance),
                       passed=bool(measured <= tolerance),
                       seconds=time.perf_counter() - t0, detail=detail)


_kernel_cache: dict = {}


def _kernel(kind: str, T: float = 2.5, **params) -> kn.HeatKernel:
    """make_kernel(profile(kind, T, **params)) at tol 1e-12, built once."""
    key = (kind, T, *sorted(params.items()))
    if key not in _kernel_cache:
        _kernel_cache[key] = kn.make_kernel(profile(kind, T=T, **params),
                                            tol=1e-12)
    return _kernel_cache[key]


def builtin_profile(name: str) -> CoefficientSet:
    kind, params = PROFILE_SPECS[name]
    return profile(kind, T=2.5, **params)


def pipeline_kernel(name: str) -> kn.HeatKernel:
    kind, params = PROFILE_SPECS[name]
    return _kernel(kind, **params)


def rel_err(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def mixed_err(a, b, switch=1e-6):
    """Relative error, falling back to absolute when both values are tiny."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > switch else abs(a - b)


@check(1, "closed-form", 1e-8, per_profile=True)
def check_closed_form(name: str):
    """Pipeline kernel vs the closed form on {|x|,|y| <= 3} x {0.1,0.5,1,2}."""
    K = pipeline_kernel(name)
    ref = kn.closed_form(name, **PROFILE_SPECS[name][1])
    xs = np.linspace(-3.0, 3.0, 13)
    X, Y = np.meshgrid(xs, xs)
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        got = K.evaluate(X, Y, t)
        want = ref.evaluate(X, Y, t)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    return worst, ""


@check(2, "superposition-vs-direct", 1e-6, per_profile=True)
def check_superposition(name: str):
    """Nonlinear superposition vs direct integration, 20 random initial data."""
    coeffs = builtin_profile(name)
    fund = pipeline_kernel(name).fund
    rng = np.random.default_rng(20240517)
    worst = 0.0
    for _ in range(20):
        init = np.array([
            rng.uniform(0.4, 2.0),       # mu(0) > 0
            rng.uniform(-1.0, 0.2),      # alpha(0), capped to avoid blow-up
            rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0]),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
        ])
        horizon = 0.5
        for _attempt in range(3):
            try:
                direct = rc.integrate_direct(coeffs, init, horizon, tol=1e-11).final
                break
            except BlowUpError as exc:
                horizon = 0.8 * exc.t_blowup
        merged = rc.superpose(fund, init, horizon)
        for field in ("mu", "alpha", "beta", "gamma", "delta", "eps", "kappa"):
            worst = max(worst, rel_err(getattr(direct, field),
                                       getattr(merged, field), floor=1e-12))
    return worst, ""


@check(3, "inversion-roundtrip", 1e-9)
def check_inversion_roundtrip():
    """Inverse map applied to the superposed solution recovers the fundamental."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in ("fokker-planck", "ou-drift"):
        fund = pipeline_kernel(name).fund
        for _ in range(10):
            init = (rng.uniform(0.4, 2.0), rng.uniform(-1.0, 0.2),
                    rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0))
            t = rng.uniform(0.2, 1.2)
            recovered = rc.invert(rc.superpose(fund, init, t))
            reference = fund.values(t)
            for got, want in zip(recovered, reference):
                worst = max(worst, mixed_err(got, want))
    return worst, ""


def _extrapolate(f, t1=1e-3, t2=1e-4):
    """Linear Richardson extrapolation of f(t) to t = 0."""
    return (t1 * f(t2) - t2 * f(t1)) / (t1 - t2)


@check(4, "asymptotic-limits", 1e-4, per_profile=True)
def check_asymptotic_limits(name: str):
    """Extrapolated small-time limits of the fundamental coefficients."""
    coeffs = builtin_profile(name)
    fund = pipeline_kernel(name).fund
    a0 = coeffs.a(0.0)
    g0 = coeffs.g(0.0)
    targets = {
        "t*alpha0": (lambda t: t * fund.alpha0(t), -1.0 / (4.0 * a0)),
        "t*beta0": (lambda t: t * fund.beta0(t), 1.0 / (2.0 * a0)),
        "t*gamma0": (lambda t: t * fund.gamma0(t), -1.0 / (4.0 * a0)),
        "delta0": (fund.delta0, g0 / (2.0 * a0)),
        "eps0": (fund.eps0, -g0 / (2.0 * a0)),
    }
    worst = 0.0
    for f, want in targets.values():
        got = _extrapolate(f)
        if abs(want) < 1e-12:
            worst = max(worst, abs(got))  # zero targets: absolute
        else:
            worst = max(worst, abs(got - want) / abs(want))
    return worst, ""


@check(4, "kernel-asymptotic-ratio", 1e-2, per_profile=True)
def check_kernel_asymptotic(name: str):
    """Kernel / small-time-kernel ratio near 1 at t = 1e-3, |x - y| <= 0.5."""
    K = pipeline_kernel(name)
    Ka = kn.asymptotic_kernel(builtin_profile(name))
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 9):
        for dy in (0.0, 0.25, 0.5, -0.5):
            ratio = math.exp(K.log_evaluate(x, x - dy, 1e-3)
                             - Ka.log_evaluate(x, x - dy, 1e-3))
            worst = max(worst, abs(ratio - 1.0))
    return worst, ""


@check(5, "ou-normalization", 1e-8)
def check_ou_normalization():
    K = pipeline_kernel("ou-drift")
    worst = max(abs(kn.normalization(K, t, "y") - 1.0) for t in (0.3, 0.7, 1.5))
    return worst, ""


@check(5, "ou-mean", 1e-6)
def check_ou_mean():
    K = _kernel("ou-drift", a=1.0, k=1.0, g=0.0)
    ident = kn.InitialData.from_callable(lambda y: y)
    worst = 0.0
    for x, t in ((1.0, 0.5), (-0.7, 0.8), (2.0, 0.25)):
        got = kn.expectation(K, ident, x, t)
        want = x * math.exp(-t)
        worst = max(worst, abs(got - want) / abs(want))
    return worst, ""


@check(5, "fp-longtime-limit", 1e-8)
def check_fp_longtime():
    """K(x, 0, 10) against the stationary density, pipeline and closed form."""
    K = _kernel("fokker-planck", T=10.5)
    ref = kn.closed_form("fokker-planck")
    xs = np.linspace(-3.0, 3.0, 25)
    stationary = np.exp(-xs ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    worst = float(np.max(np.abs(K.evaluate(xs, 0.0 * xs, 10.0) - stationary)))
    worst = max(worst, float(np.max(np.abs(ref.evaluate(xs, 0.0 * xs, 10.0)
                                           - stationary))))
    return worst, ""


@check(5, "fp-normalization-x", 1e-8)
def check_fp_normalization_x():
    K = pipeline_kernel("fokker-planck")
    worst = abs(kn.normalization(K, 0.5, "x") - 1.0)
    return worst, ""


@check(6, "chapman-kolmogorov", 1e-6, per_profile=True)
def check_chapman_kolmogorov(name: str):
    """Semigroup composition of the pipeline kernel at t = s = 0.3."""
    K = pipeline_kernel(name)
    spec = kn.QuadSpec(abs_tol=1e-13, rel_tol=1e-11)
    t = s = 0.3
    worst = 0.0
    for x, y in ((0.0, 0.0), (1.0, -0.5), (2.0, 1.0), (-1.5, 0.5)):
        ref = K.evaluate(x, y, t + s)
        val = kn._quad(lambda z: K.evaluate(x, z, t) * K.evaluate(z, y, s),
                       -25.0, 25.0, spec)
        worst = max(worst, abs(val - ref) / abs(ref))
    return worst, ""


@functools.cache
def _fd_errors(name: str) -> tuple[np.ndarray, ...]:
    """Crank–Nicolson minus the Cauchy solution of e^{-x²} at t = 0.25.

    One FD run at each of (n, dt) = (201, 8e-4), (401, 4e-4), (801, 2e-4) on
    [-8, 8], each compared with one ``solve_ivp`` on the 201 nodes the three
    grids share.  At t = 0.25 the exact edge value is below 6e-10, so the
    oracle's pinned edge u(±8) = φ(±8) is no error worth excluding.
    """
    coeffs = builtin_profile(name)
    runs = [oc.fd_diffusion(coeffs, lambda x: math.exp(-x * x),
                            oc.FDSpec(L=8.0, n=n, dt=dt), 0.25)
            for n, dt in ((201, 8e-4), (401, 4e-4), (801, 2e-4))]
    ref = kn.solve_ivp(pipeline_kernel(name), kn.InitialData.gaussian(),
                       runs[0].xs, 0.25).values[0]
    return tuple(fd.values[1][::(len(fd.xs) - 1) // 200] - ref for fd in runs)


@check(7, "cauchy-vs-fd", 1e-3, per_profile=True)
def check_cauchy_vs_fd(name: str):
    """Cauchy solution vs the Richardson combination (4u_h - u_2h)/3 of the
    two finest Crank–Nicolson runs at t = 0.25."""
    _, e_2h, e_h = _fd_errors(name)
    return float(np.max(np.abs(4.0 * e_h - e_2h))) / 3.0, ""


@check(7, "fd-richardson", 1.0, per_profile=True)
def check_fd_richardson(name: str):
    """Order-2 convergence of the FD oracle (error ratio in [3, 5]) on the
    runs that ``cauchy-vs-fd`` uses."""
    errors = [float(np.max(np.abs(e))) for e in _fd_errors(name)]
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    worst = max(abs(r - 4.0) for r in ratios)
    return worst, f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}"


@check(8, "burgers-bateman", 1e-4)
def check_burgers_bateman():
    """Cole–Hopf IVP route against the exact kink, a = 1 and a = 0.7."""
    worst = 0.0
    for a_visc, A, V, c in ((1.0, 1.0, 0.3, 0.0), (0.7, 0.8, 0.2, 0.5)):
        coeffs = profile("constant-heat", a=a_visc)
        kink = bg.BatemanWave(A=A, V=V, a=a_visc, c=c, sign="-")
        xs = np.linspace(-4.0, 4.0, 201)
        prob = bg.BurgersProblem(coeffs, kink.initial_profile(), xs,
                                 v0_antiderivative=kink.initial_antiderivative())
        sol = bg.solve_burgers_ivp(prob, 0.5)
        ref = np.array([kink(x, 0.5) for x in xs])
        worst = max(worst, float(np.max(np.abs(sol.values[0] - ref))
                                 / np.max(np.abs(ref))))
    return worst, ""


@check(8, "burgers-vs-fd", 1e-3)
def check_burgers_vs_fd():
    """Cole–Hopf IVP route vs the Richardson combination 2v_h - v_2h of two
    runs of the first-order FD oracle, (n, dt) = (801, 2 dt0) and
    (401, 4 dt0), on |x| <= 4 (classical heat and drifted Fokker–Planck)."""
    v0 = lambda x: 0.4 * math.exp(-x * x)
    t_end = 0.3
    worst = 0.0
    for name, dt0 in (("heat", 1e-3), ("fokker-planck", 4e-4)):
        coeffs = builtin_profile(name)
        v_h, v_2h = (oc.fd_burgers(coeffs, v0, oc.FDSpec(L=8.0, n=n, dt=k * dt0),
                                   t_end) for n, k in ((801, 2), (401, 4)))
        xs = v_h.xs[200:601:4]               # |x| <= 4, spacing 0.08
        ref = 2.0 * v_h.values[1][200:601:4] - v_2h.values[1][100:301:2]
        sol = bg.solve_burgers_ivp(bg.BurgersProblem(coeffs, v0, xs), t_end)
        worst = max(worst, float(np.max(np.abs(sol.values[0] - ref))))
    return worst, ""


@check(8, "cole-hopf-identity", 1e-4)
def check_linearization_identity():
    """Burgers residual of -2 u_x/u equals -2 d/dx[(u_t - Qu)/u] numerically."""
    coeffs = profile("custom", T=1.0, poly={
        "a": [0.8], "b": [0.05], "c": [0.3], "d": [0.4], "f": [-0.2], "g": [0.1]})
    rng = np.random.default_rng(11)
    xs = np.linspace(-2.0, 2.0, 401)
    ts = np.array([0.399, 0.4, 0.401])
    worst = 0.0
    for _ in range(3):
        w1, w2, w3 = rng.uniform(0.5, 1.5, 3)
        p1, p2 = rng.uniform(-1.0, 1.0, 2)

        def logu(x, t):
            return (0.4 * np.sin(w1 * x + p1) + 0.3 * np.cos(w2 * x) * t
                    + 0.2 * np.sin(w3 * x + p2) * t * t)

        u_vals = np.exp(np.array([logu(xs, t) for t in ts]))
        u_field = kn.GridField(xs, ts, u_vals)
        lhs = bg.burgers_residual(bg.cole_hopf(u_field), coeffs)
        heat_res = kn.diffusion_residual(u_field, coeffs)
        rhs = -2.0 * d1_uniform4(heat_res.values[0] / u_vals[1], u_field.dx)
        # interior columns: the edge rows compose one-sided stencils differently
        worst = max(worst, float(np.max(np.abs(lhs.values[0] - rhs)[5:-5])))
    return worst, ""


@check(9, "traveling-wave-residual", 1e-6)
def check_traveling_wave_residual():
    """Constructed waves satisfy the equation with their induced coefficients."""
    worst_ratio = 0.0
    cases = [
        (bg.TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                              beta0_init=1.0, gamma0_init=0.0,
                              z_window=(-2.0, 4.0), F0=-0.5),
         lambda t: 1.0, lambda t: 0.0, np.linspace(-1.5, 1.5, 301)),
        (bg.TravelingWaveSpec(c0=0.3, c1=0.2, c2=0.1, c3=-0.2, c4=0.1,
                              beta0_init=1.0, gamma0_init=0.0,
                              z_window=(-2.0, 1.0), F0=-0.3),
         lambda t: 1.0, lambda t: 0.1, np.linspace(-1.6, 0.2, 301)),
    ]
    for spec, a, c, xw in cases:
        tw = bg.traveling_wave(spec, a, c, T=1.0)
        ts = np.array([0.3 - 0.001, 0.3, 0.3 + 0.001])
        vals = np.array([tw(xw, t) for t in ts])
        res = bg.burgers_residual(kn.GridField(xw, ts, vals),
                                  tw.induced_coefficients())
        scale = float(np.max(np.abs(vals)))
        # skip the edge rows: their one-sided stencils dominate the residual
        interior = float(np.max(np.abs(res.values[0][5:-5])))
        worst_ratio = max(worst_ratio, interior / scale)
    return worst_ratio, ""


@check(9, "separable-profile", 1e-10)
def check_separable_profile():
    """The closed separable profile F = -2/(z - z0) is reproduced exactly."""
    spec = bg.TravelingWaveSpec(c0=1.0, c1=-1.0, c2=0.0, c3=0.0, c4=0.0,
                                beta0_init=1.0, gamma0_init=0.0,
                                z_window=(0.0, 3.0), F0=1.0)
    tw = bg.traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.0, T=1.0)
    z0 = spec.z_window[0] + 2.0 / spec.F0
    zs = np.linspace(0.0, 1.8, 25)
    worst = max(abs(tw.profile(z) + 2.0 / (z - z0)) for z in zs)
    return worst, ""


@check(10, "gamma0-dual-form", 1e-6)
def check_gamma0_dual():
    """mu1-based gamma0 vs its quadrature form wherever mu0' != 0."""
    worst = 0.0
    cases = [("fokker-planck", (0.3, 0.7, 1.5)), ("ou-drift", (0.3, 0.7, 1.5)),
             ("cable", (0.3, 0.6, 0.9))]   # cable: mu0' > 0 below tau/2 only
    for name, ts in cases:
        fund = pipeline_kernel(name).fund
        for t in ts:
            q = rc.gamma0_quadrature_form(fund, t)
            worst = max(worst, rel_err(q, fund.gamma0(t)))
    return worst, ""


@check(10, "sigma-dual-form", 1e-12)
def check_sigma_dual():
    """Regularized sigma vs the form containing d'/d, with d away from zero."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        poly = {nm: list(rng.uniform(-2.0, 2.0, 3)) for nm in ("b", "c", "f", "g")}
        poly["a"] = [rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                     rng.uniform(-0.2, 0.2)]
        poly["d"] = [rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                     rng.uniform(-0.2, 0.2)]
        coeffs = profile("custom", T=1.0, poly=poly)
        for t in rng.uniform(0.0, 1.0, 5):
            _, sig = tau_sigma(coeffs, t)
            a, d = coeffs.a(t), coeffs.d(t)
            printed = (a * coeffs.b(t) + coeffs.c(t) * d - d * d
                       + d / 2.0 * (coeffs.da(t) / a - coeffs.dd(t) / d))
            worst = max(worst, rel_err(sig, printed))
    return worst, ""


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the suite (optionally filtered by a name substring)."""
    return [fn() for name, fn in ALL_CHECKS if only is None or only in name]


def format_table(results) -> str:
    width = max(len(r.name) for r in results) + 2
    lines = [f"{'check':<{width}}{'measured':>12}  {'tolerance':>10}  "
             f"{'time':>8}  status"]
    lines.append("-" * (width + 45))
    for r in results:
        status = "pass" if r.passed else "FAIL"
        extra = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{r.name:<{width}}{r.measured:>12.3e}  "
                     f"{r.tolerance:>10.1e}  {1e3 * r.seconds:>6.1f}ms  {status}{extra}")
    n_fail = sum(not r.passed for r in results)
    total = sum(r.seconds for r in results)
    lines.append("-" * (width + 45))
    lines.append(f"{len(results)} checks, {n_fail} failures, {total:.1f}s total")
    return "\n".join(lines)
