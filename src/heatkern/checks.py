"""The cross-validation suite behind the ``validate`` CLI command.

Every check pits one computation route against an independent one (closed
forms, direct ODE integration, finite differences, algebraic roundtrips,
hand-derived constants) at a fixed tolerance, and reports the measured
error.  The acceptance tests run these same functions, so the CLI table and
the test suite cannot drift apart.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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

_kernel_cache: dict = {}


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    seconds: float
    detail: str = ""


def _result(name, measured, tolerance, t0, detail=""):
    return CheckResult(name=name, measured=float(measured),
                       tolerance=float(tolerance),
                       passed=bool(measured <= tolerance),
                       seconds=time.perf_counter() - t0, detail=detail)


def builtin_profile(name: str, T: float = 2.5) -> CoefficientSet:
    kind, params = PROFILE_SPECS[name]
    return profile(kind, T=T, **params)


def pipeline_kernel(name: str, T: float = 2.5, tol: float = 1e-12) -> kn.HeatKernel:
    key = (name, T, tol)
    if key not in _kernel_cache:
        _kernel_cache[key] = kn.make_kernel(builtin_profile(name, T), tol=tol)
    return _kernel_cache[key]


def rel_err(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def mixed_err(a, b, switch=1e-6):
    """Relative error, falling back to absolute when both values are tiny."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > switch else abs(a - b)


# ---------------------------------------------------------------- criterion 1

def check_closed_form(name: str) -> CheckResult:
    """Pipeline kernel vs the closed form on {|x|,|y| <= 3} x {0.1,0.5,1,2}."""
    t0 = time.perf_counter()
    K = pipeline_kernel(name)
    ref = kn.closed_form(name, **PROFILE_SPECS[name][1])
    xs = np.linspace(-3.0, 3.0, 13)
    X, Y = np.meshgrid(xs, xs)
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        got = K.evaluate(X, Y, t)
        want = ref.evaluate(X, Y, t)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    return _result(f"closed-form/{name}", worst, 1e-8, t0)


# ---------------------------------------------------------------- criterion 2

def check_superposition(name: str, n_draws: int = 20) -> CheckResult:
    """Nonlinear superposition vs direct integration, 20 random initial data."""
    t0 = time.perf_counter()
    coeffs = builtin_profile(name)
    fund = pipeline_kernel(name).fund
    rng = np.random.default_rng(20240517)
    worst = 0.0
    for _ in range(n_draws):
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
    return _result(f"superposition-vs-direct/{name}", worst, 1e-6, t0)


# ---------------------------------------------------------------- criterion 3

def check_inversion_roundtrip() -> CheckResult:
    """Inverse map applied to the superposed solution recovers the fundamental."""
    t0 = time.perf_counter()
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
    return _result("inversion-roundtrip", worst, 1e-9, t0)


# ---------------------------------------------------------------- criterion 4

def _extrapolate(f, t1=1e-3, t2=1e-4):
    """Linear Richardson extrapolation of f(t) to t = 0."""
    return (t1 * f(t2) - t2 * f(t1)) / (t1 - t2)


def check_asymptotic_limits(name: str) -> CheckResult:
    """Extrapolated small-time limits of the fundamental coefficients."""
    t0 = time.perf_counter()
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
    return _result(f"asymptotic-limits/{name}", worst, 1e-4, t0)


def check_kernel_asymptotic(name: str) -> CheckResult:
    """Kernel / small-time-kernel ratio near 1 at t = 1e-3, |x - y| <= 0.5."""
    t0 = time.perf_counter()
    K = pipeline_kernel(name)
    Ka = kn.asymptotic_kernel(builtin_profile(name))
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 9):
        for dy in (0.0, 0.25, 0.5, -0.5):
            ratio = math.exp(K.log_evaluate(x, x - dy, 1e-3)
                             - Ka.log_evaluate(x, x - dy, 1e-3))
            worst = max(worst, abs(ratio - 1.0))
    return _result(f"kernel-asymptotic-ratio/{name}", worst, 1e-2, t0)


# ---------------------------------------------------------------- criterion 5

def check_ou_normalization() -> CheckResult:
    t0 = time.perf_counter()
    K = pipeline_kernel("ou-drift")
    worst = max(abs(kn.normalization(K, t, "y") - 1.0) for t in (0.3, 0.7, 1.5))
    return _result("ou-normalization", worst, 1e-8, t0)


def check_ou_mean() -> CheckResult:
    t0 = time.perf_counter()
    key = ("ou-mean-kernel",)
    if key not in _kernel_cache:
        _kernel_cache[key] = kn.make_kernel(profile("ou-drift", T=2.5, a=1.0,
                                                    k=1.0, g=0.0), tol=1e-12)
    K = _kernel_cache[key]
    ident = kn.InitialData.from_callable(lambda y: y)
    worst = 0.0
    for x, t in ((1.0, 0.5), (-0.7, 0.8), (2.0, 0.25)):
        got = kn.expectation(K, ident, x, t)
        want = x * math.exp(-t)
        worst = max(worst, abs(got - want) / abs(want))
    return _result("ou-mean", worst, 1e-6, t0)


def check_fp_longtime() -> CheckResult:
    """K(x, 0, 10) against the stationary density, pipeline and closed form."""
    t0 = time.perf_counter()
    key = ("fp-longtime-kernel",)
    if key not in _kernel_cache:
        _kernel_cache[key] = kn.make_kernel(profile("fokker-planck", T=10.5),
                                            tol=1e-12)
    K = _kernel_cache[key]
    ref = kn.closed_form("fokker-planck")
    xs = np.linspace(-3.0, 3.0, 25)
    stationary = np.exp(-xs ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    worst = float(np.max(np.abs(K.evaluate(xs, 0.0 * xs, 10.0) - stationary)))
    worst = max(worst, float(np.max(np.abs(ref.evaluate(xs, 0.0 * xs, 10.0)
                                           - stationary))))
    return _result("fp-longtime-limit", worst, 1e-8, t0)


def check_fp_normalization_x() -> CheckResult:
    t0 = time.perf_counter()
    K = pipeline_kernel("fokker-planck")
    worst = abs(kn.normalization(K, 0.5, "x") - 1.0)
    return _result("fp-normalization-x", worst, 1e-8, t0)


# ---------------------------------------------------------------- criterion 6

def check_chapman_kolmogorov(name: str) -> CheckResult:
    """Semigroup composition of the pipeline kernel at t = s = 0.3."""
    t0 = time.perf_counter()
    K = pipeline_kernel(name)
    spec = kn.QuadSpec(abs_tol=1e-13, rel_tol=1e-11)
    t = s = 0.3
    worst = 0.0
    for x, y in ((0.0, 0.0), (1.0, -0.5), (2.0, 1.0), (-1.5, 0.5)):
        ref = K.evaluate(x, y, t + s)
        val = kn._quad(lambda z: K.evaluate(x, z, t) * K.evaluate(z, y, s),
                       -25.0, 25.0, spec)
        worst = max(worst, abs(val - ref) / abs(ref))
    return _result(f"chapman-kolmogorov/{name}", worst, 1e-6, t0)


# ---------------------------------------------------------------- criterion 7

def check_cauchy_vs_fd(name: str) -> CheckResult:
    """Kernel-quadrature Cauchy solution vs Crank–Nicolson at t = 0.5."""
    t0 = time.perf_counter()
    coeffs = builtin_profile(name)
    K = pipeline_kernel(name)
    spec = oc.FDSpec(L=8.0, n=801, dt=1e-4)
    fd = oc.fd_diffusion(coeffs, lambda x: math.exp(-x * x), spec, 0.5)
    phi = kn.InitialData.gaussian()
    ivp = kn.solve_ivp(K, phi, fd.xs, 0.5)
    worst = float(np.max(np.abs(fd.values[1] - ivp.values[0])))
    return _result(f"cauchy-vs-fd/{name}", worst, 1e-3, t0)


def check_fd_richardson(name: str) -> CheckResult:
    """Order-2 convergence of the FD oracle (error ratio in [3, 5])."""
    t0 = time.perf_counter()
    coeffs = builtin_profile(name)
    K = pipeline_kernel(name)
    phi = kn.InitialData.gaussian()
    t_end = 0.25
    errors = []
    for n, dt in ((201, 8e-4), (401, 4e-4), (801, 2e-4)):
        fd = oc.fd_diffusion(coeffs, lambda x: math.exp(-x * x),
                             oc.FDSpec(L=8.0, n=n, dt=dt), t_end)
        stride = (n - 1) // 200
        xs = fd.xs[::stride]
        ref = kn.solve_ivp(K, phi, xs, t_end)
        errors.append(float(np.max(np.abs(fd.values[1][::stride] - ref.values[0]))))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    worst = max(abs(r - 4.0) for r in ratios)
    res = _result(f"fd-richardson/{name}", worst, 1.0, t0,
                  detail=f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
    return res


# ---------------------------------------------------------------- criterion 8

def check_burgers_bateman() -> CheckResult:
    """Cole–Hopf IVP route against the exact kink, a = 1 and a = 0.7."""
    t0 = time.perf_counter()
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
    return _result("burgers-bateman", worst, 1e-4, t0)


def check_burgers_vs_fd() -> CheckResult:
    """Cole–Hopf IVP route vs the semi-implicit FD oracle (classical + drifted)."""
    t0 = time.perf_counter()
    v0 = lambda x: 0.4 * math.exp(-x * x)
    t_end = 0.3
    worst = 0.0
    for name, dt in (("heat", 1e-3), ("fokker-planck", 4e-4)):
        coeffs = builtin_profile(name)
        fd = oc.fd_burgers(coeffs, v0, oc.FDSpec(L=8.0, n=1601, dt=dt), t_end)
        stride = 8
        xs = fd.xs[400:1201:stride]          # |x| <= 4
        prob = bg.BurgersProblem(coeffs, v0, xs)
        sol = bg.solve_burgers_ivp(prob, t_end)
        worst = max(worst, float(np.max(np.abs(sol.values[0]
                                               - fd.values[1][400:1201:stride]))))
    return _result("burgers-vs-fd", worst, 1e-3, t0)


def check_linearization_identity() -> CheckResult:
    """Burgers residual of -2 u_x/u equals -2 d/dx[(u_t - Qu)/u] numerically."""
    t0 = time.perf_counter()
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
    return _result("cole-hopf-identity", worst, 1e-4, t0)


# ---------------------------------------------------------------- criterion 9

def check_traveling_wave_residual() -> CheckResult:
    """Constructed waves satisfy the equation with their induced coefficients."""
    t0 = time.perf_counter()
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
    return _result("traveling-wave-residual", worst_ratio, 1e-6, t0)


def check_separable_profile() -> CheckResult:
    """The closed separable profile F = -2/(z - z0) is reproduced exactly."""
    t0 = time.perf_counter()
    spec = bg.TravelingWaveSpec(c0=1.0, c1=-1.0, c2=0.0, c3=0.0, c4=0.0,
                                beta0_init=1.0, gamma0_init=0.0,
                                z_window=(0.0, 3.0), F0=1.0)
    tw = bg.traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.0, T=1.0)
    z0 = spec.z_window[0] + 2.0 / spec.F0
    zs = np.linspace(0.0, 1.8, 25)
    worst = max(abs(tw.profile(z) + 2.0 / (z - z0)) for z in zs)
    return _result("separable-profile", worst, 1e-10, t0)


# --------------------------------------------------------------- criterion 10

def check_gamma0_dual() -> CheckResult:
    """mu1-based gamma0 vs its quadrature form wherever mu0' != 0."""
    t0 = time.perf_counter()
    worst = 0.0
    cases = [("fokker-planck", (0.3, 0.7, 1.5)), ("ou-drift", (0.3, 0.7, 1.5)),
             ("cable", (0.3, 0.6, 0.9))]   # cable: mu0' > 0 below tau/2 only
    for name, ts in cases:
        coeffs = builtin_profile(name)
        fund = pipeline_kernel(name).fund
        for t in ts:
            q = rc.gamma0_quadrature_form(fund, coeffs, t)
            worst = max(worst, rel_err(q, fund.gamma0(t)))
    return _result("gamma0-dual-form", worst, 1e-6, t0)


def check_sigma_dual() -> CheckResult:
    """Regularized sigma vs the form containing d'/d, with d away from zero."""
    t0 = time.perf_counter()
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
    return _result("sigma-dual-form", worst, 1e-12, t0)


# ------------------------------------------------------------------- registry

ALL_CHECKS: list[tuple] = []
for _name in PROFILE_SPECS:
    ALL_CHECKS.append((f"closed-form/{_name}",
                       lambda name=_name: check_closed_form(name)))
for _name in PROFILE_SPECS:
    ALL_CHECKS.append((f"superposition-vs-direct/{_name}",
                       lambda name=_name: check_superposition(name)))
ALL_CHECKS.append(("inversion-roundtrip", check_inversion_roundtrip))
for _name in PROFILE_SPECS:
    ALL_CHECKS.append((f"asymptotic-limits/{_name}",
                       lambda name=_name: check_asymptotic_limits(name)))
for _name in PROFILE_SPECS:
    ALL_CHECKS.append((f"kernel-asymptotic-ratio/{_name}",
                       lambda name=_name: check_kernel_asymptotic(name)))
ALL_CHECKS.extend([("ou-normalization", check_ou_normalization),
                   ("ou-mean", check_ou_mean),
                   ("fp-longtime-limit", check_fp_longtime),
                   ("fp-normalization-x", check_fp_normalization_x)])
for _name in PROFILE_SPECS:
    ALL_CHECKS.append((f"chapman-kolmogorov/{_name}",
                       lambda name=_name: check_chapman_kolmogorov(name)))
for _name in PROFILE_SPECS:
    ALL_CHECKS.append((f"cauchy-vs-fd/{_name}",
                       lambda name=_name: check_cauchy_vs_fd(name)))
for _name in PROFILE_SPECS:
    ALL_CHECKS.append((f"fd-richardson/{_name}",
                       lambda name=_name: check_fd_richardson(name)))
ALL_CHECKS.extend([("burgers-bateman", check_burgers_bateman),
                   ("burgers-vs-fd", check_burgers_vs_fd),
                   ("cole-hopf-identity", check_linearization_identity),
                   ("traveling-wave-residual", check_traveling_wave_residual),
                   ("separable-profile", check_separable_profile),
                   ("gamma0-dual-form", check_gamma0_dual),
                   ("sigma-dual-form", check_sigma_dual)])

CRITERIA = {
    1: ["closed-form/"],
    2: ["superposition-vs-direct/"],
    3: ["inversion-roundtrip"],
    4: ["asymptotic-limits/", "kernel-asymptotic-ratio/"],
    5: ["ou-normalization", "ou-mean", "fp-longtime-limit", "fp-normalization-x"],
    6: ["chapman-kolmogorov/"],
    7: ["cauchy-vs-fd/", "fd-richardson/"],
    8: ["burgers-bateman", "burgers-vs-fd", "cole-hopf-identity"],
    9: ["traveling-wave-residual", "separable-profile"],
    10: ["gamma0-dual-form", "sigma-dual-form"],
}


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the suite (optionally filtered by a name substring)."""
    return [fn() for name, fn in ALL_CHECKS if only is None or only in name]


def run_named(prefixes) -> list[CheckResult]:
    """Run only the checks whose names start with one of ``prefixes``."""
    return [fn() for name, fn in ALL_CHECKS
            if any(name.startswith(p) for p in prefixes)]


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
