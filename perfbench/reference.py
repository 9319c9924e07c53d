"""Independent references for every op, and the per-op correctness check.

References come from ROADMAP's oracle list, never from the path under test:

* closed-form kernels of the four built-in profiles, and closed-form
  Gaussian (and truncated-constant) convolutions of them;
* direct integration of the seven-function system (``integrate_direct``)
  plus ``invert`` for the seeded polynomial sets;
* the exact Bateman kink;
* the finite-difference Burgers oracle ``fd_burgers`` where nothing closed
  form exists.

Every comparison uses the tolerance ``validate`` applies to the same kind of
comparison (``TOLERANCES``).  None is tuned to the results.
"""

from __future__ import annotations

import math

import numpy as np

import heatkern
from heatkern.checks import mixed_err

import workloads

# kind of comparison -> (tolerance, the validate check it is taken from)
TOLERANCES = {
    "closed-form": (1e-8, "closed-form/<profile>"),
    "direct": (1e-6, "superposition-vs-direct/<profile>"),
    "quadrature": (1e-6, "ou-mean"),
    "bateman": (1e-4, "burgers-bateman"),
    "fd-burgers": (1e-3, "burgers-vs-fd"),
}

ERR_FLOOR = 1e-300
ERR_CEIL = 1e300
DIRECT_INIT = (1.0, -0.5, 1.0, 0.0, 0.0, 0.0, 0.0)
DIRECT_TOL = 1e-11          # as in the superposition-vs-direct check


def digits(err, tol) -> float:
    """log10(tol / err), with err clamped so the value stays finite."""
    err = float(err)
    err = min(max(err, ERR_FLOOR), ERR_CEIL) if math.isfinite(err) else ERR_CEIL
    return math.log10(tol / err)


# ------------------------------------------------------------ kernel exponents
# An exponent is (ln, alpha, beta, gamma, delta, eps, kappa) with
#   log K(x, y, t) = ln + alpha x^2 + beta x y + gamma y^2 + delta x + eps y + kappa.

def closed_form_exponent(spec, t):
    """Closed-form kernel of a built-in profile, as -(P x + Q y + R)^2 / D."""
    kind, p = spec["profile"], spec["params"]
    if kind == "constant-heat":
        a = p["a"]
        P, Q, R, D = 1.0, -1.0, 0.0, 4.0 * a * t
        ln = -0.5 * math.log(4.0 * math.pi * a * t)
    elif kind == "cable":
        lam, tau = p["lam"], p["tau"]
        P, Q, R, D = 1.0, -1.0, 0.0, 4.0 * lam * lam * t / tau
        ln = 0.5 * math.log(tau) + t / tau - 0.5 * math.log(4.0 * math.pi * lam * lam * t)
    elif kind == "fokker-planck":
        s = -math.expm1(-2.0 * t)
        P, Q, R, D = 1.0, -math.exp(-t), 0.0, 2.0 * s
        ln = -0.5 * math.log(2.0 * math.pi * s)
    elif kind == "ou-drift":
        a, k, g = p["a"], p["k"], p["g"]
        sh = math.sinh(k * t)
        P, Q = k * math.exp(-k * t / 2.0), -k * math.exp(k * t / 2.0)
        R, D = 2.0 * g * math.sinh(k * t / 2.0), 4.0 * a * k * sh
        ln = 0.5 * math.log(k) + k * t / 2.0 - 0.5 * math.log(4.0 * math.pi * a * sh)
    else:
        raise ValueError(f"no closed form for {kind!r}")
    return (ln, -P * P / D, -2.0 * P * Q / D, -Q * Q / D, -2.0 * P * R / D,
            -2.0 * Q * R / D, -R * R / D)


def direct_exponents(spec, ts):
    """Exponents at ``ts`` from a directly integrated general solution, inverted."""
    coeffs = heatkern.from_config(spec)
    traj = heatkern.integrate_direct(coeffs, DIRECT_INIT, max(ts), tol=DIRECT_TOL)
    out = []
    for t in ts:
        fv = heatkern.invert(traj.state(t))
        out.append((-0.5 * math.log(2.0 * math.pi * fv.mu0), fv.alpha0, fv.beta0,
                    fv.gamma0, fv.delta0, fv.eps0, fv.kappa0))
    return out


def exponents(spec, ts):
    """(exponents at ``ts``, comparison kind) for any coefficient spec."""
    if spec["profile"] == "custom":
        return direct_exponents(spec, ts), "direct"
    return [closed_form_exponent(spec, t) for t in ts], "closed-form"


def log_kernel(e, x, y):
    ln, al, be, ga, de, ep, ka = e
    return ln + al * x * x + be * x * y + ga * y * y + de * x + ep * y + ka


def gaussian_convolution(e, amp, center, width, xs):
    """int K(x, y) amp exp(-((y - center)/width)^2) dy in closed form."""
    ln, al, be, ga, de, ep, ka = e
    w2 = width * width
    G = ga - 1.0 / w2
    B = be * xs + ep + 2.0 * center / w2
    C = ln + al * xs * xs + de * xs + ka - center * center / w2
    return amp * np.exp(C + 0.5 * math.log(math.pi / -G) - B * B / (4.0 * G))


def _erf_diff(lo, hi):
    """erf(hi) - erf(lo) without cancellation in the tails."""
    if lo >= 0.0:
        return math.erfc(lo) - math.erfc(hi)
    if hi <= 0.0:
        return math.erfc(-hi) - math.erfc(-lo)
    return math.erf(hi) - math.erf(lo)


def box_convolution(e, L, xs):
    """int_{-L}^{L} K(x, y) dy in closed form."""
    ln, al, be, ga, de, ep, ka = e
    s = math.sqrt(-ga)
    out = np.empty(len(xs))
    for j, x in enumerate(xs):
        B = be * x + ep
        m = -B / (2.0 * ga)
        log_pre = ln + al * x * x + de * x + ka - B * B / (4.0 * ga)
        out[j] = (math.exp(log_pre) * math.sqrt(math.pi) / (2.0 * s)
                  * _erf_diff(s * (-L - m), s * (L - m)))
    return out


# -------------------------------------------------------------------- checks
def _sup_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _check_cli_kernel(op, out, inputs):
    lo, hi, n = op["grid"]
    xs = np.linspace(lo, hi, n)
    if out.shape != (n * n, 4) or not (
            np.array_equal(out[:, 0], np.repeat(xs, n))
            and np.array_equal(out[:, 1], np.tile(xs, n))
            and np.all(out[:, 2] == op["t"])):
        return math.inf, "closed-form"
    (e,), kind = exponents(op["coeffs"], [op["t"]])
    want = np.exp(log_kernel(e, out[:, 0], out[:, 1]))
    return float(np.max(np.abs(out[:, 3] - want) / np.abs(want))), kind


def _check_cli_riccati(op, out, inputs):
    ts = np.geomspace(op["tmin"], op["tmax"], op["points"])
    es, kind = exponents(op["coeffs"], ts)
    if out.shape != (len(ts), 7) or not np.array_equal(out[:, 0], ts):
        return math.inf, kind     # a time at or beyond T_valid cut the dump
    worst = 0.0
    for row, e in zip(out, es):
        for got, want in zip(row[1:], e[1:]):
            worst = max(worst, mixed_err(got, want))
    return worst, kind


def _check_solve(op, out, inputs):
    xs = np.linspace(*op["grid"])
    es, _ = exponents(inputs["kernels"][op["kernel"]], op["t"])
    phi = op["phi"]
    if phi["type"] == "gauss":
        want = [gaussian_convolution(e, phi["amp"], phi["center"], phi["width"], xs)
                for e in es]
    else:
        want = [box_convolution(e, phi["L"], xs) for e in es]
    want = np.array(want)
    if out.shape != want.shape:
        return math.inf, "quadrature"
    return _sup_rel(out, want), "quadrature"


def _check_expect(op, out, inputs):
    p = inputs["kernels"][op["kernel"]]["params"]
    k, t, x = p["k"], op["t"], op["x"]
    mean = x * math.exp(-k * t)
    want = mean if op["moment"] == 1 else \
        mean * mean - p["a"] / k * math.expm1(-2.0 * k * t)
    return abs(float(out) - want) / abs(want), "quadrature"


def _fd_dt(coeffs, v_max, t_end):
    """validate's FD step (4e-4), shortened where this set's advection needs it."""
    ts = np.linspace(0.0, t_end, 11)
    speed = max(abs(coeffs.a(s)) * 1.5 * v_max + abs(coeffs.g(s))
                + abs(coeffs.c(s)) * workloads.FD_L for s in ts)
    return min(4e-4, 0.4 * workloads.FD_DX / speed)


def fd_burgers_reference(coeffs, v0, v_max, t):
    """fd_burgers at validate's resolution and at half of it, Richardson-combined.

    The oracle's upwinded advection is first order, so its own error (several
    1e-4 at validate's resolution) would otherwise dominate the comparison;
    2 fine - coarse cancels that leading term on the shared nodes.
    """
    dt = _fd_dt(coeffs, v_max, t)
    n = workloads.FD_N
    coarse = heatkern.fd_burgers(coeffs, v0, heatkern.FDSpec(
        L=workloads.FD_L, n=n, dt=dt), t).values[1]
    fine = heatkern.fd_burgers(coeffs, v0, heatkern.FDSpec(
        L=workloads.FD_L, n=2 * n - 1, dt=dt / 2.0), t).values[1]
    return 2.0 * fine[::2] - coarse


def _check_burgers(op, out, inputs):
    prob = next(p for p in inputs["problems"] if p["name"] == op["problem"])
    xs = workloads.burgers_xs(prob["grid"])
    coeffs = heatkern.from_config(prob["coeffs"])
    v0 = prob["v0"]
    t = op["t"]
    if v0["type"] == "kink":
        wave = heatkern.BatemanWave(A=v0["A"], V=v0["V"], a=coeffs.a(0.0),
                                    c=v0["c"], sign="-")
        return _sup_rel(out[0], wave(xs, t)), "bateman"
    v0_fn = workloads.gaussian(v0["amp"], v0["center"], 1.0)
    # The constant-heat problem is the classical v_t + v v_x = a v_xx, while
    # fd_burgers solves v_t + a (v v_x - v_xx) = 0; a solution w of the
    # latter started from v0 / a gives the former as v = a w.
    scale = coeffs.a(0.0) if prob["coeffs"]["profile"] == "constant-heat" else 1.0
    ref = scale * fd_burgers_reference(coeffs, lambda x: v0_fn(x) / scale,
                                       v0["amp"], t)
    start, stride, n = prob["grid"]
    want = ref[start:start + stride * (n - 1) + 1:stride]
    return float(np.max(np.abs(out[0] - want))), "fd-burgers"


_CHECKS = {"cli-kernel": _check_cli_kernel, "cli-riccati": _check_cli_riccati,
           "solve": _check_solve, "expect": _check_expect,
           "burgers": _check_burgers}


def check(inputs, outputs) -> dict:
    """``{op id: {"err", "tol", "kind", "ok", "digits"}}`` for every output.

    ``outputs`` maps op ids to the arrays one pass produced; ops missing from
    it raised, and are failures without a reference.
    """
    results = {}
    for op in inputs["ops"]:
        out = outputs.get(op["id"])
        if out is None:
            continue
        if op["kind"] == "check":
            err, tol = float(out[0]), float(out[1])
            results[op["id"]] = {"err": err, "tol": tol, "kind": op["name"],
                                 "ok": bool(out[2]) and err <= tol,
                                 "digits": digits(err, tol)}
            continue
        err, kind = _CHECKS[op["kind"]](op, out, inputs)
        tol = TOLERANCES[kind][0]
        results[op["id"]] = {"err": err, "tol": tol, "kind": kind,
                             "ok": bool(err <= tol),      # NaN and inf fail
                             "digits": digits(err, tol)}
    return results
