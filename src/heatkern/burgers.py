"""Nonautonomous Burgers-type equation via the Cole–Hopf linearization.

The nonlinear equation

    v_t + a (v v_x - v_xx) + (g - c x) v_x - c v + 2 (f - 2 b x) = 0

linearizes under v = -2 u_x / u into the diffusion-type master equation, so
its Cauchy problem is solved by one batched kernel quadrature that also
carries the x-derivative under the integral, so v is exact at any set of
points.  The classical v_t + v v_x = a v_xx is the
general equation for w = v / a, so it uses the same kernel, its validity
interval and its errors, rescaled.  Traveling-wave families are constructed
from the moving-frame reduction, whose profile ODE is integrated through an
equivalent linear second-order equation (poles of the profile appear as
zeros of its solution rather than as blow-up mid-integration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import _dop853
from .coefficients import CoefficientSet, structure
from .errors import (IntegrationError, QuadratureError, SingularityError,
                     check_range)
from .kernel import (GridField, HeatKernel, QuadSpec, _gk21, _kernel_rows,
                     _on_arrays, make_kernel, x_grid)
from ._differences import d1_uniform4, d2_uniform4, dt_central


class _DenseAntiderivative:
    """V(y) = int_0^y v(z) dz on [-W, W] from one dense ODE solution.

    One run over s in [0, W] carries (V(s), V(-s))' = (v(s), -v(-s)) from
    0, so it starts where the data is; a run across [-W, W] starts where v
    underflows to 0 and, for W beyond about 35, steps over a bump at 0.
    """

    def __init__(self, v: Callable[[float], float], half_width: float):
        self.v = v
        self.half_width = 0.0
        self.extend(half_width)

    def extend(self, half_width: float):
        if half_width <= self.half_width:
            return
        self._sol = _dop853.solve(lambda s, V: [self.v(s), -self.v(-s)],
                                  0.0, half_width, [0.0, 0.0], 1e-12, 1e-14,
                                  what="antiderivative").sol
        self.half_width = half_width

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        flat = check_range("y", y.ravel(), -self.half_width, self.half_width)
        right, left = self._sol(np.abs(flat))
        out = np.where(flat >= 0.0, right, left)
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)


@dataclass
class BurgersProblem:
    """A Burgers-type Cauchy problem at any finite, non-empty 1-D ``xs``.

    ``coeffs`` provides a, b, c, f, g (its d is ignored: the linearizing
    substitution leaves v unchanged under any x-independent zeroth-order
    term, so the kernel is built with d = 0).  ``classical`` (b = c = f = g
    = 0 and constant a, as :func:`~heatkern.coefficients.structure` samples
    them on [0, domain_end]) marks the classical
    v_t + v v_x = a v_xx, solved on the same kernel for w = v / a.
    ``v0_antiderivative`` may supply an analytic int_0^y v0; otherwise a
    dense numerical one is built on demand.
    """

    coeffs: CoefficientSet
    v0: Callable[[float], float]
    xs: np.ndarray
    v0_antiderivative: Optional[Callable[[float], float]] = None
    tol: float = 1e-10
    classical: bool = field(init=False)
    _kernel: Optional[HeatKernel] = field(default=None, repr=False)
    _v0_dense: Optional[_DenseAntiderivative] = field(default=None, repr=False)

    def __post_init__(self):
        self.xs = x_grid(self.xs)
        zero, constant = structure(self.coeffs, self.coeffs.domain_end)
        self.classical = {"b", "c", "f", "g"} <= zero and "a" in constant

    @property
    def scale(self) -> float:
        """v = scale * w with w = -2 u_x / u: a in the classical case, else 1."""
        return self.coeffs.a(0.0) if self.classical else 1.0

    def kernel(self) -> HeatKernel:
        if self._kernel is None:
            zero = lambda t: 0.0
            self._kernel = make_kernel(replace(self.coeffs, d=zero, dd=zero),
                                       tol=self.tol)
        return self._kernel

    def antiderivative(self, half_width: float) -> Callable[[float], float]:
        if self.v0_antiderivative is not None:
            return self.v0_antiderivative
        if self._v0_dense is None:
            self._v0_dense = _DenseAntiderivative(self.v0, half_width)
        else:
            self._v0_dense.extend(half_width)
        return self._v0_dense

    def v0_bound(self, half_width: float) -> float:
        """max |v0| on 513 points; IntegrationError where v0 is not finite."""
        ys = np.linspace(-half_width, half_width, 513)
        vals = np.abs(_on_arrays(self.v0)(ys))
        bad = ~np.isfinite(vals)
        if bad.any():
            raise IntegrationError(f"v0 is not finite at y = {ys[bad][0]:.6g}")
        return float(vals.max())


def cole_hopf(u: GridField) -> GridField:
    """v = -2 u_x / u with fourth-order differencing (one-sided at edges)."""
    if np.any(u.values <= 0.0):
        raise ValueError("Cole–Hopf transform requires strictly positive u")
    v = -2.0 * d1_uniform4(u.values, u.dx) / u.values
    return GridField(u.xs, u.ts, v)


def solve_burgers_ivp(prob: BurgersProblem, t,
                      quad_spec: QuadSpec = QuadSpec()) -> GridField:
    """Solve the Burgers-type Cauchy problem at time(s) ``t`` on ``prob.xs``.

    With w = K(x, y, t) exp(-s V0(y)), K = ``prob.kernel()`` and s = 1 / (2
    scale), v = -2 scale (2 alpha0 x + delta0 + beta0 E_x[y]), E_x[y] being
    the mean of y under w: one quadrature over every (t, x) integrates w and
    (y - mean) w / sigma about the kernel's Gaussian (mean, sigma) in y.  A
    t outside the kernel's validity interval (or NaN) raises DomainError.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    xs = prob.xs
    s = 0.5 / prob.scale
    half = float(np.max(np.abs(xs))) + 1.0
    x, _, a0, b0, g0, d0, e0, _, mean, sigma = _kernel_rows(prob.kernel(), xs, ts)
    q1 = b0 * x + e0    # the exponent of K in y is g0 y^2 + q1 y + (free of y)
    vb = np.repeat([prob.v0_bound(half + 16.0 * sd) for sd in sigma[::len(xs)]],
                   len(xs))
    width = s * vb * sigma * sigma + 12.0 * sigma   # + the tilted peak's shift

    # the antiderivative must cover every quadrature window
    needed = float(np.max(np.abs(mean) + width))
    V0 = _on_arrays(prob.antiderivative(needed * 1.05 + 1.0))

    def exponent(rows, y):
        return g0[rows, None] * y * y + q1[rows, None] * y - s * V0(y)

    probe = (mean - width)[:, None] + width[:, None] * np.linspace(0.0, 2.0, 33)
    shift = np.max(exponent(np.arange(len(x)), probe), axis=1)

    def tilted(r, y):
        w = np.exp(exponent(r, y) - shift[r, None])
        return np.stack((w, (y - mean[r, None]) / sigma[r, None] * w))

    m0, m1 = _gk21(tilted, mean - width, mean + width, mean, quad_spec)
    if np.any(m0 <= 0.0):
        raise QuadratureError("nonpositive inner integral")
    v = -2.0 * prob.scale * (2.0 * a0 * x + d0 + b0 * (mean + sigma * m1 / m0))
    return GridField(xs, ts, v.reshape(len(ts), len(xs)))


def burgers_residual(v: GridField, coeffs: CoefficientSet) -> GridField:
    """Residual of the Burgers-type equation on the interior time levels.

    Evaluates v_t + a (v v_x - v_xx) + (g - c x) v_x - c v + 2 (f - 2 b x)
    with second-order central time differencing and fourth-order space
    differencing; requires at least three stored levels.
    """
    if len(v.ts) < 3:
        raise ValueError("need at least 3 time levels for v_t")
    vt = dt_central(v.values, v.ts)
    xs = v.xs
    ts = v.ts[1:-1]
    w = v.values[1:-1]
    wx = d1_uniform4(w, v.dx)
    wxx = d2_uniform4(w, v.dx)
    a, b, c, f, g = (np.array([fn(t) for t in ts], dtype=float)[:, None]
                     for fn in (coeffs.a, coeffs.b, coeffs.c, coeffs.f, coeffs.g))
    res = (vt + a * (w * wx - wxx) + (g - c * xs) * wx
           - c * w + 2.0 * (f - 2.0 * b * xs))
    return GridField(xs, ts, res)


@dataclass(frozen=True)
class TravelingWaveSpec:
    """Constants of the moving-frame reduction plus the profile's anchor.

    The reduction fixes the profile F only up to its value at one point;
    ``F0`` anchors F at the left edge ``z_window[0]``.
    """

    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    beta0_init: float
    gamma0_init: float
    z_window: tuple
    F0: float

    def __post_init__(self):
        values = (self.c0, self.c1, self.c2, self.c3, self.c4, self.beta0_init,
                  self.gamma0_init, self.F0, *self.z_window)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("traveling-wave constants must be finite")
        if self.beta0_init == 0.0:
            raise ValueError("beta(0) must be nonzero")
        z0, z1 = self.z_window
        if not z1 > z0:
            raise ValueError("z_window must be an increasing pair")


class TravelingWave:
    """v(x, t) = beta(t) F(beta(t) x + gamma(t)) plus the induced coefficients."""

    def __init__(self, spec, a, c, T, frame_sol, mu_sol, poles):
        self.spec = spec
        self.a = a
        self.c = c
        self.T = float(T)
        self._frame = frame_sol
        self._mu = mu_sol
        self.poles = poles

    def beta(self, t: float) -> float:
        return float(self._frame(self._check_t(t))[0])

    def gamma(self, t: float) -> float:
        return float(self._frame(self._check_t(t))[1])

    def _check_t(self, t):
        return check_range("t", float(t), 0.0, self.T)

    def profile(self, z):
        """F(z) = -2 mu'(z) / mu(z); raises near the zeros of mu.

        ``z`` may be a float or a 1-D array; an array takes one dense-output
        call, and an error names the first offending z.
        """
        zs = np.asarray(z, dtype=float)
        mu, dmu = self._mu(check_range("z", zs, *self.spec.z_window))
        pole = np.abs(mu) < 1e-12 * np.maximum(1.0, np.abs(dmu))
        if pole.any():
            raise SingularityError(f"profile pole near z={zs[pole][0]:.6g}")
        F = -2.0 * dmu / mu
        return float(F) if F.ndim == 0 else F

    def __call__(self, x, t: float):
        """v(x, t) for a float or a 1-D array ``x``; one frame call per t."""
        b, g = self._frame(self._check_t(t))
        return b * self.profile(b * np.asarray(x, dtype=float) + g)

    def induced_g(self, t: float) -> float:
        return self.spec.c1 * self.a(t) * self.beta(t)

    def induced_b(self, t: float) -> float:
        return -0.5 * self.spec.c2 * self.a(t) * self.beta(t) ** 4

    def induced_f(self, t: float) -> float:
        b = self.beta(t)
        return 0.5 * self.a(t) * b ** 3 * (2.0 * self.spec.c2 * self.gamma(t)
                                           + self.spec.c3)

    def induced_coefficients(self) -> CoefficientSet:
        """Coefficient set (with d = 0) for which the wave is an exact solution.

        The wave knows a only as a callable, so the set has no a'.
        """
        zero = lambda t: 0.0
        return CoefficientSet(self.a, self.induced_b, self.c, zero,
                              self.induced_f, self.induced_g, self.T, dd=zero)


def traveling_wave(spec: TravelingWaveSpec, a: Callable[[float], float],
                   c: Callable[[float], float], T: float = 2.0,
                   tol: float = 1e-12) -> TravelingWave:
    """Construct a traveling-wave solution and the coefficients it induces.

    Integrates the frame equations beta' = c beta, gamma' = c0 a beta^2 on
    [0, T] and the profile's linear second-order equation

        mu'' = (c0 + c1) mu' - (c2 z^2 + c3 z + c4) mu / 2

    over the z-window with mu(z0) = 1, mu'(z0) = -F0/2, so that
    F = -2 mu'/mu matches the anchor; the zeros of mu, found as events of
    that integration, are reported as the profile's poles.
    """

    def frame_rhs(t, y):
        dy = [c(t) * y[0], spec.c0 * a(t) * y[0] ** 2]
        if not math.isfinite(sum(dy)):
            raise IntegrationError(f"frame equations are not finite at t = {t:.6g}")
        return dy

    frame = _dop853.solve(frame_rhs, 0.0, T,
                          [spec.beta0_init, spec.gamma0_init], tol, 1e-14,
                          what="frame")

    lam = spec.c0 + spec.c1
    z0, z1 = spec.z_window

    def mu_rhs(z, y):
        pot = 0.5 * (spec.c2 * z * z + spec.c3 * z + spec.c4)
        return [y[1], lam * y[1] - pot * y[0]]

    def pole(z, y):
        return y[0]

    mu = _dop853.solve(mu_rhs, z0, z1, [1.0, -spec.F0 / 2.0], tol, 1e-14,
                       events=[(pole, 0.0, False)], what="profile")
    return TravelingWave(spec, a, c, T, frame.sol, mu.sol, mu.t_events[0])


def integrate_profile_direct(spec: TravelingWaveSpec,
                             tol: float = 1e-12):
    """Profile F by direct integration of its first-order nonlinear ODE.

    Cross-check path for :func:`traveling_wave`; blows up at the profile's
    poles, which the linear route handles as zeros.
    """
    lam = spec.c0 + spec.c1
    z0, z1 = spec.z_window

    def rhs(z, y):
        F = y[0]
        return [lam * F + 0.5 * F * F
                + spec.c2 * z * z + spec.c3 * z + spec.c4]

    def escape(z, y):
        return abs(y[0]) - 1e10

    escape.terminal = True
    from scipy.integrate import solve_ivp   # the oracle's own integrator
    sol = solve_ivp(rhs, (z0, z1), [spec.F0], method="DOP853",
                    dense_output=True, rtol=tol, atol=1e-14, events=escape)
    if not sol.success and sol.status != 1:
        raise IntegrationError(f"direct profile integration failed: {sol.message}")
    z_end = sol.t[-1]

    def F(z):
        return float(sol.sol(check_range("z", float(z), z0, z_end))[0])

    F.z_end = z_end
    return F


def _log_cosh(s):
    s = np.abs(s)
    return s + np.log1p(np.exp(-2.0 * s)) - math.log(2.0)


class BatemanWave:
    """Constant-speed exact solutions of v_t + v v_x = a v_xx.

    ``sign="+"`` gives the tangent family (poles where the argument hits
    pi/2 + n pi); ``sign="-"`` gives the monotone kink, evaluated through
    tanh so large arguments cannot overflow.  The kink connects A - V on the
    far left to -A - V on the far right and travels at speed -V.
    """

    def __init__(self, A: float, V: float, a: float, c: float, sign: str):
        if not all(map(math.isfinite, (A, V, a, c))):
            raise ValueError(f"A, V, a and c must be finite, got {(A, V, a, c)}")
        if not A > 0.0:
            raise ValueError("A must be positive")
        if not a > 0.0:
            raise ValueError("a must be positive")
        if sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        self.A, self.V, self.a, self.c, self.sign = (float(A), float(V),
                                                     float(a), float(c), sign)

    def _theta(self, x, t):
        return self.A * (np.asarray(x, dtype=float) + self.V * t - self.c) \
            / (2.0 * self.a)

    def __call__(self, x, t: float):
        th = self._theta(x, t)
        if self.sign == "+":
            off = th - math.pi / 2.0
            dist = np.abs(off - math.pi * np.round(off / math.pi))
            if np.any(dist < 1e-6):
                raise SingularityError("evaluation too close to a tangent pole")
            val = -self.V + self.A * np.tan(th)
        else:
            val = -self.V - self.A * np.tanh(th)
        return float(val) if np.asarray(x).ndim == 0 else val

    def initial_profile(self):
        return lambda x: self(x, 0.0)

    def initial_antiderivative(self):
        """Analytic int_0^y v(z, 0) dz for the kink family."""
        if self.sign != "-":
            raise ValueError("analytic antiderivative available for the kink only")
        th0 = self._theta(0.0, 0.0)

        def V0(y):
            th = self._theta(y, 0.0)
            return -self.V * y - 2.0 * self.a * (_log_cosh(th) - _log_cosh(th0))

        return V0
