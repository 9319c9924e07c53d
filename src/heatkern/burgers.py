"""Nonautonomous Burgers-type equation via the Cole–Hopf linearization.

The nonlinear equation

    v_t + a (v v_x - v_xx) + (g - c x) v_x - c v + 2 (f - 2 b x) = 0

linearizes under v = -2 u_x / u into the diffusion-type master equation, so
its Cauchy problem is solved by one batched kernel quadrature that also
carries the x-derivative under the integral, so v is exact at any set of
points.  The classical v_t + v v_x = a v_xx is the
general equation for w = v / a, so it uses the same kernel, its validity
interval and its errors, rescaled.  Traveling-wave families are constructed
from the moving-frame reduction: its frame functions are quadratures, and
its profile ODE is solved through an equivalent linear second-order
equation, so poles of the profile appear as zeros of its solution rather
than as blow-up mid-integration.  The numerical antiderivative of v0, the
frame and the profile all run on the Legendre panels of
:mod:`heatkern._panels`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import _panels
from ._panels import _MIN_WIDTH, NODES, RULES, rule_nodes
from .coefficients import CoefficientSet, on_arrays
from .errors import (IntegrationError, QuadratureError, SingularityError,
                     check_range)
from .kernel import (GridField, HeatKernel, QuadSpec, _gk21, _kernel_rows,
                     make_kernel, t_levels, x_grid)
from ._differences import d1_uniform4, d2_uniform4, dt_central


# The numerical V0's panels start as the cells of one lattice fixed at 0:
# unit cells out to |y| = _UNIT_CELLS, then eight cells to each octave
# [2^j, 2^(j+1)], so that the window of 4e9 a strong drift can need at large
# t takes 248 cells a side, and v0 is sampled at most an eighth past |y| = W.
_UNIT_CELLS = 32.0
_ABS_TOL = 1e-14        # a panel's |K21 - G10| may be this times its width,
_REL_TOL = 1e-12        # or this times its integral of |v|
_MAX_PANELS = 1 << 14


class _DenseAntiderivative:
    """V(y) = int_0^y v(z) dz on [-W, W] from adaptive G10/K21 panels.

    Each pass calls v once, on the 21 Kronrod nodes of every live panel, and
    bisects each panel whose |K21 - G10| exceeds max(_ABS_TOL width,
    _REL_TOL int |v|).  A panel keeps V at its left edge a and the Legendre
    series g of the mean over [a, y] of the degree-20 interpolant of v, so
    V(y) = V(a) + (y - a) g is read from one :class:`_panels.Dense`, whose
    float path gives the array path's bits.  The panels fill whole lattice
    cells, so v is sampled out to the first lattice point at or past W,
    which is below max(W + 1, 1.125 W): v must be finite there, not only on
    [-W, W].  V accumulates outward from 0 and each panel is refined on its
    own, so :meth:`extend` only adds panels: V on the old window keeps its
    last bit, and no value depends on which windows were asked for first.
    A panel narrower than _MIN_WIDTH max(1, |y|), such as one holding a jump of v,
    is accepted when |K21 - G10| is at most _REL_TOL times the int |v| of
    the lattice cell it came from.  One that is not (a non-integrable v), a
    value of v that is not finite, or more than _MAX_PANELS panels raise
    :class:`IntegrationError` naming the y where refinement stopped.

    A cell is only refined where its first nodes see v, so a feature of v
    narrower than the spacing of those nodes, about a hundredth of a cell,
    can be missed whole.  ``knots`` (sorted, finite) split every cell that
    holds one, in the first window and in every :meth:`extend`; knots at
    such a feature and a few of its widths to each side make it seen.
    """

    def __init__(self, v: Callable[[float], float], half_width: float,
                 knots=None):
        self._v = on_arrays(v)
        self._knots = _knot_array(knots)
        self.half_width = 0.0
        self._edge = 0.0           # the lattice point the panels reach
        self._ends = [0.0, 0.0]    # V(-edge), V(edge)
        self._a = self._b = self._V = np.empty(0)
        self._coef = np.empty((0, len(NODES), 1))
        self.extend(half_width)

    def extend(self, half_width: float):
        if half_width <= self.half_width:
            return
        if not math.isfinite(half_width):
            raise IntegrationError(f"V0 window half-width {half_width} is not finite")
        edges = [self._edge]
        while edges[-1] < half_width:
            e = edges[-1]
            edges.append(e + 1.0 if e < _UNIT_CELLS
                         else e + 2.0 ** (math.frexp(e)[1] - 4))
        if len(edges) > 1:   # else the panels reach far enough already
            self._add(np.array(edges))
        self.half_width = half_width

    def _add(self, edges):
        """Panels on the cells between the lattice points ``edges`` and
        their mirror images, split at the knots they hold, joined to the
        panels there are."""
        left = right = edges
        if self._knots is not None:
            k = self._knots
            right = np.union1d(edges, k[(k > edges[0]) & (k < edges[-1])])
            left = np.union1d(edges, -k[(-k > edges[0]) & (-k < edges[-1])])
        a, b, k21, coef = self._panels(np.concatenate((-left[:0:-1], right[:-1])),
                                       np.concatenate((-left[-2::-1], right[1:])))
        left, right = b <= 0.0, a >= 0.0
        # V runs outward from V(-edge) and V(edge), one panel at a time
        run_left = np.cumsum(np.concatenate(([self._ends[0]], -k21[left][::-1])))
        run_right = np.cumsum(np.concatenate(([self._ends[1]], k21[right])))
        self._ends = [run_left[-1], run_right[-1]]
        self._V = np.concatenate((run_left[:0:-1], self._V, run_right[:-1]))
        self._a, self._b, self._coef = (
            np.concatenate((new[left], old, new[right]))
            for new, old in ((a, self._a), (b, self._b), (coef, self._coef)))
        self._edge = float(edges[-1])
        self._dense = _panels.Dense(self._a, self._b, self._V[:, None],
                                    self._coef, [len(NODES)])

    def _panels(self, a, b):
        """Bisect the cells [a, b] until every panel meets the tolerance;
        (left edges, right edges, K21 integrals, (n, 21, 1) coefficients of
        the mean of v)."""
        done = []
        cell = None   # the int |v| of the cell each panel came from
        while len(a):
            mh, y = rule_nodes(np.stack((a, b), axis=1))
            mid, half = mh.T
            f = self._v(y)
            with np.errstate(over="ignore", invalid="ignore"):
                k21, err = half * (f @ RULES).T
            finite = np.isfinite(k21)    # K21 weights are all positive
            if not finite.all():
                bad = ~np.isfinite(f)    # else a sum of finite values overflowed
                at = y[bad][0] if bad.any() else mid[~finite][0]
                raise IntegrationError(f"v0 is not finite at y = {at:.6g}")
            err = np.abs(err)
            absint = half * (np.abs(f) @ RULES[:, 0])
            cell = absint if cell is None else cell
            narrow = b - a < _MIN_WIDTH * np.maximum(1.0, np.abs(mid))
            ok = (err <= np.maximum(_ABS_TOL * (b - a), _REL_TOL * absint)) \
                | narrow & (err <= _REL_TOL * cell)
            if (narrow & ~ok).any():
                worst = mid[np.argmax(np.where(narrow & ~ok, err, -1.0))]
                raise IntegrationError(f"V0 refinement stopped at y = "
                                       f"{worst:.6g}: v0 is not integrable "
                                       f"there to tolerance")
            done.append((a[ok], b[ok], k21[ok], f[ok]))
            a, b, mid, cell, err = a[~ok], b[~ok], mid[~ok], cell[~ok], err[~ok]
            if sum(len(d[0]) for d in done) + 2 * len(a) > _MAX_PANELS:
                raise IntegrationError(f"V0 needs more than {_MAX_PANELS} "
                                       f"panels; refinement stopped at y = "
                                       f"{mid[np.argmax(err)]:.6g}")
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
            cell = np.concatenate((cell, cell))
        a, b, k21, f = (np.concatenate(d) for d in zip(*done))
        order = np.argsort(a)
        return (a[order], b[order], k21[order],
                _panels.mean_series(f[order, :, None]))

    def __call__(self, y):
        W = self.half_width
        if np.ndim(y) == 0:
            return self._dense.state(0, check_range("y", float(y), -W, W))
        return self._dense(check_range("y", np.asarray(y, dtype=float), -W, W))[0]


def _knot_array(knots) -> Optional[np.ndarray]:
    """``knots`` as a sorted array without repeats, or None; ValueError
    unless they are a finite 1-D sequence."""
    if knots is None:
        return None
    k = np.asarray(knots, dtype=float)
    if k.ndim != 1 or not np.all(np.isfinite(k)):
        raise ValueError("knots must be a finite 1-D array")
    return np.unique(k)


@dataclass
class BurgersProblem:
    """A Burgers-type Cauchy problem at any finite, non-empty 1-D ``xs``.

    ``coeffs`` provides a, b, c, f, g (its d is ignored: the linearizing
    substitution leaves v unchanged under any x-independent zeroth-order
    term, so the kernel is built with d = 0).  ``classical`` (b = c = f = g
    = 0 and a constant at the nodes of the kernel's characteristic solve,
    which reading it builds) marks the classical v_t + v v_x = a v_xx,
    solved on the same kernel for w = v / a.
    ``v0_antiderivative`` may supply an analytic int_0^y v0; otherwise a
    dense numerical one is built on demand.  Its panels start on unit cells
    and are refined where their nodes see v0, so a feature of v0 narrower
    than about a hundredth of a cell needs ``knots``: points, such as the
    feature's center and a few of its widths to each side, that split the
    cells holding them and that :meth:`v0_bound` samples as well.
    """

    coeffs: CoefficientSet
    v0: Callable[[float], float]
    xs: np.ndarray
    v0_antiderivative: Optional[Callable[[float], float]] = None
    tol: float = 1e-10
    knots: Optional[np.ndarray] = None
    _kernel: Optional[HeatKernel] = field(default=None, init=False, repr=False)
    _v0_dense: Optional[_DenseAntiderivative] = field(default=None, init=False,
                                                      repr=False)

    def __post_init__(self):
        self.xs = x_grid(self.xs)
        self.knots = _knot_array(self.knots)

    @functools.cached_property
    def classical(self) -> bool:
        zero, constant = self.kernel().fund.chs.structure(math.inf)
        return {"b", "c", "f", "g"} <= zero and "a" in constant

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
            self._v0_dense = _DenseAntiderivative(self.v0, half_width,
                                                  self.knots)
        else:
            self._v0_dense.extend(half_width)
        return self._v0_dense

    def v0_bound(self, half_width: float) -> float:
        """max |v0| on 513 points and the knots in [-half_width, half_width];
        IntegrationError where v0 is not finite."""
        ys = np.linspace(-half_width, half_width, 513)
        knots = _knot_array(self.knots)     # also where set after construction
        if knots is not None:
            ys = np.concatenate((ys, knots[np.abs(knots) <= half_width]))
        vals = np.abs(on_arrays(self.v0)(ys))
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
    scale), v = -2 scale (dtop + dmean E_x[z] / sigma) on the rows of
    ``_kernel_rows``, z = (y - mean) / sigma and E_x the mean under w: one
    quadrature over every (t, x) integrates w and z w.  Each row's log w is
    shifted by its largest value on the nodes of the first integrand call
    that holds the row, which cancels in E_x, so every quadrature pass
    evaluates V0 once.  A t outside the kernel's validity interval (or NaN)
    raises DomainError; a (t, x) whose int w is not positive, as where a far
    x rounds its window to one point, or whose v is not finite raises
    QuadratureError naming the first such (t, x).
    """
    ts = t_levels(t)
    xs = prob.xs
    s = 0.5 / prob.scale
    half = float(np.max(np.abs(xs))) + 1.0
    mean, sigma, _, dtop, dmean = _kernel_rows(prob.kernel(), xs, ts)
    vb = np.repeat([prob.v0_bound(half + 16.0 * sd) for sd in sigma[::len(xs)]],
                   len(xs))
    width = s * vb * sigma * sigma + 12.0 * sigma   # + the tilted peak's shift

    # the antiderivative must cover every quadrature window
    needed = float(np.max(np.abs(mean) + width))
    V0 = on_arrays(prob.antiderivative(needed * 1.05 + 1.0))

    shift = np.full(len(mean), -np.inf)    # set on a row's first call

    def tilted(r, y):
        """(w, z w) with z = (y - mean) / sigma and log w = -z^2 / 2 - s V0(y)
        - shift, up to top."""
        z = (y - mean[r, None]) / sigma[r, None]
        e = -0.5 * z * z - s * V0(y)   # before the buffer: V0 is the memory peak
        new = shift[r] == -np.inf
        if new.any():
            with np.errstate(invalid="ignore"):   # _gk21 reports a NaN
                np.maximum.at(shift, r[new], e.max(axis=1)[new])
        out = np.empty((2, *y.shape))
        w, m = out
        np.subtract(e, shift[r, None], out=w)
        np.exp(w, out=w)
        np.multiply(z, w, out=m)
        return out

    # where no window holds a panel, _gk21 returns one row of zeros
    m0, m1 = np.broadcast_to(
        _gk21(tilted, mean - width, mean + width, mean, quad_spec), (2, len(mean)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = -2.0 * prob.scale * (dtop + dmean * m1 / (m0 * sigma))
    bad = (m0 <= 0.0) | ~np.isfinite(v)
    if bad.any():
        k = int(np.argmax(bad))
        what = "inner integral is not positive" if m0[k] <= 0.0 else "v is not finite"
        raise QuadratureError(f"{what} at t = {ts[k // len(xs)]:.6g}, "
                              f"x = {xs[k % len(xs)]:.6g}")
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
    a, b, c, f, g = (on_arrays(fn)(ts)[:, None]
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
    F = -2 mu'/mu matches the anchor, all on the Legendre panels of
    :mod:`heatkern._panels` to relative error ``tol``: beta = beta(0)
    e^{int c} and gamma are quadratures, mu comes from the panels' linear
    solve.  Every sign change of mu at the nodes is bisected on the dense mu
    and reported as a pole of the profile.
    """

    if not 0.0 < T < math.inf:
        raise ValueError(f"frame integration needs t1 > t0 and a finite t1, "
                         f"got [0, {T}]")
    beta0, lam = spec.beta0_init, spec.c0 + spec.c1
    a_, c_ = on_arrays(a), on_arrays(c)

    def frame_states(_, half, co):   # (E, gamma) with beta = beta0 e^E
        E, E_edges = _panels.cumulative(half, co[..., 0])
        dgamma = spec.c0 * co[..., 1] * (beta0 * np.exp(E)) ** 2
        gamma, gamma_edges = _panels.cumulative(half, dgamma, spec.gamma0_init)
        return (np.column_stack((E_edges, gamma_edges)),
                np.stack((co[..., 0], dgamma), axis=-1),
                np.stack((E, gamma), axis=-1))

    frame = _panels.refine((0.0, T), lambda t: np.stack((c_(t), a_(t)), axis=-1),
                           frame_states, tol, (1.0, 0.0), "frame equations are")

    def frame_at(t):
        E, gamma = frame.dense(t)
        return beta0 * np.exp(E), gamma

    def profile_states(_, half, pot):
        A10 = -pot[..., 0]
        mu, edges = _panels.chain(
            *_panels.linear(half, np.ones_like(A10), A10, np.full_like(A10, lam)),
            [[1.0], [-0.5 * spec.F0]])
        mu, dmu = mu[..., 0, 0], mu[..., 1, 0]
        return (edges[..., 0], np.stack((dmu, lam * dmu + A10 * mu), axis=-1),
                np.stack((mu, dmu), axis=-1))

    z0, z1 = spec.z_window
    mu = _panels.refine(
        (z0, z1),
        lambda z: 0.5 * (spec.c2 * z * z + spec.c3 * z + spec.c4)[..., None],
        profile_states, tol, (0.0, 0.0), "profile equation is", var="z")
    # mu at z0, every node and z1: each sign change holds a zero
    zs = np.concatenate(([z0], mu.t.ravel(), [z1]))
    ms = np.concatenate(([1.0], mu.y[..., 0].ravel(), [mu.edges[-1, 0]]))
    poles = []
    for j in np.flatnonzero((ms[:-1] != 0.0) & (ms[:-1] * ms[1:] <= 0.0)):
        side = math.copysign(1.0, ms[j])
        poles.append(_panels.bisect(lambda z: mu.dense.state(0, z) * side > 0.0,
                                    float(zs[j]), float(zs[j + 1])))
    return TravelingWave(spec, a, c, T, frame_at, mu.dense, poles)


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
