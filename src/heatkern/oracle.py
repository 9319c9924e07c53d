"""Independent finite-difference solvers used purely for cross-validation.

A Crank–Nicolson scheme for the diffusion-type master equation and a
semi-implicit scheme (implicit diffusion, explicit upwinded advection) for
the Burgers-type equation, both on a fixed symmetric window with the edge
values pinned to the initial data (which is required to have decayed there).
Second order in space and time for the diffusion solver; the time-dependent
coefficients are sampled at the step midpoint to keep that order.

The implicit half of each step is a tridiagonal system.  Its matrix is
LU-factored (LAPACK ``gttrf``) only when the coefficient values that build it
change -- (a, b, c, d, f, g) at the step midpoint for the diffusion solver,
a at the midpoint for the Burgers solver -- and every step solves with the
stored factors (``gttrs``), which is the same elimination a one-shot ``gtsv``
does.  The values are compared exactly, so constant coefficients factor once
per run and time-dependent ones every step, through the same code.

A Crank–Nicolson step of the diffusion solver, with A the interior
three-diagonal operator, M = I - dt/2 A its step matrix and e the two
pinned-edge terms, is M u+ = (I + dt/2 A) u + dt e.  Since
I + dt/2 A = 2I - M, this is

    u+ = M^-1 (2u + dt e) - u,

the same scheme with one stored-factor solve and no explicit product with A
per step; it differs from the two-stage form only by rounding.  A
coefficient value or initial datum that is not finite, or a singular step
matrix, raises :class:`~heatkern.errors.StabilityError` naming the time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet
from .errors import DomainError, StabilityError
from .kernel import GridField

DIVERGENCE_THRESHOLD = 1e8
CFL_LIMIT = 0.5


@dataclass(frozen=True)
class FDSpec:
    """Discretization of the window [-L, L]: n points, time step dt."""

    L: float
    n: int
    dt: float

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("need at least 16 grid points")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.L > 0.0:
            raise ValueError("L must be positive")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n - 1)


def _steps(t_end: float, dt: float):
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end = {t_end!r} outside (0, inf)")
    n_steps = max(1, int(round(t_end / dt)))
    return n_steps, t_end / n_steps


def _check_decay(phi_edge_left, phi_edge_right):
    worst = max(abs(phi_edge_left), abs(phi_edge_right))
    if worst > 1e-12:
        warnings.warn(f"initial data at the window edges is {worst:.2e}; "
                      "the pinned-boundary solution will be off by that much",
                      UserWarning, stacklevel=3)


def _require_finite(values, what: str, t: float):
    if not np.all(np.isfinite(values)):
        raise StabilityError(f"{what} not finite at t={t:.6g}")


def _factor(dgttrf, lower, diag, upper, t: float):
    """LU factors (LAPACK ``dgttrf``) of the tridiagonal matrix with these
    three diagonals."""
    *factors, info = dgttrf(lower, diag, upper)
    if info > 0:
        raise StabilityError(f"finite-difference step matrix is singular "
                             f"at t={t:.6g}")
    return factors


def _check_bounded(u, growth_free: bool, t: float):
    if not np.all(np.isfinite(u)):
        raise StabilityError(f"finite-difference solution lost finiteness at t={t:.6g}")
    if growth_free and np.max(np.abs(u)) > DIVERGENCE_THRESHOLD:
        raise StabilityError(f"finite-difference solution exceeded "
                             f"{DIVERGENCE_THRESHOLD:g} at t={t:.6g} with no "
                             "growth terms present")


def fd_diffusion(coeffs: CoefficientSet, phi: Callable[[float], float],
                 spec: FDSpec, t_end: float) -> GridField:
    """Crank–Nicolson solve of the master equation up to ``t_end``.

    Returns a two-level field (initial data and final time).  Coefficients
    are evaluated at the midpoint of every step; the tridiagonal step matrix
    is refactored only when those six values change.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    xs = spec.xs
    dx = spec.dx
    u = np.array([phi(x) for x in xs], dtype=float)
    _require_finite(u, "initial data", 0.0)
    _check_decay(u[0], u[-1])
    u0 = u.copy()
    bc_l, bc_r = u[0], u[-1]
    growth_free = True   # no step so far had b, d or f != 0

    n_steps, dt = _steps(t_end, spec.dt)
    xi = xs[1:-1]
    interior = u[1:-1]          # a view: the steps update u in place
    edge = np.zeros(len(xi))    # pinned-edge terms, both time levels
    key = None
    for step in range(n_steps):
        t_mid = (step + 0.5) * dt
        values = (coeffs.a(t_mid), coeffs.b(t_mid), coeffs.c(t_mid),
                  coeffs.d(t_mid), coeffs.f(t_mid), coeffs.g(t_mid))
        if values != key:
            _require_finite(values, "coefficient value", t_mid)
            a, b, c, d, f, g = values
            growth_free = growth_free and max(abs(b), abs(d), abs(f)) <= 1e-14
            drift = (g - c * xi) / (2.0 * dx)
            lower = a / dx ** 2 + drift
            upper = a / dx ** 2 - drift
            diag = -2.0 * a / dx ** 2 + (d + f * xi - b * xi * xi)
            factors = _factor(dgttrf, -0.5 * dt * lower[1:],
                              1.0 - 0.5 * dt * diag, -0.5 * dt * upper[:-1],
                              t_mid)
            edge[0] = dt * lower[0] * bc_l
            edge[-1] = dt * upper[-1] * bc_r
            key = values

        # one Crank–Nicolson step, u+ = M^-1 (2u + dt e) - u
        w, _ = dgttrs(*factors, 2.0 * interior + edge, overwrite_b=1)
        np.subtract(w, interior, out=interior)

        if step % 50 == 0 or step == n_steps - 1:
            _check_bounded(u, growth_free, (step + 1) * dt)

    return GridField(xs, [0.0, t_end], np.vstack([u0, u]))


def fd_burgers(coeffs: CoefficientSet, v0: Callable[[float], float],
               spec: FDSpec, t_end: float) -> GridField:
    """Semi-implicit solve of the Burgers-type equation up to ``t_end``.

    The advection term (a v + g - c x) v_x is explicit with donor-cell
    upwinding and must satisfy max|speed| dt/dx <= 0.5 (checked each step);
    the diffusion term is Crank–Nicolson, so it imposes no step limit.  Its
    matrix is refactored only when a at the step midpoint changes, and the
    arrays built from c, b and f only when one of the six values changes.
    Every step writes into buffers allocated once per run, in the order of
    operations of the formula in the comment above each block, so the field
    is the same to the bit as one built from temporaries.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    xs = spec.xs
    dx = spec.dx
    v = np.array([v0(x) for x in xs], dtype=float)
    _require_finite(v, "initial data", 0.0)
    v_init = v.copy()
    bc_l, bc_r = v[0], v[-1]

    n_steps, dt = _steps(t_end, spec.dt)
    xi = xs[1:-1]
    m = len(xi)
    inner, left, right = v[1:-1], v[:-2], v[2:]     # views: v is updated in place
    diff = np.empty(m + 1)      # (v[i+1] - v[i])/dx: backward and forward slopes
    speed, grad, explicit, lap = (np.empty(m) for _ in range(4))
    key = a_key = None
    for step in range(n_steps):
        t = step * dt
        t_mid = t + 0.5 * dt
        values = (coeffs.a(t_mid), coeffs.a(t), coeffs.b(t), coeffs.c(t),
                  coeffs.f(t), coeffs.g(t))
        if values != key:
            _require_finite(values, "coefficient value", t)
            a_mid, a, b, c, f, g = values
            c_xi = c * xi
            source = 2.0 * (f - 2.0 * b * xi)
            half_a = 0.5 * dt * a_mid
            key = values
        if a_mid != a_key:
            r = 0.5 * dt * a_mid / dx ** 2
            factors = _factor(dgttrf, np.full(m - 1, -r),
                              np.full(m, 1.0 + 2.0 * r), np.full(m - 1, -r),
                              t_mid)
            a_key = a_mid

        # speed = a v + g - c x
        np.multiply(inner, a, out=speed)
        speed += g
        speed -= c_xi
        np.abs(speed, out=grad)
        cfl = grad.max() * dt / dx
        if cfl > CFL_LIMIT:
            raise StabilityError(f"advection CFL {cfl:.3f} exceeds {CFL_LIMIT} "
                                 f"at t={t:.6g}; reduce dt")
        # upwind slope: backward where speed > 0, forward elsewhere
        np.subtract(v[1:], v[:-1], out=diff)
        diff /= dx
        np.copyto(grad, diff[1:])
        np.copyto(grad, diff[:-1], where=speed > 0.0)
        # explicit = -speed grad + c v - 2 (f - 2 b x)
        np.multiply(speed, grad, out=grad)
        np.multiply(inner, c, out=explicit)
        explicit -= grad
        explicit -= source
        # lap = (v[i-1] - 2 v[i] + v[i+1])/dx^2
        np.multiply(inner, 2.0, out=lap)
        np.subtract(left, lap, out=lap)
        lap += right
        lap /= dx ** 2
        # rhs = v + dt explicit + dt/2 a_mid lap, into explicit
        explicit *= dt
        explicit += inner
        lap *= half_a
        explicit += lap
        explicit[0] += r * bc_l
        explicit[-1] += r * bc_r
        inner[:], _ = dgttrs(*factors, explicit, overwrite_b=1)

        if step % 50 == 0 or step == n_steps - 1:
            _check_bounded(v, True, (step + 1) * dt)

    return GridField(xs, [0.0, t_end], np.vstack([v_init, v]))
