"""Standard solutions of the characteristic equation and the source quadratures.

Solves mu'' - tau(t) mu' - 4 sigma(t) mu = 0 for the pair of standard
solutions

    mu0(0) = 0,  mu0'(0) = 2 a(0)        mu1(0) = 1,  mu1'(0) = 0

together with the auxiliary exponential h(t) = exp(int_0^t (c - 2d) ds) and
three quadratures of the source coefficients f, g (s = f + d g / a):

    I5' = (s mu0 + g mu0'/(2a)) / h,   J' = (s mu1 + g mu1'/(2a)) / h,
    M'  = I5 J',                       I5(0) = J(0) = M(0) = 0.

The eight states form one first-order system with shared error control.  No
right-hand side divides by mu0, so the run reaches T past any zero of mu0.
Dense output comes from the integrator's continuous extension, so the
kernel coefficients built from these states (:mod:`heatkern.riccati`) can be
sampled at arbitrary times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .coefficients import CoefficientSet, tau_sigma
from .errors import DomainError, IntegrationError

_ZERO_SCAN_POINTS = 4096


@dataclass
class CharacteristicSolution:
    """Dense standard solutions mu0, mu1 (with derivatives), h and the source
    quadratures I5, J, M on [0, T].

    ``first_zero_of_mu0`` is the smallest positive zero of mu0 if one exists
    in (0, T]; kernel construction is only valid strictly below it, because
    the coefficient functions of the Gaussian exponent divide by mu0.
    """

    coeffs: CoefficientSet
    T: float
    tol: float
    first_zero_of_mu0: Optional[float]
    _sol: object

    def states(self, t):
        """The eight states at ``t``, rows (mu0, mu0', mu1, mu1', h, I5, J, M)."""
        t_arr = np.asarray(t, dtype=float)
        if not ((t_arr >= -1e-15) & (t_arr <= self.T * (1.0 + 1e-12))).all():
            raise DomainError(f"t outside [0, {self.T}]")
        return self._sol(t_arr)

    def _eval(self, t, row):
        out = self.states(t)[row]
        return float(out) if np.ndim(t) == 0 else out

    def mu0(self, t):
        return self._eval(t, 0)

    def dmu0(self, t):
        return self._eval(t, 1)

    def mu1(self, t):
        return self._eval(t, 2)

    def dmu1(self, t):
        return self._eval(t, 3)

    def h(self, t):
        return self._eval(t, 4)

    @property
    def T_valid(self) -> float:
        return self.T if self.first_zero_of_mu0 is None else self.first_zero_of_mu0


def solve_characteristic(coeffs: CoefficientSet, T: float | None = None,
                         tol: float = 1e-10) -> CharacteristicSolution:
    """Integrate the characteristic system with local error ``tol``.

    Parameters
    ----------
    coeffs:
        Validated coefficient set; a(t) must not vanish on [0, T].
    T:
        Integration horizon, default ``coeffs.domain_end``.
    tol:
        Relative local error tolerance of the adaptive embedded
        Runge–Kutta integrator (DOP853), in (0, inf); the absolute
        tolerance is ``1e-3 * tol``.

    Raises
    ------
    IntegrationError
        If the integrator aborts (e.g. step-size underflow) or a derivative
        is not finite (a coefficient returned NaN or inf, or a state
        overflowed).  A zero of mu0 inside (0, T] is recorded, not raised.
    """
    if T is None:
        T = coeffs.domain_end
    T = float(T)
    if not 0.0 < T <= coeffs.domain_end * (1.0 + 1e-12):
        raise DomainError(f"T={T} outside (0, {coeffs.domain_end}]")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")

    def rhs(t, y):
        mu0, dmu0, mu1, dmu1, h, i5, _, _ = y
        t = min(t, coeffs.domain_end)
        tau, sigma = tau_sigma(coeffs, t)
        a, c, d, f, g = (coeffs.a(t), coeffs.c(t), coeffs.d(t), coeffs.f(t),
                         coeffs.g(t))
        s = f + d * g / a
        g2a = g / (2.0 * a)
        # where f = g = 0 the source rates are exactly 0, also once h underflows
        inv_h = 1.0 / h if s or g else 0.0
        dj = (s * mu1 + g2a * dmu1) * inv_h
        dy = [dmu0, tau * dmu0 + 4.0 * sigma * mu0,
              dmu1, tau * dmu1 + 4.0 * sigma * mu1,
              (c - 2.0 * d) * h, (s * mu0 + g2a * dmu0) * inv_h, dj, i5 * dj]
        if not math.isfinite(sum(dy)):
            raise IntegrationError(f"characteristic system is not finite at t = {t:.6g}")
        return np.array(dy)

    y0 = np.array([0.0, 2.0 * coeffs.a(0.0), 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", dense_output=True,
                    rtol=tol, atol=tol * 1e-3)
    if not sol.success:
        raise IntegrationError(f"characteristic integration failed: {sol.message}")

    return CharacteristicSolution(coeffs=coeffs, T=T, tol=tol,
                                  first_zero_of_mu0=_first_zero(sol.sol, T),
                                  _sol=sol.sol)


def _first_zero(dense, T):
    """Smallest t > 0 with mu0(t) = 0, by sign scan plus bisection refinement."""
    ts = np.linspace(0.0, T, _ZERO_SCAN_POINTS + 1)[1:]
    vals = dense(ts)[0]
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    exact = np.nonzero(vals == 0.0)[0]
    candidates = []
    if len(flips):
        lo, hi = ts[flips[0]], ts[flips[0] + 1]
        candidates.append(brentq(lambda t: float(dense(t)[0]), lo, hi, xtol=1e-12))
    if len(exact):
        candidates.append(float(ts[exact[0]]))
    return min(candidates) if candidates else None


def wronskian_residual(chs: CharacteristicSolution, coeffs: CoefficientSet,
                       grid) -> float:
    """Max relative drift of the Wronskian identity over ``grid``.

    W(t) = mu0 mu1' - mu1 mu0' must equal W(0) exp(int_0^t tau); using
    exp(int tau) = (a(t)/a(0)) h(t)^2 avoids an extra quadrature.
    """
    ts = np.atleast_1d(np.asarray(grid, dtype=float))
    if not ((ts > 0.0) & (ts <= chs.T * (1.0 + 1e-12))).all():
        raise DomainError(f"grid outside (0, {chs.T}]")
    mu0, dmu0, mu1, dmu1, h = chs.states(ts)[:5]
    ref = -2.0 * np.array([coeffs.a(t) for t in ts.tolist()]) * h ** 2
    return float(np.max(np.abs(mu0 * dmu1 - mu1 * dmu0 - ref) / np.abs(ref)))
