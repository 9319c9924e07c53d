"""Standard solutions of the characteristic equation and the source quadratures.

Solves mu'' - tau(t) mu' - 4 sigma(t) mu = 0 for the pair of standard
solutions

    mu0(0) = 0,  mu0'(0) = 2 a(0)        mu1(0) = 1,  mu1'(0) = 0

together with the auxiliary exponential h(t) = exp(int_0^t (c - 2d) ds) and
three quadratures of the source coefficients f, g (s = f + d g / a):

    I5' = (s mu0 + g mu0'/(2a)) / h,   J' = (s mu1 + g mu1'/(2a)) / h,
    M'  = I5 J',                       I5(0) = J(0) = M(0) = 0.

The eight states form one first-order system with shared error control.
Dense output comes from the integrator's continuous extension, so the
kernel coefficients built from these states (:mod:`heatkern.riccati`) can be
sampled at arbitrary times.

This module alone decides where those coefficients exist.  The kernel
divides by mu0 and the reduction to the characteristic equation divides by
a, so the validity interval ends at T_valid: the first zero of mu0, the
first sign change of a(t) or the horizon T, whichever comes first.  Both
zeros are events of the one integration: no right-hand side divides by mu0,
so the run continues past a zero of mu0, and it stops at a sign change of a.
:meth:`CharacteristicSolution.check_valid` is the one guard every evaluator
applies; it stops a relative ``ZERO_MARGIN`` short of a zero end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .coefficients import CoefficientSet, tau_sigma
from .errors import DomainError, IntegrationError

ZERO_MARGIN = 1e-6

# why the validity interval ends, by CharacteristicSolution.end_cause
_END_REASONS = {
    "horizon": "the integration horizon is T = {:.10g}",
    "mu0-zero": "mu0 vanishes at t = {:.10g} and the kernel divides by mu0",
    "a-zero": "a(t) changes sign at t = {:.10g} and the reduction divides by a",
}


@dataclass
class CharacteristicSolution:
    """Dense standard solutions mu0, mu1 (with derivatives), h and the source
    quadratures I5, J, M, and where the validity interval ends.

    ``T_valid`` is the first zero of mu0, the first sign change of a(t) or
    the horizon ``T``, whichever comes first, and ``end_cause`` says which:
    ``"mu0-zero"``, ``"a-zero"`` or ``"horizon"``.  The states are dense up to
    ``T``, or up to ``T_valid`` when a(t) ends the run.
    """

    coeffs: CoefficientSet
    T: float
    tol: float
    T_valid: float
    end_cause: str
    _sol: object

    def states(self, t):
        """The eight states at ``t``, rows (mu0, mu0', mu1, mu1', h, I5, J, M)."""
        t_arr = np.asarray(t, dtype=float)
        end = self._sol.t_max
        if not ((t_arr >= -1e-15) & (t_arr <= end * (1.0 + 1e-12))).all():
            raise DomainError(f"t outside [0, {end}]")
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
    def first_zero_of_mu0(self) -> Optional[float]:
        """The first zero of mu0 in (0, T_valid], or None."""
        return self.T_valid if self.end_cause == "mu0-zero" else None

    @property
    def t_last(self) -> float:
        """The largest time the validity guard accepts: ``T_valid`` at the
        horizon, a relative ``ZERO_MARGIN`` short of it at a zero."""
        if self.end_cause == "horizon":
            return self.T_valid
        return self.T_valid * (1.0 - ZERO_MARGIN)

    def check_valid(self, t):
        """Raise :class:`DomainError` unless every ``t`` lies in (0, t_last].

        The message names the end that was crossed and why the kernel
        coefficients do not exist beyond it.
        """
        t_arr = np.asarray(t, dtype=float)
        inside = (0.0 < t_arr) & (t_arr <= self.t_last * (1.0 + 1e-12))
        if inside.all():
            return
        bad = float(t_arr[~inside].flat[0])
        if bad <= 0.0:
            why = "the fundamental coefficients diverge at t = 0"
        elif bad > 0.0:
            why = _END_REASONS[self.end_cause].format(self.T_valid)
        else:
            why = "t is not a number"
        raise DomainError(f"t = {bad:.10g} outside the validity interval "
                          f"(0, {self.t_last:.10g}]: {why}")


def solve_characteristic(coeffs: CoefficientSet, T: float | None = None,
                         tol: float = 1e-10) -> CharacteristicSolution:
    """Integrate the characteristic system with local error ``tol`` and find
    where the validity interval ends.

    Parameters
    ----------
    coeffs:
        Coefficient set with a(0) != 0.
    T:
        Integration horizon, default ``coeffs.domain_end``.
    tol:
        Relative local error tolerance of the adaptive embedded
        Runge–Kutta integrator (DOP853), in (0, inf); the absolute
        tolerance is ``1e-3 * tol``.

    The first zero of mu0 and the first sign change of a(t) are solver
    events located on the dense output; the run stops at the latter.  Either
    one ends the validity interval and is recorded, not raised.

    Raises
    ------
    DomainError
        If the right-hand side meets a(t) == 0 exactly.
    IntegrationError
        If the integrator aborts (e.g. step-size underflow) or a derivative
        is not finite (a coefficient returned NaN or inf, or a state
        overflowed).
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
        a = coeffs.a(t)
        if a == 0.0:
            raise DomainError(f"a(t) = 0 at t = {t:.10g}; the reduction divides by a")
        tau, sigma = tau_sigma(coeffs, t)
        c, d, f, g = coeffs.c(t), coeffs.d(t), coeffs.f(t), coeffs.g(t)
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

    a0 = coeffs.a(0.0)

    def mu0_zero(t, y):
        return y[0]

    # mu0 leaves 0 with the sign of a(0), so its first zero after t = 0 is
    # crossed the other way; the direction also skips the start, where mu0 = 0
    mu0_zero.direction = -math.copysign(1.0, a0)

    def a_zero(t, y):  # the sign, so that a multiple zero is bisected too
        return np.sign(coeffs.a(min(t, coeffs.domain_end)))

    a_zero.terminal = True

    y0 = np.array([0.0, 2.0 * a0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", dense_output=True,
                    rtol=tol, atol=tol * 1e-3, events=(mu0_zero, a_zero))
    if not sol.success:
        raise IntegrationError(f"characteristic integration failed: {sol.message}")

    mu0_zeros, a_zeros = sol.t_events
    if len(mu0_zeros):
        T_valid, end_cause = float(mu0_zeros[0]), "mu0-zero"
    elif len(a_zeros):
        T_valid, end_cause = float(a_zeros[0]), "a-zero"
    else:
        T_valid, end_cause = T, "horizon"
    return CharacteristicSolution(coeffs=coeffs, T=T, tol=tol, T_valid=T_valid,
                                  end_cause=end_cause, _sol=sol.sol)


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
