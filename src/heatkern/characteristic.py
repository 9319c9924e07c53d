"""The linearized Riccati system and the source quadratures, in one run.

The Riccati equation alpha' = -b + 2c alpha + 4a alpha^2 of the kernel
(:mod:`heatkern.riccati`) is linear under alpha = X/Y:

    (X, Y)' = [[c, -b], [-4a, -c]] (X, Y).

The matrix is traceless, so the Wronskian X0 Y1 - X1 Y0 of two solutions is
constant.  With C = int_0^t c and D = int_0^t d, the drift-scaled pair
X^ = X e^{-C}, Y^ = Y e^{C} obeys

    X^' = -b e^{-2C} Y^,   Y^' = -4a e^{2C} X^,

and this module integrates two such pairs, (X^0, Y^0)(0) = (1, 0) and
(X^1, Y^1)(0) = (0, 1), whose Wronskian X^0 Y^1 - X^1 Y^0 stays 1, together
with C, D and three quadratures of the source coefficients f, g:

    P' = f Y^0 e^{-C} - 2g X^0 e^{C},   Q' = f Y^1 e^{-C} - 2g X^1 e^{C},
    R' = P Q',                          P(0) = Q(0) = R(0) = 0.

The nine states form one first-order system with shared error control,
integrated by the package's own DOP853 (:mod:`heatkern._dop853`, a port of
scipy's that takes the same steps to the last bit).  No right-hand side
divides by a coefficient or a state, and a' and d' are never read; where b
or f is 0 its term is exactly 0, so a strong drift (e^{-C} overflowing)
does not matter unless b or f needs it.  Dense output comes from the
integrator's continuous extension, so the kernel coefficients built from
these states can be sampled at arbitrary times; the extension of a step is
built the first time a query reads it.

The standard solutions of the characteristic equation
mu'' - tau(t) mu' - 4 sigma(t) mu = 0, with mu0(0) = 0, mu0'(0) = 2a(0),
mu1(0) = 1, mu1'(0) = 0, and h = exp(int_0^t (c - 2d)) are derived from
the states (:meth:`CharacteristicSolution.standard`):

    mu0  = -Y^0 e^{-2D}/2            mu0' = e^{-2D} (2a e^{2C} X^0 + d Y^0)
    mu1  = e^{-2D} (Y^1 - k Y^0)     mu1' = -e^{-2D} (4a e^{2C} (X^1 - k X^0)
                                                      + 2d (Y^1 - k Y^0))
    h    = e^{C - 2D}                with k = d(0)/(2a(0)),

so mu0 mu1' - mu1 mu0' = -2a h^2 (X^0 Y^1 - X^1 Y^0), the Wronskian
identity :func:`wronskian_residual` checks.

This module alone decides where the kernel coefficients exist.  The kernel
divides by mu0, which vanishes with Y^0, and it is defined for forward
diffusion only, so the validity interval ends at T_valid: the first zero of
Y^0, the first sign change of a(t) or the horizon ``coeffs.domain_end``,
whichever comes first.
Both zeros are events of the one integration: the run continues past a zero
of Y^0 and stops at a sign change of a.  A zero of a that does not change
sign needs nothing, since nothing divides by a.
:meth:`CharacteristicSolution.check_valid` is the one guard every evaluator
applies; it stops a relative ``ZERO_MARGIN`` short of a zero end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _dop853
from .coefficients import CoefficientSet
from .errors import DomainError, IntegrationError

ZERO_MARGIN = 1e-6
# Every kernel value is read from the continuous extension, whose error runs
# 10-50 times the step error that _dop853 controls; the run asks for tol/16 so
# that the dense states meet about tol.
DENSE_TOL_FACTOR = 16.0

# why the validity interval ends, by CharacteristicSolution.end_cause
_END_REASONS = {
    "horizon": "the integration horizon is T = {:.10g}",
    "mu0-zero": "mu0 vanishes at t = {:.10g} and the kernel divides by mu0",
    "a-zero": "a(t) changes sign at t = {:.10g} and backward diffusion has "
              "no kernel",
}


@dataclass
class CharacteristicSolution:
    """Dense states of the linearized Riccati system and where the validity
    interval ends.

    ``T_valid`` is the first zero of mu0, the first sign change of a(t) or
    the horizon ``coeffs.domain_end``, whichever comes first, and
    ``end_cause`` says which: ``"mu0-zero"``, ``"a-zero"`` or ``"horizon"``.
    The states are dense up to the horizon, or up to ``T_valid`` when a(t)
    ends the run.  ``steps`` counts the integrator's accepted steps.
    """

    coeffs: CoefficientSet
    T_valid: float
    end_cause: str
    steps: int
    _sol: _dop853.DenseSolution

    @property
    def nfev(self) -> int:
        """Right-hand-side evaluations made so far.  The run builds a step's
        continuous extension (three more evaluations) only when a state
        query or an event search first reads that step, so the count grows
        with the steps read and reaches the full run's count once every
        step has been read."""
        return self._sol.nfev

    def states(self, t):
        """The nine states at ``t``, rows (X^0, Y^0, X^1, Y^1, C, D, P, Q, R)."""
        end = self._sol.t_max
        if np.ndim(t) == 0:   # a float: one segment, no array machinery
            t = float(t)
            if not -1e-15 <= t <= end * (1.0 + 1e-12):
                raise DomainError(f"t outside [0, {end}]")
            return self._sol(t)
        t_arr = np.asarray(t, dtype=float)
        if not ((t_arr >= -1e-15) & (t_arr <= end * (1.0 + 1e-12))).all():
            raise DomainError(f"t outside [0, {end}]")
        return self._sol(t_arr)

    def standard(self, t):
        """Rows (mu0, mu0', mu1, mu1', h) at ``t``: the standard solutions of
        the characteristic equation and h, derived from the states."""
        x0, y0, x1, y1, C, D = self.states(t)[:6]
        co = self.coeffs
        a, d = (np.vectorize(fn, otypes=[float])(t) for fn in (co.a, co.d))
        k = co.d(0.0) / (2.0 * co.a(0.0))
        a2C, e2D = 2.0 * a * np.exp(2.0 * C), np.exp(-2.0 * D)
        y1k = y1 - k * y0
        return np.array([-0.5 * y0 * e2D,
                         e2D * (a2C * x0 + d * y0),
                         e2D * y1k,
                         -2.0 * e2D * (a2C * (x1 - k * x0) + d * y1k),
                         np.exp(C - 2.0 * D)])

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


def solve_characteristic(coeffs: CoefficientSet,
                         tol: float = 1e-10) -> CharacteristicSolution:
    """Integrate the linearized Riccati system over [0, ``coeffs.domain_end``]
    with local error ``tol`` and find where the validity interval ends.

    Parameters
    ----------
    coeffs:
        Coefficient set with a(0) != 0; its ``domain_end`` is the horizon.
    tol:
        Relative error tolerance of the dense states, in (0, inf).  The
        adaptive embedded Runge–Kutta pair DOP853
        (:func:`heatkern._dop853.solve`) runs at ``rtol = tol /
        DENSE_TOL_FACTOR`` (at least 100 machine epsilons) and ``atol = 1e-3
        * rtol``.

    The first zero of mu0 and the first sign change of a(t) are solver
    events located on the dense output; the run stops at the latter.  Either
    one ends the validity interval and is recorded, not raised.

    Raises
    ------
    DomainError
        If a(0) == 0.
    IntegrationError
        If the integrator aborts (e.g. step-size underflow) or a derivative
        is not finite (a coefficient returned NaN or inf, or a state or a
        drift factor e^{±C} overflowed).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    a0 = coeffs.a(0.0)
    if a0 == 0.0:
        raise DomainError("a(0) = 0: the kernel needs a(0) != 0")

    end = float(coeffs.domain_end)
    a_, b_, c_, d_, f_, g_ = (coeffs.a, coeffs.b, coeffs.c, coeffs.d,
                              coeffs.f, coeffs.g)
    exp = math.exp

    def rhs(t, y):
        x0, y0, x1, y1, C, _, p, _, _ = y.tolist()
        t = min(float(t), end)   # Python floats: faster scalar arithmetic
        a, b, c, d, f, g = a_(t), b_(t), c_(t), d_(t), f_(t), g_(t)
        try:
            ep = exp(C)
            em = exp(-C) if b or f else 0.0
        except OverflowError:
            raise IntegrationError(f"characteristic system is not finite at "
                                   f"t = {t:.6g}: e^(±C) overflows") from None
        a4, bm = 4.0 * a * ep * ep, b * em * em
        fm, g2 = f * em, 2.0 * g * ep
        dq = fm * y1 - g2 * x1
        dy = [-bm * y0, -a4 * x0, -bm * y1, -a4 * x1, c, d,
              fm * y0 - g2 * x0, dq, p * dq]
        if not math.isfinite(sum(dy)):
            raise IntegrationError(f"characteristic system is not finite at t = {t:.6g}")
        return dy

    def mu0_zero(t, y):
        return y[1]

    def a_zero(t, y):  # the sign, so that a multiple zero is bisected too
        return np.sign(a_(min(t, end)))

    # Y^0 = -2 mu0 e^{2D} leaves 0 against the sign of a(0), so its first
    # zero after t = 0 is crossed with that sign; the direction also skips
    # the start, where Y^0 = 0.  A sign change of a ends the run.
    events = ((mu0_zero, math.copysign(1.0, a0), False), (a_zero, 0.0, True))
    y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    rtol = max(tol / DENSE_TOL_FACTOR, 100.0 * np.finfo(float).eps)
    # a step that overflows makes numpy warn before rhs's finiteness check
    # turns the overflowed stage into IntegrationError
    with np.errstate(over="ignore"):
        run = _dop853.solve(rhs, 0.0, end, y0, rtol, rtol * 1e-3, events,
                            what="characteristic")

    mu0_zeros, a_zeros = run.t_events
    if mu0_zeros:
        T_valid, end_cause = float(mu0_zeros[0]), "mu0-zero"
    elif a_zeros:
        T_valid, end_cause = float(a_zeros[0]), "a-zero"
    else:
        T_valid, end_cause = end, "horizon"
    return CharacteristicSolution(coeffs=coeffs, T_valid=T_valid,
                                  end_cause=end_cause,
                                  steps=len(run.sol.ts) - 1, _sol=run.sol)


def wronskian_residual(chs: CharacteristicSolution, grid) -> float:
    """Max relative drift of the Wronskian identity over ``grid``.

    W(t) = mu0 mu1' - mu1 mu0' must equal -2 a(t) h(t)^2, which holds
    exactly when the integrated pairs keep X^0 Y^1 - X^1 Y^0 = 1.
    """
    ts = np.atleast_1d(np.asarray(grid, dtype=float))
    end = chs.coeffs.domain_end
    if not ((ts > 0.0) & (ts <= end * (1.0 + 1e-12))).all():
        raise DomainError(f"grid outside (0, {end}]")
    mu0, dmu0, mu1, dmu1, h = chs.standard(ts)
    ref = -2.0 * np.array([chs.coeffs.a(t) for t in ts.tolist()]) * h ** 2
    return float(np.max(np.abs(mu0 * dmu1 - mu1 * dmu0 - ref) / np.abs(ref)))
