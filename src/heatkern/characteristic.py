"""The linearized Riccati system and the source quadratures, in one run.

The Riccati equation alpha' = -b + 2c alpha + 4a alpha^2 of the kernel
(:mod:`heatkern.riccati`) is linear under alpha = X/Y:

    (X, Y)' = [[c, -b], [-4a, -c]] (X, Y).

The matrix is traceless, so the Wronskian X0 Y1 - X1 Y0 of two solutions is
constant.  With C = int_0^t c and D = int_0^t d, the drift-scaled pair
X^ = X e^{-C}, Y^ = Y e^{C} obeys

    X^' = -b e^{-2C} Y^,   Y^' = -4a e^{2C} X^,

and this module solves for two such pairs, (X^0, Y^0)(0) = (1, 0) and
(X^1, Y^1)(0) = (0, 1), whose Wronskian X^0 Y^1 - X^1 Y^0 stays 1, together
with C, D and three quadratures of the source coefficients f, g:

    P' = f Y^0 e^{-C} - 2g X^0 e^{C},   Q' = f Y^1 e^{-C} - 2g X^1 e^{C},
    R' = P Q',                          P(0) = Q(0) = R(0) = 0.

The pairs' equation is linear and C, D, P, Q, R are quadratures, so the run
is one pass of Legendre panels (:mod:`heatkern._panels`): C and D first,
then both pairs from one batched linear solve per panel and the chained 2 x 2
panel propagators, then P, Q and R.  Every coefficient is evaluated once per
node, on arrays.  No term divides by a coefficient or a state, and a' and d'
are never read; where b, f or g is 0 its term is exactly 0, so a strong
drift (e^{-C} overflowing) does not matter unless a nonzero coefficient
needs it.  Each panel's states are Legendre series of their mean slope, so
the kernel coefficients built from them can be sampled at arbitrary times,
and a state that starts at 0 keeps its relative accuracy as t -> 0.

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
Both are found at the nodes of the one solve and bisected: the run continues
past a zero of Y^0 and stops at a sign change of a.  A zero of a that does
not change sign needs nothing, since nothing divides by a.
:meth:`CharacteristicSolution.check_valid` is the one guard every evaluator
applies; it stops a relative ``ZERO_MARGIN`` short of a zero end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import _panels
from .coefficients import _COEFF_NAMES, CoefficientSet, on_arrays
from .errors import DomainError

ZERO_MARGIN = 1e-6

# why the validity interval ends, by CharacteristicSolution.end_cause
_END_REASONS = {
    "horizon": "the integration horizon is T = {:.10g}",
    "mu0-zero": "mu0 vanishes at t = {:.10g} and the kernel divides by mu0",
    "a-zero": "a(t) changes sign at t = {:.10g} and backward diffusion has "
              "no kernel",
}
# the first panels halve toward t = 0, T/16 the narrowest, so that a state
# that starts at 0 is resolved relative to its own size there
_GRADES = np.append(0.0, 2.0 ** np.arange(-4, 1))
# C and D enter through e^C and e^{-2D}: they are resolved to an absolute
# error, the other states relative to their size
_FLOOR = (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)


@dataclass
class CharacteristicSolution:
    """Dense states of the linearized Riccati system and where the validity
    interval ends.

    ``T_valid`` is the first zero of mu0, the first sign change of a(t) or
    the horizon ``coeffs.domain_end``, whichever comes first, and
    ``end_cause`` says which: ``"mu0-zero"``, ``"a-zero"`` or ``"horizon"``.
    The states are dense up to the horizon, or up to ``T_valid`` when a(t)
    ends the run.  ``steps`` counts the panels and ``nfev`` the times at
    which the coefficients were evaluated (21 per panel built, plus the
    bisection of an a-zero).  ``passes`` counts the refinement passes (how
    often every panel's states were built) and ``built`` the panels whose
    states were built, summed over the passes.  All four are fixed once the
    solve returns.
    """

    coeffs: CoefficientSet
    T_valid: float
    end_cause: str
    steps: int
    nfev: int
    passes: int
    built: int
    _sol: _panels.Dense
    _coefs: np.ndarray

    def structure(self, t_end: float) -> tuple[set, set]:
        """(zero, constant): the names among a…g that are exactly 0, and
        those that keep one value, at the nodes of the panels that start
        below ``t_end`` (the first at least): what the states were built
        from, and exact for tables of degree <= 20 (21 nodes a panel)."""
        n = max(1, int(np.searchsorted(self._sol._a, t_end)))
        co = self._coefs[:n].reshape(-1, 6)
        return (set(compress(_COEFF_NAMES, ~co.any(axis=0))),
                set(compress(_COEFF_NAMES, (co == co[0]).all(axis=0))))

    def states(self, t):
        """The nine states at ``t``, rows (X^0, Y^0, X^1, Y^1, C, D, P, Q, R)."""
        end = self._sol.t_max
        t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
        if not np.all((t >= -1e-15) & (t <= end * (1.0 + 1e-12))):
            raise DomainError(f"t outside [0, {end}]")
        return self._sol(t)

    def standard(self, t):
        """Rows (mu0, mu0', mu1, mu1', h) at ``t``: the standard solutions of
        the characteristic equation and h, derived from the states."""
        x0, y0, x1, y1, C, D = self.states(t)[:6]
        co = self.coeffs
        if np.ndim(t) == 0:
            a, d = co.a(float(t)), co.d(float(t))
        else:
            t = np.asarray(t, dtype=float)
            a, d = on_arrays(co.a)(t), on_arrays(co.d)(t)
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


def _first_exit(t, values, inside, at):
    """The first time where ``inside`` fails: bisected on ``at(t)`` between
    the node before the first of ``values`` (at the increasing nodes ``t``)
    outside and that node, or None when every value is inside."""
    out = np.flatnonzero(~inside(values))
    if not len(out):
        return None
    j = int(out[0])
    return _panels.bisect(lambda s: inside(at(s)), t[j - 1] if j else 0.0, t[j])


def _states(a, half, co):
    """The nine states of all panels from the coefficients at their nodes:
    (edge values (m + 1, 9), derivatives and values at the nodes (m, 21, 9))."""
    m, n = co.shape[:2]
    edges, dy, y = np.empty((m + 1, 9)), np.empty((m, n, 9)), np.empty((m, n, 9))
    A, B, c, d, f, g = co.transpose(2, 0, 1)
    C, edges[:, 4] = _panels.cumulative(half, c)
    D, edges[:, 5] = _panels.cumulative(half, d)
    # a term whose coefficient is 0 is exactly 0, whatever e^{±C} is
    p = np.where(B == 0.0, 0.0, -B * np.exp(-2.0 * C))
    q = -4.0 * A * np.exp(2.0 * C)
    pairs, pair_edges = _panels.chain(*_panels.linear(half, p, q), np.eye(2))
    # pairs[..., i, j] is component i (X^, Y^) of the pair from e_j
    edges[:, :4] = pair_edges.transpose(0, 2, 1).reshape(m + 1, 4)
    y[..., :4] = pairs.transpose(0, 1, 3, 2).reshape(m, n, 4)
    x0, y0, x1, y1 = y[..., :4].transpose(2, 0, 1)
    fm = np.where(f == 0.0, 0.0, f * np.exp(-C))
    g2 = np.where(g == 0.0, 0.0, 2.0 * g * np.exp(C))
    dP, dQ = fm * y0 - g2 * x0, fm * y1 - g2 * x1
    P, edges[:, 6] = _panels.cumulative(half, dP)
    Q, edges[:, 7] = _panels.cumulative(half, dQ)
    dR = P * dQ
    R, edges[:, 8] = _panels.cumulative(half, dR)
    for k, v in enumerate((C, D, P, Q, R), 4):
        y[..., k] = v
    for k, v in enumerate((p * y0, q * x0, p * y1, q * x1, c, d, dP, dQ, dR)):
        dy[..., k] = v
    return edges, dy, y


def solve_characteristic(coeffs: CoefficientSet,
                         tol: float = 1e-10) -> CharacteristicSolution:
    """Solve the linearized Riccati system over [0, ``coeffs.domain_end``]
    to relative error ``tol`` and find where the validity interval ends.

    Parameters
    ----------
    coeffs:
        Coefficient set with a(0) != 0; its ``domain_end`` is the horizon.
    tol:
        Relative error tolerance of the dense states, in (0, inf).  The
        Legendre panels of :mod:`heatkern._panels` are bisected until every
        state's series is resolved to it (C and D to an absolute ``tol``).

    The first sign change of a(t) at the nodes is bisected on a(t) itself,
    and the run ends there; the first zero of mu0 is a sign change of Y^0 at
    the nodes, bisected on the dense Y^0.  Either one ends the validity
    interval and is recorded, not raised.

    Raises
    ------
    DomainError
        If a(0) == 0.
    IntegrationError
        If a coefficient, a drift factor e^{±C} or a state is not finite
        (the message names the first such t), or the panels cannot resolve
        the states (a panel narrower than about 1e-13, or more than
        ``_panels.MAX_PANELS`` panels).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    a0 = coeffs.a(0.0)
    if a0 == 0.0:
        raise DomainError("a(0) = 0: the kernel needs a(0) != 0")
    sign = math.copysign(1.0, a0)
    fields = [on_arrays(getattr(coeffs, name)) for name in _COEFF_NAMES]
    a_calls = []

    def a_at(t):
        a_calls.append(t)
        return coeffs.a(t)

    def a_keeps_sign(a):   # a zero, or NaN, is no sign change
        return np.logical_not(a * sign < 0.0)

    def a_zero(t, co):
        return _first_exit(t.ravel(), co[..., 0].ravel(), a_keeps_sign, a_at)

    def evaluate(t):
        co = np.empty(t.shape + (6,))
        for k, fn in enumerate(fields):
            co[..., k] = fn(t)
        return co

    end = float(coeffs.domain_end)
    run = _panels.refine(end * _GRADES, evaluate, _states, tol, _FLOOR,
                         "characteristic system is", stop=a_zero)
    T_valid = run.dense.t_max
    end_cause = "a-zero" if T_valid < end else "horizon"
    # Y^0 = -2 mu0 e^{2D} leaves 0 against the sign of a(0): searched at
    # every node and at the end
    ts, y0s = np.empty(run.t.size + 1), np.empty(run.t.size + 1)
    ts[:-1], ts[-1] = run.t.ravel(), T_valid
    y0s[:-1], y0s[-1] = run.y[..., 1].ravel(), run.edges[-1, 1]
    mu0_zero = _first_exit(ts, y0s, lambda y0: y0 * sign < 0.0,
                           lambda t: run.dense.state(1, t))
    if mu0_zero is not None:
        T_valid, end_cause = mu0_zero, "mu0-zero"
    return CharacteristicSolution(coeffs=coeffs, T_valid=T_valid,
                                  end_cause=end_cause, steps=run.dense.panels,
                                  nfev=run.nfev + len(a_calls),
                                  passes=run.passes, built=run.built,
                                  _sol=run.dense, _coefs=run.coefs)


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
    ref = -2.0 * on_arrays(chs.coeffs.a)(ts) * h ** 2
    return float(np.max(np.abs(mu0 * dmu1 - mu1 * dmu0 - ref) / np.abs(ref)))
