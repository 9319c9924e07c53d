"""The seven-function quadratic-exponent ODE system and its fundamental solution.

The Gaussian-form particular solutions of the master equation are governed by
the coupled system

    mu'    = -2 mu (2 a alpha + d)
    alpha' = -b + 2 c alpha + 4 a alpha^2          (Riccati)
    beta'  = (c + 4 a alpha) beta
    gamma' = a beta^2
    delta' = (c + 4 a alpha) delta + f - 2 alpha g
    eps'   = (2 a delta - g) beta
    kappa' = a delta^2 - g delta

This module builds the distinguished solution (alpha0 ... kappa0) as algebra
on the states of one characteristic solve, whose Wronskian
mu0 mu1' - mu1 mu0' = -2 a h^2 turns eps0 and kappa0 into regular
quadratures (see :class:`FundamentalRiccati`).  It also applies the
nonlinear superposition principle that produces the general solution from
arbitrary initial data, inverts that map, integrates the system directly as
an independent cross-check, and provides the small-time expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characteristic import CharacteristicSolution
from .coefficients import CoefficientSet
from .errors import (BlowUpError, IntegrationError, SingularityError,
                     check_range)

BLOWUP_THRESHOLD = 1e12
SUPERPOSE_SINGULAR_ATOL = 1e-14


class FundamentalValues(NamedTuple):
    """The distinguished solution at one time (floats) or at an array of
    times (arrays)."""

    mu0: float
    alpha0: float
    beta0: float
    gamma0: float
    delta0: float
    eps0: float
    kappa0: float


@dataclass
class RiccatiState:
    """A full seven-tuple at time ``t`` together with its initial data."""

    t: float
    mu: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    eps: float
    kappa: float
    init: tuple


class FundamentalRiccati:
    """Dense evaluators for alpha0 ... kappa0 on (0, T_valid].

    Every function is algebraic in the states of the characteristic solution
    (the drift-scaled linear pairs (X^0, Y^0), (X^1, Y^1), C = int c,
    D = int d and the source quadratures P, Q, R; see
    :mod:`heatkern.characteristic`):

        alpha0 = X^0 e^{2C}/Y^0    beta0  = -2 e^C/Y^0      gamma0 = Y^1/Y^0
        mu0    = -Y^0 e^{-2D}/2    delta0 = P e^C/Y^0
        eps0   = Q - P gamma0      kappa0 = gamma0 P^2/4 - R/2

    alpha0 = X/Y solves the Riccati equation and mu0, beta0 follow from
    Y'/Y = -(c + 4a alpha0).  The Wronskian X^0 Y^1 - X^1 Y^0 = 1 gives
    gamma0' = 4a e^{2C}/(Y^0)^2 = a beta0^2 and
    Q' - gamma0 P' = 2g e^C/Y^0 = -g beta0, which with
    (Y delta0)' = f Y - 2g X = P' prove the eps0 and kappa0 equations.  As
    t -> 0+, P/Y^0 -> g(0)/(2a(0)), so eps0(0) = -g(0)/(2a(0)) and
    kappa0(0) = 0.  alpha0, beta0 and gamma0 diverge like 1/t at the origin,
    so evaluation at t = 0 (or past the end of the validity interval, see
    :meth:`CharacteristicSolution.check_valid`) is a domain error.
    """

    def __init__(self, chs: CharacteristicSolution):
        self.chs = chs
        self.coeffs = chs.coeffs

    @property
    def T_valid(self) -> float:
        return self.chs.T_valid

    def values(self, t) -> FundamentalValues:
        """All seven functions at ``t`` (a float or an array) from one dense
        evaluation; array fields for an array ``t``."""
        t_arr = np.asarray(t, dtype=float)
        self.chs.check_valid(t_arr)
        states = self.chs.states(t_arr)
        try:
            if t_arr.ndim == 0:  # Python floats: the array path's arithmetic, faster
                states = states.tolist()
                e_c, e_2d = math.exp(states[4]), math.exp(-2.0 * states[5])
            else:  # math.exp per element as well: np.exp may differ in the last bit
                e_c, e_2d = (np.array([math.exp(v) for v in row.ravel().tolist()]
                                      ).reshape(row.shape)
                             for row in (states[4], -2.0 * states[5]))
        except OverflowError:
            raise IntegrationError("e^C or e^(-2D) overflows: mu0 or beta0 is "
                                   "out of floating-point range") from None
        x0, y0, _, y1, _, _, p, q, r = states
        gamma0 = y1 / y0
        return FundamentalValues(
            mu0=-0.5 * y0 * e_2d,
            alpha0=x0 * e_c * e_c / y0,
            beta0=-2.0 * e_c / y0,
            gamma0=gamma0,
            delta0=p * e_c / y0,
            eps0=q - p * gamma0,
            kappa0=0.25 * gamma0 * p * p - 0.5 * r,
        )

    def mu0(self, t):
        return self.values(t).mu0

    def alpha0(self, t):
        return self.values(t).alpha0

    def beta0(self, t):
        return self.values(t).beta0

    def gamma0(self, t):
        return self.values(t).gamma0

    def delta0(self, t):
        return self.values(t).delta0

    def eps0(self, t):
        return self.values(t).eps0

    def kappa0(self, t):
        return self.values(t).kappa0


def fundamental(chs: CharacteristicSolution) -> FundamentalRiccati:
    """The fundamental solution of the seven-function system built on ``chs``.

    No further integration: the seven functions are algebraic in the dense
    characteristic states (see :class:`FundamentalRiccati`), on the validity
    interval that ``chs`` records.
    """
    return FundamentalRiccati(chs)


def superpose(fund: FundamentalRiccati, init, t: float) -> RiccatiState:
    """General solution at time ``t`` from arbitrary initial data.

    ``init`` is the seven-tuple (mu, alpha, beta, gamma, delta, eps, kappa)
    at t = 0.  Raises :class:`SingularityError` when alpha(0) + gamma0(t)
    vanishes (within 1e-14), where the superposition formulas break down.
    """
    mu_i, alpha_i, beta_i, gamma_i, delta_i, eps_i, kappa_i = (float(v) for v in init)
    fv = fund.values(t)
    denom = alpha_i + fv.gamma0
    if abs(denom) <= SUPERPOSE_SINGULAR_ATOL:
        raise SingularityError(f"alpha(0) + gamma0({t}) = {denom:.3e} is singular")
    shift = delta_i + fv.eps0
    return RiccatiState(
        t=float(t),
        mu=-2.0 * mu_i * fv.mu0 * denom,
        alpha=fv.alpha0 - fv.beta0 ** 2 / (4.0 * denom),
        beta=-beta_i * fv.beta0 / (2.0 * denom),
        gamma=gamma_i - beta_i ** 2 / (4.0 * denom),
        delta=fv.delta0 - fv.beta0 * shift / (2.0 * denom),
        eps=eps_i - beta_i * shift / (2.0 * denom),
        kappa=kappa_i + fv.kappa0 - shift ** 2 / (4.0 * denom),
        init=tuple(float(v) for v in init),
    )


class RiccatiTrajectory:
    """Dense directly-integrated trajectory of the seven-function system.

    ``dense(t)`` returns the 7m states of a stack integrated together,
    component by component (a (7, m) array, raveled); this trajectory reads
    column ``member``.
    """

    def __init__(self, init, T, dense, member=0):
        self.init = tuple(float(v) for v in init)
        self.T = float(T)
        self._dense = dense
        self._member = member

    def state(self, t: float) -> RiccatiState:
        t = check_range("t", float(t), 0.0, self.T)
        y = self._dense(t).reshape(7, -1)[:, self._member]
        return RiccatiState(t, *map(float, y), init=self.init)

    @property
    def final(self) -> RiccatiState:
        return self.state(self.T)


def integrate_direct(coeffs: CoefficientSet, init, T: float, tol: float = 1e-10
                     ) -> RiccatiTrajectory | list[RiccatiTrajectory]:
    """Integrate the seven coupled ODEs directly from ``init`` up to ``T``.

    ``init`` is one datum (mu, alpha, beta, gamma, delta, eps, kappa) of
    shape (7,), which gives one :class:`RiccatiTrajectory`, or a stack of m
    data of shape (m, 7), which is integrated as one system of 7m equations
    and gives a list of m trajectories sharing its dense output.  The RHS
    acts on the rows of a (7, m) view, so a ... g are evaluated once per
    call for the whole stack.  The step control's error norm is the RMS over
    all 7m components, so a stack runs at rtol = tol/sqrt(m) (atol = 1e-3
    rtol) to hold every member to the accuracy of its own run at ``tol``.

    ``T`` must lie in [0, coeffs.domain_end]; anything else, NaN and inf
    included, raises :class:`DomainError`.  Solutions of the Riccati
    component can blow up in finite time; any component magnitude of any
    member exceeding 1e12 aborts the run with a :class:`BlowUpError`
    carrying the time the first member escaped.
    """
    stack = np.array(init, dtype=float)
    if stack.ndim not in (1, 2) or stack.shape[-1] != 7 or stack.size == 0:
        raise ValueError("init must be the seven values (mu, alpha, beta, "
                         "gamma, delta, eps, kappa) or a stack of shape (m, 7)")
    if not np.all(np.isfinite(stack)):
        raise ValueError("init must be finite")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    T = check_range("T", T, 0.0, coeffs.domain_end)
    rows = stack.reshape(-1, 7)
    rtol = tol / math.sqrt(len(rows))

    def rhs(t, y):
        mu, alpha, beta, gamma, delta, eps, kappa = y.reshape(7, -1)
        a = coeffs.a(t)
        b = coeffs.b(t)
        c = coeffs.c(t)
        d = coeffs.d(t)
        f = coeffs.f(t)
        g = coeffs.g(t)
        lin = c + 4.0 * a * alpha
        return np.concatenate([
            -2.0 * mu * (2.0 * a * alpha + d),
            -b + 2.0 * c * alpha + 4.0 * a * alpha ** 2,
            lin * beta,
            a * beta ** 2,
            lin * delta + f - 2.0 * alpha * g,
            (2.0 * a * delta - g) * beta,
            a * delta ** 2 - g * delta,
        ])

    def escape(t, y):
        return float(np.max(np.abs(y))) - BLOWUP_THRESHOLD

    escape.terminal = True
    escape.direction = 1.0

    from scipy.integrate import solve_ivp   # the oracle's own integrator
    sol = solve_ivp(rhs, (0.0, T), rows.T.ravel(), method="DOP853",
                    dense_output=True, rtol=rtol, atol=rtol * 1e-3,
                    events=escape)
    if sol.status == 1:
        raise BlowUpError(f"trajectory escaped |y| > {BLOWUP_THRESHOLD:g} "
                          f"at t = {sol.t_events[0][0]:.6g}", sol.t_events[0][0])
    if not sol.success:
        raise IntegrationError(f"direct integration failed: {sol.message}")
    if stack.ndim == 1:
        return RiccatiTrajectory(stack, T, sol.sol)
    return [RiccatiTrajectory(row, T, sol.sol, j) for j, row in enumerate(rows)]


def invert(state: RiccatiState) -> FundamentalValues:
    """Recover the fundamental-solution values from a general solution.

    Requires gamma(t) != gamma(0), beta(0) != 0 and mu(0) != 0; applying
    this to the output of :func:`superpose` reproduces the fundamental
    values used there (an exact algebraic roundtrip).
    """
    mu_i, alpha_i, beta_i, gamma_i, delta_i, eps_i, kappa_i = state.init
    dgamma = state.gamma - gamma_i
    if dgamma == 0.0:
        raise SingularityError("gamma(t) = gamma(0); inverse map undefined")
    if beta_i == 0.0 or mu_i == 0.0:
        raise SingularityError("inverse map requires beta(0) != 0 and mu(0) != 0")
    deps = state.eps - eps_i
    return FundamentalValues(
        mu0=2.0 * state.mu * dgamma / (mu_i * beta_i ** 2),
        alpha0=state.alpha - state.beta ** 2 / (4.0 * dgamma),
        beta0=beta_i * state.beta / (2.0 * dgamma),
        gamma0=-alpha_i - beta_i ** 2 / (4.0 * dgamma),
        delta0=state.delta - state.beta * deps / (2.0 * dgamma),
        eps0=-delta_i + beta_i * deps / (2.0 * dgamma),
        kappa0=state.kappa - kappa_i - deps ** 2 / (4.0 * dgamma),
    )


def asymptotics(coeffs: CoefficientSet, t: float) -> FundamentalValues:
    """Truncated t -> 0+ expansions (constant terms kept, O(t) dropped), with
    mu0 = 2 a(0) t to the same order.

    Intended for small t (<= 1e-2); the caller is responsible for the range.
    Raises ``ValueError`` if the set has no a'.
    """
    t = float(t)
    a0 = coeffs.a(0.0)
    c0 = coeffs.c(0.0)
    g0 = coeffs.g(0.0)
    da0 = coeffs.derivative("da")(0.0)
    curv = da0 / (8.0 * a0 ** 2)
    return FundamentalValues(
        mu0=2.0 * a0 * t,
        alpha0=-1.0 / (4.0 * a0 * t) - c0 / (4.0 * a0) + curv,
        beta0=1.0 / (2.0 * a0 * t) - da0 / (4.0 * a0 ** 2),
        gamma0=-1.0 / (4.0 * a0 * t) + c0 / (4.0 * a0) + curv,
        delta0=g0 / (2.0 * a0),
        eps0=-g0 / (2.0 * a0),
        kappa0=0.0,
    )


def gamma0_quadrature_form(fund: FundamentalRiccati, t: float,
                           quad_tol: float = 1e-11) -> float:
    """gamma0 via its quadrature representation (divides by mu0').

    gamma0 = d(0)/(2a(0)) - a h^2/(mu0 mu0') - 4 int_0^t a sigma h^2/(mu0')^2,
    which follows from differentiating the boundary term:
    d/dt[-a h^2/(mu0 mu0')] = a h^2/mu0^2 + 4 a sigma h^2/(mu0')^2.
    Valid only where mu0' does not vanish on (0, t]; retained as an
    independent cross-check of gamma0 = Y^1/Y^0.
    """
    from scipy.integrate import quad

    from .coefficients import tau_sigma

    chs, coeffs = fund.chs, fund.coeffs

    def integrand(s):
        a = coeffs.a(s)
        sigma = tau_sigma(coeffs, s)[1]
        _, dmu0, _, _, h = chs.standard(s)
        return a * sigma * h ** 2 / dmu0 ** 2

    val, err = quad(integrand, 0.0, t, epsabs=quad_tol, epsrel=quad_tol, limit=4096)
    mu0, dmu0, _, _, h = chs.standard(t).tolist()
    return (coeffs.d(0.0) / (2.0 * coeffs.a(0.0))
            - coeffs.a(t) * h ** 2 / (mu0 * dmu0) - 4.0 * val)
