"""Legendre panels: the one quadrature and ODE machinery of the main path.

A panel [a, b] carries the 21 Gauss–Kronrod nodes of QUADPACK's qk21, and a
function sampled there is its degree-20 interpolant, handled through
Legendre series (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071):

* the linear ODEs Z' = A(t) Z of the characteristic solve and the profile
  equation, with 2 x 2 matrices A = [[0, A01], [A10, A11]], become on every
  panel the collocation system Z_i = Z_a + int_a^{t_i} A Z at the nodes.  Its
  first block row gives U at the nodes from V, so one n x n system per panel
  (the Schur complement of the 2n x 2n one) gives both unit solutions, for
  all panels in one ``np.linalg.solve`` (:func:`linear`); the panels' 2 x 2
  end propagators are then chained (:func:`chain`);
* quadratures are a panel-local integral plus a ``cumsum`` of the panel
  totals (:func:`cumulative`);
* the adaptive G10/K21 quadratures of the kernel and the Burgers V0 take a
  block's nodes from :func:`rule_nodes` and its K21 sums and error
  estimates from one product with :data:`RULES`.

Every state y of an ODE run is dense on each panel as y(t) = y(a) + (t - a)
g(x), where g(x) = int_0^1 y'(a + (t - a) u) du is the mean of y' over
[a, t], a Legendre series in the panel coordinate x = (t - a)/h - 1, h = (b -
a)/2, which :func:`mean_series` finds from y' at the nodes.  A state that
starts at 0 thus keeps its relative accuracy as t -> 0.  The series keeps
only the terms the tolerance needs, and :func:`refine` bisects every panel
whose series cannot drop its last two terms.  :class:`Dense` evaluates the
states of an ODE run and the Burgers antiderivative V0, whose panels hold V0
at their left edge and the mean of v0 over [a, y].  :func:`clenshaw` sums a
series for a float or for arrays in the same operation order, so both give
the same bits.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import IntegrationError

# Gauss–Kronrod 21-point rule on [-1, 1] and its embedded 10-point Gauss rule
# (the pair QUADPACK's qk21 uses); G10_W is zero at the Kronrod-only nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077548214932150, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068])
_WGK0 = 0.149445554002916905664936468389821
_WG = np.array([0.0, 0.066671344308688137593568809893332,
                0.0, 0.149451349150580593145776339657697,
                0.0, 0.219086362515982043995534934228163,
                0.0, 0.269266719309996355091226921569469,
                0.0, 0.295524224714752870173892994651338])
NODES = np.concatenate((-_XGK, [0.0], _XGK[::-1]))   # increasing
K21_W = np.concatenate((_WGK, [_WGK0], _WGK[::-1]))
G10_W = np.concatenate((_WG, [0.0], _WG[::-1]))
N = len(NODES)
# f at the nodes @ RULES: the K21 sum and its error estimate, the K21 - G10
# sum, of each panel scaled to [-1, 1].  Every K21 weight is positive, so a
# NaN or an inf at any node makes the first column not finite.
RULES = np.stack((K21_W, K21_W - G10_W), axis=1)
_MID_HALF = np.array([[0.5, -0.5], [0.5, 0.5]])
_AT_NODES = np.stack((np.ones(N), NODES))

# Clenshaw's sum of a Legendre series: b_k = c_k + A_k x b_(k+1) - B_k b_(k+2)
_CLENSHAW = [((2 * k + 1) / (k + 1), (k + 1) / (k + 2)) for k in range(21)]
_EYE, _UNIT = np.eye(N), np.eye(2)
_DEGREE = np.arange(N)[:, None]

MAX_PANELS = 1 << 11    # panels one ODE run may hold
_MIN_WIDTH = 2.0 ** -44  # the narrowest panel, relative to max(1, |t|)
# A panel is resolved when the last two terms of every state's series sum to
# at most tol / 1024 of the state's scale there, or to the coefficients'
# rounding noise, about 100 machine epsilons of it; the dense series drop
# the terms that change no state by more than tol / 1024 of its value.
_DROP = 2.0 ** -10
_NOISE = 100.0 * np.finfo(float).eps


def _legendre(x) -> np.ndarray:
    """(21, *x.shape): P_0 ... P_20 at ``x``, by the recurrence."""
    P = [np.ones_like(x), x]
    for k in range(1, 20):
        P.append(((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1))
    return np.array(P)


@functools.cache
def _to_legendre() -> np.ndarray:
    """(21, 21): values at the nodes to the Legendre coefficients."""
    return np.linalg.inv(_legendre(NODES).T)


@functools.cache
def _mean_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(S, G), both (21, 21), acting on the values of p at the nodes: S gives
    int_{-1}^{x_i} p at the nodes, G the Legendre coefficients of the mean
    g(x) = int_0^1 p(-1 + (x + 1) u) du.  g is found at the nodes by the K21
    rule in u, which is exact for degree 20 and has no cancellation as
    x -> -1, and S = diag(1 + x) g."""
    C = _to_legendre()
    u = 0.5 * (1.0 + NODES)
    z = -1.0 + (1.0 + NODES)[:, None] * u[None, :]       # (node, u-node)
    lagrange = np.einsum("kim,kj->imj", _legendre(z), C)  # L_j at z
    g_nodes = np.einsum("m,imj->ij", 0.5 * K21_W, lagrange)
    return (1.0 + NODES)[:, None] * g_nodes, C @ g_nodes


def mean_series(dy) -> np.ndarray:
    """(m, 21, s): the Legendre coefficients of each panel's mean slope g
    from the slopes ``dy`` (m, 21, s) at its nodes.  They are taken relative
    to the first node's slope, so that a constant slope gives g exactly."""
    coef = _mean_matrices()[1] @ (dy - dy[:, :1])
    coef[:, 0] += dy[:, 0]
    return coef


def clenshaw(coef: Callable, n: int, x):
    """sum_{k < n} coef(k) P_k(x), highest degree first, one degree at a time.

    ``coef(k)`` is the degree-k coefficient: a float for a float ``x``, or an
    array gathered for every x.  Python floats round as numpy's elementwise
    float64 arithmetic does, so both paths give the same bits.
    """
    b1, b2 = coef(n - 1), 0.0
    for k in range(n - 2, -1, -1):
        A, B = _CLENSHAW[k]
        b1, b2 = coef(k) + A * x * b1 - B * b2, b1
    return b1


def rule_nodes(ab) -> tuple[np.ndarray, np.ndarray]:
    """(mid, half) (m, 2) and the Kronrod nodes (m, 21) of the panels whose
    (start, end) are the rows of ``ab``, one product each."""
    mh = ab @ _MID_HALF
    return mh, mh @ _AT_NODES


def cumulative(half, f, start=0.0):
    """The integral from the first panel's start of f, sampled (m, 21) at the
    nodes, plus ``start``: (values at the nodes, values at the m + 1 edges)."""
    local = half[:, None] * (f @ _mean_matrices()[0].T)
    edges = np.empty(len(half) + 1)
    edges[0] = start
    np.multiply(half, f @ K21_W, edges[1:])
    edges.cumsum(out=edges)
    return edges[:-1, None] + local, edges


def linear(half, A01, A10, A11=None):
    """The unit solutions of Z' = [[0, A01], [A10, A11]] Z on every panel.

    The coefficients are (m, 21) arrays at the nodes.  Returns (node values
    (m, 21, 2, 2), end propagators (m, 2, 2)): column j is the solution from
    Z = e_j at the panel's start.  Where A01 is 0 the first row stays the
    unit datum exactly.
    """
    m = len(half)
    hS = half[:, None, None] * _mean_matrices()[0]
    S01, S10 = hS * A01[:, None, :], hS * A10[:, None, :]
    M = np.subtract(_EYE, S10 @ S01)
    if A11 is not None:
        M -= hS * A11[:, None, :]
    rhs = np.empty((m, N, 2))
    rhs[..., 0] = S10.sum(axis=-1)
    rhs[..., 1] = 1.0
    try:
        V = np.linalg.solve(M, rhs)                     # (m, 21, 2)
    except np.linalg.LinAlgError:
        raise IntegrationError("a panel's collocation system is singular") from None
    U = S01 @ V
    U[..., 0] += 1.0
    dU = A01[..., None] * V
    dV = A10[..., None] * U
    if A11 is not None:
        dV += A11[..., None] * V
    w = half[:, None, None] * K21_W[:, None]
    end = np.empty((m, 2, 2))
    end[:, 0] = _UNIT[0] + (w * dU).sum(axis=1)
    end[:, 1] = _UNIT[1] + (w * dV).sum(axis=1)
    UV = np.empty((m, N, 2, 2))
    UV[..., 0, :], UV[..., 1, :] = U, V
    return UV, end


def chain(node_prop, end_prop, z0):
    """Chain the panels' propagators from ``z0`` (2, j) at the first start:
    (values at the nodes (m, 21, 2, j), values at the m + 1 edges)."""
    z0 = np.asarray(z0, dtype=float)
    edges = np.empty((len(end_prop) + 1, *z0.shape))
    edges[0] = z0
    for k, E in enumerate(end_prop):
        edges[k + 1] = E @ edges[k]
    return node_prop @ edges[:-1, None], edges


class Dense:
    """Dense states on sorted panels: y(t) = start + (t - a) g(x).

    ``start`` (m, s) holds the states at the panels' starts and ``coef``
    (m, K, s) the Legendre coefficients of g.  A float t gives the s states
    as an array, an array of t an (s, *t.shape) array.  State j's series has
    ``keep[j]`` terms, and its coefficients past them are 0: the array path
    sums all K terms of every state, the float path only a state's own, and
    the leading zero terms of the array path leave its sum at +0.0 to the
    last bit, so both paths agree to the last bit.  A t outside the panels
    is extrapolated from the end panel.
    """

    def __init__(self, a, b, start, coef, keep):
        self._a, self._half = a, 0.5 * (b - a)
        self._inner = a[1:]     # t's panel is the number of these at or below t
        self._start = start.T.copy()                 # (s, m)
        self._coef = coef.transpose(1, 2, 0).copy()  # (K, s, m)
        self._keep = keep
        self.t_max = float(b[-1])
        self._a_list, self._half_list = a.tolist(), self._half.tolist()
        self._rows = {}   # the float path's Python floats, per panel used

    @property
    def panels(self) -> int:
        return len(self._a_list)

    def _float_rows(self, t: float):
        """Per state of t's panel: (start, coefficient getter, terms), and
        the panel's t - a and x at t, all Python floats."""
        i = min(max(bisect_right(self._a_list, t) - 1, 0), self.panels - 1)
        rows = self._rows.get(i)
        if rows is None:
            rows = self._rows[i] = [
                (y0, col[:n].__getitem__, n) for y0, col, n in zip(
                    self._start[:, i].tolist(), self._coef[..., i].T.tolist(),
                    self._keep)]
        dt = t - self._a_list[i]
        return rows, dt, dt / self._half_list[i] - 1.0

    def __call__(self, t):
        if np.ndim(t) == 0:
            rows, dt, x = self._float_rows(float(t))
            return np.array([y0 + dt * clenshaw(col, n, x) for y0, col, n in rows])
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self._inner, t, side="right")
        dt = t - self._a.take(i)
        x = dt / self._half.take(i) - 1.0
        # one degree at a time, so no (K, s, *t.shape) block is gathered
        return (self._start.take(i, axis=-1) + dt * clenshaw(
            lambda k: self._coef[k].take(i, axis=-1), len(self._coef), x))

    def state(self, j: int, t: float) -> float:
        """State j alone at a float t, as the float path computes it."""
        rows, dt, x = self._float_rows(t)
        y0, col, n = rows[j]
        return y0 + dt * clenshaw(col, n, x)


def bisect(inside: Callable, lo: float, hi: float) -> float:
    """The first t of (lo, hi] where ``inside(t)`` fails, to the last bit,
    given that it holds at lo and fails at hi."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if inside(mid):
            lo = mid
        else:
            hi = mid


class Run(NamedTuple):
    """One refined run: the dense states, the nodes (m, 21) with the states
    (m, 21, s) and the coefficients (m, 21, c) there, the states at the m + 1
    edges, the coefficient evaluations made, the refinement passes (calls of
    ``build``) and the panels built, summed over the passes."""

    dense: Dense
    t: np.ndarray
    y: np.ndarray
    coefs: np.ndarray
    edges: np.ndarray
    nfev: int
    passes: int
    built: int


def refine(bounds, evaluate: Callable, build: Callable,
           tol: float, floor, what: str, var: str = "t",
           stop: Optional[Callable] = None) -> Run:
    """Bisect the panels between the increasing ``bounds`` until every state
    is resolved.

    ``evaluate(t)`` gives the coefficients at the nodes ``t`` (m, 21) of new
    panels, (m, 21, c); ``build(a, half, coefs)`` gives the states of all
    panels from them: (at the edges (m + 1, s), derivatives at the nodes
    (m, 21, s), values at the nodes (m, 21, s)).  A panel is bisected while,
    for some state, the last two terms of its mean-slope series g sum to
    more than tol/1024 (or the coefficients' rounding noise) of its scale:
    the sum of |g|'s coefficients, or its largest |value| on the panel or
    ``floor[s]``, over the panel's width.  The dense series then keep the
    terms whose dropping could change a state at a node by more than
    tol/1024 of max(|value|, ``floor[s]``) there, so a state that starts at
    0 keeps its relative accuracy.  ``stop(t, coefs)``, given the nodes and
    the coefficients of all panels, may return a time where the run must
    end; the panels are then cut there.

    The panel holding the first node where a state or a derivative is not
    finite is bisected as well, and the panels after it are left as they
    are, so a failure is located to the narrowest panel.  Raises
    :class:`IntegrationError` whose message starts with ``what`` (a subject
    and its verb) and names the place: a value that is not finite; a panel
    narrower than _MIN_WIDTH max(1, |t|) that is still unresolved; more than
    MAX_PANELS panels.
    """
    floor = np.asarray(floor, dtype=float)
    drop = tol * _DROP
    bounds = np.asarray(bounds, dtype=float)
    a, b = bounds[:-1], bounds[1:]
    t = rule_nodes(np.column_stack((a, b)))[1]
    coefs = evaluate(t)
    nfev, passes, built = N * len(a), 0, 0
    with np.errstate(all="ignore"):
        while True:
            end = stop(t, coefs) if stop is not None else None
            if end is not None:
                k = int(np.searchsorted(b, end))     # the panel holding it
                if k and end - a[k] < _MIN_WIDTH * max(1.0, abs(end)):
                    # it ends at a[k]
                    a, b, t, coefs = a[:k], b[:k], t[:k], coefs[:k]
                    continue
                a, b, t, coefs = (a[:k + 1], b[:k + 1].copy(), t[:k + 1].copy(),
                                  coefs[:k + 1].copy())
                b[k] = end
                t[k] = rule_nodes(np.column_stack((a[k:], b[k:])))[1][0]
                coefs[k] = evaluate(t[k:])[0]
                nfev += N
                continue
            half = 0.5 * (b - a)
            edges, dy, y = build(a, half, coefs)
            passes, built = passes + 1, built + len(a)
            coef = mean_series(dy)                         # (m, 21, s)
            tails = np.abs(coef[:, ::-1]).cumsum(axis=1)[:, ::-1]
            size = np.abs(edges)
            size = np.maximum(np.maximum(size[:-1], size[1:]),
                              np.maximum(np.abs(y).max(axis=1), floor))
            scale = np.maximum(tails[:, 0], size / (2.0 * half[:, None]))
            ok = (tails[:, N - 2] <= max(drop, _NOISE) * scale).all(axis=1)
            first_bad = None
            # a value that is not finite at a node makes its panel's scale
            # NaN or infinite: through every coefficient of g, or the size
            if not np.isfinite(scale).all():
                finite = np.isfinite(dy).all(axis=-1) & np.isfinite(y).all(axis=-1)
                if not finite.all():
                    first_bad = int(np.argmin(finite.ravel()))
                    kb = first_bad // N
                    ok[kb] = False
                    ok[kb + 1:] = True      # left as they are until then
            if ok.all():
                break
            mid = a + half
            narrow = 2.0 * half < _MIN_WIDTH * np.maximum(1.0, np.abs(mid))
            stuck = ~ok & narrow
            if stuck.any():
                k = int(np.argmax(stuck))
                if first_bad is not None and k == first_bad // N:
                    raise IntegrationError(f"{what} not finite at {var} = "
                                           f"{a[k]:.6g}")
                raise IntegrationError(f"{what} not resolved at {var} = "
                                       f"{mid[k]:.6g} by the narrowest panel")
            if len(a) + (~ok).sum() > MAX_PANELS:
                raise IntegrationError(f"{what} not resolved within "
                                       f"{MAX_PANELS} panels; refinement "
                                       f"stopped at {var} = "
                                       f"{mid[np.argmin(ok)]:.6g}")
            split = ~ok
            new_a = np.concatenate((a[split], mid[split]))
            new_b = np.concatenate((mid[split], b[split]))
            new_t = rule_nodes(np.column_stack((new_a, new_b)))[1]
            new = evaluate(new_t)
            nfev += N * len(new_a)
            a = np.concatenate((a[ok], new_a))
            order = np.argsort(a, kind="stable")
            a = a[order]
            b, t, coefs = (np.concatenate((old[ok], add))[order] for old, add in
                           ((b, new_b), (t, new_t), (coefs, new)))
    # |y(t_i) - its series cut at degree K| <= (t_i - a) tails[K]
    room = (np.maximum(np.abs(y), floor) / (t - a[:, None])[..., None]).min(axis=1)
    dropped = (tails <= drop * room[:, None]).sum(axis=1).min(axis=0)
    keep = np.maximum(N - dropped, 1)                   # terms, per state
    coef[:, _DEGREE >= keep] = 0.0
    dense = Dense(a, b, edges[:-1], coef[:, :keep.max()], keep.tolist())
    return Run(dense, t, y, coefs, edges, nfev, passes, built)
