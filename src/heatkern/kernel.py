"""Heat-kernel evaluation, Cauchy solving by quadrature, and closed forms.

The fundamental solution of the master equation has the Gaussian-exponential
form

    K(x, y, t) = (2 pi mu0(t))^(-1/2)
                 * exp(alpha0 x^2 + beta0 x y + gamma0 y^2
                       + delta0 x + eps0 y + kappa0)

with the coefficient functions supplied by the fundamental solution of the
quadratic-exponent ODE system.  Everything here works in log space: the
quadratic form is assembled once per evaluation time and reused across
(x, y), and quadratures shift by the peak exponent before exponentiating.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .characteristic import solve_characteristic
from .coefficients import CoefficientSet, builtin_equation, on_arrays
from .errors import (DomainError, IntegrationError, QuadratureError,
                     SingularityError)
from .riccati import FundamentalRiccati, asymptotics, fundamental, superpose
from ._panels import _MIN_WIDTH, RULES, rule_nodes
from ._differences import d1_uniform4, d2_uniform4, dt_central

LOG_OVERFLOW = 700.0


class TruncationWarning(UserWarning):
    """Kernel mass outside the quadrature window exceeds the safe bound."""


class NonconservativeWarning(UserWarning):
    """The kernel does not correspond to a probability transition density."""


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive Gauss–Kronrod quadrature tolerances, per evaluation point.

    ``limit`` caps the number of subintervals (panels) one point's integral
    may use; exceeding it raises :class:`QuadratureError`.  ValueError
    unless both tolerances are finite and >= 0 and ``limit`` >= 1.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    limit: int = 4096

    def __post_init__(self):
        if not (0.0 <= self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf
                and self.limit >= 1):
            raise ValueError(f"quadrature needs finite tolerances >= 0 and a "
                             f"limit >= 1, got {self}")


_BLOCK = 2048           # panels per integrand call; bounds working memory
# (lo, center, hi) @ _EDGES: a window's first edges, four equal panels on
# either side of its center
_EDGES = np.array([[1.0, 0.75, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0],
                   [0.0, 0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25, 0.0],
                   [0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0]])


def _window_edges(lo, hi, center, knots=None) -> np.ndarray:
    """The (n, e) first edges of the windows [lo, hi] (empty when hi <= lo):
    four equal panels on either side of ``center`` clipped into the window,
    split further at every knot inside it."""
    lo = np.asarray(lo, dtype=float)
    hi = np.maximum(np.asarray(hi, dtype=float), lo)
    c = np.minimum(np.maximum(center, lo), hi)
    edges = np.stack((lo, c, hi), axis=1) @ _EDGES
    if knots is not None:
        inside = np.clip(np.asarray(knots, dtype=float)[None, :],
                         lo[:, None], hi[:, None])
        edges = np.sort(np.concatenate((edges, inside), axis=1), axis=1)
    return edges


def _gk21(f, edges, spec: QuadSpec, panels: bool = False):
    """Adaptive G10/K21 quadrature of many integrals at once.

    Row i is the integral over [edges[i, 0], edges[i, -1]] of the integrand
    ``f(rows, Y)``, which receives a (panels, 21) array of nodes and the row
    index of each panel.  It returns a (panels, 21) array or a (components,
    panels, 21) stack, and the result is (components, rows).  ``panels``
    adds the accepted panels (some row must hold one) in the order of
    acceptance: rows (m,), (start, end) (m, 2), K21 values (components, m)
    and integrand values (..., m, 21).  Row i's first
    panels lie between its sorted ``edges[i]``; equal neighbours make an
    empty panel, which is dropped, so a row whose edges are all equal is 0
    and never reaches ``f``.  Every pass evaluates all live
    panels, ``_BLOCK`` at a time; a block's nodes are one product of its
    (mid, half) pairs, and its sums one product of its integrand values with
    the rule matrix ``_panels.RULES``, whose columns give the K21 value and
    the error estimate K21 - G10, differenced in the weights.  A panel is
    accepted when, for every component k, |K21 - G10| <= max(abs_tol,
    rel_tol max(|I_k|, |I_0|)) times its share of the window, I_k being
    the row's running estimate of component k, and bisected otherwise.  A
    panel narrower than ``_panels._MIN_WIDTH`` max(1, |y|), such as one
    holding a jump of f, is accepted when every component's |K21 - G10| is
    at most 2^-10 of that component's whole-window tolerance.  A row
    needing more than ``spec.limit`` panels raises :class:`QuadratureError`
    at the y where the bisected panel with the largest estimate was split,
    and so does a block whose K21 sums are not finite, which every NaN or
    inf among its integrand values makes them (all K21 weights are
    positive): no bisection could meet a tolerance there.  That error names
    the first such node, or the first panel whose sum of finite values
    overflowed.
    """
    n = len(edges)
    ab = np.empty((n, edges.shape[1] - 1, 2))     # (start, end) of each panel
    ab[..., 0], ab[..., 1] = edges[:, :-1], edges[:, 1:]
    ab = ab.reshape(-1, 2)
    rows = np.repeat(np.arange(n), edges.shape[1] - 1)
    keep = ab[:, 1] > ab[:, 0]
    if not keep.all():
        rows, ab = rows[keep], ab.compress(keep, axis=0)

    width = edges[:, -1] - edges[:, 0]
    width = np.where(width > 0.0, width, 1.0)    # an empty window has no panels
    narrowest = _MIN_WIDTH * max(1.0, np.abs(edges).max(initial=0.0))
    total = np.zeros((1, n))
    count = np.bincount(rows, minlength=n)
    err, kept = None, []
    while len(rows):
        if count.max() > spec.limit:
            # bisected panel j's halves share ab[len(ab) // 2 + j, 0]
            at = (0.5 * ab[0].sum() if err is None else
                  ab[len(ab) // 2 + np.argmax(err.compress(bad, axis=1).max(axis=0)), 0])
            raise QuadratureError(f"quadrature did not converge within "
                                  f"{spec.limit} panels per point; refinement "
                                  f"stopped at y = {at:.6g}", float(at))
        sums, values = [], []
        for i in range(0, len(rows), _BLOCK):
            blk = slice(i, i + _BLOCK)
            mh, y = rule_nodes(ab[blk])
            fx = f(rows[blk], y)
            with np.errstate(over="ignore", invalid="ignore"):
                block = fx @ RULES
            if not np.isfinite(block[..., 0]).all():
                odd = (~np.isfinite(fx)).reshape(-1, *y.shape).any(axis=0)
                over = (~np.isfinite(block[..., 0])).reshape(-1, len(y)).any(axis=0)
                at = float(y[odd][0] if odd.any() else mh[np.argmax(over), 0])
                raise QuadratureError(f"integrand is not finite at y = {at:.6g}", at)
            sums.append(block * mh[:, 1:])
            if panels:
                values.append(fx)
        # (components, panels, 2)
        sums = np.concatenate(sums, axis=-2).reshape(-1, len(rows), 2)
        k21, err = sums[..., 0], np.abs(sums[..., 1])
        estimate = np.abs(total + [np.bincount(rows, k, minlength=n) for k in k21])
        row_tol = np.maximum(spec.abs_tol,
                             spec.rel_tol * np.maximum(estimate, estimate[0]))
        w = ab[:, 1] - ab[:, 0]
        ok = (err <= (row_tol / width)[:, rows] * w).all(axis=0)
        if w.min() < narrowest:     # only while a jump of f is being resolved
            narrow = w < _MIN_WIDTH * np.maximum(1.0, np.abs(ab[:, 0]))
            ok |= narrow & (err <= 2.0 ** -10 * row_tol[:, rows]).all(axis=0)
        total = total + [np.bincount(rows[ok], k[ok], minlength=n) for k in k21]
        if panels:
            kept.append((rows[ok], ab[ok], k21[:, ok],
                         np.concatenate(values, axis=-2).compress(ok, axis=-2)))
        if ok.all():
            break
        bad = ~ok
        rows, ab = rows[bad], ab.compress(bad, axis=0)
        count += np.bincount(rows, minlength=n)
        left, right = ab.copy(), ab
        left[:, 1] = right[:, 0] = 0.5 * (ab[:, 0] + ab[:, 1])
        rows, ab = np.concatenate((rows, rows)), np.concatenate((left, right))
    return (total, tuple(np.concatenate(part, axis=axis) for part, axis
                         in zip(zip(*kept), (0, 0, 1, -2)))) if panels else total


def _quad(f, lo, hi, spec: QuadSpec, points=None):
    from scipy.integrate import quad   # QUADPACK serves the oracles only

    pts = None
    if points is not None:
        pts = [p for p in points if lo < p < hi]
        pts = pts or None
    out = quad(f, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.limit, points=pts, full_output=1)
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if the reported error
        # estimate still meets the requested tolerance with margin
        val, abserr = out[0], out[1]
        if abserr > 10.0 * max(spec.abs_tol, spec.rel_tol * abs(val)):
            raise QuadratureError(f"quadrature did not converge: {out[3]}")
        return val
    return out[0]


@dataclass
class GridField:
    """A sampled space-time field on a finite 1-D x-grid; stencils read its
    spacing through :attr:`dx`, which alone requires it to be uniform."""

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ts = np.atleast_1d(np.asarray(self.ts, dtype=float))
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.ts), len(self.xs)):
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"(n_t={len(self.ts)}, n_x={len(self.xs)})")
        x_grid(self.xs)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def dx(self) -> float:
        """The x-spacing; ValueError unless the x-grid is uniform and increasing."""
        dx = np.diff(self.xs)
        if not (len(dx) and dx[0] > 0.0
                and np.all(np.abs(dx - dx[0]) <= 1e-9 * dx[0])):
            raise ValueError("x-grid must be uniform and increasing")
        return float(dx[0])

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self, fh, header=("t", "x", "u")):
        """One row per (t, x), t-major."""
        n_t, n_x = self.values.shape
        write_csv(fh, header, (np.repeat(self.ts, n_x), np.tile(self.xs, n_t),
                               self.values.ravel()))


def x_grid(xs) -> np.ndarray:
    """``xs`` as a float array; ValueError unless it is finite, non-empty and 1-D."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or not len(xs) or not np.all(np.isfinite(xs)):
        raise ValueError("x-grid must be a finite, non-empty 1-D array")
    return xs


def t_levels(t) -> np.ndarray:
    """``t``, a time or a sequence of times, as a 1-D float array;
    ValueError unless it is a scalar or a non-empty 1-D sequence."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1 or not len(ts):
        raise ValueError("t must be a time or a non-empty 1-D sequence of times")
    return ts


def write_csv(fh, header, columns):
    """Write ``header`` and equally long numeric ``columns`` as CSV rows with
    17 significant digits.

    Each distinct value of a column is formatted once.  Values are told
    apart by their bit pattern, so -0.0, 0.0 and every NaN keep their own
    text: the bytes are those of formatting every value on its own.  A
    column without repeats is formatted within its rows, and all rows are
    formatted by one ``%`` over the row format repeated once per row.
    """
    cells, specs = [], []
    for column in columns:
        values = np.asarray(column, dtype=float).ravel()
        floats, bits = values.tolist(), values.view(np.int64).tolist()
        if cells and len(floats) != len(cells[0]):
            raise ValueError("CSV columns differ in length")
        distinct = dict(zip(bits, floats))
        if len(distinct) == len(floats):
            cells.append(floats)
            specs.append("%.17g")
        else:
            text = dict(zip(distinct, map("%.17g".__mod__, distinct.values())))
            cells.append(list(map(text.__getitem__, bits)))
            specs.append("%s")
    n, k = (len(cells[0]) if cells else 0), len(cells)
    flat = [None] * (n * k)     # row-major: the cells of row i, then of i + 1
    for j, col in enumerate(cells):
        flat[j::k] = col
    fh.write(",".join(header) + "\n"
             + ((",".join(specs) + "\n") * n) % tuple(flat))


def _check_half_width(L):
    if L is not None and not L > 0.0:
        raise ValueError("truncation half-width L must be positive")


@dataclass
class InitialData:
    """Initial data for the Cauchy problem: a callable or sampled pairs.

    Sampled data is interpolated piecewise-linearly and treated as zero
    outside its sample range.  ``L`` is the truncation half-width; the data
    is integrated over :attr:`window`, intersected per evaluation point with
    the kernel's own Gaussian decay.  The quadrature calls
    ``func`` on ndarrays of nodes; a callable that only takes floats (it
    raises TypeError or ValueError on an array, or returns another shape)
    is evaluated per element instead.
    """

    func: Optional[Callable] = None
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    L: Optional[float] = None

    def __post_init__(self):
        if (self.func is None) == (self.xs is None):
            raise ValueError("provide exactly one of a callable or sample arrays")
        if self.xs is not None:
            self.xs = np.asarray(self.xs, dtype=float)
            self.ys = np.asarray(self.ys, dtype=float)
            if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
                raise ValueError("sample arrays must be 1-D and equally long")
            if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
                raise ValueError("sample x-values and values must be finite")
            if np.any(np.diff(self.xs) <= 0.0):
                raise ValueError("sample x-values must be increasing")
        _check_half_width(self.L)

    @classmethod
    def from_callable(cls, func, L=None):
        return cls(func=func, L=L)

    @classmethod
    def from_samples(cls, xs, ys, L=None):
        return cls(xs=xs, ys=ys, L=L)

    @classmethod
    def gaussian(cls, width=1.0, center=0.0, amplitude=1.0, L=None):
        w = float(width)
        if not (0.0 < w < math.inf and math.isfinite(center)
                and math.isfinite(amplitude)):
            raise ValueError(f"Gaussian width must be positive and finite, and "
                             f"center and amplitude finite, got {width!r}, "
                             f"{center!r} and {amplitude!r}")

        def phi(y):
            return amplitude * np.exp(-((y - center) / w) ** 2)

        return cls(func=phi, L=L)

    @property
    def window(self) -> tuple[float, float]:
        """[-L, L] intersected with the sample range, with -inf and inf where
        either is absent; empty (lo > hi) when they do not meet."""
        lo, hi = (-math.inf, math.inf) if self.L is None else (-self.L, self.L)
        if self.xs is not None:
            lo, hi = max(lo, float(self.xs[0])), min(hi, float(self.xs[-1]))
        return lo, hi

    def __call__(self, y):
        if self.func is not None:
            return self.func(y)
        out = np.interp(y, self.xs, self.ys, left=0.0, right=0.0)
        return float(out) if np.ndim(y) == 0 else out


class HeatKernel:
    """Evaluator for the Gaussian-form fundamental solution.

    ``fund`` supplies ``coeffs``, ``T_valid`` and ``values(t)``, the seven
    functions at ``t`` (a :class:`FundamentalRiccati`, or the small-time
    expansions in :func:`asymptotic_kernel`).
    """

    def __init__(self, fund: FundamentalRiccati):
        self.fund = fund
        self.coeffs = fund.coeffs
        self._cache: dict[float, tuple] = {}

    @property
    def T_valid(self) -> float:
        return self.fund.T_valid

    def exponent_coefficients(self, t: float) -> tuple:
        """(log_norm, alpha0, beta0, gamma0, delta0, eps0, kappa0) at ``t``."""
        t = float(t)
        hit = self._cache.get(t)
        if hit is None:
            v = self.fund.values(t)
            if v.mu0 < 0.0:
                raise DomainError(f"mu0({t}) = {v.mu0:.3e} < 0; kernel undefined")
            if v.mu0 < sys.float_info.min:   # subnormal or 0
                raise IntegrationError(f"mu0({t}) = {v.mu0:.3e} underflows the "
                                       "normal float range; log mu0 is inexact")
            hit = (-0.5 * math.log(2.0 * math.pi * v.mu0), v.alpha0, v.beta0,
                   v.gamma0, v.delta0, v.eps0, v.kappa0)
            if len(self._cache) > 256:
                self._cache.clear()
            self._cache[t] = hit
        return hit

    def log_evaluate(self, x, y, t: float):
        """log K(x, y, t) from the expanded exponent.  Where that overflows
        to NaN or +inf, as near the diagonal at |x| ~ 1e160, OverflowError
        names the first such (x, y); a -inf, where K only underflows, is
        kept."""
        coef = self.exponent_coefficients(t)
        x, y = _operands(x, y)
        if isinstance(x, float):     # Python floats overflow without a warning
            val = _log_kernel(coef, x, y)
            if val < math.inf:
                return val
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                val = _log_kernel(coef, x, y)
            ok = val < math.inf
            if ok.all():
                return _float_or_array(val)
            k = int(np.argmin(ok))
            x, y = (np.broadcast_to(v, val.shape).flat[k] for v in (x, y))
        raise OverflowError(f"kernel exponent at x = {x:.6g}, y = {y:.6g}, "
                            f"t = {float(t):.6g} is not finite: its expanded "
                            f"form overflows")

    def evaluate(self, x, y, t: float):
        return _exp_guard(self.log_evaluate(x, y, t))

    __call__ = evaluate

    def y_gaussian(self, t: float, x: float) -> tuple[float, float]:
        """(mean, std) of the kernel's Gaussian in y at fixed ``x``."""
        _, _, b0, g0, _, e0, _ = self.exponent_coefficients(t)
        if g0 >= 0.0:
            raise QuadratureError(f"kernel is not integrable in y at t={t} "
                                  f"(gamma0 = {g0:.3e} >= 0)")
        mean = -(b0 * x + e0) / (2.0 * g0)
        return mean, 1.0 / math.sqrt(-2.0 * g0)

    def x_gaussian(self, t: float, y: float) -> tuple[float, float]:
        """(mean, std) of the kernel's Gaussian in x at fixed ``y``."""
        _, a0, b0, _, d0, _, _ = self.exponent_coefficients(t)
        if a0 >= 0.0:
            raise QuadratureError(f"kernel is not integrable in x at t={t} "
                                  f"(alpha0 = {a0:.3e} >= 0)")
        mean = -(b0 * y + d0) / (2.0 * a0)
        return mean, 1.0 / math.sqrt(-2.0 * a0)


_REAL_SCALARS = (float, int)    # np.float64 is a float subclass


def _operands(x, y):
    """``x`` and ``y`` as Python floats when both are real scalars, else arrays.

    Python's float +, -, * and / round exactly as numpy's elementwise
    float64 ones do, so the float path gives the array path's values to the
    bit without the cost of building 0-d arrays.  Squares are written as
    products: Python's ``** 2`` calls ``pow``, which may round differently.
    """
    if isinstance(x, _REAL_SCALARS) and isinstance(y, _REAL_SCALARS):
        return float(x), float(y)
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _log_kernel(coef, x, y):
    ln, a0, b0, g0, d0, e0, k0 = coef
    return ln + a0 * x * x + b0 * x * y + g0 * y * y + d0 * x + e0 * y + k0


def _float_or_array(val):
    return val if getattr(val, "ndim", 0) else float(val)


def _exp_guard(log_value):
    if isinstance(log_value, float):
        too_large = log_value > LOG_OVERFLOW
    else:
        log_value = np.asarray(log_value, dtype=float)
        too_large = np.any(log_value > LOG_OVERFLOW)
    if too_large:
        raise OverflowError(f"kernel log-value exceeds {LOG_OVERFLOW:g}; "
                            "evaluate in log space instead")
    return _float_or_array(np.exp(log_value))


def make_kernel(coeffs: CoefficientSet, tol: float = 1e-10) -> HeatKernel:
    """Characteristic solve + fundamental solution + kernel, in one call.

    Raises :class:`DomainError` if a(0) < 0: the equation then diffuses
    backward and mu0 < 0 on the whole validity interval, so the kernel is
    undefined at every t.
    """
    if coeffs.a(0.0) < 0.0:
        raise DomainError(f"a(0) = {coeffs.a(0.0):.6g} < 0: backward diffusion "
                          "has no kernel")
    return HeatKernel(fundamental(solve_characteristic(coeffs, tol=tol)))


class ClosedFormKernel:
    """The kernel of u_t = a u_xx - (g - c x) u_x + d u with constant a > 0,
    c, d, g, evaluated from its closed form

        log K = d t - log(2 pi s^2)/2 - r^2/(2 s^2),
        r = y - x - x (e^{ct} - 1) + g (e^{ct} - 1)/c,   s^2 = a (e^{2ct} - 1)/c

    (r = y - x + g t, s^2 = 2 a t at c = 0).  For c > 0 it is written in x:
    K in y solves the same equation with -c, -g, d - c for c, g, d, so
    e^{|c| t} never appears and any finite c is exact.
    """

    def __init__(self, a: float, c: float = 0.0, d: float = 0.0, g: float = 0.0):
        self.coefficients = (float(a), float(c), float(d), float(g))
        if not (self.coefficients[0] > 0.0
                and all(map(math.isfinite, self.coefficients))):
            raise ValueError(f"a closed form needs finite (a, c, d, g) with "
                             f"diffusion a > 0, got {self.coefficients}")

    def log_evaluate(self, x, y, t: float):
        t = float(t)
        if not t > 0.0:
            raise DomainError("closed-form kernels are defined for t > 0")
        x, y = _operands(x, y)
        a, c, d, g = self.coefficients
        if c > 0.0:
            x, y, c, d, g = y, x, -c, d - c, -g
        em = math.expm1(c * t)
        s2 = a * (math.expm1(2.0 * c * t) / c if c else 2.0 * t)
        r = y - x - x * em + g * (em / c if c else t)
        val = d * t - 0.5 * math.log(2.0 * math.pi * s2) - r * r / (2.0 * s2)
        return _float_or_array(val)

    def evaluate(self, x, y, t: float):
        return _exp_guard(self.log_evaluate(x, y, t))

    __call__ = evaluate


def closed_form(kind: str, **params) -> ClosedFormKernel:
    """The closed-form kernel of the built-in profile ``kind`` with ``params``."""
    if kind == "heat":      # kept as a second name of constant-heat
        kind = "constant-heat"
    return ClosedFormKernel(**builtin_equation(kind, params))


def _tail_fraction(L: float, mean, std):
    """Kernel mass outside [-L, L] of the Gaussians (mean, std) in y."""
    z_hi = (L - mean) / (math.sqrt(2.0) * std)
    z_lo = (L + mean) / (math.sqrt(2.0) * std)
    return np.array([0.5 * (math.erfc(hi) + math.erfc(lo))
                     for hi, lo in zip(z_hi.tolist(), z_lo.tolist())])


def _kernel_rows(K: HeatKernel, xs, ts):
    """The kernel's Gaussian in y on every (t, x), t-major: flat arrays
    (mean, std, top, dtop, dmean) with log K = top - ((y - mean)/std)^2/2,
    top = log K(x, mean, t), dtop = d top/dx = 2 alpha0 x + delta0 + beta0
    mean and dmean = d mean/dx = beta0 std^2.  Cauchy and Burgers complete
    the square in y here and nowhere else."""
    mean, std = map(np.array, zip(*(K.y_gaussian(t, xs) for t in ts)))
    ln, a0, b0, g0, d0, _, k0 = np.array(
        [K.exponent_coefficients(t) for t in ts]).T[..., None]
    with np.errstate(over="ignore", invalid="ignore"):   # far x; u is checked
        top = (a0 * xs + d0) * xs + (ln + k0) - g0 * mean * mean
        dtop = 2.0 * a0 * xs + d0 + b0 * mean
    n = len(xs)
    return (mean.ravel(), np.repeat(std, n), top.ravel(), dtop.ravel(),
            np.repeat(b0[:, 0] * std * std, n))


def _convolve(K: HeatKernel, phi: InitialData, xs, ts,
              spec: QuadSpec) -> np.ndarray:
    """u(x, t) = int K(x, y, t) phi(y) dy on every (t, x), in shifted log space.

    Every (t, x) is one row of a single batched quadrature of exp(c (y -
    mean)^2 - shift) phi(y) on its row of :func:`_kernel_rows`, c = -1/(2
    std^2), shift = c (p - mean)^2 for p the window point nearest the mean,
    and u = exp(top + shift) times it.  A u that is not finite, as where the
    exponent overflows at a far x, raises :class:`QuadratureError` naming
    the first such (t, x).
    """
    mean, std, top, _, _ = _kernel_rows(K, xs, ts)
    c = -0.5 / (std * std)
    w_lo, w_hi = phi.window
    lo = np.maximum(mean - 10.0 * std, w_lo)
    hi = np.minimum(mean + 10.0 * std, w_hi)
    if phi.L is not None:
        frac = _tail_fraction(phi.L, mean, std)
        worst = int(np.argmax(frac))
        if frac[worst] > 1e-8:
            t_worst = ts[worst // len(xs)]
            warnings.warn(f"kernel mass up to {frac[worst]:.2e} outside [-L, L] "
                          f"(at x={xs[worst % len(xs)]:g}, t={t_worst:g})",
                          TruncationWarning, stacklevel=3)

    off = np.minimum(np.maximum(mean, lo), hi) - mean
    shift = c * off * off
    values = on_arrays(phi)

    def integrand(rows, y):
        out = y - mean[rows, None]
        out *= out
        out *= c[rows, None]
        out -= shift[rows, None]
        np.exp(out, out=out)
        out *= values(y)
        return out

    j = _gk21(integrand, _window_edges(lo, hi, mean, phi.xs), spec)[0]
    with np.errstate(over="ignore", invalid="ignore"):   # u is checked below
        u = np.exp(top + shift) * j
    bad = ~np.isfinite(u)
    if bad.any():
        k = int(np.argmax(bad))
        raise QuadratureError(f"u is not finite at t = {ts[k // len(xs)]:.6g}, "
                              f"x = {xs[k % len(xs)]:.6g}")
    return u.reshape(len(ts), len(xs))


def solve_ivp(K: HeatKernel, phi: InitialData, xs, t,
              quad_spec: QuadSpec = QuadSpec()) -> GridField:
    """Solve the Cauchy problem by kernel quadrature on the grid ``xs``.

    ``t`` may be a scalar or a sequence of times; each requested time must
    lie in (0, T_valid], and ``xs`` may be any finite, non-empty 1-D array
    of points.  Returns the sampled field u(x, t) with u(x, t) = int K(x, y,
    t) phi(y) dy.
    """
    ts = t_levels(t)
    xs = x_grid(xs)
    return GridField(xs, ts, _convolve(K, phi, xs, ts, quad_spec))


def expectation(K: HeatKernel, phi: InitialData, x: float, t: float,
                quad_spec: QuadSpec = QuadSpec()) -> float:
    """E_x[phi(X_t)] = int K(x, y, t) phi(y) dy for transition-density kernels.

    Warns when d, b or f is nonzero at a node of the characteristic solve's
    panels that start below t (``K.fund.chs.structure(t)``), in which case
    the kernel is a Green function but not a probability transition density.
    A kernel without that solve, not from :func:`make_kernel`, is a TypeError.
    """
    if not isinstance(getattr(K, "fund", None), FundamentalRiccati):
        raise TypeError("expectation needs a kernel from make_kernel, whose "
                        "characteristic solve tells if it is a transition density")
    xs = x_grid([float(x)])
    if not {"d", "b", "f"} <= K.fund.chs.structure(t)[0]:
        warnings.warn("kernel has nonzero d, b or f; expectation is not "
                      "probabilistic", NonconservativeWarning, stacklevel=2)
    return float(_convolve(K, phi, xs, [float(t)], quad_spec)[0, 0])


def normalization(K: HeatKernel, t: float, variable: str = "y",
                  L: float | None = None,
                  quad_spec: QuadSpec = QuadSpec()) -> float:
    """Integrate the kernel over one variable with the other fixed at 0.

    One :func:`_gk21` pass over the kernel's own Gaussian in that variable,
    mean +- 12 std, clipped to [-L, L] when ``L`` is given.
    """
    if not isinstance(K, HeatKernel):
        raise TypeError(f"normalization needs a HeatKernel, got {type(K).__name__}")
    if variable not in ("x", "y"):
        raise ValueError("variable must be 'x' or 'y'")
    _check_half_width(L)
    if variable == "y":
        mean, std = K.y_gaussian(t, 0.0)
        f = lambda rows, y: K.evaluate(0.0, y, t)
    else:
        mean, std = K.x_gaussian(t, 0.0)
        f = lambda rows, x: K.evaluate(x, 0.0, t)
    L = math.inf if L is None else float(L)
    lo, hi = max(mean - 12.0 * std, -L), min(mean + 12.0 * std, L)
    return float(_gk21(f, _window_edges([lo], [hi], [mean]), quad_spec)[0, 0])


def transform_solve(fund: FundamentalRiccati, phi: InitialData, xs, t: float,
                    init=(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                    quad_spec: QuadSpec = QuadSpec()) -> GridField:
    """Solve the Cauchy problem through the reduction to v_tau = v_xi_xi.

    The substitution u = mu^(-1/2) exp(alpha x^2 + delta x + kappa)
    v(beta x + eps, gamma) with a solution of the quadratic-exponent system
    maps the master equation onto the constant heat equation, which is then
    solved with the standard Gaussian kernel and mapped back.  With the
    default initial data the map is the identity at t = 0, so v(., gamma(0))
    equals phi.  Serves as an independent path against :func:`solve_ivp`.
    """
    t = float(t)
    xs = x_grid(xs)
    mu_i, alpha_i, beta_i, gamma_i, delta_i, eps_i, kappa_i = (float(v) for v in init)
    if mu_i <= 0.0 or beta_i == 0.0:
        raise ValueError("transform requires mu(0) > 0 and beta(0) != 0")

    # gamma0' = a beta0^2 >= 0 and gamma0 -> -inf as s -> 0+, so alpha(0) +
    # gamma0(s) has a zero in (0, t] iff it is >= 0 at t, which is iff
    # gamma(t) <= gamma(0) (and then mu(t) <= 0 as well)
    state = superpose(fund, init, t)
    dtau = state.gamma - gamma_i
    if dtau <= 0.0:
        raise SingularityError(f"alpha(0) + gamma0(s) vanishes for some s in "
                               f"(0, {t}]; the transform is singular there")
    sqrt_mu_i = math.sqrt(mu_i)

    def v0(eta):
        x0 = (eta - eps_i) / beta_i
        damp = -(alpha_i * x0 * x0 + delta_i * x0 + kappa_i)
        return phi(x0) * sqrt_mu_i * math.exp(damp)

    sigma_g = math.sqrt(2.0 * dtau)
    ln_norm = -0.5 * math.log(4.0 * math.pi * dtau)
    # the data's window in eta; beta(0) < 0 swaps its ends, so that an empty
    # window stays empty
    w_lo, w_hi = phi.window
    if beta_i < 0.0:
        w_lo, w_hi = w_hi, w_lo
    eta_lo, eta_hi = beta_i * w_lo + eps_i, beta_i * w_hi + eps_i

    # the kinks of piecewise-linear data, in eta
    kinks = () if phi.xs is None else (beta_i * phi.xs + eps_i).tolist()
    values = np.empty(len(xs))
    for j, x in enumerate(xs):
        xi = state.beta * x + state.eps
        lo = max(xi - 12.0 * sigma_g, eta_lo)
        hi = min(xi + 12.0 * sigma_g, eta_hi)
        pre = (math.exp(state.alpha * x * x + state.delta * x + state.kappa)
               / math.sqrt(state.mu))
        if hi <= lo or pre == 0.0:
            values[j] = 0.0
            continue

        def integrand(eta, xi=xi):
            return math.exp(ln_norm - (xi - eta) ** 2 / (4.0 * dtau)) * v0(eta)

        # u = pre * v meets abs_tol when v meets abs_tol / pre
        spec = replace(quad_spec, abs_tol=min(quad_spec.abs_tol / pre,
                                              sys.float_info.max))
        values[j] = pre * _quad(integrand, lo, hi, spec, points=(xi, *kinks))
    return GridField(xs, [t], values[None, :])


def asymptotic_kernel(coeffs: CoefficientSet) -> HeatKernel:
    """Small-time approximation of the kernel; for t -> 0+ checks only.

    A :class:`HeatKernel` whose fundamental solution is the truncated
    expansions of :func:`heatkern.riccati.asymptotics`, at any t > 0.
    """
    return HeatKernel(SimpleNamespace(
        coeffs=coeffs, T_valid=math.inf,
        values=functools.partial(asymptotics, coeffs)))


def diffusion_residual(field: GridField, coeffs: CoefficientSet) -> GridField:
    """Residual of the master equation on the interior time levels of ``field``.

    Central second-order differencing in time, fourth-order in space; the
    returned field has len(ts) - 2 levels.
    """
    if len(field.ts) < 3:
        raise ValueError("need at least 3 time levels for the residual")
    ut = dt_central(field.values, field.ts)
    xs = field.xs
    ts = field.ts[1:-1]
    u = field.values[1:-1]
    ux = d1_uniform4(u, field.dx)
    uxx = d2_uniform4(u, field.dx)
    a, b, c, d, f, g = (on_arrays(fn)(ts)[:, None]
                        for fn in (coeffs.a, coeffs.b, coeffs.c, coeffs.d,
                                   coeffs.f, coeffs.g))
    res = ut - (a * uxx - (g - c * xs) * ux + (d + f * xs - b * xs * xs) * u)
    return GridField(xs, ts, res)
