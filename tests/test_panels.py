"""The Legendre-panel primitives of heatkern._panels, called directly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from heatkern import _panels
from heatkern.errors import IntegrationError

EPS = np.finfo(float).eps
T = 2.0
# the characteristic solve's first panels: halving toward 0
GRADED = T * np.array([0.0, 1.0 / 16.0, 0.125, 0.25, 0.5, 1.0])


def _panels_of(bounds):
    a, b = bounds[:-1], bounds[1:]
    return a, b, 0.5 * (b - a), _panels.nodes(a, b)


@pytest.mark.parametrize("degree", range(21))
def test_cumulative_is_exact_for_polynomials(degree):
    a, b, half, t = _panels_of(GRADED)
    c = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
    f = np.polynomial.polynomial.polyval(t / T, c)
    at_nodes, at_edges = _panels.cumulative(half, f, 0.5)

    def exact(x):   # 0.5 + int_0^x sum c_k (s/T)^k ds, rounded once
        u = Fraction(x) / Fraction(T)
        return float(Fraction(0.5) + sum(Fraction(ck) * Fraction(T)
                                         * u ** (k + 1) / (k + 1)
                                         for k, ck in enumerate(c.tolist())))

    scale = T * np.abs(c).sum() + 0.5
    ref = np.array([exact(x) for x in t.ravel().tolist()]).reshape(t.shape)
    assert np.abs(at_nodes - ref).max() <= 4.0 * EPS * scale
    ref_edges = np.array([exact(x) for x in GRADED.tolist()])
    assert np.abs(at_edges - ref_edges).max() <= 4.0 * EPS * scale
    assert at_edges[0] == 0.5


def _constant_run(p, q, r=None):
    """Both unit solutions of Z' = [[0, p], [q, r]] Z, chained from e_0 and
    e_1 at t = 0: (nodes (m, 21), values there, values at the edges)."""
    a, b, half, t = _panels_of(np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
    full = lambda v: np.full(t.shape, float(v))
    nodal, ends = _panels.linear(half, full(p), full(q),
                                 None if r is None else full(r))
    at_nodes, at_edges = _panels.chain(nodal, ends, np.eye(2))
    return t, at_nodes, at_edges


def _hyperbolic(p, q, t):
    """The propagator of Z' = [[0, p], [q, 0]] Z: cosh/sinh for pq > 0,
    cos/sin for pq < 0."""
    if p * q > 0.0:
        w = math.sqrt(p * q)
        c, s = np.cosh(w * t), np.sinh(w * t)
    else:
        w = math.sqrt(-p * q)
        c, s = np.cos(w * t), np.sin(w * t)
    return np.stack((np.stack((c, p / w * s), axis=-1),
                     np.stack((q / w * s, c), axis=-1)), axis=-2)


@pytest.mark.parametrize("p, q", [(2.0, 0.5), (-1.5, -3.0), (1.0, -4.0),
                                  (-0.5, 2.0)])
def test_constant_coefficients_match_the_closed_propagator(p, q):
    t, at_nodes, at_edges = _constant_run(p, q)
    ref = _hyperbolic(p, q, t)
    assert np.abs(at_nodes - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
    ref_edges = _hyperbolic(p, q, np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]))
    assert np.abs(at_edges - ref_edges).max() <= 1e-13 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("p, q, r", [(1.0, -2.0, 0.5), (-0.7, -1.3, -1.5),
                                     (2.0, 1.0, 3.0)])
def test_a_diagonal_term_matches_the_matrix_exponential(p, q, r):
    t, at_nodes, at_edges = _constant_run(p, q, r)
    A = np.array([[0.0, p], [q, r]])
    ref = np.array([expm(A * s) for s in t.ravel()]).reshape(at_nodes.shape)
    # expm's own error: 4.1e-13 relative at t = 2 for (2, 1, 3), where the
    # panels agree with a 40-digit exponential to the last bit
    scale = 1.0 + np.abs(ref).max()
    assert np.abs(at_nodes - ref).max() <= 1e-12 * scale
    ref_edges = np.array([expm(A * s) for s in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)])
    assert np.abs(at_edges - ref_edges).max() <= 1e-12 * scale


def test_a_zero_upper_coefficient_keeps_the_first_row_exact():
    a, b, half, t = _panels_of(GRADED)
    rng = np.random.default_rng(11)
    A10, A11 = rng.normal(size=t.shape), rng.normal(size=t.shape)
    nodal, ends = _panels.linear(half, np.zeros(t.shape), A10, A11)
    assert np.array_equal(nodal[..., 0, :], np.broadcast_to([1.0, 0.0], t.shape + (2,)))
    assert np.array_equal(ends[:, 0, :], np.broadcast_to([1.0, 0.0], (len(half), 2)))
    at_nodes, at_edges = _panels.chain(nodal, ends, [[0.3], [-2.0]])
    assert np.all(at_nodes[..., 0, 0] == 0.3) and np.all(at_edges[:, 0, 0] == 0.3)


@pytest.mark.parametrize("value", [0.0, -2.5, 1e-300, 3.7e12])
def test_mean_series_of_a_constant_slope_is_that_constant(value):
    dy = np.full((3, _panels.N, 2), value)
    coef = _panels.mean_series(dy)
    assert np.array_equal(coef[:, 0], dy[:, 0])
    assert not coef[:, 1:].any()


def test_dense_float_and_array_paths_are_the_same_bits():
    rng = np.random.default_rng(7)
    for m, s in ((1, 1), (3, 4), (9, 9)):
        edges = np.cumsum(rng.uniform(0.01, 1.0, m + 1)) - 0.5
        a, b = edges[:-1], edges[1:]
        keep = rng.integers(1, _panels.N + 1, size=s)
        coef = rng.normal(size=(m, int(keep.max()), s))
        coef[:, np.arange(coef.shape[1])[:, None] >= keep] = 0.0
        dense = _panels.Dense(a, b, rng.normal(size=(m, s)), coef, keep.tolist())
        # inside, on every edge, and extrapolated on both sides
        ts = np.concatenate((rng.uniform(edges[0] - 0.3, edges[-1] + 0.3, 40),
                             edges))
        array = dense(ts)
        assert array.shape == (s, len(ts))
        floats = np.array([dense(t) for t in ts.tolist()]).T
        assert np.array_equal(floats.view(np.int64), array.view(np.int64))
        assert all(dense.state(j, ts[5]) == floats[j, 5] for j in range(s))
        grid = ts[:40].reshape(5, 8)
        assert np.array_equal(dense(grid), array[:, :40].reshape(s, 5, 8))


def _quadrature(a, half, coefs):
    f = coefs[..., 0]
    y, edges = _panels.cumulative(half, f)
    return edges[:, None], f[..., None], y[..., None]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("panel, node", [(1, 7), (2, 0)])
def test_refine_locates_a_value_that_is_not_finite(bad, panel, node):
    # the bad value sits at an interior node, or at the first node of a
    # panel; it is seen through the panel's scale, which it makes NaN or inf
    bounds = np.array([0.0, 0.5, 1.0, 2.0])
    at = float(_panels.nodes(bounds[:-1], bounds[1:])[panel, node])

    def from_there(t):
        f = np.cos(t)
        f[t >= at] = bad
        return f[..., None]

    with pytest.raises(IntegrationError, match=f"^f is not finite at t = {at:.6g}$"):
        _panels.refine(bounds, from_there, _quadrature, 1e-10, [0.0], "f is")

    def only_there(t):
        f = np.cos(t)
        f[t == at] = bad
        return f[..., None]

    # bisecting its panel moves every node off the bad point
    run = _panels.refine(bounds, only_there, _quadrature, 1e-10, [0.0], "f is")
    assert (run.passes, run.built, run.dense.panels) == (2, 7, 4)
    assert np.isfinite(run.y).all()
