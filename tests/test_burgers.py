import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from heatkern import (BatemanWave, BurgersProblem, GridField, InitialData,
                      TravelingWaveSpec, asymptotics, burgers_residual,
                      cole_hopf, diffusion_residual, integrate_profile_direct,
                      profile, solve_burgers_ivp, solve_ivp, tau_sigma,
                      traveling_wave)
from heatkern import burgers, kernel
from heatkern.errors import (DomainError, IntegrationError, QuadratureError,
                             SingularityError)
from heatkern._differences import d1_uniform4, d2_uniform4, dt_central

EPS = np.finfo(float).eps


# -------------------------------------------------------------------- cole_hopf

def test_cole_hopf_exponential():
    xs = np.linspace(-1.0, 1.0, 401)
    u = GridField(xs, [0.0], np.exp(-xs)[None, :])
    v = cole_hopf(u)
    assert np.max(np.abs(v.values[0][3:-3] - 2.0)) < 1e-9
    assert np.max(np.abs(v.values[0] - 2.0)) < 1e-6  # one-sided edge rows


def test_cole_hopf_gaussian():
    xs = np.linspace(-1.0, 1.0, 401)
    u = GridField(xs, [0.0], np.exp(-xs ** 2 / 2.0)[None, :])
    v = cole_hopf(u)
    assert np.max(np.abs(v.values[0][3:-3] - 2.0 * xs[3:-3])) < 1e-9


def test_cole_hopf_constant():
    xs = np.linspace(-1.0, 1.0, 101)
    u = GridField(xs, [0.0], np.full((1, 101), 3.7))
    assert np.max(np.abs(cole_hopf(u).values)) < 1e-12


def test_cole_hopf_rejects_nonpositive():
    xs = np.linspace(-1.0, 1.0, 101)
    u = GridField(xs, [0.0], (xs ** 2 - 0.5)[None, :])
    with pytest.raises(ValueError):
        cole_hopf(u)


@pytest.mark.parametrize("stencil", [
    cole_hopf,
    lambda field: burgers_residual(field, profile("fokker-planck")),
    lambda field: diffusion_residual(field, profile("fokker-planck")),
])
def test_stencils_reject_non_uniform_grid(stencil):
    # any grid makes a GridField; only a stencil needs uniform spacing
    xs = np.array([-1.0, -0.6, -0.1, 0.0, 0.3, 0.5, 1.0])
    ts = np.array([0.3, 0.4, 0.5])
    field = GridField(xs, ts, np.exp(-xs * xs) + ts[:, None])
    with pytest.raises(ValueError, match="x-grid"):
        stencil(field)


# ------------------------------------------------------------------- IVP solver

def test_kink_solution_classical(coeffs_heat):
    kink = BatemanWave(A=1.0, V=0.3, a=1.0, c=0.0, sign="-")
    xs = np.linspace(-4.0, 4.0, 201)
    prob = BurgersProblem(coeffs_heat, kink.initial_profile(), xs,
                          v0_antiderivative=kink.initial_antiderivative())
    assert prob.classical
    sol = solve_burgers_ivp(prob, 0.5)
    ref = np.array([kink(x, 0.5) for x in xs])
    assert np.max(np.abs(sol.values[0] - ref)) / np.max(np.abs(ref)) < 1e-10


def test_kink_solution_scaled_viscosity():
    co = profile("constant-heat", a=0.7)
    kink = BatemanWave(A=0.8, V=0.2, a=0.7, c=0.5, sign="-")
    xs = np.linspace(-4.0, 4.0, 201)
    prob = BurgersProblem(co, kink.initial_profile(), xs)  # numeric V0
    sol = solve_burgers_ivp(prob, 0.5)
    ref = np.array([kink(x, 0.5) for x in xs])
    assert np.max(np.abs(sol.values[0] - ref)) / np.max(np.abs(ref)) < 1e-10


def test_zero_data_stays_zero(coeffs_heat):
    xs = np.linspace(-3.0, 3.0, 101)
    prob = BurgersProblem(coeffs_heat, lambda y: 0.0, xs)
    sol = solve_burgers_ivp(prob, 0.5)
    assert np.max(np.abs(sol.values)) < 1e-10


def test_solver_requires_positive_time(coeffs_heat):
    prob = BurgersProblem(coeffs_heat, lambda y: 0.0, np.linspace(-1, 1, 21))
    with pytest.raises(DomainError):
        solve_burgers_ivp(prob, 0.0)


def test_classical_detection(coeffs_heat, coeffs_fp):
    xs = np.linspace(-1.0, 1.0, 5)
    assert BurgersProblem(coeffs_heat, lambda y: 0.0, xs).classical
    assert not BurgersProblem(coeffs_fp, lambda y: 0.0, xs).classical


def test_time_varying_diffusion_is_not_classical():
    # b = c = f = g = 0 but a = 1 + 0.1 t is not constant
    co = profile("custom", T=2.0, poly={"a": [1.0, 0.1]})
    prob = BurgersProblem(co, lambda y: 0.0, np.linspace(-1.0, 1.0, 5))
    assert not prob.classical
    assert prob.scale == 1.0


def test_classical_is_read_from_every_node_of_the_solve(deadline):
    # c = prod_k (t - k/4) vanishes at the 9 times k T/8 and nowhere else on
    # the nodes: the general equation, solved to its residual
    c = np.polynomial.polynomial.polyfromroots(np.arange(9) / 4.0).tolist()
    co = profile("custom", T=2.0, poly={"a": [0.7], "c": c})
    xs = np.linspace(-1.5, 1.5, 121)
    prob = BurgersProblem(co, lambda y: 0.5 * np.exp(-y * y), xs)
    assert not prob.classical
    with deadline(30):
        v = solve_burgers_ivp(prob, [1.0 - 1e-3, 1.0, 1.0 + 1e-3])
    assert np.max(np.abs(burgers_residual(v, co).values)) < 1e-6


def test_replace_builds_a_new_kernel_and_v0(coeffs_heat, coeffs_fp):
    xs = np.linspace(-1.0, 1.0, 9)
    v0 = lambda y: 0.5 * np.exp(-y * y)
    prob = BurgersProblem(coeffs_heat, v0, xs)
    solve_burgers_ivp(prob, 0.5)
    for changes in ({"coeffs": coeffs_fp}, {"v0": lambda y: -v0(y)}):
        changed = replace(prob, **changes)
        fresh = BurgersProblem(**{"coeffs": coeffs_heat, "v0": v0, "xs": xs,
                                  **changes})
        assert np.array_equal(solve_burgers_ivp(changed, 0.5).values,
                              solve_burgers_ivp(fresh, 0.5).values)


@pytest.mark.parametrize("t", [[], [[0.5]]])
def test_solve_rejects_times_that_are_not_a_1d_sequence(coeffs_heat, t):
    prob = BurgersProblem(coeffs_heat, lambda y: 0.0, np.linspace(-1, 1, 5))
    with pytest.raises(ValueError, match="non-empty 1-D sequence of times"):
        solve_burgers_ivp(prob, t)


@pytest.mark.parametrize("t, why", [(7.0, "horizon"), (math.nan, "not a number")])
def test_classical_outside_validity_interval(deadline, coeffs_heat, t, why):
    # the classical problem shares the kernel's validity interval (0, T]
    prob = BurgersProblem(coeffs_heat, lambda y: 0.3 * np.exp(-y * y),
                          np.linspace(-1, 1, 21))
    assert prob.classical
    with deadline(30), pytest.raises(DomainError, match=why):
        solve_burgers_ivp(prob, t)


def test_non_finite_v0_raises(deadline, coeffs_fp):
    # sqrt(1 - y^2) is NaN for |y| > 1, inside the antiderivative's window
    prob = BurgersProblem(coeffs_fp, lambda y: np.sqrt(1.0 - y * y),
                          np.linspace(-1, 1, 21))
    with deadline(30), np.errstate(invalid="ignore"), \
            pytest.raises(IntegrationError, match="not finite at y = -"):
        solve_burgers_ivp(prob, 0.5)


@pytest.mark.parametrize("xs, at", [([0.0, 1e30], r"1e\+30"),
                                     ([1e200], r"1e\+200")],
                         ids=["far", "alone"])
def test_a_point_without_inner_integral_is_named(deadline, coeffs_heat, xs, at):
    # the window at a far x rounds to one point, so m0 = 0 there; a lone
    # such x leaves no panel at all
    prob = BurgersProblem(coeffs_heat, lambda y: 0.4 * np.exp(-y * y), xs)
    with deadline(30), np.errstate(over="ignore"), pytest.raises(
            QuadratureError, match=rf"^inner integral is not positive at "
                                   rf"t = 0\.5, x = {at}$"):
        solve_burgers_ivp(prob, 0.5)


@pytest.mark.parametrize("analytic", [False, True], ids=["dense", "analytic"])
def test_v0_is_evaluated_once_per_quadrature_pass(monkeypatch, coeffs_fp,
                                                  analytic):
    # each row's shift comes from its first pass, not from probe points, so
    # V0 is called on arrays exactly as often as the integrand
    integrand_calls, V0_calls = [], []
    v0, V0 = _gaussian(0.7, 0.3)
    gk21 = burgers._gk21

    def counted_gk21(f, *args):
        def integrand(rows, y):
            integrand_calls.append(len(rows))
            return f(rows, y)
        return gk21(integrand, *args)

    def analytic_V0(y):
        V0_calls.append(np.ndim(y))
        return V0(y)

    dense_call = burgers._DenseAntiderivative.__call__

    def dense_V0(self, y):
        V0_calls.append(np.ndim(y))
        return dense_call(self, y)

    monkeypatch.setattr(burgers, "_gk21", counted_gk21)
    monkeypatch.setattr(burgers._DenseAntiderivative, "__call__", dense_V0)
    prob = BurgersProblem(coeffs_fp, v0, np.linspace(-1.0, 1.0, 15),
                          v0_antiderivative=analytic_V0 if analytic else None)
    solve_burgers_ivp(prob, [0.2, 1.0])
    assert len(integrand_calls) >= 2
    assert all(ndim == 2 for ndim in V0_calls)
    assert len(V0_calls) == len(integrand_calls)


def test_a_row_split_across_integrand_calls_keeps_its_shift(monkeypatch,
                                                             coeffs_fp):
    # with 5 panels per call every row's first 8 to 10 panels span two or
    # more calls; the shift is set from the first and reused, so v moves only
    # by rounding
    v0, _ = _gaussian(0.7, 0.3)
    xs = np.linspace(-1.0, 1.0, 15)
    want = solve_burgers_ivp(BurgersProblem(coeffs_fp, v0, xs), [0.2, 1.0]).values
    monkeypatch.setattr(kernel, "_BLOCK", 5)
    got = solve_burgers_ivp(BurgersProblem(coeffs_fp, v0, xs), [0.2, 1.0]).values
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("analytic", [False, True], ids=["dense", "analytic"])
@pytest.mark.parametrize("n", [15, 201])
def test_rows_at_one_t_share_lattice_cells(monkeypatch, coeffs_fp, analytic, n):
    # every row at one t starts on cells k h of one lattice fixed at 0, so
    # the cells that rows share are equal to the bit, and each integrand
    # call hands V0 each distinct panel once
    v0, V0 = _gaussian(0.7, 0.3)
    first_edges, calls = [], []    # calls: [integrand nodes, V0 nodes]
    gk21 = burgers._gk21

    def recording_gk21(f, edges, spec):
        first_edges.append(edges)

        def integrand(rows, y):
            calls.append([y])
            return f(rows, y)
        return gk21(integrand, edges, spec)

    def recorded(V):
        def call(*args):
            calls[-1].append(args[-1])
            return V(*args)
        return call

    monkeypatch.setattr(burgers, "_gk21", recording_gk21)
    monkeypatch.setattr(burgers._DenseAntiderivative, "__call__",
                        recorded(burgers._DenseAntiderivative.__call__))
    prob = BurgersProblem(coeffs_fp, v0, np.linspace(-1.0, 1.0, n),
                          v0_antiderivative=recorded(V0) if analytic else None)
    solve_burgers_ivp(prob, [0.2, 1.0])

    [edges] = first_edges
    per_t = edges.reshape(2, n, -1)         # t-major rows
    steps = []
    for E in per_t:
        lattice = np.unique(E)
        h = np.diff(lattice)
        # one run of equal cells: no point of it in two rows' bits
        assert np.allclose(h, h[0], rtol=1e-12, atol=0.0)
        k = lattice / h[0]                  # fixed at 0
        assert np.allclose(k, np.round(k), rtol=0.0, atol=1e-9)
        for row in E:
            ends = np.unique(row)
            assert 9 <= len(ends) <= 11     # 8 to 10 cells
            at = np.searchsorted(lattice, ends)
            assert np.array_equal(np.diff(at), np.ones(len(ends) - 1))
        steps.append(h[0])
    assert steps[0] != steps[1]             # each t has its own lattice
    for y, seen in calls:
        distinct = np.unique(y, axis=0)
        assert seen.shape == distinct.shape
        assert np.array_equal(np.unique(seen, axis=0), distinct)
    cells = sum(len(np.unique(E)) - 1 for E in per_t)
    panels = int(np.sum(np.diff(edges, axis=1) > 0.0))
    assert 4 * cells < panels
    for y, seen in calls[:-(-panels // kernel._BLOCK)]:    # the first pass
        assert len(seen) <= cells


@pytest.mark.parametrize("block", [2048, 5])
def test_a_nan_log_weight_is_a_quadrature_error(deadline, monkeypatch,
                                                coeffs_fp, block):
    monkeypatch.setattr(kernel, "_BLOCK", block)
    prob = BurgersProblem(coeffs_fp, lambda y: 0.0, np.linspace(-1.0, 1.0, 5),
                          v0_antiderivative=lambda y: np.where(y > 0.5, np.nan,
                                                               0.0))
    with deadline(30), pytest.raises(QuadratureError,
                                     match="integrand is not finite"):
        solve_burgers_ivp(prob, 0.5)


@pytest.mark.parametrize("t", [0.1, 0.5])
@pytest.mark.parametrize("a", [1.0, 0.3])
@pytest.mark.parametrize("A", [40.0, 100.0])
def test_constant_v0_stays_constant(A, a, t):
    # v = A solves v_t + v v_x = a v_xx; the tilt moves the kernel's peak by
    # A t / sigma = 26 to 91 of its widths
    prob = BurgersProblem(profile("constant-heat", a=a), lambda y: A,
                          np.linspace(-3.0, 3.0, 13))
    v = solve_burgers_ivp(prob, t).values
    assert np.abs(v / A - 1.0).max() <= 1e-14


@pytest.mark.parametrize("A", [200.0, 400.0, 1000.0])
def test_strong_tilt_is_integrated(deadline, A):
    # the tilted peak sits A sigma / (2 a) = 183 to 913 sigma from the mean,
    # so |m1| is that many times |m0|: m1's panels are held to rel_tol |m1|,
    # not rel_tol |m0|, and v keeps all but the rounding of that ratio
    prob = BurgersProblem(profile("constant-heat", a=0.3), lambda y: A,
                          np.linspace(-1.0, 1.0, 5))
    with deadline(30):
        v = solve_burgers_ivp(prob, 0.5).values
    assert np.abs(v / A - 1.0).max() <= 2e-14


@st.composite
def _point_sets(draw):
    """(uniform grid, indices into it): one point, scattered points in any
    order, or a decreasing run."""
    n = draw(st.integers(2, 31))
    center, half = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.5, 4.0))
    xs = np.linspace(center - half, center + half, n)
    kind = draw(st.sampled_from(["single", "scattered", "decreasing"]))
    if kind == "single":
        return xs, [draw(st.integers(0, n - 1))]
    idx = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n,
                        unique=True))
    return xs, sorted(idx, reverse=True) if kind == "decreasing" else idx


@settings(max_examples=40, deadline=None)
@given(points=_point_sets(),
       name=st.sampled_from(["heat", "fp", "ou"]))
def test_point_sets_give_the_values_of_a_uniform_run(deadline, coeffs_heat,
                                                     coeffs_fp, coeffs_ou,
                                                     kernel_heat, kernel_fp,
                                                     kernel_ou, points, name):
    # every (t, x) is its own quadrature row; Burgers' windows and v0 bound
    # depend on max |x|, so its values may move by rounding
    xs, idx = points
    co, K = {"heat": (coeffs_heat, kernel_heat), "fp": (coeffs_fp, kernel_fp),
             "ou": (coeffs_ou, kernel_ou)}[name]
    phi = InitialData.gaussian(width=0.7, center=0.3)
    v0, _ = _gaussian(0.7, 0.3)
    ts = [0.1, 1.3]
    with deadline(10):
        u = solve_ivp(K, phi, xs, ts).values
        u_at = solve_ivp(K, phi, xs[idx], ts).values
        v = solve_burgers_ivp(BurgersProblem(co, v0, xs), ts).values
        v_at = solve_burgers_ivp(BurgersProblem(co, v0, xs[idx]), ts).values
    assert np.abs(u_at - u[:, idx]).max() <= 8.0 * EPS * np.abs(u).max()
    assert np.abs(v_at - v[:, idx]).max() <= 1e-13 * np.abs(v).max()


def test_cole_hopf_consistency_general_path(coeffs_fp):
    # on the general path a point's v does not depend on the grid around it
    xs = np.linspace(-1.0, 1.0, 21)
    v0 = lambda y: 0.3 * np.exp(-y * y)
    prob = BurgersProblem(coeffs_fp, v0, xs)
    assert not prob.classical
    full = solve_burgers_ivp(prob, 0.4).values[0]
    for j in (0, 7, 20):
        one = solve_burgers_ivp(BurgersProblem(coeffs_fp, v0, xs[j:j + 1]),
                                0.4)
        assert one.values.shape == (1, 1)
        assert abs(one.values[0, 0] - full[j]) < 1e-12


def test_inner_integral_matches_kernel_solve(coeffs_fp):
    # v = -2 (2 alpha0 x + delta0 + beta0 E_x[y]), with E_x[y] the ratio of
    # two kernel quadratures: of y exp(-V0/2) and of exp(-V0/2)
    xs = np.array([-0.9, -0.2, 0.1, 0.75])
    v0 = lambda y: 0.3 * np.exp(-y * y)
    prob = BurgersProblem(coeffs_fp, v0, xs)
    got = solve_burgers_ivp(prob, 0.4).values[0]
    V0 = prob.antiderivative(20.0)
    tilt = lambda y: np.exp(-0.5 * V0(y))
    K = prob.kernel()
    m0 = solve_ivp(K, InitialData.from_callable(tilt), xs, 0.4).values[0]
    m1 = solve_ivp(K, InitialData.from_callable(lambda y: y * tilt(y)),
                   xs, 0.4).values[0]
    _, a0, b0, _, d0, _, _ = K.exponent_coefficients(0.4)
    want = -2.0 * (2.0 * a0 * xs + d0 + b0 * m1 / m0)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("xs", [np.array([-1.0, -0.5, 0.0, 0.2, 0.5, 1.0]),
                                np.array([0.3]),
                                np.linspace(1.0, -1.0, 9)])
def test_kink_on_any_grid(xs):
    # the slope is exact at each point, so neither spacing nor order matters
    co = profile("constant-heat", a=0.7)
    kink = BatemanWave(A=0.8, V=0.2, a=0.7, c=0.5, sign="-")
    prob = BurgersProblem(co, kink.initial_profile(), xs)   # numeric V0
    assert prob.classical
    sol = solve_burgers_ivp(prob, 0.5)
    assert sol.values.shape == (1, len(xs))
    assert np.max(np.abs(sol.values[0] - kink(xs, 0.5))) < 1e-10


def test_scalar_only_v0_matches_array_twin(coeffs_fp):
    # v0 is called on arrays (v0_bound) and per element where it cannot be
    scalar = lambda y: 0.3 * math.exp(-y * y)
    twin = lambda y: np.array([scalar(v) for v in np.ravel(y).tolist()]
                              ).reshape(np.shape(y))
    xs = np.linspace(-1.0, 1.0, 21)
    got = solve_burgers_ivp(BurgersProblem(coeffs_fp, scalar, xs), 0.4)
    want = solve_burgers_ivp(BurgersProblem(coeffs_fp, twin, xs), 0.4)
    assert np.array_equal(got.values, want.values)


def test_full_cole_hopf_consistency(coeffs_fp):
    # solve_burgers_ivp against cole_hopf(solve_ivp(exp(-V0/2)))
    xs = np.linspace(-1.0, 1.0, 501)
    v0 = lambda y: 0.3 * math.exp(-y * y)
    prob = BurgersProblem(coeffs_fp, v0, xs)
    sol = solve_burgers_ivp(prob, 0.4)
    V0 = prob.antiderivative(20.0)
    u0 = InitialData.from_callable(lambda y: math.exp(-0.5 * V0(y)), L=18.0)
    u = solve_ivp(prob.kernel(), u0, xs, 0.4)
    via_u = cole_hopf(u)
    assert np.max(np.abs(sol.values - via_u.values)) < 1e-8


# --------------------------------------------------------------------- residual

def _three_levels(wave, xs, t, dt):
    ts = np.array([t - dt, t, t + dt])
    vals = np.array([[wave(x, s) for x in xs] for s in ts])
    return GridField(xs, ts, vals)


def test_residual_bateman_kink(coeffs_heat):
    kink = BatemanWave(A=1.0, V=0.3, a=1.0, c=0.0, sign="-")
    field = _three_levels(kink, np.linspace(-4.0, 4.0, 321), 0.5, 1e-3)
    res = burgers_residual(field, coeffs_heat)
    scale = field.max_abs
    assert np.max(np.abs(res.values[0][4:-4])) < 1e-6 * scale


def test_residual_bateman_tan(coeffs_heat):
    tanw = BatemanWave(A=1.0, V=0.2, a=1.0, c=0.0, sign="+")
    field = _three_levels(tanw, np.linspace(-1.2, 1.2, 241), 0.5, 1e-3)
    res = burgers_residual(field, coeffs_heat)
    scale = field.max_abs
    assert np.max(np.abs(res.values[0][4:-4])) < 1e-6 * scale


def test_residual_zero_solution():
    co = profile("custom", T=1.0, poly={"a": [1.0], "c": [0.5], "g": [0.2]})
    xs = np.linspace(-2.0, 2.0, 41)
    field = GridField(xs, [0.1, 0.2, 0.3], np.zeros((3, 41)))
    res = burgers_residual(field, co)
    assert res.max_abs == 0.0


def test_residual_equals_row_by_row_reference():
    # all levels at once must give the per-level loop's values to the bit
    co = profile("custom", T=1.0, poly={"a": [0.8, 0.1], "b": [0.05, -0.1],
                                        "c": [0.3, 0.2], "f": [-0.2, 0.3],
                                        "g": [0.1, -0.5]})
    xs = np.linspace(-2.0, 2.0, 81)
    ts = np.linspace(0.3, 0.34, 6)
    field = GridField(xs, ts, [0.3 * np.sin(xs + t) + t * xs for t in ts])
    vt = dt_central(field.values, ts)
    want = []
    for i, t in enumerate(ts[1:-1]):
        w = field.values[i + 1]
        wx, wxx = d1_uniform4(w, field.dx), d2_uniform4(w, field.dx)
        want.append(vt[i] + co.a(t) * (w * wx - wxx) + (co.g(t) - co.c(t) * xs) * wx
                    - co.c(t) * w + 2.0 * (co.f(t) - 2.0 * co.b(t) * xs))
    assert np.array_equal(burgers_residual(field, co).values, want)


def test_residual_needs_three_levels(coeffs_heat):
    xs = np.linspace(-1.0, 1.0, 41)
    field = GridField(xs, [0.1], np.zeros((1, 41)))
    with pytest.raises(ValueError):
        burgers_residual(field, coeffs_heat)


# -------------------------------------------------------------- traveling waves

def test_separable_profile_reproduced():
    spec = TravelingWaveSpec(c0=1.0, c1=-1.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(0.0, 3.0), F0=1.0)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.0, T=1.0)
    z0 = 2.0  # F0 = -2/(z_left - z0)
    for z in np.linspace(0.0, 1.8, 10):
        assert tw.profile(z) == pytest.approx(-2.0 / (z - z0), abs=1e-10)
    assert len(tw.poles) == 1
    assert tw.poles[0] == pytest.approx(z0, abs=1e-9)


def test_logistic_profile_linear_vs_direct_route():
    spec = TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 4.0), F0=-0.5)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.0, T=1.0)
    direct = integrate_profile_direct(spec)
    for z in np.linspace(-2.0, 3.5, 12):
        assert tw.profile(z) == pytest.approx(direct(z), abs=1e-10)
    assert tw.poles == []


def test_growing_profile_pole_location():
    # F' = F + F^2/2 from F(-2) = 0.5 blows up at z = -2 + ln 5
    spec = TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 1.0), F0=0.5)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.0, T=1.0)
    assert len(tw.poles) == 1
    assert tw.poles[0] == pytest.approx(-2.0 + math.log(5.0), abs=1e-8)
    with pytest.raises(SingularityError):
        tw.profile(tw.poles[0])
    with pytest.raises(DomainError):
        tw.profile(5.0)


@pytest.mark.parametrize("F0, window", [(0.5, (-2.0, 1.0)), (1.0, (0.0, 3.0)),
                                        (0.3, (-1.0, 2.5))])
def test_profile_poles_match_the_direct_escape(F0, window):
    # the direct route stops where |F| = 2/|z - pole| reaches 1e10
    spec = TravelingWaveSpec(c0=0.3, c1=0.2, c2=0.1, c3=-0.2, c4=0.1,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=window, F0=F0)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.1, T=1.0)
    z_end = integrate_profile_direct(spec).z_end
    assert z_end < window[1] and len(tw.poles) >= 1
    assert tw.poles[0] == pytest.approx(z_end, abs=1e-8)


def test_traveling_wave_array_path_equals_scalar_calls():
    spec = TravelingWaveSpec(c0=0.3, c1=0.2, c2=0.1, c3=-0.2, c4=0.1,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 1.0), F0=-0.3)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.1, T=1.0)
    xs = np.linspace(-1.6, 0.2, 301)
    for t in (0.0, 0.3, 1.0):
        assert tw(xs, t).tolist() == [tw(float(x), t) for x in xs]
    zs = np.linspace(-2.0, 1.0, 301)
    assert tw.profile(zs).tolist() == [tw.profile(z) for z in zs.tolist()]
    assert type(tw.profile(0.5)) is float


def test_traveling_wave_array_errors_name_the_offending_z():
    spec = TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 1.0), F0=0.5)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.0, T=1.0)
    pole = tw.poles[0]
    with pytest.raises(DomainError, match=r"z=1\.25 outside"):
        tw.profile(np.array([-1.5, 0.5, 1.25, -1.0]))
    with pytest.raises(DomainError, match=r"z=nan outside"):
        tw.profile(np.array([-1.5, math.nan]))
    with pytest.raises(SingularityError, match=f"z={pole:.6g}"):
        tw.profile(np.array([-1.5, pole, 0.5]))
    # v(x, t) = F(x + gamma(t)) with gamma(t) = t reaches past the window
    with pytest.raises(DomainError, match=r"z=1\.5 outside"):
        tw(np.array([0.0, 1.0]), 0.5)


def test_frame_functions_analytic():
    # c = 0.1 gives beta = e^{0.1 t}; gamma' = c0 a beta^2 integrates to
    # gamma(0) + c0 (e^{0.2 t} - 1)/0.2
    spec = TravelingWaveSpec(c0=0.4, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.3,
                             z_window=(-2.0, 2.0), F0=-0.5)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.1, T=1.0)
    for t in (0.25, 0.5, 1.0):
        assert tw.beta(t) == pytest.approx(math.exp(0.1 * t), rel=1e-10)
        want = 0.3 + 0.4 * (math.exp(0.2 * t) - 1.0) / 0.2
        assert tw.gamma(t) == pytest.approx(want, rel=1e-10)


def test_traveling_wave_residual_with_induced_coefficients():
    spec = TravelingWaveSpec(c0=0.3, c1=0.2, c2=0.1, c3=-0.2, c4=0.1,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 1.0), F0=-0.3)
    tw = traveling_wave(spec, a=lambda t: 1.0, c=lambda t: 0.1, T=1.0)
    co = tw.induced_coefficients()
    xs = np.linspace(-1.6, 0.2, 301)
    field = _three_levels(tw, xs, 0.3, 1e-3)
    res = burgers_residual(field, co)
    scale = field.max_abs
    assert np.max(np.abs(res.values[0][5:-5])) < 1e-6 * scale


def test_induced_coefficients_have_no_derivative_of_a():
    # a = 1 + 0.1 t: the true tau(0.5) = a'/a + 2c = 0.295, so a set that
    # knows a only as a callable must refuse rather than assume a' = 0
    spec = TravelingWaveSpec(c0=0.3, c1=0.2, c2=0.1, c3=-0.2, c4=0.1,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 1.0), F0=-0.3)
    tw = traveling_wave(spec, a=lambda t: 1.0 + 0.1 * t, c=lambda t: 0.1, T=1.0)
    co = tw.induced_coefficients()
    assert co.da is None and co.d(0.5) == co.dd(0.5) == 0.0
    with pytest.raises(ValueError, match="a' \\(da\\)"):
        tau_sigma(co, 0.5)
    with pytest.raises(ValueError, match="a' \\(da\\)"):
        asymptotics(co, 1e-3)


def test_induced_coefficient_formulas():
    spec = TravelingWaveSpec(c0=0.3, c1=0.2, c2=0.1, c3=-0.2, c4=0.1,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 1.0), F0=-0.3)
    a = lambda t: 1.0 + 0.1 * t
    tw = traveling_wave(spec, a, c=lambda t: 0.1, T=1.0)
    t = 0.6
    b, g = tw.beta(t), tw.gamma(t)
    assert tw.induced_g(t) == pytest.approx(0.2 * a(t) * b)
    assert tw.induced_b(t) == pytest.approx(-0.05 * a(t) * b ** 4)
    assert tw.induced_f(t) == pytest.approx(0.5 * a(t) * b ** 3
                                            * (0.2 * g - 0.2))


def test_traveling_wave_spec_validation():
    with pytest.raises(ValueError):
        TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                          beta0_init=0.0, gamma0_init=0.0,
                          z_window=(0.0, 1.0), F0=1.0)
    with pytest.raises(ValueError):
        TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                          beta0_init=1.0, gamma0_init=0.0,
                          z_window=(1.0, 0.0), F0=1.0)
    with pytest.raises(ValueError):
        TravelingWaveSpec(c0=math.nan, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                          beta0_init=1.0, gamma0_init=0.0,
                          z_window=(0.0, 1.0), F0=1.0)


@pytest.mark.parametrize("a, c", [(lambda t: math.nan, lambda t: 0.0),
                                  (lambda t: 1.0, lambda t: math.nan)])
def test_traveling_wave_non_finite_coefficient_raises(deadline, a, c):
    spec = TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 4.0), F0=-0.5)
    with deadline(5), pytest.raises(IntegrationError, match="not finite at t = "):
        traveling_wave(spec, a, c, T=1.0)


@pytest.mark.parametrize("a, message", [
    (lambda t: math.nan, "frame equations are not finite at t = 0"),
    # located to the narrowest panel, not where a step landed
    (lambda t: 1.0 if t < 0.6 else math.nan,
     "frame equations are not finite at t = 0.6"),
], ids=["nan", "nan-after-0.6"])
def test_traveling_wave_nan_a_is_the_same_typed_error(deadline, a, message):
    spec = TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 4.0), F0=-0.5)
    with deadline(5), pytest.raises(IntegrationError) as err:
        traveling_wave(spec, a, lambda t: 0.0, T=1.0)
    assert str(err.value) == message


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
def test_traveling_wave_needs_a_positive_horizon(T):
    spec = TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-2.0, 4.0), F0=-0.5)
    with pytest.raises(ValueError, match="frame integration needs t1 > t0"):
        traveling_wave(spec, lambda t: 1.0, lambda t: 0.0, T=T)


# ---------------------------------------------------------------- Bateman waves

def test_bateman_kink_far_field_limits():
    kink = BatemanWave(A=1.0, V=0.3, a=1.0, c=0.0, sign="-")
    assert kink(-40.0, 0.0) == pytest.approx(1.0 - 0.3, abs=1e-12)
    assert kink(40.0, 0.0) == pytest.approx(-1.0 - 0.3, abs=1e-12)
    assert abs(kink(500.0, 0.0)) < 2.0  # tanh form cannot overflow


def test_bateman_tan_pole_guard():
    tanw = BatemanWave(A=1.0, V=0.0, a=1.0, c=0.0, sign="+")
    x_pole = math.pi  # theta = x/2 hits pi/2 at x = pi
    with pytest.raises(SingularityError):
        tanw(x_pole, 0.0)
    assert math.isfinite(tanw(x_pole - 0.1, 0.0))


@pytest.mark.parametrize("field, value", [
    ("A", math.inf), ("a", math.inf), ("V", math.inf), ("V", math.nan),
    ("c", -math.inf), ("c", math.nan)])
def test_bateman_rejects_nonfinite_constants(field, value):
    kw = dict(A=1.0, V=0.3, a=1.0, c=0.0, sign="-")
    kw[field] = value
    with pytest.raises(ValueError, match="must be finite"):
        BatemanWave(**kw)


def test_bateman_sharpens_as_viscosity_vanishes():
    errs = []
    for a in (0.1, 0.05):
        kink = BatemanWave(A=1.0, V=0.3, a=a, c=0.0, sign="-")
        errs.append(abs(kink(0.1, 0.0) - (-1.0 - 0.3)))
    assert errs[1] < errs[0]


def test_bateman_kink_travels_at_minus_V():
    kink = BatemanWave(A=1.0, V=0.4, a=1.0, c=0.0, sign="-")
    xs = np.linspace(-8.0, 8.0, 801)
    dx = xs[1] - xs[0]
    v0 = np.array([kink(x, 0.0) for x in xs])
    v1 = np.array([kink(x, 1.0) for x in xs])
    shifts = np.arange(-60, 61)
    scores = [np.sum(np.abs(np.roll(v0, s)[80:-80] - v1[80:-80]))
              for s in shifts]
    best = shifts[int(np.argmin(scores))] * dx
    assert best == pytest.approx(-0.4, abs=dx)


def test_bateman_antiderivative_matches_quadrature():
    kink = BatemanWave(A=0.8, V=0.2, a=0.7, c=0.5, sign="-")
    V0 = kink.initial_antiderivative()
    ys = (-3.0, -0.5, 1.0, 4.0)
    for y in ys:
        want = quad(lambda z: kink(z, 0.0), 0.0, y, epsabs=1e-12,
                    epsrel=1e-12)[0]
        assert V0(y) == pytest.approx(want, abs=1e-10)
    assert np.allclose(V0(np.array(ys)), [V0(y) for y in ys], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("xs", [np.zeros((2, 3)),
                                np.array([0.0, np.nan, 1.0]),
                                np.array([])])
def test_burgers_problem_rejects_grid_before_quadrature(coeffs_fp, xs):
    calls = []

    def v0(y):
        calls.append(y)
        return 0.4 * np.exp(-y * y)

    with pytest.raises(ValueError, match="x-grid"):
        solve_burgers_ivp(BurgersProblem(coeffs_fp, v0, xs), 0.3)
    assert calls == []


def test_bateman_validation():
    with pytest.raises(ValueError):
        BatemanWave(A=-1.0, V=0.0, a=1.0, c=0.0, sign="-")
    with pytest.raises(ValueError):
        BatemanWave(A=1.0, V=0.0, a=0.0, c=0.0, sign="-")
    with pytest.raises(ValueError):
        BatemanWave(A=1.0, V=0.0, a=1.0, c=0.0, sign="x")
    with pytest.raises(ValueError):
        BatemanWave(A=1.0, V=0.0, a=1.0, c=0.0, sign="+").initial_antiderivative()


def test_antiderivative_wide_window(coeffs_fp):
    # Fokker-Planck at t = 1 needs V0 on about +-40, far wider than the
    # support of v0; the numerical V0 must still resolve the bump at 0
    v0 = lambda y: 0.5 * np.exp(-y * y)
    V0 = lambda y: 0.25 * math.sqrt(math.pi) * erf(y)
    xs = np.linspace(-2.0, 2.0, 41)
    prob = BurgersProblem(coeffs_fp, v0, xs)
    sol = solve_burgers_ivp(prob, 1.0)
    ys = np.linspace(-35.0, 35.0, 141)
    assert np.max(np.abs(prob.antiderivative(35.0)(ys) - V0(ys))) < 1e-10
    exact = BurgersProblem(coeffs_fp, v0, xs, v0_antiderivative=V0)
    assert np.max(np.abs(sol.values - solve_burgers_ivp(exact, 1.0).values)) < 1e-8


def test_antiderivative_domain_guard(coeffs_heat):
    prob = BurgersProblem(coeffs_heat, lambda y: math.sin(y),
                          np.linspace(-1.0, 1.0, 21))
    V0 = prob.antiderivative(5.0)
    assert V0(2.0) == pytest.approx(1.0 - math.cos(2.0), abs=1e-10)
    ys = np.array([[-2.0, 0.0], [1.0, 4.5]])
    assert np.allclose(V0(ys), 1.0 - np.cos(ys), atol=1e-10)
    with pytest.raises(DomainError):
        V0(6.0)
    with pytest.raises(DomainError):
        V0(np.array([1.0, -6.0]))


def _gaussian(amp, center):
    """v0 = amp exp(-(y - center)^2) and its exact int_0^y."""
    def v0(y):
        return amp * np.exp(-(y - center) ** 2)

    def V0(y):
        return 0.5 * amp * math.sqrt(math.pi) * (erf(y - center) - erf(-center))

    return v0, V0


@pytest.mark.parametrize("W", [12.0, 35.0])
@pytest.mark.parametrize("amp, center", [(0.7, 0.3), (2.0, -1.5), (0.05, 4.0)])
def test_antiderivative_matches_exact_references(coeffs_fp, W, amp, center):
    v0, V0 = _gaussian(amp, center)
    prob = BurgersProblem(coeffs_fp, v0, np.linspace(-1.0, 1.0, 5))
    V = prob.antiderivative(W)
    ys = np.concatenate([np.linspace(-W, W, 1201), np.arange(-W, W + 1.0)])
    got = V(ys)
    assert np.max(np.abs(got - V0(ys))) <= 1e-13
    assert np.array_equal([V(y) for y in ys.tolist()], got)   # to the bit
    assert type(V(ys[7])) is float
    assert V(np.float64(ys[7])) == got[7] and V(3) == V(3.0)


def test_antiderivative_matches_the_kink_antiderivative():
    kink = BatemanWave(A=0.8, V=0.2, a=0.7, c=0.5, sign="-")
    prob = BurgersProblem(profile("constant-heat", a=0.7),
                          kink.initial_profile(), np.linspace(-1.0, 1.0, 5))
    V = prob.antiderivative(19.0)
    ys = np.linspace(-19.0, 19.0, 1501)
    got = V(ys)
    assert np.max(np.abs(got - kink.initial_antiderivative()(ys))) <= 1e-13
    assert np.array_equal([V(y) for y in ys.tolist()], got)


def test_extend_keeps_the_old_window_to_the_bit(coeffs_fp):
    v0, _ = _gaussian(0.7, 0.3)
    prob = BurgersProblem(coeffs_fp, v0, np.linspace(-1.0, 1.0, 5))
    ys = np.linspace(-6.5, 6.5, 801)
    before = prob.antiderivative(6.5)(ys)
    assert np.array_equal(prob.antiderivative(90.0)(ys), before)
    # a window built wide at once holds the same values
    wide = BurgersProblem(coeffs_fp, v0, prob.xs).antiderivative(90.0)
    assert np.array_equal(wide(ys), before)
    far = np.linspace(-90.0, 90.0, 401)
    assert np.array_equal(wide(far), prob.antiderivative(90.0)(far))


def test_solve_does_not_depend_on_earlier_solves(coeffs_fp):
    v0, _ = _gaussian(0.7, 0.3)
    xs = np.linspace(-1.0, 1.0, 15)
    prob = BurgersProblem(coeffs_fp, v0, xs)
    first = solve_burgers_ivp(prob, 0.2).values
    solve_burgers_ivp(prob, 1.5)              # widens the V0 window
    assert np.array_equal(solve_burgers_ivp(prob, 0.2).values, first)
    assert np.array_equal(
        solve_burgers_ivp(BurgersProblem(coeffs_fp, v0, xs), 0.2).values, first)
    late = BurgersProblem(coeffs_fp, v0, xs)
    solve_burgers_ivp(late, 1.5)              # the wide window first
    assert np.array_equal(solve_burgers_ivp(late, 0.2).values, first)


def test_antiderivative_float_calls_are_the_array_bits(coeffs_heat):
    # a float y takes the float path of the same Clenshaw sum
    prob = BurgersProblem(coeffs_heat, lambda y: 0.7 * np.exp(-(y - 0.3) ** 2),
                          np.linspace(-1.0, 1.0, 5))
    V0 = prob.antiderivative(40.0)
    ys = np.concatenate((np.linspace(-40.0, 40.0, 161),
                         np.random.default_rng(3).uniform(-40.0, 40.0, 200)))
    floats = np.array([V0(y) for y in ys.tolist()])
    assert all(type(V0(y)) is float for y in ys[:3].tolist())
    assert np.array_equal(floats.view(np.int64), V0(ys).view(np.int64))


@pytest.mark.parametrize("degree", [0, 1, 7, 20])
def test_antiderivative_of_a_polynomial_is_exact_to_rounding(coeffs_heat, degree):
    # a panel's series is the mean of v0's degree-20 interpolant, which is
    # v0 itself here, so V0 is exact up to the rounding of the running sums
    c = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
    L = 8.0

    def v0(y):
        return np.polynomial.polynomial.polyval(y / L, c)

    def exact(y):   # L sum c_k (y/L)^(k+1) / (k+1), rounded once
        u = Fraction(y) / Fraction(L)
        return float(Fraction(L) * sum(Fraction(ck) * u ** (k + 1) / (k + 1)
                                       for k, ck in enumerate(c.tolist())))

    scale = L * sum(abs(ck) / (k + 1) for k, ck in enumerate(c.tolist()))
    prob = BurgersProblem(coeffs_heat, v0, np.linspace(-1.0, 1.0, 5))
    rng = np.random.default_rng(100 + degree)
    for W in (3.5, 8.0):                  # the first window, then an extension
        V = prob.antiderivative(W)
        ys = np.concatenate((rng.uniform(-W, W, 200), np.arange(-3.0, 4.0),
                             [-W, W]))
        ref = np.array([exact(y) for y in ys.tolist()])
        got = V(ys)
        assert np.abs(got - ref).max() <= 4.0 * EPS * scale
        assert np.array_equal([V(y) for y in ys.tolist()], got)


def test_antiderivative_calls_v0_once_per_pass(coeffs_heat):
    calls = []

    def v0(y):
        calls.append(np.shape(y))
        return 0.7 * np.exp(-(y - 0.3) ** 2)

    BurgersProblem(coeffs_heat, v0, np.linspace(-1.0, 1.0, 5)).antiderivative(12.0)
    assert 1 <= len(calls) <= 4
    assert all(len(shape) == 2 and shape[1] == 21 for shape in calls)


def _narrow_bumps(width, centers):
    """v0 = sum of e^{-((y - c)/width)^2}, its exact antiderivative from 0,
    and knots at each center and 8 widths to each side."""
    def v0(y):
        return sum(np.exp(-((y - c) / width) ** 2) for c in centers)

    def V0(y):
        return sum(0.5 * math.sqrt(math.pi) * width
                   * (math.erf((y - c) / width) + math.erf(c / width))
                   for c in centers)

    knots = [c + k * width for c in centers for k in (-8.0, 0.0, 8.0)]
    return v0, V0, knots


@pytest.mark.parametrize("width", [1e-3, 1e-5])
def test_knots_make_a_narrow_v0_seen(coeffs_heat, width):
    # without knots, V0(1) read 5.5e-123 for width 1e-3: the bump's whole
    # mass, 1.77e-3, fell between the nodes of the unit cell [0, 1]
    v0, V0, knots = _narrow_bumps(width, [0.3])
    prob = BurgersProblem(coeffs_heat, v0, np.linspace(-1.0, 1.0, 5),
                          knots=knots)
    V = prob.antiderivative(25.0)
    ys = np.concatenate((np.linspace(-25.0, 25.0, 1001),
                         0.3 + width * np.linspace(-12.0, 12.0, 49)))
    assert max(abs(V(y) - V0(y)) for y in ys.tolist()) <= 1e-12
    assert prob.v0_bound(2.0) == 1.0     # the knot at the peak is sampled


def test_knots_split_the_cells_of_every_extension(coeffs_heat):
    v0, V0, knots = _narrow_bumps(1e-5, [0.3, -40.3])
    prob = BurgersProblem(coeffs_heat, v0, np.linspace(-1.0, 1.0, 5),
                          knots=knots[::-1])
    near = np.linspace(-20.0, 20.0, 201)
    before = prob.antiderivative(20.0)(near)
    V = prob.antiderivative(60.0)          # now over the bump at -40.3
    assert np.array_equal(V(near), before)
    ys = np.concatenate((near, np.linspace(-60.0, 60.0, 241)))
    assert max(abs(V(y) - V0(y)) for y in ys.tolist()) <= 1e-12


def test_knots_on_lattice_points_change_no_bit(coeffs_fp):
    v0, _ = _gaussian(0.7, 0.3)
    xs = np.linspace(-1.0, 1.0, 15)
    plain = BurgersProblem(coeffs_fp, v0, xs)
    knotted = BurgersProblem(coeffs_fp, v0, xs, knots=[0.0, 1.0, -3.0, 40.0])
    ys = np.linspace(-50.0, 50.0, 401)
    assert np.array_equal(knotted.antiderivative(50.0)(ys),
                          plain.antiderivative(50.0)(ys))
    assert np.array_equal(solve_burgers_ivp(knotted, 0.5).values,
                          solve_burgers_ivp(plain, 0.5).values)


@pytest.mark.parametrize("knots", [[0.0, math.nan], [[0.1, 0.2]], [math.inf]])
def test_bad_knots_are_a_value_error(coeffs_heat, knots):
    with pytest.raises(ValueError, match="knots"):
        BurgersProblem(coeffs_heat, np.exp, [0.0], knots=knots)


@pytest.mark.parametrize("coeffs", [
    profile("fokker-planck", T=2.5),
    profile("ou-drift", T=2.5, a=1.0, k=1.0, g=0.5),
    profile("constant-heat", T=2.5, a=1.0),
    profile("custom", T=2.0, poly={"a": [1.0, 0.3], "b": [0.0, 0.1],
                                   "c": [0.2, -0.1], "f": [0.0, 0.2],
                                   "g": [0.3, 0.1]}),
], ids=["fokker-planck", "ou-drift", "constant-heat", "custom"])
def test_numeric_antiderivative_solves_match_analytic(coeffs):
    v0, V0 = _gaussian(0.7, 0.3)
    xs = np.linspace(-1.0, 1.0, 15)
    ts = [0.2, 1.0, 1.8]
    numeric = solve_burgers_ivp(BurgersProblem(coeffs, v0, xs), ts).values
    exact = BurgersProblem(coeffs, v0, xs, v0_antiderivative=V0)
    assert np.max(np.abs(numeric - solve_burgers_ivp(exact, ts).values)) < 1e-10


@pytest.mark.parametrize("v0, message", [
    (lambda y: 1.0 / (y - 0.3001), r"refinement stopped at y = 0\.3001"),
    (lambda y: np.abs(y - 0.3) ** -0.5,
     r"refinement stopped at y = 0\.3: v0 is not integrable there"),
    (lambda y: np.sin(1e5 * y), r"more than \d+ panels; refinement stopped at y = "),
    (lambda y: np.where(y > 7.5, np.nan, 0.0), r"not finite at y = 7\.5"),
    # finite values whose K21 sum overflows name the panel's midpoint
    (lambda y: np.where(y > 7.0, 1e308, 0.0), r"v0 is not finite at y = 7\.5"),
])
def test_antiderivative_failures_are_quick_and_name_y(deadline, coeffs_heat,
                                                      v0, message):
    prob = BurgersProblem(coeffs_heat, v0, np.linspace(-1.0, 1.0, 5))
    with deadline(0.5), pytest.raises(IntegrationError, match=message):
        prob.antiderivative(10.0)


def test_antiderivative_lattice_grows_by_octaves_beyond_32(deadline, coeffs_heat):
    # a strong drift can ask for V0 on +-4e9; eight cells to each octave
    # [2^j, 2^(j+1)] past 32 keep that to a few hundred panels
    v0, V0 = _gaussian(0.7, 0.3)
    nodes = []
    prob = BurgersProblem(coeffs_heat, lambda y: (nodes.append(y.size), v0(y))[1],
                          np.linspace(-1.0, 1.0, 5))
    with deadline(0.5):
        V = prob.antiderivative(4e9)
    assert sum(nodes) < 600 * 21
    ys = np.array([-3.9e9, -1e5, -40.0, -3.3, 0.0, 2.5, 33.0, 7e6, 4e9])
    assert np.max(np.abs(V(ys) - V0(ys))) <= 1e-13


@pytest.mark.parametrize("W, hull", [(7.5, 8.0), (32.0, 32.0), (33.0, 36.0),
                                     (40.0, 40.0), (600.0, 640.0),
                                     (3e9, 2.0 ** 31 + 4 * 2.0 ** 28)])
def test_antiderivative_samples_v0_on_the_lattice_hull(coeffs_heat, W, hull):
    # v0 is sampled on the lattice cells that cover [-W, W], which end at the
    # first lattice point at or past W, below max(W + 1, 1.125 W)
    assert W <= hull < max(W + 1.0, 1.125 * W)
    v0, V0 = _gaussian(0.7, 0.3)
    seen = []
    xs = np.linspace(-1.0, 1.0, 5)
    prob = BurgersProblem(coeffs_heat, lambda y: (seen.append(np.abs(y).max()),
                                                  v0(y))[1], xs)
    V = prob.antiderivative(W)
    assert hull * (1.0 - 1e-3) < max(seen) < hull
    assert abs(V(W) - V0(W)) <= 1e-13
    # finite on the hull is enough; not finite inside it names the y
    finite = np.nextafter(hull, np.inf)
    prob = BurgersProblem(coeffs_heat, lambda y: np.where(np.abs(y) > finite,
                                                          np.nan, v0(y)), xs)
    assert abs(prob.antiderivative(W)(-W) - V0(-W)) <= 1e-13
    if hull > W:
        inside = 0.5 * (W + hull)
        prob = BurgersProblem(coeffs_heat, lambda y: np.where(
            np.abs(y) > inside, np.nan, v0(y)), xs)
        with pytest.raises(IntegrationError, match="v0 is not finite at y = "):
            prob.antiderivative(W)


@pytest.mark.parametrize("jump, at", [(2.0, 0.3), (20.0, 0.3), (2.0, 30.3)])
def test_antiderivative_of_step_data(coeffs_heat, jump, at):
    # Riemann data: a jump of v0 inside a panel is resolved down to the
    # narrowest panel, which is then measured against its cell's integral
    def v0(y):
        return np.where(y < at, 0.5 * jump, -0.5 * jump)

    def V0(y):
        return 0.5 * jump * np.where(y < at, y, 2.0 * at - y)

    xs = np.linspace(-1.0, 1.0, 15)
    prob = BurgersProblem(coeffs_heat, v0, xs)
    ys = np.linspace(-40.0, 40.0, 1601)
    assert np.max(np.abs(prob.antiderivative(40.0)(ys) - V0(ys))) <= 1e-13 * jump
    exact = BurgersProblem(coeffs_heat, v0, xs, v0_antiderivative=V0)
    assert np.max(np.abs(solve_burgers_ivp(prob, 0.5).values
                         - solve_burgers_ivp(exact, 0.5).values)) < 1e-10


def test_knots_set_after_construction_are_checked(coeffs_heat):
    v0, V0, knots = _narrow_bumps(1e-3, [0.3])
    prob = BurgersProblem(coeffs_heat, v0, np.linspace(-1.0, 1.0, 5))
    prob.knots = knots                      # a list, not yet an array
    assert prob.v0_bound(2.0) == 1.0
    V = prob.antiderivative(2.0)
    assert abs(V(1.0) - V0(1.0)) <= 1e-12
    bad = BurgersProblem(coeffs_heat, v0, np.linspace(-1.0, 1.0, 5))
    bad.knots = [0.3, math.nan]
    with pytest.raises(ValueError, match="knots"):
        bad.v0_bound(2.0)
    with pytest.raises(ValueError, match="knots"):
        bad.antiderivative(2.0)
