import io
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from heatkern import (BurgersProblem, GridField, InitialData, QuadSpec,
                      asymptotic_kernel, closed_form, diffusion_residual,
                      expectation, fundamental, make_kernel, normalization,
                      profile, solve_burgers_ivp, solve_characteristic,
                      solve_ivp, transform_solve)
from heatkern.errors import (DomainError, IntegrationError, QuadratureError,
                             SingularityError)
from heatkern._differences import d1_uniform4, d2_uniform4, dt_central
from heatkern.kernel import (LOG_OVERFLOW, NonconservativeWarning,
                             TruncationWarning, _BLOCK, _exp_guard, _gk21,
                             _kernel_rows, _quad, write_csv)

TIGHT = QuadSpec(abs_tol=1e-13, rel_tol=1e-12)


# ------------------------------------------------------------------ evaluation

def test_evaluate_constant_heat_at_origin(kernel_heat):
    # closed form gives 1/sqrt(4 pi a t) at x = y
    assert kernel_heat.evaluate(0.0, 0.0, 0.25) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-10)


def test_evaluate_fokker_planck_at_origin(kernel_fp):
    want = 1.0 / math.sqrt(2.0 * math.pi * (1.0 - math.exp(-2.0)))
    assert kernel_fp.evaluate(0.0, 0.0, 1.0) == pytest.approx(want, rel=1e-10)


def test_evaluate_symmetric_in_x_y_for_heat(kernel_heat):
    assert kernel_heat.evaluate(1.3, -0.4, 0.6) == pytest.approx(
        kernel_heat.evaluate(-0.4, 1.3, 0.6), rel=1e-13)


def test_evaluate_positive_and_log_quadratic(kernel_ou):
    rng = np.random.default_rng(2)
    t = 0.8
    xs = rng.uniform(-3.0, 3.0, 12)
    ys = rng.uniform(-3.0, 3.0, 12)
    assert np.all(kernel_ou.evaluate(xs, ys, t) > 0.0)
    # along y at fixed x the log-kernel is a quadratic: second differences
    # of samples at unit spacing are constant
    x = 0.7
    logs = kernel_ou.log_evaluate(x, np.array([-1.0, 0.0, 1.0, 2.0]), t)
    d2a = logs[0] - 2.0 * logs[1] + logs[2]
    d2b = logs[1] - 2.0 * logs[2] + logs[3]
    assert d2a == pytest.approx(d2b, rel=1e-10)


def test_evaluate_domain_errors(kernel_heat):
    with pytest.raises(DomainError):
        kernel_heat.evaluate(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        kernel_heat.evaluate(0.0, 0.0, 3.0)


def test_negative_diffusion_has_no_kernel():
    co = profile("constant-heat", a=-1.0)
    with pytest.raises(DomainError, match=r"a\(0\) = -1 < 0"):
        make_kernel(co)
    # the characteristic solve and the seven functions stay available
    fund = fundamental(solve_characteristic(co))
    assert fund.T_valid == 2.0
    assert fund.mu0(1.0) == pytest.approx(-2.0, rel=1e-9)


def test_mu0_below_the_normal_range_is_a_typed_error():
    # d = 1000: mu0 = 2t e^{-2000t} leaves the normal float range near t = 0.354
    K = make_kernel(profile("custom", T=1.0, poly={"a": [1.0], "d": [1000.0]}))
    exact = 1000.0 * 0.3 - 0.5 * math.log(4.0 * math.pi * 0.3)
    assert K.log_evaluate(0.0, 0.0, 0.3) == pytest.approx(exact, rel=1e-12)
    for t in (0.37, 0.38, 0.5):     # subnormal, then 0
        with pytest.raises(IntegrationError, match=r"mu0\(.*underflows"):
            K.log_evaluate(0.0, 0.0, t)


def test_exp_guard_overflow():
    with pytest.raises(OverflowError):
        _exp_guard(701.0)
    assert _exp_guard(0.0) == 1.0
    assert _exp_guard(-800.0) == 0.0


KERNELS_BY_NAME = {
    "pipeline-ou": lambda request: request.getfixturevalue("kernel_ou"),
    "pipeline-cable": lambda request: request.getfixturevalue("kernel_cable"),
    "closed-heat": lambda request: closed_form("constant-heat", a=0.7),
    "closed-cable": lambda request: closed_form("cable", lam=1.0, tau=2.0),
    "closed-fokker-planck": lambda request: closed_form("fokker-planck"),
    "closed-ou": lambda request: closed_form("ou-drift", a=1.0, k=1.0, g=0.5),
}


@pytest.mark.parametrize("name", sorted(KERNELS_BY_NAME))
def test_scalar_evaluation_equals_array_path_bitwise(request, name):
    K = KERNELS_BY_NAME[name](request)
    t = 0.7
    xs = np.linspace(-3.0, 3.0, 41)
    # scattered points meet more roundings than the grid's few differences;
    # for the last three x, Python's x ** 2 rounds differently from x * x
    xr, yr = np.random.default_rng(5).uniform(-3.0, 3.0, (2, 4000))
    xr = np.append(xr, [1.958632726601298, 4.971539648656998,
                        -0.009109237708751087])
    yr = np.append(yr, [0.0, 0.0, 0.0])
    for method in (K.log_evaluate, K.evaluate):
        grid = method(xs[:, None], xs[None, :], t)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                for got in (method(float(x), float(y), t), method(x, y, t),
                            method(float(x), np.float64(y), t)):
                    assert type(got) is float and got == grid[i, j]
        assert [method(x, y, t) for x, y in zip(xr.tolist(), yr.tolist())] \
            == method(xr, yr, t).tolist()
        # ints take the float path too
        assert method(2, -1, t) == method(np.array([2.0]), -1.0, t)[0]


@pytest.mark.parametrize("name", sorted(KERNELS_BY_NAME))
def test_mixed_scalar_and_array_arguments_broadcast(request, name):
    K = KERNELS_BY_NAME[name](request)
    ys = np.linspace(-1.0, 1.0, 5)
    row = K.evaluate(0.5, ys, 0.4)
    col = K.evaluate(ys, 0.5, 0.4)
    assert row.shape == col.shape == (5,)
    assert row.tolist() == [K.evaluate(0.5, y, 0.4) for y in ys.tolist()]
    assert col.tolist() == [K.evaluate(y, 0.5, 0.4) for y in ys.tolist()]
    assert K.log_evaluate(np.float64(0.5), ys[:, None], 0.4).shape == (5, 1)


@pytest.mark.parametrize("build, x", [
    # u_t = u_xx + 20 x u: log K(x, x, 1) = 20 x - 1.27 + 33.3
    (lambda: make_kernel(profile("custom", T=2.0,
                                 poly={"a": [1.0], "f": [20.0]})), 40.0),
    # the cable kernel gains t/tau: log K(0, 0, 1) = 995.3
    (lambda: closed_form("cable", lam=1.0, tau=1e-3), 0.0)])
def test_float_path_overflow_raises(build, x):
    K = build()
    assert K.log_evaluate(x, x, 1.0) > LOG_OVERFLOW
    with pytest.raises(OverflowError, match="log space"):
        K.evaluate(x, x, 1.0)
    with pytest.raises(OverflowError, match="log space"):
        K.evaluate(np.array([0.0, x]), x, 1.0)


def test_a_far_kernel_point_is_an_overflow_not_nan(kernel_heat):
    # near the diagonal at |x| = 1e160 the expanded exponent is inf - inf
    # (the exact value is (4 pi)^(-1/2)); far off it, -inf: K underflows
    message = (r"^kernel exponent at x = 1e\+160, y = 1e\+160, t = 1 is not "
               r"finite: its expanded form overflows$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (kernel_heat.evaluate, kernel_heat.log_evaluate):
            with pytest.raises(OverflowError, match=message):
                fn(1e160, 1e160, 1.0)
            with pytest.raises(OverflowError, match=message):
                fn(np.array([-1e160, 1e160, 0.0]), np.array([1e160, 1e160, 0.0]),
                   1.0)
        assert kernel_heat.evaluate(-1e160, 1e160, 1.0) == 0.0
        assert kernel_heat.log_evaluate(-1e160, 1e160, 1.0) == -math.inf
        got = kernel_heat.evaluate(np.array([-1e160, 0.0]), 0.0, 1.0)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-10)


def test_y_gaussian_moments_heat(kernel_heat):
    mean, std = kernel_heat.y_gaussian(0.5, 1.2)
    assert mean == pytest.approx(1.2, rel=1e-10)
    assert std == pytest.approx(math.sqrt(2.0 * 0.5), rel=1e-10)


ROW_KERNELS = {
    "heat": lambda request: request.getfixturevalue("kernel_heat"),
    "cable": lambda request: request.getfixturevalue("kernel_cable"),
    "fokker-planck": lambda request: request.getfixturevalue("kernel_fp"),
    "ou-drift": lambda request: request.getfixturevalue("kernel_ou"),
    "mixed": lambda request: make_kernel(profile("custom", T=2.0, poly={
        "a": [1.0, 0.3], "b": [0.0, 0.1], "c": [0.2, -0.1], "d": [0.1],
        "f": [0.0, 0.2], "g": [0.3, 0.1]}), tol=1e-12),
}


@pytest.mark.parametrize("name", sorted(ROW_KERNELS))
def test_kernel_rows_complete_the_square_in_y(request, name):
    # log K = top - ((y - mean)/std)^2/2, with dtop and dmean the x-slopes
    # of top (quadratic in x) and mean (linear), so central differences
    # carry only rounding
    K = ROW_KERNELS[name](request)
    ts, xs, h = [0.05, 0.5, 2.0], np.linspace(-3.0, 3.0, 13), 1e-3
    mean, std, top, dtop, dmean = (r.reshape(3, -1) for r in _kernel_rows(K, xs, ts))
    up, down = (_kernel_rows(K, xs + s, ts) for s in (h, -h))
    for i, t in enumerate(ts):
        log_k = K.log_evaluate(xs[:, None], xs[None, :], t)
        z = (xs[None, :] - mean[i, :, None]) / std[i, :, None]
        assert np.all(np.abs(top[i, :, None] - 0.5 * z * z - log_k)
                      <= 1e-12 * (1.0 + np.abs(log_k)))
    for k, slope in ((2, dtop), (0, dmean)):
        fd = ((up[k] - down[k]) / (2.0 * h)).reshape(3, -1)
        assert np.all(np.abs(fd - slope) <= 1e-10 * (1.0 + np.abs(slope)))


# ---------------------------------------------------------------- closed forms

def test_closed_form_heat_formula():
    K = closed_form("constant-heat", a=2.0)
    x, y, t = 0.7, -0.3, 0.4
    want = math.exp(-(x - y) ** 2 / (4.0 * 2.0 * t)) \
        / math.sqrt(4.0 * math.pi * 2.0 * t)
    assert K.evaluate(x, y, t) == pytest.approx(want, rel=1e-14)


def test_closed_form_fp_longtime_limit():
    K = closed_form("fokker-planck")
    xs = np.linspace(-2.0, 2.0, 9)
    want = np.exp(-xs ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    got = K.evaluate(xs, np.zeros_like(xs), 10.0)
    assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("t", [1e-8, 1e-12, 1e-20])
def test_closed_form_fp_small_time(t):
    # exact log K = -log(2 pi s)/2 - (x - e^-t y)^2/(2 s), s = 1 - e^-2t,
    # evaluated in 60-digit decimal arithmetic
    K = closed_form("fokker-planck")
    for x, y in ((0.0, 0.0), (0.5, 0.5), (1e-6, -1e-6)):
        with localcontext() as ctx:
            ctx.prec = 60
            dt = Decimal(t)
            s = 1 - (-2 * dt).exp()
            r = Decimal(x) - (-dt).exp() * Decimal(y)
            want = float(-(2 * Decimal(math.pi) * s).ln() / 2 - r * r / (2 * s))
        assert K.log_evaluate(x, y, t) == pytest.approx(want, rel=1e-14, abs=1e-13)


def _textbook_log_kernel(kind, p, x, y, t):
    """log K from each kind's textbook formula in 60-digit decimal arithmetic;
    OU in its sinh form, which overflows in floats once k t > 710."""
    with localcontext() as ctx:
        ctx.prec = 60
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        x, y, t = Decimal(x), Decimal(y), Decimal(t)
        if kind == "constant-heat":
            a = Decimal(p["a"])
            return float(-(4 * pi * a * t).ln() / 2 - (x - y) ** 2 / (4 * a * t))
        if kind == "cable":
            D = Decimal(p["lam"]) ** 2 / Decimal(p["tau"])
            return float(t / Decimal(p["tau"]) - (4 * pi * D * t).ln() / 2
                         - (x - y) ** 2 / (4 * D * t))
        if kind == "fokker-planck":
            s = 1 - (-2 * t).exp()
            return float(-(2 * pi * s).ln() / 2 - (x - (-t).exp() * y) ** 2 / (2 * s))
        a, k, g = (Decimal(p[n]) for n in ("a", "k", "g"))
        e = (k * t / 2).exp()
        sh = (e * e - 1 / (e * e)) / 2
        core = k * (x / e - y * e) + g * (e - 1 / e)
        return float((k / (4 * pi * a * sh)).ln() / 2 + k * t / 2
                     - core * core / (4 * a * k * sh))


@pytest.mark.parametrize("kind, params", [
    ("constant-heat", {"a": 0.7}), ("cable", {"lam": 1.3, "tau": 2.0}),
    ("fokker-planck", {}),
    *[("ou-drift", {"a": 1.0, "k": k, "g": 0.5}) for k in (1.0, 1e3, 1e4)]])
def test_closed_form_matches_decimal_reference(kind, params):
    K = closed_form(kind, **params)
    for t in (1e-20, 1e-10, 1e-3, 0.5, 2.5, 10.0):
        for x, y in ((0.0, 0.0), (0.5, 0.5), (1e-6, -1e-6), (0.3, 0.1),
                     (-1.2, 0.7), (2.0, -1.5)):
            want = _textbook_log_kernel(kind, params, x, y, t)
            got = K.log_evaluate(x, y, t)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (t, x, y)


def test_strongly_contracting_drift():
    # k = 1000: h = exp(-k t) underflows to 0 and the density is stationary;
    # k = 40 with g != 0: the source quadratures grow like exp(k t)
    K = make_kernel(profile("ou-drift", T=2.5, a=1.0, k=1000.0), tol=1e-12)
    assert K.evaluate(0.0, 0.0, 2.0) == pytest.approx(
        math.sqrt(1000.0 / (2.0 * math.pi)), rel=1e-8)
    K = make_kernel(profile("ou-drift", T=2.5, a=1.0, k=40.0, g=0.5), tol=1e-12)
    ref = closed_form("ou-drift", a=1.0, k=40.0, g=0.5)
    xs = np.linspace(-0.3, 0.3, 7)
    for t in (0.05, 1.0, 2.5):
        got, want = K.evaluate(xs, 0.0, t), ref.evaluate(xs, 0.0, t)
        assert np.max(np.abs(got - want) / want) < 1e-8


def test_closed_form_ou_small_k_approaches_heat():
    K_ou = closed_form("ou-drift", a=1.0, k=1e-4, g=0.0)
    K_heat = closed_form("constant-heat", a=1.0)
    pts = np.linspace(-2.0, 2.0, 9)
    worst = 0.0
    for x in pts:
        worst = max(worst, float(np.max(np.abs(
            K_ou.evaluate(x, pts, 0.5) - K_heat.evaluate(x, pts, 0.5)))))
    assert worst < 1e-3


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form("bogus")
    with pytest.raises(ValueError):
        closed_form("constant-heat", a=-1.0)
    with pytest.raises(ValueError):
        closed_form("ou-drift", a=0.0, k=1.0)
    with pytest.raises(ValueError, match="tau > 0"):
        closed_form("cable", tau=0.0)
    with pytest.raises(ValueError, match="tau > 0"):
        closed_form("cable", tau=-2.0)
    with pytest.raises(ValueError, match="finite"):
        closed_form("ou-drift", k=math.inf)
    with pytest.raises(ValueError, match=r"unexpected parameters.*\['k'\]"):
        closed_form("constant-heat", k=1.0)
    with pytest.raises(DomainError):
        closed_form("cable", lam=1.0, tau=2.0).evaluate(0.0, 0.0, 0.0)


def test_closed_form_ou_without_drift_is_heat():
    # k = 0 is the heat equation, not a special case
    xs = np.linspace(-3.0, 3.0, 13)
    for t in (1e-3, 0.5, 2.0):
        assert np.array_equal(
            closed_form("ou-drift", k=0).log_evaluate(xs[:, None], xs, t),
            closed_form("constant-heat").log_evaluate(xs[:, None], xs, t))


# ---------------------------------------------------------------- Cauchy solve

def test_solve_ivp_gaussian_analytic(kernel_heat):
    # int K exp(-y^2) dy = exp(-x^2/(1+4at)) / sqrt(1+4at)
    xs = np.linspace(-1.0, 1.0, 5)
    out = solve_ivp(kernel_heat, InitialData.gaussian(), xs, 0.25)
    want = np.exp(-xs ** 2 / 2.0) / math.sqrt(2.0)
    assert np.max(np.abs(out.values[0] - want) / want) < 1e-6


def test_solve_ivp_constant_data_fokker_planck(kernel_fp):
    ones = InitialData.from_callable(lambda y: 1.0, L=40.0)
    out = solve_ivp(kernel_fp, ones, np.linspace(-1.0, 1.0, 5), 0.5)
    assert np.max(np.abs(out.values[0] - math.exp(0.5))) < 1e-8


def test_solve_ivp_small_time_recovers_data(kernel_heat):
    phi = InitialData.gaussian()
    xs = np.linspace(-1.5, 1.5, 7)
    out = solve_ivp(kernel_heat, phi, xs, 1e-4)
    want = np.exp(-xs ** 2)
    assert np.max(np.abs(out.values[0] - want)) < 1e-3


def test_solve_ivp_linear_in_data(kernel_fp):
    phi1 = InitialData.gaussian()
    phi2 = InitialData.gaussian(width=0.7, center=0.5, amplitude=0.8)
    both = InitialData.from_callable(lambda y: phi1(y) + phi2(y))
    xs = np.linspace(-1.0, 1.0, 5)
    u1 = solve_ivp(kernel_fp, phi1, xs, 0.5, TIGHT).values
    u2 = solve_ivp(kernel_fp, phi2, xs, 0.5, TIGHT).values
    u12 = solve_ivp(kernel_fp, both, xs, 0.5, TIGHT).values
    assert np.max(np.abs(u12 - u1 - u2)) < 1e-10


def test_solve_ivp_multiple_times(kernel_heat):
    out = solve_ivp(kernel_heat, InitialData.gaussian(),
                    np.linspace(-1.0, 1.0, 5), [0.2, 0.25, 0.3])
    assert out.values.shape == (3, 5)


def test_solve_ivp_truncation_warning(kernel_heat):
    narrow = InitialData.gaussian(L=1.0)
    with pytest.warns(TruncationWarning) as record:
        solve_ivp(kernel_heat, narrow, np.array([2.0, 2.5, 3.0]), 0.5)
    assert len(record) == 1
    assert "x=3" in str(record[0].message)


def test_sampled_initial_data_interpolation(kernel_heat):
    # piecewise-linear data caps the reachable accuracy at O(h^2); ask the
    # quadrature for a matching tolerance
    ys = np.linspace(-6.0, 6.0, 2001)
    sampled = InitialData.from_samples(ys, np.exp(-ys ** 2))
    xs = np.linspace(-1.0, 1.0, 5)
    out = solve_ivp(kernel_heat, sampled, xs, 0.25,
                    QuadSpec(abs_tol=1e-8, rel_tol=1e-6))
    want = np.exp(-xs ** 2 / 2.0) / math.sqrt(2.0)
    assert np.max(np.abs(out.values[0] - want) / want) < 1e-5


def test_sampled_initial_data_matches_scalar_quad(kernel_ou):
    # the quadrature panels start at the knots, where the data has kinks
    ys = np.linspace(-3.0, 3.0, 41)
    sampled = InitialData.from_samples(ys, np.exp(-ys ** 2))
    xs = np.linspace(-4.0, 4.0, 161)
    t = 0.5
    out = solve_ivp(kernel_ou, sampled, xs, t).values[0]
    ref = np.array([quad(lambda y: kernel_ou.evaluate(x, y, t) * sampled(y),
                         -3.0, 3.0, points=ys[1:-1], epsabs=1e-14,
                         epsrel=1e-13, limit=200)[0] for x in xs])
    assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def _fp_gaussian_convolution(xs, t, center, width):
    # K_FP(., y, t) is the normal density N(e^-t y, 1 - e^-2t) and
    # exp(-((y - c)/w)^2) = sqrt(pi) w N(c, w^2/2), so u is a normal density
    r = math.exp(-t)
    var = -math.expm1(-2.0 * t) + r * r * width * width / 2.0
    return (math.sqrt(math.pi) * width
            * np.exp(-(xs - r * center) ** 2 / (2.0 * var))
            / math.sqrt(2.0 * math.pi * var))


@pytest.mark.parametrize("t,center,width", [(2.0, -0.5, 0.5), (1.9, 0.3, 1.0)])
def test_narrow_initial_data_against_closed_form(kernel_fp, t, center, width):
    # phi is much narrower than the kernel's y-window (std about 7 at t = 2)
    xs = np.linspace(-4.0, 4.0, 161)
    phi = InitialData.gaussian(width=width, center=center)
    out = solve_ivp(kernel_fp, phi, xs, t).values[0]
    want = _fp_gaussian_convolution(xs, t, center, width)
    assert np.max(np.abs(out - want)) <= 1e-8 * np.max(want)


def _per_element(fn):
    """Array-aware twin of a float-only callable, with identical values."""
    return lambda y: np.array([fn(v) for v in np.ravel(y).tolist()]
                              ).reshape(np.shape(y))


@pytest.mark.parametrize("scalar,twin,L", [
    # raises TypeError on an array
    (lambda y: math.exp(-y * y), None, None),
    # returns a float for an array
    (lambda y: 1.0, np.ones_like, 12.0),
    # raises ValueError on an array (ambiguous truth value)
    (lambda y: math.exp(-y * y) if y < 0.0 else 1.0 / (1.0 + y * y), None, None),
])
def test_scalar_only_callables_match_array_twins(kernel_ou, scalar, twin, L):
    xs = np.linspace(-3.0, 3.0, 41)
    twin = twin or _per_element(scalar)
    got = solve_ivp(kernel_ou, InitialData.from_callable(scalar, L=L), xs, 0.5)
    want = solve_ivp(kernel_ou, InitialData.from_callable(twin, L=L), xs, 0.5)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
def test_degenerate_gaussian_rejected(width):
    with pytest.raises(ValueError, match="width"):
        InitialData.gaussian(width=width)


@pytest.mark.parametrize("name", ["center", "amplitude"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_nonfinite_gaussian_center_or_amplitude_rejected(name, value):
    with pytest.raises(ValueError, match="center and amplitude finite"):
        InitialData.gaussian(**{name: value})


@pytest.mark.parametrize("phi", [
    lambda y: np.full(np.shape(y), np.nan),
    lambda y: np.where(y > 3.0, np.inf, 1.0)], ids=["nan", "inf"])
def test_nonfinite_integrand_fails_after_one_pass(kernel_heat, deadline, phi):
    calls = []

    def counted(y):
        calls.append(np.size(y))
        return phi(y)

    xs = np.linspace(-4.0, 4.0, 161)
    with deadline(10), pytest.raises(QuadratureError, match="not finite"):
        solve_ivp(kernel_heat, InitialData.from_callable(counted), xs, 0.5)
    # one call holds the first pass: 8 panels of 21 nodes on each of 161 rows
    assert calls == [161 * 8 * 21]


@pytest.mark.parametrize("x", [
    1e3,
    pytest.param(1e5, marks=pytest.mark.xfail(
        strict=True, reason="top = alpha0 x^2 - gamma0 mean^2 cancels: "
                            "u off by 1.0e-7 relative")),
    pytest.param(1e6, marks=pytest.mark.xfail(
        strict=True, reason="top = alpha0 x^2 - gamma0 mean^2 cancels: "
                            "u off by 6.8e-6 relative")),
])
def test_constant_data_stays_constant_at_far_points(kernel_heat, x):
    # heat conserves phi = 2 exactly; the expanded top loses about
    # eps x^2 / t, which a square form from the states would not
    u = solve_ivp(kernel_heat, InitialData.from_callable(lambda y: 2.0),
                  [-x, x], 0.5).values
    assert np.abs(u / 2.0 - 1.0).max() < 1e-9


def test_a_far_point_is_a_typed_error_not_nan(kernel_heat):
    # at x = 1e160 the log-space factor exp(q0 + shift) is exp(-inf + inf)
    phi = InitialData.gaussian()
    with pytest.raises(QuadratureError, match=r"^u is not finite at t = 1, "
                                              r"x = 1e\+160$"):
        expectation(kernel_heat, phi, 1e160, 1.0)
    with pytest.raises(QuadratureError, match=r"^u is not finite at t = 0\.5, "
                                              r"x = -1e\+160$"):
        solve_ivp(kernel_heat, phi, [-1e160, 0.0], [0.5, 1.0])
    # an exponent that is only very negative still underflows to u = 0
    assert expectation(kernel_heat, phi, 1e150, 1.0) == 0.0


@pytest.mark.parametrize("xs", [np.array([0.0, 1.0, np.inf]),
                                np.array([np.nan, 0.5, 1.0]),
                                np.array([]),
                                np.zeros((2, 3))])
def test_solve_ivp_rejects_grid_before_quadrature(kernel_heat, xs):
    calls = []

    def phi(y):
        calls.append(y)
        return np.exp(-y * y)

    with pytest.raises(ValueError, match="x-grid"):
        solve_ivp(kernel_heat, InitialData.from_callable(phi), xs, 0.5)
    assert calls == []


@pytest.mark.parametrize("t", [[], [[0.5]], np.zeros((0, 2))])
def test_solve_ivp_rejects_times_that_are_not_a_1d_sequence(kernel_heat, t):
    phi = InitialData.gaussian()
    with pytest.raises(ValueError, match="non-empty 1-D sequence of times"):
        solve_ivp(kernel_heat, phi, np.linspace(-1.0, 1.0, 5), t)


@pytest.mark.parametrize("spec", [(-1.0, -1.0, 0), (1e-10, 1e-8, 0),
                                  (math.nan, 1e-8, 4096), (1e-10, math.nan, 4096),
                                  (math.inf, 1e-8, 4096), (1e-10, -1e-8, 4096)])
def test_quad_spec_rejects_tolerances_and_limits_that_cannot_converge(spec):
    with pytest.raises(ValueError, match="finite tolerances >= 0"):
        QuadSpec(*spec)


@pytest.mark.parametrize("center, t", [
    (0.0, 0.5), (0.0, 1.7), (0.3, 0.5),
    # at x = -3 a bisection puts a panel edge 0.005 right of the jump at
    # -0.7, and no node of the panel to its left sees the sliver between
    # them: the panel reads 0 from K21 and G10 alike and u is 4.8e-4 short
    pytest.param(0.3, 1.7, marks=pytest.mark.xfail(
        strict=True, reason="a sliver of data that no node sees is missed"))])
def test_box_data_with_jumps_inside_panels(deadline, kernel_heat, center, t):
    # phi = 1 on |y - center| < 1: its jumps lie inside the first panels of
    # every window, and each narrows to a panel of about 2^-44 max(1, |y|)
    # that is accepted on its share of the tolerance
    phi = InitialData.from_callable(
        lambda y: np.where(np.abs(y - center) < 1.0, 1.0, 0.0))
    xs = np.linspace(-3.0, 3.0, 61)
    with deadline(10):
        u = solve_ivp(kernel_heat, phi, xs, t).values[0]
    r = xs - center
    exact = 0.5 * (erf((1.0 - r) / math.sqrt(4.0 * t))
                   + erf((1.0 + r) / math.sqrt(4.0 * t)))
    assert np.max(np.abs(u - exact)) < 1e-9


def test_solve_ivp_single_point_equals_grid_run(kernel_fp):
    phi = InitialData.gaussian(width=0.8, center=0.2)
    xs = np.linspace(-1.0, 1.0, 21)
    full = solve_ivp(kernel_fp, phi, xs, [0.3, 0.6]).values
    for j in (0, 7, 20):
        one = solve_ivp(kernel_fp, phi, xs[j:j + 1], [0.3, 0.6]).values
        assert np.max(np.abs(one[:, 0] - full[:, j])) < 1e-12


@pytest.mark.parametrize("L", [1e5, 1e8, 1e300])
def test_wide_truncation_keeps_the_kernel_window(kernel_heat, L):
    # the window is mean +- 10 sigma clipped to [-L, L], however wide L is
    ones = InitialData.from_callable(np.ones_like, L=L)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = solve_ivp(kernel_heat, ones, np.linspace(-1.0, 1.0, 5), 0.5)
    assert np.max(np.abs(u.values - 1.0)) < 1e-12


def test_gk21_stack_matches_single_components():
    f1 = lambda r, y: np.exp(-y * y) * np.cos(3.0 * y)
    f2 = lambda r, y: y * np.exp(-(y - 0.3) ** 2)
    lo, hi = np.array([-5.0, -3.0, 0.0]), np.array([5.0, 4.0, 6.0])
    center = np.array([0.0, 0.5, 1.0])
    both = _gk21(lambda r, y: np.stack((f1(r, y), f2(r, y))), lo, hi, center,
                 QuadSpec())
    assert both.shape == (2, 3)
    for got, f in zip(both, (f1, f2)):
        one = _gk21(f, lo, hi, center, QuadSpec())
        assert one.shape == (1, 3)
        assert np.max(np.abs(got - one[0])) < 1e-14


def _chebyshev(d, lo, hi):
    """T_d on [lo, hi] as a product over its roots, which keeps every float
    value within a few rounding errors, and its exact integral over [a, b]
    from the rational coefficients of that product.  (hi - lo) / 2 must be
    a power of 2, so that the scaling is exact."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    roots = [mid + half * math.cos((2 * i + 1) * math.pi / (2 * d))
             for i in range(d)]
    lead = Fraction(2) ** (d - 1) / Fraction(half) ** d if d else Fraction(1)
    coef = [lead]                       # ascending powers of y
    for r in map(Fraction, roots):      # times (y - r)
        coef = [(coef[k - 1] if k else 0) - (r * coef[k] if k < len(coef) else 0)
                for k in range(len(coef) + 1)]

    def f(rows, y):
        out = np.full_like(y, float(lead))
        for r in roots:
            out *= y - r
        return out

    def integral(a, b):
        a, b = Fraction(a), Fraction(b)
        return sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                   for k, c in enumerate(coef))

    return f, integral


@pytest.mark.parametrize("degree", range(30))
def test_gk21_is_exact_on_polynomials_of_degree_up_to_29(degree):
    # K21 integrates degree <= 31 exactly and G10 degree <= 19, so below 20
    # K21 - G10 is rounding and the first pass is accepted; from 20 on the
    # estimate is real and bisects, and every panel's K21 value is still exact
    lo, hi = -3.0, 5.0
    rows = 3
    los, his = np.full(rows, lo), np.full(rows, hi)
    centers = np.array([lo, 1.0, 4.5])
    polys = _chebyshev(degree, lo, hi), _chebyshev(degree // 2, lo, hi)
    eps = np.finfo(float).eps
    for knots in (None, np.array([-2.3, 0.7, 0.71, 4.9])):
        for stacked in (False, True):
            calls = []

            def f(r, y):
                calls.append(len(r))
                if stacked:
                    return np.stack([p(r, y) for p, _ in polys])
                return polys[0][0](r, y)

            got = _gk21(f, los, his, centers, TIGHT, knots=knots)
            assert got.shape == (2 if stacked else 1, rows)
            assert (len(calls) == 1) == (degree < 20), (knots, stacked, calls)
            for row, (_, integral) in zip(got, polys):
                want = float(integral(lo, hi))
                # within 4 ulp of the scale max|T_d| (hi - lo) = 8
                assert np.max(np.abs(row - want)) <= 4 * eps * (hi - lo)


def test_gk21_empty_windows_are_exactly_zero():
    seen = []

    def f(rows, y):
        seen.append(rows)
        return np.exp(-y * y)

    lo = np.array([0.0, -1.0, 2.0, 3.0])
    hi = np.array([0.0, 1.0, 1.0, 3.0])
    got = _gk21(f, lo, hi, np.zeros(4), QuadSpec(),
                knots=np.array([0.5, 2.5]))
    assert got.shape == (1, 4)
    assert got[0, 1] == pytest.approx(math.sqrt(math.pi) * math.erf(1.0),
                                      rel=1e-13)
    # hi <= lo: no panel, so the integrand never sees the row, and 0 exactly
    assert np.array_equal(got[0, [0, 2, 3]], np.zeros(3))
    assert set(np.concatenate(seen).tolist()) == {1}
    seen.clear()
    assert np.array_equal(_gk21(f, lo[[0, 2]], hi[[0, 2]], np.zeros(2),
                                QuadSpec()), np.zeros((1, 2)))
    assert seen == []


@pytest.mark.parametrize("phi, sizes", [
    (InitialData.gaussian(), [1288]),
    # the kink of |y| at 0 takes 20 passes
    (InitialData.from_callable(np.abs, L=2.5),
     [1040, 196, 192, 192, 188, 188, 188, 188, 188, 184, 184, 184, 176, 168,
      160, 132, 100, 64, 28, 4])])
def test_solve_ivp_accepts_the_same_panels(kernel_heat, phi, sizes):
    # the panels per integrand call of one solve: a change to the nodes, the
    # sums or the error estimate that moves an acceptance shows here
    calls = []

    def counted(y):
        calls.append(y.shape[0])
        return phi.func(y)

    data = InitialData.from_callable(counted, L=phi.L)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        solve_ivp(kernel_heat, data, np.linspace(-4.0, 4.0, 161), 0.5)
    assert calls == sizes


def test_gk21_stops_at_the_first_block_that_is_not_finite():
    # 300 rows of 8 panels are more than one block; a NaN in the first
    # block raises before the second block is evaluated
    rows = 300
    assert rows * 8 > _BLOCK
    calls = []

    def f(r, y):
        calls.append(len(r))
        out = np.exp(-y * y)
        out[5, 7] = np.nan
        return out

    with pytest.raises(QuadratureError,
                       match="integrand is not finite at a quadrature node"):
        _gk21(f, np.full(rows, -3.0), np.full(rows, 3.0), np.zeros(rows),
              QuadSpec())
    assert calls == [_BLOCK]


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData()
    with pytest.raises(ValueError):
        InitialData(func=lambda y: y, xs=np.array([0.0]), ys=np.array([1.0]))
    with pytest.raises(ValueError):
        InitialData.from_samples(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        InitialData.gaussian(L=-1.0)
    for bad_x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            InitialData.from_samples([0.0, bad_x, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            InitialData.from_samples([0.0, 1.0, bad_x], [1.0, 1.0, 1.0])
    data = InitialData.from_samples(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    assert data(0.5) == pytest.approx(2.5)
    assert data(5.0) == 0.0
    assert type(data(0.5)) is float
    assert np.array_equal(data(np.array([[0.5, 5.0]])), [[2.5, 0.0]])


# ----------------------------------------------------------------- expectations

def test_expectation_ou_mean(kernel_ou_plain):
    ident = InitialData.from_callable(lambda y: y)
    for x, t in ((1.0, 0.5), (-0.7, 0.8)):
        got = expectation(kernel_ou_plain, ident, x, t)
        assert got == pytest.approx(x * math.exp(-t), rel=1e-6)


def test_expectation_ou_normalized(kernel_ou_plain):
    ones = InitialData.from_callable(lambda y: 1.0)
    assert expectation(kernel_ou_plain, ones, 0.3, 0.7) == pytest.approx(
        1.0, abs=1e-8)


def test_expectation_second_moment_heat(kernel_heat):
    sq = InitialData.from_callable(lambda y: y * y)
    for x, t in ((0.0, 0.5), (1.5, 0.25)):
        got = expectation(kernel_heat, sq, x, t)
        assert got == pytest.approx(x * x + 2.0 * t, rel=1e-8)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_expectation_rejects_non_finite_x(kernel_ou_plain, x):
    ones = InitialData.from_callable(lambda y: 1.0)
    with pytest.raises(ValueError, match="finite"):
        expectation(kernel_ou_plain, ones, x, 0.5)


def test_expectation_warns_on_nonconservative(kernel_fp):
    ones = InitialData.from_callable(lambda y: 1.0)
    with pytest.warns(NonconservativeWarning):
        expectation(kernel_fp, ones, 0.0, 0.5)


# ---------------------------------------------------------------- normalization

def test_positive_quadratic_exponent_is_a_typed_error(deadline):
    # b = -4: gamma0 = alpha0 = -cot(4t)/2 turns positive past pi/8, inside
    # T_valid = pi/4, where no Gaussian in y (or x) is left to integrate
    co = profile("custom", T=1.0, poly={"a": [1.0], "b": [-4.0]})
    with deadline(30):
        K = make_kernel(co)
    prob = BurgersProblem(co, lambda y: np.exp(-y * y), np.linspace(-1, 1, 5))
    phi, xs = InitialData.gaussian(), np.linspace(-1.0, 1.0, 5)
    for t in (0.5, 0.7):
        for run in (lambda: solve_ivp(K, phi, xs, t),
                    lambda: solve_burgers_ivp(prob, t),
                    lambda: normalization(K, t, "y")):
            with pytest.raises(QuadratureError, match=r"in y .*gamma0 = "):
                run()
        with pytest.raises(QuadratureError, match=r"in x .*alpha0 = "):
            normalization(K, t, "x")
    assert np.isfinite(solve_ivp(K, phi, xs, 0.3).values).all()
    assert np.isfinite(solve_burgers_ivp(prob, 0.3).values).all()
    assert math.isfinite(normalization(K, 0.3, "y"))
    assert math.isfinite(normalization(K, 0.3, "x"))


def test_normalization_ou_over_y(kernel_ou):
    assert normalization(kernel_ou, 0.7, "y") == pytest.approx(1.0, abs=1e-8)


def test_normalization_fp_over_x(kernel_fp):
    assert normalization(kernel_fp, 0.5, "x") == pytest.approx(1.0, abs=1e-8)


def test_normalization_cable_gains_mass(kernel_cable):
    # the zeroth-order source multiplies the mass by e^{t/tau}
    got = normalization(kernel_cable, 1.0, "y")
    assert got == pytest.approx(math.exp(0.5), rel=1e-8)
    explicit = normalization(kernel_cable, 1.0, "y", L=30.0)
    assert explicit == pytest.approx(math.exp(0.5), rel=1e-8)


@pytest.mark.parametrize("L", [None, 30.0, 1e300, math.inf])
def test_normalization_clips_its_window_to_a_wide_L(kernel_heat, L):
    # [-L, L] is cut to the kernel's own window, so its first panels see it
    assert normalization(kernel_heat, 0.5, "y", L=L) == pytest.approx(1.0, abs=1e-8)
    assert normalization(kernel_heat, 0.5, "x", L=L) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("L", [-5.0, 0.0, math.nan])
def test_normalization_rejects_bad_half_width(kernel_ou, L):
    with pytest.raises(ValueError, match="half-width L must be positive"):
        normalization(kernel_ou, 0.7, "y", L=L)


def test_normalization_takes_a_heat_kernel(kernel_ou):
    with pytest.raises(ValueError):
        normalization(kernel_ou, 0.7, "z")
    with pytest.raises(TypeError, match="HeatKernel"):
        normalization(closed_form("ou-drift", a=1.0, k=1.0, g=0.5), 0.7, "y")


# --------------------------------------------------------------- transform path

def test_transform_solve_identity_for_heat(kernel_heat):
    xs = np.linspace(-1.0, 1.0, 9)
    phi = InitialData.gaussian()
    direct = solve_ivp(kernel_heat, phi, xs, 0.5, TIGHT)
    mapped = transform_solve(kernel_heat.fund, phi, xs, 0.5, quad_spec=TIGHT)
    assert np.max(np.abs(direct.values - mapped.values)) < 1e-10


def test_transform_solve_checks_the_grid_before_integrating(kernel_heat):
    with pytest.raises(ValueError, match="1-D"):
        transform_solve(kernel_heat.fund, InitialData.gaussian(),
                        np.zeros((2, 3)), 0.5)


def test_transform_solve_fokker_planck(kernel_fp):
    xs = np.linspace(-1.5, 1.5, 11)
    phi = InitialData.gaussian()
    direct = solve_ivp(kernel_fp, phi, xs, 0.5)
    mapped = transform_solve(kernel_fp.fund, phi, xs, 0.5)
    assert np.max(np.abs(direct.values - mapped.values)) < 1e-5


def test_transform_solve_cable_vs_closed_form(kernel_cable):
    # independent reference: quadrature against the closed-form kernel
    ref_kernel = closed_form("cable", lam=1.0, tau=2.0)
    phi = InitialData.gaussian()
    xs = np.linspace(-1.0, 1.0, 5)
    t = 0.8
    ref = [_quad(lambda y: ref_kernel.evaluate(x, y, t) * phi(y),
                 -12.0, 12.0, TIGHT) for x in xs]
    mapped = transform_solve(kernel_cable.fund, phi, xs, t)
    assert np.max(np.abs(mapped.values[0] - ref)) < 1e-5


@pytest.mark.parametrize("fixture", ["kernel_heat", "kernel_fp"])
def test_transform_solve_sampled_data(request, fixture):
    # the interpolant's knots are breakpoints; without them QUADPACK
    # reported roundoff here
    K = request.getfixturevalue(fixture)
    ys = np.linspace(-3.0, 3.0, 61)
    phi = InitialData.from_samples(ys, np.exp(-ys * ys))
    xs = np.linspace(-2.0, 2.0, 9)
    direct = solve_ivp(K, phi, xs, 0.5)
    mapped = transform_solve(K.fund, phi, xs, 0.5)
    assert np.max(np.abs(direct.values - mapped.values)) < 1e-12


def test_transform_solve_truncated_data(kernel_heat):
    # phi = 1 on [-L, L]: u = (erf((L - x)/sqrt(4t)) + erf((L + x)/sqrt(4t)))/2;
    # at x = 30 the whole window lies beyond L and u is 0 without a quadrature
    L, t = 2.0, 0.5
    xs = np.array([-2.5, -1.0, 0.0, 0.7, 2.0, 30.0])
    want = [0.5 * (math.erf((L - x) / math.sqrt(4.0 * t))
                   + math.erf((L + x) / math.sqrt(4.0 * t))) for x in xs]
    mapped = transform_solve(kernel_heat.fund, InitialData.from_callable(
        lambda y: 1.0, L=L), xs, t, quad_spec=TIGHT)
    assert np.max(np.abs(mapped.values[0] - want)) < 1e-12
    assert mapped.values[0, -1] == 0.0
    # sampled data and L together: the window is the narrower of the two
    ys = np.linspace(-3.0, 3.0, 61)
    phi = InitialData.from_samples(ys, np.exp(-ys * ys), L=L)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        direct = solve_ivp(kernel_heat, phi, xs, t)
    # x = 30 has an empty window, which once raised a divide-by-zero warning
    assert [w.category for w in caught] == [TruncationWarning]
    mapped = transform_solve(kernel_heat.fund, phi, xs, t)
    assert np.max(np.abs(direct.values - mapped.values)) < 1e-12


def test_sampled_data_outside_half_width_gives_zeros(kernel_heat):
    # samples on [3, 5] with L = 2: the data's window [-L, L] ∩ [3, 5] is empty
    ys = np.linspace(3.0, 5.0, 21)
    phi = InitialData.from_samples(ys, np.ones_like(ys), L=2.0)
    assert phi.window == (3.0, 2.0)
    xs = np.linspace(-4.0, 6.0, 11)
    with pytest.warns(TruncationWarning):
        direct = solve_ivp(kernel_heat, phi, xs, 0.5)
    assert not direct.values.any()
    flip = (1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0)    # beta(0) < 0 reverses eta
    mapped = transform_solve(kernel_heat.fund, phi, xs, 0.5, init=flip)
    assert not mapped.values.any()
    # the reversed map still integrates data whose window is not empty
    inside = InitialData.from_samples(ys - 4.0, np.exp(-(ys - 4.0) ** 2), L=2.0)
    mapped = transform_solve(kernel_heat.fund, inside, xs, 0.5, init=flip)
    with pytest.warns(TruncationWarning):
        direct = solve_ivp(kernel_heat, inside, xs, 0.5)
    assert np.max(np.abs(direct.values)) > 0.1
    assert np.max(np.abs(direct.values - mapped.values)) < 1e-12


def test_transform_solve_singular_map(kernel_heat):
    # alpha(0) + gamma0(s) = 1 - 1/(4s) vanishes at s = 0.25
    init = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    phi = InitialData.gaussian()
    xs = np.linspace(-2.0, 2.0, 9)
    for t in (0.3, 0.51):
        with pytest.raises(SingularityError, match="vanishes"):
            transform_solve(kernel_heat.fund, phi, xs, t, init=init)
    t = 0.2
    mapped = transform_solve(kernel_heat.fund, phi, xs, t, init=init,
                             quad_spec=TIGHT)
    want = np.exp(-xs * xs / (1.0 + 4.0 * t)) / math.sqrt(1.0 + 4.0 * t)
    assert np.max(np.abs(mapped.values[0] - want)) < 1e-10
    # the prefactor reaches e^20 at x = ±2; the default spec must still hold
    # for u, not just for the inner integral
    mapped = transform_solve(kernel_heat.fund, phi, xs, t, init=init)
    assert np.max(np.abs(mapped.values[0] - want) / want) < 1e-9


def test_transform_solve_rejects_bad_init(kernel_heat):
    phi = InitialData.gaussian()
    with pytest.raises(ValueError):
        transform_solve(kernel_heat.fund, phi, np.linspace(-1, 1, 3), 0.5,
                        init=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


# ------------------------------------------------------------------- asymptotic

def test_asymptotic_kernel_ratio(kernel_fp, coeffs_fp):
    Ka = asymptotic_kernel(coeffs_fp)
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 7):
        for dy in (0.0, 0.25, 0.5):
            ratio = math.exp(kernel_fp.log_evaluate(x, x - dy, 1e-3)
                             - Ka.log_evaluate(x, x - dy, 1e-3))
            worst = max(worst, abs(ratio - 1.0))
    assert worst < 1e-2


# -------------------------------------------------------------------- GridField

def test_gridfield_validation():
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridField(xs, [0.0], np.ones((1, 4)))
    scattered = GridField(np.array([0.0, 0.5, 0.7]), [0.0], np.ones((1, 3)))
    with pytest.raises(ValueError, match="x-grid"):
        scattered.dx
    with pytest.raises(ValueError):
        GridField(xs, [0.0], np.full((1, 5), np.nan))
    field = GridField(xs, [0.0], np.arange(5.0)[None, :])
    assert field.dx == pytest.approx(0.25)
    assert field.max_abs == 4.0


def test_gridfield_csv_format():
    field = GridField(np.array([0.0, 0.5]), [0.25],
                      np.array([[1.0 / 3.0, 2.0 / 3.0]]))
    buf = io.StringIO()
    field.to_csv(buf, header=("t", "x", "u"))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,u"
    assert lines[1] == "0.25,0,0.33333333333333331"
    assert len(lines) == 3


def test_diffusion_residual_small_on_kernel_solution(kernel_fp, coeffs_fp):
    xs = np.linspace(-4.0, 4.0, 161)
    field = solve_ivp(kernel_fp, InitialData.gaussian(), xs, [0.49, 0.5, 0.51])
    res = diffusion_residual(field, coeffs_fp)
    assert res.max_abs < 1e-3 * field.max_abs


def test_diffusion_residual_equals_row_by_row_reference():
    # all levels at once must give the per-level loop's values to the bit
    co = profile("custom", T=1.0, poly={"a": [0.8, 0.1], "b": [0.05, -0.1],
                                        "c": [0.3, 0.2], "d": [0.4, 0.1],
                                        "f": [-0.2, 0.3], "g": [0.1, -0.5]})
    xs = np.linspace(-2.0, 2.0, 81)
    ts = np.linspace(0.3, 0.34, 6)
    field = GridField(xs, ts, [np.exp(0.3 * np.sin(xs + t) + t * xs) for t in ts])
    ut = dt_central(field.values, ts)
    want = []
    for i, t in enumerate(ts[1:-1]):
        u = field.values[i + 1]
        ux, uxx = d1_uniform4(u, field.dx), d2_uniform4(u, field.dx)
        want.append(ut[i] - (co.a(t) * uxx - (co.g(t) - co.c(t) * xs) * ux
                             + (co.d(t) + co.f(t) * xs - co.b(t) * xs * xs) * u))
    assert np.array_equal(diffusion_residual(field, co).values, want)


def test_diffusion_residual_needs_three_levels(kernel_fp, coeffs_fp):
    xs = np.linspace(-2.0, 2.0, 33)
    field = solve_ivp(kernel_fp, InitialData.gaussian(), xs, 0.5)
    with pytest.raises(ValueError):
        diffusion_residual(field, coeffs_fp)


def test_quad_reports_nonconvergence(kernel_heat):
    # an oscillatory integrand with far too few subdivisions allowed
    spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14, limit=1)
    with pytest.raises(QuadratureError):
        _quad(lambda y: math.sin(40.0 * y) ** 2 * math.exp(-y * y),
              -8.0, 8.0, spec)
    wiggly = InitialData.from_callable(lambda y: np.sin(400.0 * y) ** 2)
    with pytest.raises(QuadratureError):
        solve_ivp(kernel_heat, wiggly, np.linspace(-1.0, 1.0, 5), 0.5,
                  QuadSpec(abs_tol=1e-14, rel_tol=1e-14, limit=16))


def test_write_csv_bytes_match_per_value_formatting():
    specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                2.2250738585072014e-308, 1.0 / 3.0, -1e300, 123456789.0]
    # repeats, which are formatted once, of values that compare equal or
    # unordered: -0.0 and 0.0, NaNs of either sign and another payload
    nan_payload = np.array([0x7FF8000000000001]).view(float)[0]
    repeats = [-0.0, 0.0, math.nan, math.inf, -0.0, -math.nan, 0.0,
               nan_payload, math.inf, math.nan]
    columns = (specials + repeats,
               np.array(specials[::-1] + repeats[::-1]),
               [float(i % 3) for i in range(20)],
               np.linspace(-1.0, 1.0, 20) / 3.0)   # no repeats
    buf = io.StringIO()
    write_csv(buf, ("t", "x", "u", "v"), columns)
    old = "t,x,u,v\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                              for row in zip(*columns))
    assert buf.getvalue() == old
    empty = io.StringIO()
    write_csv(empty, ("t", "x"), ([], []))
    assert empty.getvalue() == "t,x\n"
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(io.StringIO(), ("t", "x"), ([0.0, 1.0], [0.0]))
