import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern import (asymptotics, fundamental, gamma0_quadrature_form,
                      integrate_direct, invert, make_kernel, profile,
                      solve_characteristic, superpose)
from heatkern.errors import (BlowUpError, DomainError, IntegrationError,
                             QuadratureError, SingularityError, StabilityError)
from heatkern.riccati import RiccatiState

STATE_FIELDS = ("mu", "alpha", "beta", "gamma", "delta", "eps", "kappa")
TYPED_ERRORS = (DomainError, SingularityError, IntegrationError,
                QuadratureError, StabilityError)
# f, g, a' and d' all nonzero
MIXED_POLY = {"a": [1.0, 0.5], "b": [0.2], "c": [0.3, -0.2], "d": [0.1, 0.2],
              "f": [0.5, -0.3], "g": [0.4, 0.6]}
DIRECT_INIT = (1.0, -2.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def mixed_err(a, b, switch=1e-6):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > switch else abs(a - b)


def _seeded_stack(m, seed=3):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(0.4, 2.0, m), rng.uniform(-1.0, 0.2, m),
        rng.uniform(0.4, 2.0, m) * rng.choice([-1.0, 1.0], m),
        *rng.uniform(-1.0, 1.0, (4, m))])


# ------------------------------------------------------------------ fundamental

def test_fundamental_fokker_planck_closed_form(kernel_fp):
    # mu0 = 1 - e^{-2t}, mu1 = 1, h = e^{-t}
    fund = kernel_fp.fund
    t = 1.0
    m = 1.0 - math.exp(-2.0)
    assert fund.alpha0(t) == pytest.approx(-1.0 / (2.0 * m), rel=1e-9)
    assert fund.beta0(t) == pytest.approx(1.0 / (2.0 * math.sinh(1.0)), rel=1e-9)
    assert fund.gamma0(t) == pytest.approx(0.5 - 1.0 / (2.0 * m), rel=1e-9)


def test_fundamental_constant_heat(kernel_heat):
    fund = kernel_heat.fund
    t = 0.25
    assert fund.alpha0(t) == pytest.approx(-1.0, rel=1e-10)
    assert fund.beta0(t) == pytest.approx(2.0, rel=1e-10)
    assert fund.gamma0(t) == pytest.approx(-1.0, rel=1e-10)


def test_fundamental_inhomogeneous_terms_vanish_without_sources(kernel_fp):
    fund = kernel_fp.fund
    for t in (0.1, 0.5, 1.5):
        assert fund.delta0(t) == 0.0
        assert fund.eps0(t) == 0.0
        assert fund.kappa0(t) == 0.0


def test_fundamental_ou_inhomogeneous_closed_forms(kernel_ou):
    # hand-derived for a=1, k=1, g0=0.5 (master g = -0.5):
    #   delta0 = -g0/(e^t + 1), eps0 = g0/(1 + e^{-t}),
    #   kappa0 = -(g0^2/2) tanh(t/2)
    fund = kernel_ou.fund
    g0 = 0.5
    for t in (0.2, 0.7, 1.5):
        assert fund.delta0(t) == pytest.approx(-g0 / (math.exp(t) + 1.0),
                                               rel=1e-9)
        assert fund.eps0(t) == pytest.approx(g0 / (1.0 + math.exp(-t)),
                                             rel=1e-9)
        assert fund.kappa0(t) == pytest.approx(-(g0 ** 2 / 2.0)
                                               * math.tanh(t / 2.0), rel=1e-9)


def test_fundamental_beta0_is_h_over_mu0(kernel_cable):
    fund = kernel_cable.fund
    chs = fund.chs
    for t in (0.2, 0.9, 1.7):
        mu0, _, _, _, h = chs.standard(t)
        assert fund.beta0(t) == pytest.approx(h / mu0, rel=1e-13)


def test_fundamental_domain_errors(kernel_fp):
    fund = kernel_fp.fund
    with pytest.raises(DomainError):
        fund.alpha0(0.0)
    with pytest.raises(DomainError):
        fund.beta0(-0.1)
    with pytest.raises(DomainError):
        fund.gamma0(5.0)


def test_fundamental_stops_before_mu0_zero():
    co = profile("custom", T=2.0, poly={"a": [1.0], "b": [-1.0]})
    chs = solve_characteristic(co, tol=1e-11)
    fund = fundamental(chs)
    assert fund.T_valid == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert math.isfinite(fund.alpha0(1.5))  # still inside
    with pytest.raises(DomainError):
        fund.alpha0(1.6)


def test_substitution_residuals_on_grid(kernel_ou, coeffs_ou):
    # plug the fundamental coefficients into all seven equations; derivatives
    # by central differences with step 1e-5
    fund = kernel_ou.fund
    co = coeffs_ou
    h = 1e-5
    worst = 0.0
    for t in np.linspace(0.06, 2.0, 20):
        a, b, c, d = co.a(t), co.b(t), co.c(t), co.d(t)
        f, g = co.f(t), co.g(t)
        al, be, ga = fund.alpha0(t), fund.beta0(t), fund.gamma0(t)
        de, ep = fund.delta0(t), fund.eps0(t)
        mu = fund.mu0(t)

        def ddt(fn):
            return (fn(t + h) - fn(t - h)) / (2.0 * h)

        worst = max(
            worst,
            abs(ddt(fund.mu0) + 2.0 * mu * (2.0 * a * al + d)),
            abs(ddt(fund.alpha0) - (-b + 2.0 * c * al + 4.0 * a * al ** 2)),
            abs(ddt(fund.beta0) - (c + 4.0 * a * al) * be),
            abs(ddt(fund.gamma0) - a * be ** 2),
            abs(ddt(fund.delta0) - ((c + 4.0 * a * al) * de + f - 2.0 * al * g)),
            abs(ddt(fund.eps0) - (2.0 * a * de - g) * be),
            abs(ddt(fund.kappa0) - (a * de ** 2 - g * de)),
        )
    assert worst < 1e-5


def test_values_on_array_equal_stacked_scalars():
    fund = make_kernel(profile("custom", T=1.5, poly=MIXED_POLY), tol=1e-11).fund
    ts = np.array([1e-4, 0.03, 0.7, 1.2, 1.5])
    stacked = np.array([fund.values(t) for t in ts]).T
    np.testing.assert_array_equal(np.array(fund.values(ts)), stacked)
    # any shape of times, bit for bit the float path
    square = np.array(fund.values(ts[:4].reshape(2, 2)))
    assert square.shape == (7, 2, 2)
    assert square.tobytes() == stacked[:, :4].reshape(7, 2, 2).tobytes()
    with pytest.raises(DomainError):
        fund.values(np.array([0.5, np.nan]))


@pytest.mark.parametrize("co", [
    profile("custom", T=1.5, poly=MIXED_POLY),
    profile("ou-drift", T=2.0, a=1.0, k=-3.0, g=0.5),
], ids=["mixed", "ou-growing"])
def test_eps0_kappa0_against_direct(co):
    fund = make_kernel(co, tol=1e-11).fund
    ts = (1e-4, 1e-2, 1.0, 0.999 * fund.T_valid)
    traj = integrate_direct(co, DIRECT_INIT, ts[-1], tol=1e-12)
    for t in ts:
        ref = invert(traj.state(t))
        assert mixed_err(fund.eps0(t), ref.eps0) < 1e-9
        assert mixed_err(fund.kappa0(t), ref.kappa0) < 1e-9


def test_hyperbolic_drift_matches_direct(deadline):
    # b e^{-2C} grows like e^{40 t}: many steps, but the values stay right
    co = profile("custom", T=2.0, poly={"a": [1.0], "b": [1.0], "c": [-20.0]})
    with deadline(30):
        fund = make_kernel(co, tol=1e-10).fund
        ts = [fund.T_valid * s for s in (0.1, 0.5, 0.9)]
        traj = integrate_direct(co, DIRECT_INIT, ts[-1], tol=1e-12)
    for t in ts:
        for got, want in zip(fund.values(t), invert(traj.state(t))):
            assert mixed_err(got, want) < 1e-6


def test_hyperbolic_overflow_is_typed_or_the_fixed_point(deadline):
    # c = -400: b e^{-2C} overflows near t = 0.89.  Either a typed error, or
    # alpha0 at the stable fixed point -(2c + sqrt(4c^2 + 16ab))/(8a)
    a, b, c = 1.0, 1.0, -400.0
    co = profile("custom", T=2.0, poly={"a": [a], "b": [b], "c": [c]})
    with deadline(30):
        try:
            alpha0 = make_kernel(co, tol=1e-10).fund.alpha0(1.5)
        except IntegrationError:
            return
    fixed = -(2.0 * c + math.sqrt(4.0 * c * c + 16.0 * a * b)) / (8.0 * a)
    assert alpha0 == pytest.approx(fixed, rel=1e-8)   # -0.0012499922


def test_mu0_out_of_range_is_a_typed_error():
    # d = -400: mu0 = 2t e^{800t} is finite up to t = 0.88 and overflows after
    co = profile("custom", T=2.0, poly={"a": [1.0], "d": [-400.0]})
    fund = make_kernel(co, tol=1e-10).fund
    assert fund.mu0(0.5) == pytest.approx(math.exp(400.0), rel=1e-9)
    with pytest.raises(IntegrationError, match="overflows"):
        fund.values(1.5)
    with pytest.raises(IntegrationError, match="overflows"):
        fund.values(np.array([0.5, 1.5]))


_linear = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(a=st.tuples(st.floats(0.3, 2.0), st.floats(-1.0, 1.0)), b=_linear,
       c=_linear, d=_linear, f=_linear, g=_linear)
def test_random_linear_coefficients_match_direct_or_raise(deadline, a, b, c,
                                                          d, f, g):
    co = profile("custom", T=2.0, poly={"a": a, "b": b, "c": c, "d": d,
                                        "f": f, "g": g})
    with deadline(60):
        try:
            fund = make_kernel(co, tol=1e-11).fund
            ts = [fund.T_valid * s for s in (0.1, 0.5, 0.9)]
            traj = integrate_direct(co, DIRECT_INIT, ts[-1], tol=1e-12)
            pairs = [(fund.values(t), invert(traj.state(t))) for t in ts]
        except TYPED_ERRORS:
            return
    for got, want in pairs:
        assert all(mixed_err(x, y) < 1e-6 for x, y in zip(got, want))


# ------------------------------------------------------------------- superpose

def test_superpose_continuity_at_origin(kernel_fp):
    fund = kernel_fp.fund
    init = (1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    state = superpose(fund, init, 1e-6)
    for field, want in zip(STATE_FIELDS, init):
        got = getattr(state, field)
        if want == 0.0:
            assert abs(got) < 1e-3
        else:
            assert abs(got - want) / abs(want) < 1e-4


def test_superpose_matches_direct_integration(kernel_fp, coeffs_fp):
    fund = kernel_fp.fund
    init = (1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    direct = integrate_direct(coeffs_fp, init, 0.5, tol=1e-11).final
    merged = superpose(fund, init, 0.5)
    for field in STATE_FIELDS:
        assert mixed_err(getattr(direct, field), getattr(merged, field)) < 1e-6


def test_superpose_gamma_growth_against_direct(kernel_heat, coeffs_heat):
    # alpha(0) = 0, beta(0) = 1 makes gamma(t) the running quadrature of a
    fund = kernel_heat.fund
    init = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    for t in (0.1, 0.4, 0.9):
        merged = superpose(fund, init, t)
        direct = integrate_direct(coeffs_heat, init, t, tol=1e-11).final
        assert merged.gamma == pytest.approx(t, rel=1e-9)
        assert direct.gamma == pytest.approx(t, rel=1e-9)


def test_superpose_singularity(kernel_heat):
    fund = kernel_heat.fund
    t = 0.5
    init = (1.0, -fund.gamma0(t), 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(SingularityError):
        superpose(fund, init, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_superpose_rejects_data_that_is_not_finite(kernel_heat, bad):
    with pytest.raises(ValueError, match="init must be finite"):
        superpose(kernel_heat.fund, (1.0, 0.0, 1.0, 0.0, bad, 0.0, 0.0), 0.5)


# ------------------------------------------------------------- direct integration

def test_direct_integration_analytic_riccati(coeffs_heat):
    # alpha' = 4 alpha^2 from alpha(0) = -1 solves to -1/(1 + 4t)
    init = (1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    traj = integrate_direct(coeffs_heat, init, 1.0, tol=1e-11)
    st = traj.final
    assert st.alpha == pytest.approx(-0.2, rel=1e-8)
    assert traj.state(0.25).alpha == pytest.approx(-0.5, rel=1e-8)


def test_direct_integration_zero_fixed_point(coeffs_cable):
    # with b = f = g = 0 the zero solution stays zero and mu' = -2 d mu
    init = (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    st = integrate_direct(coeffs_cable, init, 1.0, tol=1e-11).final
    for field in ("alpha", "beta", "gamma", "delta", "eps", "kappa"):
        assert getattr(st, field) == 0.0
    assert st.mu == pytest.approx(2.0 * math.exp(-1.0), rel=1e-9)


def test_direct_integration_blowup(coeffs_heat):
    # alpha(0) = 1 escapes at t = 1/4 (alpha = 1/(1 - 4t)); in a stack the
    # first member to escape stops the run, and the others do not escape
    stack = _seeded_stack(6)
    stack[4, 1] = 1.0
    for init in ((1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0), stack):
        with pytest.raises(BlowUpError) as err:
            integrate_direct(coeffs_heat, init, 1.0)
        assert err.value.t_blowup == pytest.approx(0.25, abs=2e-3)


def test_direct_integration_input_validation(coeffs_heat):
    bad_stacks = (np.ones((3, 6)), np.empty((0, 7)), np.ones((2, 3, 7)),
                  np.vstack([np.ones(7), [1.0, np.inf, 1.0, 0, 0, 0, 0]]))
    for init in ((1.0, 2.0), (np.nan,) * 7, *bad_stacks):
        with pytest.raises(ValueError, match="init"):
            integrate_direct(coeffs_heat, init, 1.0)
    single = integrate_direct(coeffs_heat, (1.0, -1.0, 1.0, 0, 0, 0, 0), 0.5)
    for traj in (single, *integrate_direct(coeffs_heat, _seeded_stack(3), 0.5)):
        with pytest.raises(DomainError):
            traj.state(0.7)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
def test_direct_integration_rejects_bad_tol(deadline, coeffs_heat, tol):
    with deadline(30), pytest.raises(ValueError, match="positive and finite"):
        integrate_direct(coeffs_heat, DIRECT_INIT, 1.0, tol=tol)


@pytest.mark.parametrize("T", [-1.0, math.inf, 2.5 + 0.5])
def test_direct_integration_rejects_horizon_outside_domain(deadline,
                                                           coeffs_heat, T):
    # backward, endless, or past the coefficients' domain_end = 2.5
    with deadline(10), pytest.raises(DomainError, match="T="):
        integrate_direct(coeffs_heat, DIRECT_INIT, T)


def test_stack_members_match_their_single_runs():
    co = profile("custom", T=1.5, poly=MIXED_POLY)
    inits = _seeded_stack(20)
    stack = integrate_direct(co, inits, 1.0, tol=1e-11)
    assert len(stack) == 20
    for init, traj in zip(inits, stack):
        single = integrate_direct(co, init, 1.0, tol=1e-11)
        assert traj.init == single.init == tuple(init)
        got, want = traj.final, single.final
        for field in STATE_FIELDS:
            assert mixed_err(getattr(got, field), getattr(want, field)) < 1e-10


@pytest.mark.parametrize("m", [1, 4, 20])
def test_stack_runs_at_tol_over_sqrt_m(monkeypatch, coeffs_fp, m):
    # the error norm is the RMS over all 7m components: rtol = tol/sqrt(m)
    # keeps each member's error at its own run's level
    import scipy.integrate

    seen = []
    real = scipy.integrate.solve_ivp

    def spy(*args, **kwargs):
        seen.append((kwargs["rtol"], kwargs["atol"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", spy)
    integrate_direct(coeffs_fp, _seeded_stack(m), 0.5, tol=1e-10)
    assert seen == [(1e-10 / math.sqrt(m), 1e-10 / math.sqrt(m) * 1e-3)]


def test_single_row_stack_is_the_single_run(coeffs_fp):
    # m = 1 runs at the same rtol through the same RHS: the same bits
    single = integrate_direct(coeffs_fp, DIRECT_INIT, 0.5, tol=1e-11)
    (row,) = integrate_direct(coeffs_fp, [DIRECT_INIT], 0.5, tol=1e-11)
    assert row.final == single.final


def test_direct_integration_never_uses_the_main_path_integrator(
        monkeypatch, coeffs_fp):
    # the oracle must stay independent of the characteristic solve's panels
    import heatkern._panels

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_direct reached heatkern._panels")

    for name in ("refine", "linear", "cumulative"):
        monkeypatch.setattr(heatkern._panels, name, refuse)
    assert integrate_direct(coeffs_fp, DIRECT_INIT, 0.5).final.t == 0.5
    assert len(integrate_direct(coeffs_fp, _seeded_stack(4), 0.5)) == 4


# ----------------------------------------------------------------------- invert

def test_invert_recovers_fundamental(kernel_fp):
    fund = kernel_fp.fund
    rng = np.random.default_rng(5)
    for _ in range(5):
        init = (rng.uniform(0.4, 2.0), rng.uniform(-1.0, 0.2), 1.0,
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        rec = invert(superpose(fund, init, 0.7))
        ref = fund.values(0.7)
        assert all(mixed_err(a, b) < 1e-9 for a, b in zip(rec, ref))


def test_invert_mu0_recovery_constant_heat(kernel_heat):
    fund = kernel_heat.fund
    init = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    for t in (0.2, 0.6, 1.1):
        rec = invert(superpose(fund, init, t))
        assert rec.mu0 == pytest.approx(2.0 * t, rel=1e-10)


def test_invert_singularities():
    init = (1.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0)
    degenerate = RiccatiState(t=0.0, mu=1.0, alpha=0.0, beta=1.0, gamma=0.5,
                              delta=0.0, eps=0.0, kappa=0.0, init=init)
    with pytest.raises(SingularityError):
        invert(degenerate)
    zero_beta = RiccatiState(t=0.5, mu=1.0, alpha=0.0, beta=1.0, gamma=0.9,
                             delta=0.0, eps=0.0, kappa=0.0,
                             init=(1.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0))
    with pytest.raises(SingularityError):
        invert(zero_beta)


_heat_fund_cache = {}


def _heat_fund():
    if "f" not in _heat_fund_cache:
        co = profile("constant-heat", a=1.0, T=2.5)
        _heat_fund_cache["f"] = make_kernel(co, tol=1e-12).fund
    return _heat_fund_cache["f"]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-1.0, 0.2), beta=st.floats(0.3, 2.0),
       gamma=st.floats(-1.0, 1.0), delta=st.floats(-1.0, 1.0),
       eps=st.floats(-1.0, 1.0), kappa=st.floats(-1.0, 1.0),
       t=st.floats(0.05, 1.5))
def test_invert_superpose_identity_property(alpha, beta, gamma, delta, eps,
                                            kappa, t):
    fund = _heat_fund()
    init = (1.0, alpha, beta, gamma, delta, eps, kappa)
    rec = invert(superpose(fund, init, t))
    ref = fund.values(t)
    assert all(mixed_err(a, b) < 1e-9 for a, b in zip(rec, ref))


# ------------------------------------------------------------------ asymptotics

def test_asymptotics_exact_for_constant_heat(kernel_heat, coeffs_heat):
    fund = kernel_heat.fund
    for t in (1e-3, 1e-4):
        asy = asymptotics(coeffs_heat, t)
        assert asy.alpha0 == pytest.approx(-1.0 / (4.0 * t), rel=1e-14)
        assert fund.alpha0(t) == pytest.approx(asy.alpha0, rel=1e-9)


def test_asymptotics_error_shrinks_linearly(kernel_fp, coeffs_fp):
    fund = kernel_fp.fund
    diffs = []
    for t in (1e-3, 1e-4):
        asy = asymptotics(coeffs_fp, t)
        diffs.append(abs(fund.alpha0(t) - asy.alpha0))
    ratio = diffs[0] / diffs[1]
    assert 5.0 < ratio < 20.0  # O(t) remainder: factor ~10 per decade


def test_asymptotics_source_terms(coeffs_ou, coeffs_fp):
    asy = asymptotics(coeffs_ou, 1e-3)
    assert asy.delta0 == pytest.approx(-0.25)   # g(0)/(2a(0)) = -0.5/2
    assert asy.eps0 == pytest.approx(0.25)
    assert asy.kappa0 == 0.0
    asy0 = asymptotics(coeffs_fp, 1e-3)
    assert asy0.delta0 == 0.0 and asy0.eps0 == 0.0


# ------------------------------------------------------------------- dual forms

def test_gamma0_quadrature_form_matches(kernel_fp, kernel_cable):
    for K, ts in ((kernel_fp, (0.3, 0.7, 1.5)), (kernel_cable, (0.3, 0.6, 0.9))):
        for t in ts:
            q = gamma0_quadrature_form(K.fund, t)
            assert q == pytest.approx(K.fund.gamma0(t), rel=1e-6)


def test_gamma0_quadrature_form_stops_at_a_zero_of_dmu0(kernel_cable):
    # on cable mu0' vanishes at t = 1 (gamma0 = -1/2 there) and is negative
    # past it, where 1/mu0'^2 is not integrable
    with pytest.raises(QuadratureError):
        gamma0_quadrature_form(kernel_cable.fund, 1.0)
    with pytest.raises(SingularityError, match="sign of a"):
        gamma0_quadrature_form(kernel_cable.fund, 1.2)
