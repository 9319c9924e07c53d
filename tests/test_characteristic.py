import dataclasses
import math

import numpy as np
import pytest

from heatkern import (InitialData, make_kernel, profile, solve_characteristic,
                      solve_ivp, wronskian_residual)
from heatkern.errors import DomainError, IntegrationError

TS = np.linspace(0.04, 2.0, 50)


def _analytic(name):
    """Closed-form standard solutions, worked out by hand per profile."""
    if name == "heat":          # mu'' = 0
        return profile("constant-heat", a=1.0), 2.0 * TS, np.ones_like(TS), \
            np.ones_like(TS)
    if name == "fp":            # mu'' + 2 mu' = 0
        return profile("fokker-planck"), 1.0 - np.exp(-2.0 * TS), \
            np.ones_like(TS), np.exp(-TS)
    if name == "cable":         # double root at -2/tau = -1 (lam=1, tau=2)
        co = profile("cable", lam=1.0, tau=2.0)
        return co, TS * np.exp(-TS), (1.0 + TS) * np.exp(-TS), np.exp(-TS)
    if name == "ou":            # mu'' + 2k mu' = 0, k = 1
        co = profile("ou-drift", a=1.0, k=1.0, g=0.5)
        return co, 1.0 - np.exp(-2.0 * TS), np.ones_like(TS), np.exp(-TS)
    raise KeyError(name)


@pytest.mark.parametrize("name", ["heat", "fp", "cable", "ou"])
def test_standard_solutions_match_analytic(name):
    co, mu0_ref, mu1_ref, h_ref = _analytic(name)
    mu0, _, mu1, _, h = solve_characteristic(co, tol=1e-11).standard(TS)
    assert np.max(np.abs(mu0 - mu0_ref) / np.abs(mu0_ref)) < 1e-8
    assert np.max(np.abs(mu1 - mu1_ref) / np.abs(mu1_ref)) < 1e-8
    assert np.max(np.abs(h - h_ref) / h_ref) < 1e-8


@pytest.mark.parametrize("name", ["heat", "fp", "cable", "ou"])
def test_initial_data(name):
    co = _analytic(name)[0]
    mu0, dmu0, mu1, dmu1, h = solve_characteristic(co, tol=1e-11).standard(0.0)
    a0 = co.a(0.0)
    assert abs(mu0) <= 1e-12
    assert abs(dmu0 - 2.0 * a0) <= 1e-12
    assert abs(mu1 - 1.0) <= 1e-12
    assert abs(dmu1) <= 1e-12
    assert abs(h - 1.0) <= 1e-12


def test_h_positive_everywhere():
    chs = solve_characteristic(profile("fokker-planck"), tol=1e-10)
    assert np.all(chs.standard(np.linspace(0.0, 2.0, 200))[4] > 0.0)


def test_specific_values_fokker_planck():
    mu0, _, _, _, h = solve_characteristic(profile("fokker-planck"),
                                           tol=1e-11).standard(1.0)
    assert mu0 == pytest.approx(1.0 - math.exp(-2.0), rel=1e-9)
    assert h == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_wronskian_residual_heat_machine_precision():
    co = profile("constant-heat", a=1.0, T=1.0)
    chs = solve_characteristic(co, tol=1e-10)
    assert wronskian_residual(chs, [0.25, 0.5, 1.0]) < 1e-12


def test_wronskian_residual_fokker_planck():
    # analytic W(t) = -2 e^{-2t}
    co = profile("fokker-planck")
    chs = solve_characteristic(co, tol=1e-10)
    assert wronskian_residual(chs, [0.5, 1.0, 2.0]) < 1e-6


@pytest.mark.parametrize("name", ["heat", "fp", "cable", "ou"])
def test_wronskian_residual_all_profiles(name):
    co = _analytic(name)[0]
    chs = solve_characteristic(co, tol=1e-10)
    assert wronskian_residual(chs, np.linspace(0.1, 2.0, 12)) < 1e-6


def test_wronskian_grid_outside_domain():
    co = profile("constant-heat", a=1.0, T=1.0)
    chs = solve_characteristic(co, tol=1e-10)
    with pytest.raises(DomainError):
        wronskian_residual(chs, [1.5])


def test_first_zero_of_mu0_oscillatory():
    # b = -1 gives sigma = -1, so mu'' + 4 mu = 0 and mu0 = sin(2t): zero at pi/2
    co = profile("custom", T=2.0, poly={"a": [1.0], "b": [-1.0]})
    chs = solve_characteristic(co, tol=1e-11)
    assert chs.T_valid == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert chs.end_cause == "mu0-zero"
    assert chs.t_last == chs.T_valid * (1.0 - 1e-6)
    assert abs(chs.standard(1.9)[0]) > 0.1  # the states run on past the zero of mu0


@pytest.mark.parametrize("name", ["heat", "fp", "cable", "ou"])
def test_no_spurious_zero_on_builtins(name):
    co = _analytic(name)[0]
    chs = solve_characteristic(co, tol=1e-10)
    assert chs.T_valid == chs.t_last == 2.0
    assert chs.end_cause == "horizon"


def test_halving_tol_never_increases_error():
    co = profile("fokker-planck")
    ana = 1.0 - np.exp(-2.0 * TS)
    errors = []
    tol = 1e-5
    while tol > 0.9e-9:
        chs = solve_characteristic(co, tol=tol)
        errors.append(float(np.max(np.abs(chs.standard(TS)[0] - ana))))
        tol /= 2.0
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse * 1.1
    assert errors[-1] < errors[0]


def test_dense_output_vectorized_and_bounded():
    chs = solve_characteristic(profile("fokker-planck"), tol=1e-10)
    vals = chs.standard(np.array([0.1, 0.5, 1.5]))
    assert vals.shape == (5, 3)
    with pytest.raises(DomainError):
        chs.standard(2.5)
    with pytest.raises(DomainError):
        chs.standard(-0.5)


def test_horizon_validation(deadline):
    co = profile("constant-heat", a=1.0, T=1.0)
    assert solve_characteristic(co).T_valid == 1.0   # the set's domain_end
    with deadline(30):
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_characteristic(co, tol=tol)


def test_zero_a_at_the_start_is_a_domain_error():
    co = dataclasses.replace(profile("constant-heat", T=1.0), a=lambda t: t)
    with pytest.raises(DomainError, match=r"a\(0\) = 0"):
        solve_characteristic(co)


@pytest.mark.parametrize("t_bad", [0.0, 0.4])
def test_non_finite_coefficient_raises(deadline, t_bad):
    co = dataclasses.replace(profile("constant-heat", T=1.0),
                             c=lambda t: math.nan if t >= t_bad else 0.0)
    with deadline(30), pytest.raises(IntegrationError, match="not finite at t"):
        make_kernel(co)


_HEAT = profile("constant-heat", T=1.0)


# each failure ends in a typed error naming where it happened, in bounded time
# and without a leaked RuntimeWarning: the panel holding the first value that
# is not finite is bisected down to the narrowest panel, so the message names
# the failure itself, not where a step happened to land
@pytest.mark.parametrize("co, tol, message", [
    # b e^{-2C} Y^0 overflows at t = 0.887 (e^{-2C} itself at 0.887228)
    (profile("custom", T=2.0, poly={"a": [1.0], "b": [1.0], "c": [-400.0]}),
     1e-12, "characteristic system is not finite at t = 0.887223"),
    # a jump of 1e30 in d, away from every panel edge, resolves on no panel
    (dataclasses.replace(_HEAT, d=lambda t: 0.0 if t < 0.3 else 1e30), 1e-10,
     "characteristic system is not resolved at t = 0.3 by the narrowest panel"),
    (dataclasses.replace(_HEAT, c=lambda t: math.nan if t >= 0.4 else 0.0),
     1e-10, "characteristic system is not finite at t = 0.4"),
    (dataclasses.replace(_HEAT, a=lambda t: 1.0 if t < 0.3 else math.nan),
     1e-10, "characteristic system is not finite at t = 0.3"),
], ids=["hyperbolic-corner", "step-underflow", "nan-c", "nan-a"])
def test_failed_solve_is_the_same_typed_error(deadline, co, tol, message):
    with deadline(10), pytest.raises(IntegrationError) as err:
        solve_characteristic(co, tol=tol)
    assert str(err.value) == message


def test_jump_on_a_panel_edge_is_integrated_exactly(deadline):
    # t = 0.5 is an edge of the first panels on [0, 1], so the jump of 1e30
    # in d is exact there: D = 1e30 (t - 0.5) after it, and mu0 = -Y^0
    # e^{-2D}/2 underflows, which the kernel reports as a typed error
    co = dataclasses.replace(_HEAT, d=lambda t: 0.0 if t < 0.5 else 1e30)
    with deadline(3):
        K = make_kernel(co)
    assert K.fund.chs.states(0.75)[5] == pytest.approx(2.5e29, rel=1e-12)
    assert K.evaluate(0.0, 0.0, 0.4) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi * 0.4), rel=1e-12)
    with pytest.raises(IntegrationError, match="underflows"):
        K.evaluate(0.0, 0.0, 0.75)


def test_crawl_towards_a_singularity_stops_at_the_step_cap(deadline):
    # d = 1/(0.5 - t)^2 is not integrable up to t = 0.5, and the node times
    # near it are too coarse for its values to be smooth there: panels pile
    # up at 0.5 until the panel cap stops the run
    co = dataclasses.replace(
        _HEAT, d=lambda t: 1.0 / (0.5 - t) ** 2 if t < 0.5 else math.inf)
    with deadline(3), pytest.raises(IntegrationError,
                                    match=r"characteristic system is not "
                                          r"resolved within 2048 panels; "
                                          r"refinement stopped at t = 0\.5"):
        solve_characteristic(co, tol=1e-10)


# a(t) turns negative at t = 1; the triple zero is too flat for a root finder
# on a(t) itself
@pytest.mark.parametrize("co", [
    profile("custom", T=2.0, poly={"a": [1.0, -1.0]}),
    dataclasses.replace(profile("constant-heat", T=2.0),
                        a=lambda t: (1.0 - t) ** 3,
                        da=lambda t: -3.0 * (1.0 - t) ** 2),
], ids=["1-t", "(1-t)^3"])
def test_sign_change_of_a_ends_validity(deadline, co):
    with deadline(30):
        K = make_kernel(co)
    chs = K.fund.chs
    assert chs.T_valid == pytest.approx(1.0, abs=1e-9)
    assert chs.end_cause == "a-zero"
    assert K.T_valid == chs.T_valid
    with pytest.raises(DomainError, match=r"a\(t\) changes sign"):
        K.evaluate(0.0, 0.0, 1.5)
    with pytest.raises(DomainError, match=r"a\(t\) changes sign"):
        solve_ivp(K, InitialData.gaussian(), [0.0, 0.5], 1.5)
    with pytest.raises(DomainError):
        chs.standard(1.5)  # the run stopped at the zero of a
    assert math.isfinite(K.evaluate(0.0, 0.0, chs.t_last))


# a = (1 - t)^2 touches 0 at t = 1 without changing sign; mu0 = 2 int a
# gives K(0, 0, 1.5) = 1/sqrt(2 pi 0.75).  The polynomial form meets
# a(t) == 0 exactly near t = 1 (Horner rounding).
@pytest.mark.parametrize("co", [
    profile("custom", T=2.0, poly={"a": [1.0, -2.0, 1.0]}),
    dataclasses.replace(profile("constant-heat", T=2.0),
                        a=lambda t: (1.0 - t) ** 2, da=lambda t: -2.0 * (1.0 - t)),
], ids=["polynomial", "callable"])
def test_double_zero_of_a_is_passed_through(deadline, co):
    with deadline(30):
        K = make_kernel(co, tol=1e-12)
    assert K.fund.chs.end_cause == "horizon"
    assert K.evaluate(0.0, 0.0, 1.5) == pytest.approx(   # 0.46065886596178
        1.0 / math.sqrt(2.0 * math.pi * 0.75), rel=1e-10)


def _ou_log_kernel(x, y, t, a, k, g):
    """log K for u_t = a u_xx + (g - k x) u_x: a Gaussian in y with mean m
    and variance v, written so that nothing overflows for large k t."""
    v = -a * math.expm1(-2.0 * k * t) / k
    m = x * math.exp(-k * t) - g * math.expm1(-k * t) / k
    return -0.5 * math.log(2.0 * math.pi * v) - (y - m) ** 2 / (2.0 * v), m, v


@pytest.mark.parametrize("k", [100.0, 1000.0, 10000.0])
def test_stiff_ou_matches_log_space_closed_form(deadline, k):
    with deadline(30):
        K = make_kernel(profile("ou-drift", T=2.5, a=1.0, k=k, g=0.5), tol=1e-10)
    for t in (1e-3, 0.5, 2.5):
        for x in (-1.0, 0.0, 0.7):
            _, m, v = _ou_log_kernel(x, 0.0, t, 1.0, k, 0.5)
            for y in (m - 2.0 * math.sqrt(v), m, m + 2.0 * math.sqrt(v)):
                ref = _ou_log_kernel(x, y, t, 1.0, k, 0.5)[0]
                got = K.log_evaluate(x, y, t)
                assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref)), (t, x, y)


def test_stiff_ou_without_source_is_not_step_bound(deadline):
    # the boundary layer e^{-2kt} at t = 0 grades the panels toward 0 only
    co = profile("ou-drift", T=2.5, a=1.0, k=1e4, g=0.0)
    with deadline(10):
        chs = solve_characteristic(co, tol=1e-10)
    assert 0 < chs.steps <= 20 and chs.nfev >= 21 * chs.steps
    assert chs.standard(2.0)[0] == pytest.approx(1e-4, rel=1e-9)


def test_last_valid_time_before_a_zero_of_mu0():
    # b = -4: mu0 = sin(4t)/2 vanishes at pi/4
    K = make_kernel(profile("custom", T=2.0, poly={"a": [1.0], "b": [-4.0]}))
    chs = K.fund.chs
    assert chs.T_valid == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert math.isfinite(K.evaluate(0.0, 0.0, chs.t_last))
    with pytest.raises(DomainError, match="mu0 vanishes") as err:
        K.evaluate(0.0, 0.0, K.T_valid)
    assert "diverge" not in str(err.value)


@pytest.mark.parametrize("t", [1e-8, 1e-12, 1e-20])
def test_small_t_states_keep_their_relative_accuracy(t):
    # a state is y(a) + (t - a) g(x) on its panel, with g the mean of y' over
    # [a, t], so Y^0 = -4t on heat keeps its last bits as t -> 0
    heat = solve_characteristic(profile("constant-heat", T=2.0), tol=1e-10)
    for y0 in (heat.states(t)[1], heat.states(np.array([t]))[1][0]):
        assert abs(y0 / (-4.0 * t) - 1.0) <= 4.0 * np.finfo(float).eps
    fp = solve_characteristic(profile("fokker-planck", T=2.0), tol=1e-10)
    mu0 = fp.standard(t)[0]   # 1 - e^{-2t}
    assert abs(math.log(mu0) - math.log(-math.expm1(-2.0 * t))) <= 1e-14


def test_states_through_a_zero_of_mu1():
    # a = 1, b = -4: (X^0, Y^0) = (cos 4t, -sin 4t), (X^1, Y^1) = (sin 4t,
    # cos 4t); Y^1 = 0 at pi/8, inside the validity interval (0, pi/4)
    chs = solve_characteristic(profile("custom", T=2.0,
                                       poly={"a": [1.0], "b": [-4.0]}))
    assert chs.T_valid == pytest.approx(math.pi / 4.0, abs=1e-9)
    for t in (math.pi / 8.0 - 1e-3, math.pi / 8.0, math.pi / 8.0 + 1e-3):
        c, s = math.cos(4.0 * t), math.sin(4.0 * t)
        got = chs.states(t)
        assert np.all(np.isfinite(got))
        assert got[:4] == pytest.approx([c, -s, s, c], abs=1e-12)
        assert not got[4:].any()


def test_float_and_array_states_are_the_same_bits():
    co = profile("custom", T=2.0, poly={"a": [1.0, 0.3], "b": [0.0, 0.1],
                                        "c": [0.2, -0.1], "d": [0.1],
                                        "f": [0.0, 0.2], "g": [0.3, 0.1]})
    chs = solve_characteristic(co, tol=1e-10)
    edges = chs._sol._a_list + [chs._sol.t_max]
    ts = np.concatenate((edges, np.random.default_rng(5).uniform(0.0, 2.0, 50)))
    floats = np.array([chs.states(t) for t in ts.tolist()]).T
    assert np.array_equal(floats.view(np.int64), chs.states(ts).view(np.int64))


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("kind, params", [("constant-heat", {}), ("cable", {}),
                                          ("fokker-planck", {}),
                                          ("ou-drift", {"k": 1.0, "g": 0.5})])
def test_builtins_are_resolved_in_one_pass(kind, params, tol):
    chs = solve_characteristic(profile(kind, T=2.5, **params), tol=tol)
    assert (chs.passes, chs.built, chs.steps) == (1, 5, 5)


@pytest.mark.parametrize("co, tol, passes, built", [
    # 10 passes and 95 panels built for the 14 kept
    (profile("ou-drift", T=2.5, a=1.0, k=1e4), 1e-10, 12, 120),
    # 6 passes and 179 panels built for the 64 kept
    (profile("custom", T=2.0, poly={"a": [1.0], "b": [1.0], "c": [-100.0]}),
     1e-12, 8, 230),
])
def test_refinement_counters_are_bounded(deadline, co, tol, passes, built):
    with deadline(10):
        chs = solve_characteristic(co, tol=tol)
    assert 1 < chs.passes <= passes
    assert chs.steps < chs.built <= built
