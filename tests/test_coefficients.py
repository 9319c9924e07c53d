import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatkern import (CoefficientSet, asymptotics, closed_form, from_config,
                      profile, tau_sigma)
from heatkern.coefficients import on_arrays, structure
from heatkern.errors import DomainError


def test_structure_reports_vanishing_and_constant_coefficients():
    assert structure(profile("fokker-planck"), 2.0) == (
        {"b", "f", "g"}, {"a", "b", "c", "d", "f", "g"})
    co = profile("custom", T=2.0, poly={"a": [1.0, 0.1], "f": [0.0, 1e-15]})
    assert structure(co, 2.0) == ({"b", "c", "d", "f", "g"},    # |f| <= 1e-14
                                  {"b", "c", "d", "f", "g"})
    # each caller picks the interval: b vanishes on [0, 1] only
    late = dataclasses.replace(co, b=lambda t: max(t - 1.0, 0.0))
    assert "b" in structure(late, 1.0)[0]
    assert "b" not in structure(late, 2.0)[0]
    zero, constant = structure(dataclasses.replace(co, g=lambda t: math.nan), 2.0)
    assert "g" not in zero | constant


def test_tau_sigma_constant_heat():
    co = profile("constant-heat", a=1.0)
    for t in (0.0, 0.3, 1.7):
        assert tau_sigma(co, t) == (0.0, 0.0)


def test_tau_sigma_fokker_planck():
    co = profile("fokker-planck")
    tau, sigma = tau_sigma(co, 0.3)
    assert tau == pytest.approx(-2.0, abs=1e-15)
    assert sigma == pytest.approx(0.0, abs=1e-15)


def test_tau_sigma_cable():
    # a = lam^2/tau, d = 1/tau gives tau = -4/tau, sigma = -1/tau^2
    co = profile("cable", lam=1.0, tau=2.0)
    for t in (0.0, 0.5, 2.0):
        tau, sigma = tau_sigma(co, t)
        assert tau == pytest.approx(-2.0, rel=1e-12)
        assert sigma == pytest.approx(-0.25, rel=1e-12)


def test_tau_sigma_domain_and_division_errors():
    co = profile("constant-heat", a=1.0, T=1.0)
    with pytest.raises(DomainError):
        tau_sigma(co, 1.5)
    vanishing = profile("custom", T=2.0, poly={"a": [1.0, -1.0]})
    with pytest.raises(ZeroDivisionError):
        tau_sigma(vanishing, 1.0)


BUILTIN_PARAMETERS = {"constant-heat": ["a"], "cable": ["lam", "tau"],
                      "fokker-planck": [], "ou-drift": ["a", "k", "g"]}


def _parameter_sets(kind):
    """(params, accepted) cases for the built-in ``kind``."""
    base = {"k": 1.5} if kind == "ou-drift" else {}
    names = BUILTIN_PARAMETERS[kind]
    cases = [(base, True), ({**base, "zz": 1.0}, False)]
    cases += [({**base, n: v}, False) for n in names
              for v in (math.nan, math.inf, -math.inf, True)]
    cases += [({**base, n: 0.7}, True) for n in names]
    if kind == "ou-drift":
        cases += [({}, False), ({"k": 0.0, "g": -0.4}, True)]
    if "a" in names:
        cases.append(({**base, "a": 0.0}, False))
    if kind == "cable":
        cases += [({"lam": 0.0}, False), ({"tau": 0.0}, False),
                  ({"tau": -2.0}, False), ({"lam": -1.3, "tau": 3.0}, True)]
    return cases


@pytest.mark.parametrize("kind, params, accepted", [
    (kind, params, accepted) for kind in BUILTIN_PARAMETERS
    for params, accepted in _parameter_sets(kind)])
def test_profile_and_closed_form_read_one_table(kind, params, accepted):
    if not accepted:
        for build in (profile, closed_form):
            with pytest.raises(ValueError):
                build(kind, **params)
        return
    co, K = profile(kind, **params), closed_form(kind, **params)
    # repr tells -0.0 (ou-drift's default g) from 0.0
    assert [repr(getattr(co, n)(0.0)) for n in "acdg"] \
        == [repr(v) for v in K.coefficients]
    assert repr(co.b(0.0)) == repr(co.f(0.0)) == "0.0"


def test_expand_fokker_planck_matches_master_signs():
    co = profile("fokker-planck")
    t = 0.4
    assert co.a(t) == 1.0
    assert co.b(t) == 0.0
    assert co.c(t) == 1.0
    assert co.d(t) == 1.0
    assert co.f(t) == 0.0
    assert co.g(t) == 0.0


def test_expand_ou_drift_flips_signs():
    # u_t = a u_xx + (g0 - k x) u_x maps to c = -k, g = -g0
    co = profile("ou-drift", a=1.0, k=2.0, g=0.0)
    assert co.c(0.7) == -2.0
    assert co.g(0.7) == 0.0
    assert co.b(0.7) == co.d(0.7) == co.f(0.7) == 0.0
    co2 = profile("ou-drift", a=1.0, k=1.0, g=0.5)
    assert co2.g(0.0) == -0.5


def test_expand_constant_heat_scaled():
    co = profile("constant-heat", a=3.0)
    assert co.a(1.2) == 3.0
    assert all(fn(1.2) == 0.0 for fn in (co.b, co.c, co.d, co.f, co.g))


def test_expand_cable():
    co = profile("cable", lam=2.0, tau=4.0)
    assert co.a(0.1) == pytest.approx(1.0)
    assert co.d(0.1) == pytest.approx(0.25)


def test_custom_polynomial_and_derivatives():
    co = profile("custom", T=1.5, poly={"a": [1.0, 2.0, 3.0], "d": [0.5, -1.0]})
    t = 0.7
    assert co.a(t) == pytest.approx(1.0 + 2.0 * t + 3.0 * t * t)
    assert co.da(t) == pytest.approx(2.0 + 6.0 * t)
    assert co.d(t) == pytest.approx(0.5 - t)
    assert co.dd(t) == pytest.approx(-1.0)
    assert co.b(t) == 0.0


def test_profile_parameter_errors():
    with pytest.raises(ValueError):
        profile("ou-drift", a=1.0)  # k missing
    with pytest.raises(ValueError):
        profile("constant-heat", a=0.0)
    with pytest.raises(ValueError):
        profile("constant-heat", a=1.0, bogus=2.0)
    with pytest.raises(ValueError):
        profile("custom", poly={"z": [1.0]})
    with pytest.raises(ValueError):
        profile("not-a-kind")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            profile("ou-drift", k=bad)
        with pytest.raises(ValueError):
            profile("constant-heat", a=bad)
        with pytest.raises(ValueError):
            profile("custom", poly={"a": [1.0], "c": [0.0, bad]})
        with pytest.raises(ValueError):
            profile("fokker-planck", T=bad)


def test_from_config_profile_and_custom():
    co = from_config({"profile": "fokker-planck", "T": 2.0})
    assert co.c(0.1) == 1.0 and co.domain_end == 2.0
    co2 = from_config({"profile": "custom", "T": 1.0,
                       "poly": {"a": [2.0], "b": [0.0, -1.0]}})
    assert co2.a(0.5) == 2.0
    assert co2.b(0.5) == -0.5
    with pytest.raises(ValueError):
        from_config({"profile": "nope"})
    with pytest.raises(ValueError):
        from_config([1, 2, 3])
    with pytest.raises(ValueError, match="'params' must be a JSON object"):
        from_config({"profile": "ou-drift", "params": [["k", 1.0]]})
    with pytest.raises(ValueError):
        from_config({"profile": "custom", "poly": {"a": [1.0], "c": [math.nan]}})
    with pytest.raises(ValueError):
        from_config({"profile": "fokker-planck", "T": math.inf})


@pytest.mark.parametrize("config, what", [
    ({"profile": "ou-drift", "params": {"k": "1"}}, "parameter 'k'"),
    ({"profile": "ou-drift", "params": {"k": 1.0}, "T": "2"}, "T"),
    ({"profile": "custom", "poly": {"a": ["1"]}}, "poly entry of 'a'"),
    ({"profile": "custom", "poly": {"a": "12"}}, "poly entry of 'a'"),
    ({"profile": "ou-drift", "params": {"k": None}}, "parameter 'k'"),
], ids=["param", "T", "poly-entry", "poly-string", "null"])
def test_numeric_strings_are_not_numbers(config, what):
    with pytest.raises(ValueError, match=f"{what} must be a finite number"):
        from_config(config)


def test_numpy_scalars_are_numbers():
    co = profile("ou-drift", T=np.int64(3), k=np.float64(2.0),
                 a=np.float32(0.5))
    assert co.domain_end == 3.0 and type(co.domain_end) is float
    assert co.c(0.1) == profile("ou-drift", T=3.0, k=2.0, a=0.5).c(0.1)
    assert profile("custom", poly={"a": [np.float64(1.5), np.int32(2)]}).a(0.5) == 2.5


def test_builtin_constants_match_hand_values():
    # tau, sigma stay at the hand-derived constants across the domain
    cases = {
        "constant-heat": ((0.0, 0.0), {"a": 1.0}),
        "fokker-planck": ((-2.0, 0.0), {}),
        "cable": ((-2.0, -0.25), {"lam": 1.0, "tau": 2.0}),
        "ou-drift": ((-2.0, 0.0), {"a": 1.0, "k": 1.0, "g": 0.5}),
    }
    for kind, (want, params) in cases.items():
        co = profile(kind, **params)
        for t in np.linspace(0.0, 2.0, 7):
            tau, sigma = tau_sigma(co, t)
            assert tau == pytest.approx(want[0], rel=1e-12, abs=1e-12)
            assert sigma == pytest.approx(want[1], rel=1e-12, abs=1e-12)


@st.composite
def _bounded_poly_coeffs(draw):
    def poly3():
        return [draw(st.floats(-2.0, 2.0)) for _ in range(3)]

    away = st.floats(0.5, 2.0).map(float)
    sign = st.sampled_from([-1.0, 1.0])
    a = [draw(away) * draw(sign), draw(st.floats(-0.2, 0.2))]
    d = [draw(away) * draw(sign), draw(st.floats(-0.2, 0.2))]
    return {"a": a, "b": poly3(), "c": poly3(), "d": d,
            "f": poly3(), "g": poly3()}


@settings(max_examples=60, deadline=None)
@given(poly=_bounded_poly_coeffs(), t=st.floats(0.0, 1.0))
def test_sigma_regularized_equals_printed_form(poly, t):
    # the d-regular sigma agrees with the variant containing d'/d when d != 0
    co = profile("custom", T=1.0, poly=poly)
    _, sigma = tau_sigma(co, t)
    a, d = co.a(t), co.d(t)
    printed = (a * co.b(t) + co.c(t) * d - d * d
               + d / 2.0 * (co.da(t) / a - co.dd(t) / d))
    assert sigma == pytest.approx(printed, rel=1e-12, abs=1e-13)


def test_replace_d():
    co = profile("fokker-planck")
    swapped = dataclasses.replace(co, d=lambda t: 0.0, dd=lambda t: 0.0)
    assert swapped.d(0.3) == 0.0
    assert swapped.c(0.3) == co.c(0.3) and swapped.da is co.da


def _linear_a(**derivatives):
    zero = lambda t: 0.0
    return CoefficientSet(a=lambda t: 1.0 + 0.1 * t, b=zero, c=lambda t: 0.1,
                          d=zero, f=zero, g=zero, domain_end=1.0, **derivatives)


def test_derivatives_are_optional_but_never_guessed():
    zero = lambda t: 0.0
    co = _linear_a()
    assert co.da is None and co.dd is None
    with pytest.raises(ValueError, match=r"a' \(da\) is not set"):
        tau_sigma(co, 0.5)
    with pytest.raises(ValueError, match=r"a' \(da\) is not set"):
        asymptotics(co, 1e-3)
    with pytest.raises(ValueError, match=r"d' \(dd\) is not set"):
        tau_sigma(_linear_a(da=lambda t: 0.1), 0.5)
    tau, _ = tau_sigma(_linear_a(da=lambda t: 0.1, dd=zero), 0.5)
    assert tau == pytest.approx(0.1 / 1.05 + 0.2, rel=1e-15)   # 0.295...


def test_old_positional_order_fails_loudly():
    # (a, ..., g, da, dd, domain_end) no longer fits: da and dd are keywords
    zero = lambda t: 0.0
    with pytest.raises(TypeError):
        CoefficientSet(zero, zero, zero, zero, zero, zero, zero, zero, 1.0)


def test_on_arrays_broadcasts_a_constant_with_its_sign():
    co = profile("ou-drift", k=1.0)            # g = -0.0, a degree-0 table
    t = np.linspace(0.0, 1.0, 5)
    g = on_arrays(co.g)(t)
    assert g.shape == t.shape and np.all(np.signbit(g)) and not g.any()
    assert np.array_equal(on_arrays(co.c)(t.reshape(5, 1)), np.full((5, 1), -1.0))


def test_on_arrays_falls_back_per_element():
    calls = []

    def scalar_only(t):
        calls.append(t)
        return math.sin(t)              # TypeError on an array

    t = np.array([[0.1, 0.2], [0.3, 0.4]])
    f = on_arrays(scalar_only)
    assert np.array_equal(f(t), np.vectorize(math.sin)(t))
    assert all(type(v) is float for v in calls[-4:])
    wrong_shape = on_arrays(lambda t: np.zeros(3) if np.ndim(t) else 0.0)
    assert np.array_equal(wrong_shape(t), np.zeros((2, 2)))
