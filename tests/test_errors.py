import math

import numpy as np
import pytest

from heatkern import (TravelingWaveSpec, integrate_direct,
                      integrate_profile_direct, profile, tau_sigma,
                      traveling_wave)
from heatkern.errors import DomainError, check_range


def test_check_range_clips_within_slack():
    assert check_range("t", 2.0 + 1e-13, 0.0, 2.0) == 2.0
    assert check_range("t", -1e-13, 0.0, 2.0) == 0.0
    assert type(check_range("t", np.float64(0.5), 0.0, 2.0)) is float
    assert type(check_range("t", np.array(0.5), 0.0, 2.0)) is float
    got = check_range("y", np.array([-3.0 - 1e-12, 0.5, 3.0]), -3.0, 3.0)
    assert got.tolist() == [-3.0, 0.5, 3.0]
    with pytest.raises(DomainError, match=r"t=2\.1 outside \[0\.0, 2\.0\]"):
        check_range("t", 2.1, 0.0, 2.0)
    with pytest.raises(DomainError, match=r"y=-4\.0 outside"):
        check_range("y", np.array([0.0, -4.0, 5.0]), -3.0, 3.0)


_SPEC = TravelingWaveSpec(c0=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0,
                          beta0_init=1.0, gamma0_init=0.0,
                          z_window=(-2.0, 4.0), F0=-0.5)


def _wave():
    return traveling_wave(_SPEC, a=lambda t: 1.0, c=lambda t: 0.1, T=1.0)


# every public entry point that once returned NaN for a NaN argument
NAN_CALLS = {
    "tau_sigma": lambda: tau_sigma(profile("fokker-planck"), math.nan),
    "integrate_direct.state": lambda: integrate_direct(
        profile("constant-heat"), (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
        0.5).state(math.nan),
    "integrate_direct.T": lambda: integrate_direct(
        profile("constant-heat"), (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0), math.nan),
    "traveling_wave.beta": lambda: _wave().beta(math.nan),
    "traveling_wave.gamma": lambda: _wave().gamma(math.nan),
    "traveling_wave.induced_b": lambda: _wave().induced_b(math.nan),
    "traveling_wave.induced_f": lambda: _wave().induced_f(math.nan),
    "traveling_wave.induced_g": lambda: _wave().induced_g(math.nan),
    "integrate_profile_direct": lambda: integrate_profile_direct(_SPEC)(math.nan),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_argument_raises_domain_error(call):
    with pytest.raises(DomainError, match="=nan outside"):
        call()
