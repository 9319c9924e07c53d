import dataclasses
import math

import numpy as np
import pytest

from heatkern import (BatemanWave, FDSpec, InitialData, closed_form,
                      fd_burgers, fd_diffusion, oracle, profile, solve_ivp)
from heatkern.errors import DomainError, StabilityError
from heatkern.oracle import _check_bounded

# every coefficient nonzero and time-dependent: the step matrix changes
# every step
TIME_DEPENDENT = profile("custom", T=2.0, poly={
    "a": [1.0, 0.3, -0.1], "b": [0.1, 0.2], "c": [0.5, -0.4],
    "d": [0.2, 0.1, 0.05], "f": [-0.3, 0.2], "g": [0.4, 0.1]})
SMALL = FDSpec(L=8.0, n=33, dt=0.01)


def _coefficient_values(coeffs, t):
    return (coeffs.a(t), coeffs.b(t), coeffs.c(t), coeffs.d(t), coeffs.f(t),
            coeffs.g(t))


def _dense_crank_nicolson(coeffs, u, dx, xs, t_end, n_steps):
    """u_t = a u_xx - (g - c x) u_x + (d + f x - b x^2) u with dense matrices.

    The edge rows of the operator are zero, so the edge values stay pinned;
    coefficients are taken at each step's midpoint.
    """
    n = len(xs)
    dt = t_end / n_steps
    eye = np.eye(n)
    for step in range(n_steps):
        a, b, c, d, f, g = _coefficient_values(coeffs, (step + 0.5) * dt)
        op = np.zeros((n, n))
        for i in range(1, n - 1):
            x = xs[i]
            op[i, i - 1] = a / dx ** 2 + (g - c * x) / (2.0 * dx)
            op[i, i] = -2.0 * a / dx ** 2 + d + f * x - b * x * x
            op[i, i + 1] = a / dx ** 2 - (g - c * x) / (2.0 * dx)
        u = np.linalg.solve(eye - 0.5 * dt * op, (eye + 0.5 * dt * op) @ u)
    return u


def _dense_burgers(coeffs, v, dx, xs, t_end, n_steps):
    """v_t + (a v + g - c x) v_x = a v_xx + c v - 2 (f - 2 b x).

    The advection and source terms are explicit at the start of the step,
    with donor-cell upwinding node by node; the diffusion term is
    Crank–Nicolson with a at the step midpoint, solved with dense matrices.
    """
    n = len(xs)
    dt = t_end / n_steps
    eye = np.eye(n)
    lap = np.zeros((n, n))
    for i in range(1, n - 1):
        lap[i, i - 1:i + 2] = (1.0 / dx ** 2, -2.0 / dx ** 2, 1.0 / dx ** 2)
    for step in range(n_steps):
        t = step * dt
        a_mid = coeffs.a(t + 0.5 * dt)
        a, b, c, _, f, g = _coefficient_values(coeffs, t)
        explicit = np.zeros(n)
        for i in range(1, n - 1):
            x = xs[i]
            speed = a * v[i] + g - c * x
            grad = ((v[i] - v[i - 1]) if speed > 0.0 else (v[i + 1] - v[i])) / dx
            explicit[i] = -speed * grad + c * v[i] - 2.0 * (f - 2.0 * b * x)
        v = np.linalg.solve(eye - 0.5 * dt * a_mid * lap,
                            v + dt * explicit + 0.5 * dt * a_mid * lap @ v)
    return v


@pytest.fixture
def count_factorizations(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return factor(*args)

    factor = oracle._factor   # one LAPACK dgttrf per call
    monkeypatch.setattr(oracle, "_factor", counted)
    return calls


def test_fdspec_validation():
    with pytest.raises(ValueError):
        FDSpec(L=8.0, n=8, dt=1e-3)
    with pytest.raises(ValueError):
        FDSpec(L=8.0, n=64, dt=0.0)
    with pytest.raises(ValueError):
        FDSpec(L=-1.0, n=64, dt=1e-3)
    spec = FDSpec(L=4.0, n=17, dt=1e-3)
    assert spec.dx == pytest.approx(0.5)
    assert len(spec.xs) == 17


def test_fd_diffusion_heat_vs_analytic(coeffs_heat):
    spec = FDSpec(L=8.0, n=801, dt=1e-4)
    out = fd_diffusion(coeffs_heat, lambda x: math.exp(-x * x), spec, 0.25)
    want = np.exp(-out.xs ** 2 / 2.0) / math.sqrt(2.0)
    assert np.max(np.abs(out.values[1] - want)) < 1e-4


def test_fd_diffusion_kernel_row_composes(coeffs_fp):
    # evolving K(., y0, 0.1) for 0.5 time units lands on K(., y0, 0.6)
    K = closed_form("fokker-planck")
    y0 = 0.4
    spec = FDSpec(L=8.0, n=801, dt=2e-4)
    out = fd_diffusion(coeffs_fp, lambda x: K.evaluate(x, y0, 0.1), spec, 0.5)
    want = K.evaluate(out.xs, y0, 0.6)
    assert np.max(np.abs(out.values[1] - want)) < 1e-3


def test_fd_diffusion_richardson_order_two(coeffs_fp, kernel_fp):
    phi = InitialData.gaussian()
    errors = []
    for n, dt in ((201, 8e-4), (401, 4e-4)):
        fd = fd_diffusion(coeffs_fp, lambda x: math.exp(-x * x),
                          FDSpec(L=8.0, n=n, dt=dt), 0.25)
        stride = (n - 1) // 100
        xs = fd.xs[::stride]
        ref = solve_ivp(kernel_fp, phi, xs, 0.25)
        errors.append(float(np.max(np.abs(fd.values[1][::stride]
                                          - ref.values[0]))))
    assert 3.0 < errors[0] / errors[1] < 5.0


def test_fd_diffusion_mass_conservation(coeffs_heat):
    spec = FDSpec(L=10.0, n=401, dt=5e-4)
    out = fd_diffusion(coeffs_heat, lambda x: math.exp(-x * x), spec, 0.5)
    m0 = float(np.sum(out.values[0])) * spec.dx
    m1 = float(np.sum(out.values[1])) * spec.dx
    assert abs(m1 - m0) < 1e-8 * 0.5


def test_fd_diffusion_warns_on_undecayed_data(coeffs_heat):
    spec = FDSpec(L=2.0, n=64, dt=1e-3)
    with pytest.warns(UserWarning, match="window edges"):
        fd_diffusion(coeffs_heat, lambda x: math.exp(-x * x), spec, 0.1)


@pytest.mark.parametrize("coeffs", [profile("constant-heat", T=2.5),
                                    profile("ou-drift", T=2.5, k=1.0, g=0.5)])
def test_fd_diffusion_keeps_constant_data(coeffs):
    # phi = 1 has not decayed at the edges, so the pinned-edge terms carry
    # the solution there; without them the edges would drain it
    with pytest.warns(UserWarning, match="window edges"):
        out = fd_diffusion(coeffs, lambda x: 1.0, FDSpec(L=8.0, n=201, dt=1e-3),
                           0.5)
    assert np.max(np.abs(out.values[1] - 1.0)) < 1e-12


def test_fd_burgers_kink(coeffs_heat):
    kink = BatemanWave(A=1.0, V=0.3, a=1.0, c=0.0, sign="-")
    spec = FDSpec(L=8.0, n=1601, dt=2e-3)
    out = fd_burgers(coeffs_heat, kink.initial_profile(), spec, 0.5)
    want = np.array([kink(x, 0.5) for x in out.xs])
    assert np.max(np.abs(out.values[1] - want)) < 1e-3


def test_fd_burgers_constant_state_exact(coeffs_heat):
    spec = FDSpec(L=8.0, n=101, dt=1e-3)
    out = fd_burgers(coeffs_heat, lambda x: 0.7, spec, 0.5)
    assert np.max(np.abs(out.values[1] - 0.7)) < 1e-10


def test_fd_burgers_cfl_enforced(coeffs_heat):
    kink = BatemanWave(A=1.0, V=0.0, a=1.0, c=0.0, sign="-")
    spec = FDSpec(L=8.0, n=1601, dt=0.1)  # |v| dt/dx = 1*0.1/0.01 = 10
    with pytest.raises(StabilityError, match="CFL"):
        fd_burgers(coeffs_heat, kink.initial_profile(), spec, 0.5)


def test_bounded_check_guards():
    with pytest.raises(StabilityError):
        _check_bounded(np.array([1.0, np.nan]), False, 0.1)
    with pytest.raises(StabilityError):
        _check_bounded(np.array([1e9, 0.0]), True, 0.1)
    _check_bounded(np.array([1e9, 0.0]), False, 0.1)  # growth terms present
    _check_bounded(np.array([1.0, 2.0]), True, 0.1)


@pytest.mark.parametrize("coeffs, factorizations", [
    (profile("fokker-planck", T=2.5), 1), (TIME_DEPENDENT, 20)])
def test_fd_diffusion_matches_dense_crank_nicolson(count_factorizations,
                                                   coeffs, factorizations):
    out = fd_diffusion(coeffs, lambda x: math.exp(-x * x), SMALL, 0.2)
    want = _dense_crank_nicolson(coeffs, out.values[0], SMALL.dx, out.xs,
                                 0.2, 20)
    assert np.max(np.abs(out.values[1] - want)) < 1e-12
    assert len(count_factorizations) == factorizations


@pytest.mark.parametrize("coeffs, factorizations", [
    (profile("constant-heat", T=2.5), 1), (TIME_DEPENDENT, 20)])
def test_fd_burgers_matches_dense_implicit_step(count_factorizations, coeffs,
                                                factorizations):
    v0 = BatemanWave(A=1.0, V=0.3, a=1.0, c=0.0, sign="-").initial_profile()
    out = fd_burgers(coeffs, v0, SMALL, 0.2)
    want = _dense_burgers(coeffs, out.values[0], SMALL.dx, out.xs, 0.2, 20)
    assert np.max(np.abs(out.values[1] - want)) < 1e-12
    assert len(count_factorizations) == factorizations


def test_growth_terms_seen_by_the_steps_disarm_the_divergence_guard():
    # d is nonzero only between two of the nine times a sampling probe of
    # [0, 0.5] would look at; the solution grows past the guard's 1e8
    heat = profile("constant-heat", T=2.5)
    pulse = dataclasses.replace(heat, d=lambda t: 500.0 if 0.01 < t < 0.05
                                else 0.0)
    spec = FDSpec(L=8.0, n=201, dt=1e-3)
    out = fd_diffusion(pulse, lambda x: math.exp(-x * x), spec, 0.5)
    assert np.max(out.values[1]) > 1e8
    # the PDE solution is exp(integral of d) times the d = 0 one, but
    # Crank–Nicolson's amplification of a shifted operator does not split
    # that way (the ratio of the two runs varies by 8 % over x), so the
    # reference is the scheme itself
    want = _dense_crank_nicolson(pulse, out.values[0], spec.dx, out.xs, 0.5,
                                 500)
    assert np.max(np.abs(out.values[1] - want)) < 1e-12 * np.max(want)


@pytest.mark.parametrize("solver", [fd_diffusion, fd_burgers])
def test_non_finite_input_raises_naming_t(deadline, solver):
    heat = profile("constant-heat", T=2.5)
    spec = FDSpec(L=8.0, n=65, dt=1e-3)
    phi = lambda x: math.exp(-x * x)
    late_nan = dataclasses.replace(heat, c=lambda t: math.nan if t > 0.1
                                   else 0.0)
    with deadline(30), pytest.raises(StabilityError,
                                     match=r"coefficient value not finite "
                                           r"at t=0\.10"):
        solver(late_nan, phi, spec, 0.5)
    with deadline(30), pytest.raises(StabilityError,
                                     match="initial data not finite at t=0"):
        solver(heat, lambda x: math.inf if x == 0.0 else phi(x), spec, 0.5)


@pytest.mark.parametrize("solver", [fd_diffusion, fd_burgers])
@pytest.mark.parametrize("t_end", [-0.5, 0.0, math.nan, math.inf])
def test_t_end_outside_open_half_line_raises(deadline, solver, t_end):
    # a negative t_end would take a backward step and return a field
    heat = profile("constant-heat", T=2.5)
    with deadline(30), pytest.raises(DomainError, match="t_end = "):
        solver(heat, lambda x: math.exp(-x * x), FDSpec(8.0, 65, 1e-3), t_end)


@pytest.mark.parametrize("solver, coefficient", [
    # 1 - dt/2 (-2a/dx^2 + d) = 0 with a = 0, d = 2/dt: the matrix is zero
    (fd_diffusion, {"a": lambda t: 0.0, "d": lambda t: 8.0}),
    # 1 + dt a / dx^2 = 0: zero diagonal, constant off-diagonals, odd size
    (fd_burgers, {"a": lambda t: -1.0})])
def test_singular_step_matrix_raises(deadline, solver, coefficient):
    coeffs = dataclasses.replace(profile("constant-heat", T=2.5), **coefficient)
    spec = FDSpec(L=8.0, n=33, dt=0.25)
    with deadline(30), pytest.raises(StabilityError, match="singular at t="):
        solver(coeffs, lambda x: 0.0, spec, 0.5)
