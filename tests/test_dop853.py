"""The in-repo DOP853 integrator against scipy's ``solve_ivp(method="DOP853")``.

Every main-path run (characteristic solve, traveling-wave frame and profile)
is made twice: once through ``heatkern._dop853.solve`` and once with that
function replaced by a shim over scipy.  Nodes, dense states, evaluation
counts and event roots must be equal to the last bit.  The one deliberate
difference, a zero error norm where scipy divides 0 by 0, has its own test.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from heatkern import _dop853, profile, solve_characteristic
from heatkern.burgers import TravelingWaveSpec, traveling_wave
from heatkern.errors import IntegrationError


def scipy_solve(fun, t0, t1, y0, rtol, atol, events=(), *, what):
    """``_dop853.solve``'s contract, computed by scipy."""
    hooks = []
    for g, direction, terminal in events:
        def hook(t, y, g=g):
            return g(t, y)
        hook.direction, hook.terminal = direction, terminal
        hooks.append(hook)
    sol = solve_ivp(fun, (t0, t1), y0, method="DOP853", dense_output=True,
                    rtol=rtol, atol=atol, events=hooks or None)
    assert sol.success, sol.message
    t_events = [te.tolist() for te in sol.t_events] if hooks else []
    sol.sol.nfev = sol.nfev   # scipy built every extension during the run
    return _dop853.Run(sol.sol, t_events)


@pytest.fixture
def reference(monkeypatch):
    """``reference(build)``: ``build()`` with scipy integrating every run."""
    def run(build):
        with monkeypatch.context() as m:
            m.setattr(_dop853, "solve", scipy_solve)
            return build()
    return run


def same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def custom(T=2.0, **poly):
    return profile("custom", T=T, poly=poly)


CHARACTERISTIC_CASES = {
    "constant-heat": (profile("constant-heat", T=2.5, a=1.0), "horizon"),
    "cable": (profile("cable", T=2.5, lam=1.0, tau=2.0), "horizon"),
    "fokker-planck": (profile("fokker-planck", T=2.5), "horizon"),
    "ou-drift": (profile("ou-drift", T=2.5, a=1.0, k=1.0, g=0.5), "horizon"),
    "ou-stiff": (profile("ou-drift", T=2.0, a=1.0, k=1e3, g=0.5), "horizon"),
    "mixed": (custom(a=[1.0, 0.3], b=[0.0, 0.1], c=[0.2, -0.1], d=[0.1],
                     f=[0.0, 0.2], g=[0.3, 0.1]), "horizon"),
    "a-zero": (custom(a=[1.0, -1.0]), "a-zero"),
    "mu0-zero": (custom(a=[1.0], b=[-4.0]), "mu0-zero"),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("name", list(CHARACTERISTIC_CASES))
def test_characteristic_run_is_scipys(reference, name, tol):
    coeffs, cause = CHARACTERISTIC_CASES[name]
    want = reference(lambda: solve_characteristic(coeffs, tol=tol))
    got = solve_characteristic(coeffs, tol=tol)
    assert got.end_cause == want.end_cause == cause
    assert got.steps == want.steps
    assert got.T_valid == want.T_valid
    if cause == "mu0-zero":
        assert got.T_valid == pytest.approx(math.pi / 4, rel=1e-9)
    nodes = np.array(got._sol.ts)
    assert same(nodes, want._sol.ts)
    # the nodes read every segment, so every extension is built
    ts = np.concatenate([np.linspace(0.0, nodes[-1], 200 - len(nodes)), nodes])
    dense = got.states(ts)
    assert got.nfev == want.nfev
    assert same(dense, want.states(ts))
    # the float path evaluates the same polynomial in the same order
    assert same(np.array([got.states(t) for t in ts.tolist()]).T, dense)
    assert same(np.array([want.states(t) for t in ts.tolist()]).T, dense)


def test_traveling_wave_runs_are_scipys(reference):
    spec = TravelingWaveSpec(c0=1.0, c1=-1.0, c2=2.0, c3=0.5, c4=3.0,
                             beta0_init=1.0, gamma0_init=0.0,
                             z_window=(-3.0, 5.0), F0=0.1)

    def build():
        return traveling_wave(spec, a=lambda t: 1.0 + 0.2 * t,
                              c=lambda t: 0.1 * math.cos(t), T=1.5)

    want, got = reference(build), build()
    assert len(got.poles) == 7 and got.poles == want.poles
    for mine, theirs in ((got._mu, want._mu), (got._frame, want._frame)):
        nodes = np.array(mine.ts)
        assert same(nodes, theirs.ts)
        ts = np.concatenate([np.linspace(nodes[0], nodes[-1], 200), nodes])
        assert same(mine(ts), theirs(ts))


def test_dense_segments_are_scipys():
    # random steps, so that a node's left and right segments disagree there
    from scipy.integrate._ivp.common import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.uniform(0.1, 1.0, 9))
    y_old, F = rng.normal(size=(8, 3)), rng.normal(size=(8, 7, 3))
    theirs = OdeSolution(ts, [Dop853DenseOutput(ts[k], ts[k + 1], y_old[k], F[k])
                              for k in range(8)])
    mine = _dop853.DenseSolution(ts.tolist(), ts[:-1], np.diff(ts), y_old, F)
    t = np.concatenate([ts, rng.uniform(ts[0] - 0.5, ts[-1] + 0.5, 200)])
    assert same(mine(t), theirs(t))
    assert same(np.array([mine(v) for v in t.tolist()]).T, mine(t))
    # at an inner node the segment that ends there is read, not the next one
    right = [Dop853DenseOutput(ts[k], ts[k + 1], y_old[k], F[k])(ts[k])
             for k in range(1, 8)]
    assert not (mine(ts[1:-1]).T == right).any()


def test_tableau_is_scipys():
    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert same(getattr(_dop853, name), getattr(dop853_coefficients, name))


def test_brentq_is_scipys():
    rng = np.random.default_rng(7)
    families = [lambda p: lambda x: math.sin(p[0] * x + p[1]) - 0.5 * p[2],
                lambda p: lambda x: (x - p[0]) ** 3 + p[1] * x,
                lambda p: lambda x: float(np.sign(x - p[0])),
                lambda p: lambda x: math.tanh(50.0 * (x - p[0])) + 0.01 * p[1]]
    compared = 0
    for k in range(400):
        f = families[k % len(families)](rng.normal(size=3))
        a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
        if math.copysign(1.0, f(a)) == math.copysign(1.0, f(b)):
            with pytest.raises(ValueError, match="different signs"):
                _dop853.brentq(f, a, b)
            continue
        calls = [], []
        want = scipy_brentq(lambda x: (calls[0].append(x), f(x))[1], a, b,
                            xtol=4 * _dop853.EPS, rtol=4 * _dop853.EPS)
        got = _dop853.brentq(lambda x: (calls[1].append(x), f(x))[1], a, b)
        assert got == want and calls[0] == calls[1]
        compared += 1
    assert compared > 150


def test_step_size_underflow_is_an_integration_error():
    # y' = y^2 from y(0) = 1 blows up at t = 1, where the steps shrink below
    # the spacing of floats; scipy gives up there too
    sol = solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], method="DOP853",
                    rtol=1e-10, atol=1e-12)
    assert sol.status == -1 and sol.message == _dop853.TOO_SMALL_STEP
    with pytest.raises(IntegrationError,
                       match="blow-up integration failed: Required step"):
        _dop853.solve(lambda t, y: y * y, 0.0, 2.0, [1.0], 1e-10, 1e-12,
                      what="blow-up")


def test_zero_fifth_order_error_is_a_zero_norm():
    # where the fifth-order estimate is exactly 0 and 0.01 |err3|^2 underflows,
    # scipy's norm is 0/0: it warns and rejects the step; the port accepts it
    def fun(s, V):
        v = 0.5 * np.exp(-np.asarray(s) ** 2)
        return [v, -v]

    with pytest.warns(RuntimeWarning, match="invalid value"):
        theirs = scipy_solve(fun, 0.0, 20.0, [0.0, 0.0], 1e-12, 1e-14,
                             what="probe")
    assert (len(theirs.sol.ts) - 1, theirs.nfev) == (40, 650)
    run = _dop853.solve(fun, 0.0, 20.0, [0.0, 0.0], 1e-12, 1e-14, what="probe")
    assert len(run.sol.ts) - 1 < 40 and run.nfev < 650
    s = np.linspace(0.0, 20.0, 201)
    exact = 0.25 * math.sqrt(math.pi) * np.array([math.erf(v) for v in s])
    assert np.max(np.abs(run.sol(s) - [exact, -exact])) < 1e-12


class Counting:
    """y'' = -y as a first-order pair, counting its evaluations; ``scale``
    multiplies every derivative from the next call on."""

    def __init__(self):
        self.calls, self.scale = 0, 1.0

    def __call__(self, t, y):
        self.calls += 1
        dy = np.array([y[1], -y[0]]) * self.scale
        if not np.isfinite(dy).all():
            raise IntegrationError(f"probe is not finite at t = {t:.6g}")
        return dy


def test_extensions_are_built_when_read():
    fun = Counting()
    run = _dop853.solve(fun, 0.0, 5.0, [1.0, 0.0], 1e-8, 1e-10, what="probe")
    sol, steps = run.sol, len(run.sol.ts) - 1
    theirs = solve_ivp(Counting(), (0.0, 5.0), [1.0, 0.0], method="DOP853",
                       dense_output=True, rtol=1e-8, atol=1e-10)
    assert len(theirs.t) - 1 == steps > 4
    # the solve: 2 + 12 per step attempt; scipy adds 3 per accepted step
    assert fun.calls == run.nfev == theirs.nfev - 3 * steps
    ts = sol.ts
    mid = [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    before = fun.calls
    sol(mid[1])
    assert fun.calls - before == run.nfev - before == 3
    sol(mid[1])
    sol(np.array([ts[2], mid[1]]))   # both in segment 1
    assert fun.calls - before == 3
    # an array over three unread segments and a read one: 3 each
    sol(np.array([mid[2], mid[3], mid[3], mid[1], mid[4]]))
    assert fun.calls - before == run.nfev - before == 12
    sol(np.array(mid))
    assert fun.calls == run.nfev == theirs.nfev
    assert same(sol(np.array(mid)), theirs.sol(np.array(mid)))


def test_extension_failure_surfaces_from_the_query():
    fun = Counting()
    run = _dop853.solve(fun, 0.0, 5.0, [1.0, 0.0], 1e-8, 1e-10, what="probe")
    t = (run.sol.ts[1] + run.sol.ts[2]) / 2
    fun.scale = math.nan
    with pytest.raises(IntegrationError, match="probe is not finite"):
        run.sol(t)
    with pytest.raises(IntegrationError, match="probe is not finite"):
        run.sol(np.array([t]))
    # the segment stays unbuilt until a query succeeds
    fun.scale = 1.0
    nfev = run.nfev
    want = _dop853.solve(Counting(), 0.0, 5.0, [1.0, 0.0], 1e-8, 1e-10,
                         what="probe").sol(t)
    assert same(run.sol(t), want) and run.nfev == nfev + 3


def test_extension_runs_under_the_solves_error_state(recwarn):
    fun = Counting()
    with np.errstate(over="ignore"):
        run = _dop853.solve(fun, 0.0, 5.0, [1.0, 0.0], 1e-8, 1e-10,
                            what="probe")
    fun.scale = 1e308   # the stages overflow to inf
    with pytest.raises(IntegrationError, match="probe is not finite"):
        run.sol(run.sol.ts[1] / 2)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    # outside the solve's error state the same product warns
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.array([1e10]) * 1e308
