"""Time-dependent coefficients of the diffusion-type equation.

The master equation handled by this package is

    u_t = a(t) u_xx - (g(t) - c(t) x) u_x + (d(t) + f(t) x - b(t) x^2) u

on the whole line.  A :class:`CoefficientSet` bundles the six coefficient
functions together with the analytic derivatives a', d' that enter the
reduction to the linear second-order characteristic equation

    mu'' - tau(t) mu' - 4 sigma(t) mu = 0.

Built-in profiles reproduce, in this sign convention, the classical constant
heat equation, the cylindrical cable equation, the Fokker–Planck equation
with linear drift, and the Ornstein–Uhlenbeck generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

PROFILE_KINDS = ("constant-heat", "cable", "fokker-planck", "ou-drift", "custom")

_COEFF_NAMES = ("a", "b", "c", "d", "f", "g")


def _const(value: float) -> Callable[[float], float]:
    value = float(value)
    return lambda t: value


def _zero(t: float) -> float:
    return 0.0


@dataclass(frozen=True)
class CoefficientSet:
    """The six time coefficients of the master equation plus a', d'.

    All callables take a scalar time and return a scalar.  The kernel needs
    a(0) > 0 and exists only up to the first sign change of ``a``; the
    characteristic solve finds that zero and ends the validity interval
    there (:mod:`heatkern.characteristic`).  :func:`validate` samples the
    set for zeros of ``a`` and other defects beforehand; nothing is checked
    at construction.
    """

    a: Callable[[float], float]
    b: Callable[[float], float]
    c: Callable[[float], float]
    d: Callable[[float], float]
    f: Callable[[float], float]
    g: Callable[[float], float]
    da: Callable[[float], float]
    dd: Callable[[float], float]
    domain_end: float

    def __post_init__(self):
        if not 0.0 < self.domain_end < math.inf:
            raise ValueError("domain_end must be positive and finite")

    def check_time(self, t: float) -> float:
        t = float(t)
        if t < 0.0 or t > self.domain_end * (1.0 + 1e-12):
            raise DomainError(f"t={t} outside [0, {self.domain_end}]")
        return t

    def replace_d(self, d: Callable[[float], float],
                  dd: Callable[[float], float]) -> "CoefficientSet":
        """Same equation with the zeroth-order coefficient d swapped out."""
        return CoefficientSet(self.a, self.b, self.c, d, self.f, self.g,
                              self.da, dd, self.domain_end)


@dataclass(frozen=True)
class CoefficientProfile:
    """A named coefficient family: one of ``PROFILE_KINDS`` plus its parameters."""

    kind: str
    params: dict = field(default_factory=dict)
    domain_end: float = 2.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; "
                             f"expected one of {PROFILE_KINDS}")


def tau_sigma(coeffs: CoefficientSet, t: float) -> tuple[float, float]:
    """Drift and restoring coefficients of the characteristic equation at ``t``.

        tau   = a'/a + 2c - 4d
        sigma = a b + c d - d^2 + d a'/(2a) - d'/2

    ``sigma`` is evaluated in the d-regular form above, which agrees with the
    variant containing the ratio d'/d whenever d(t) != 0 and stays defined
    when d vanishes.

    Raises
    ------
    DomainError
        If ``t`` lies outside [0, domain_end].
    ZeroDivisionError
        If a(t) = 0.
    """
    t = coeffs.check_time(t)
    a = coeffs.a(t)
    if a == 0.0:
        raise ZeroDivisionError(f"a({t}) = 0; the reduction divides by a")
    b = coeffs.b(t)
    c = coeffs.c(t)
    d = coeffs.d(t)
    da = coeffs.da(t)
    dd = coeffs.dd(t)
    tau = da / a + 2.0 * c - 4.0 * d
    sigma = a * b + c * d - d * d + d * da / (2.0 * a) - dd / 2.0
    return tau, sigma


def _poly_callable(coeffs_ascending) -> Callable[[float], float]:
    cs = [float(v) for v in coeffs_ascending]
    if not cs:
        cs = [0.0]

    def p(t: float) -> float:
        acc = 0.0
        for v in reversed(cs):
            acc = acc * t + v
        return acc

    return p


def _poly_derivative(coeffs_ascending):
    return [k * float(v) for k, v in enumerate(coeffs_ascending)][1:] or [0.0]


def expand_profile(profile: CoefficientProfile) -> CoefficientSet:
    """Instantiate a named profile as a concrete :class:`CoefficientSet`.

    The built-in kinds map onto the master equation's sign convention, whose
    drift term is -(g - c x) u_x: equations written with a +(g0 - k x) u_x
    drift therefore expand with g = -g0 and c = -k.
    """
    kind = profile.kind
    params = dict(profile.params)
    T = float(profile.domain_end)

    def take(name, default=None):
        if name in params:
            value = float(params.pop(name))
            if not math.isfinite(value):
                raise ValueError(f"parameter {name!r} must be finite, got {value}")
            return value
        if default is None:
            raise ValueError(f"profile {kind!r} requires parameter {name!r}")
        return float(default)

    zero = _zero
    if kind == "constant-heat":
        a0 = take("a", 1.0)
        if a0 == 0.0:
            raise ValueError("constant-heat requires a != 0")
        made = CoefficientSet(_const(a0), zero, zero, zero, zero, zero,
                              zero, zero, T)
    elif kind == "cable":
        lam = take("lam", 1.0)
        tau_m = take("tau", 2.0)
        if lam == 0.0 or tau_m <= 0.0:
            raise ValueError("cable requires lam != 0 and tau > 0")
        made = CoefficientSet(_const(lam * lam / tau_m), zero, zero,
                              _const(1.0 / tau_m), zero, zero, zero, zero, T)
    elif kind == "fokker-planck":
        made = CoefficientSet(_const(1.0), zero, _const(1.0), _const(1.0),
                              zero, zero, zero, zero, T)
    elif kind == "ou-drift":
        a0 = take("a", 1.0)
        k = take("k")
        g0 = take("g", 0.0)
        if a0 == 0.0:
            raise ValueError("ou-drift requires a != 0")
        made = CoefficientSet(_const(a0), zero, _const(-k), zero, zero,
                              _const(-g0), zero, zero, T)
    elif kind == "custom":
        poly = params.pop("poly", None)
        if not isinstance(poly, dict):
            raise ValueError("custom profile requires a 'poly' table "
                             "{name: [c0, c1, ...]}")
        unknown = set(poly) - set(_COEFF_NAMES)
        if unknown:
            raise ValueError(f"unknown coefficient names in poly table: {sorted(unknown)}")
        for name, entries in poly.items():
            if not all(math.isfinite(float(v)) for v in entries):
                raise ValueError(f"poly entries of {name!r} must be finite")
        funcs = {}
        for name in _COEFF_NAMES:
            funcs[name] = _poly_callable(poly.get(name, [0.0]))
        made = CoefficientSet(
            funcs["a"], funcs["b"], funcs["c"], funcs["d"], funcs["f"], funcs["g"],
            _poly_callable(_poly_derivative(poly.get("a", [0.0]))),
            _poly_callable(_poly_derivative(poly.get("d", [0.0]))),
            T,
        )
    else:  # pragma: no cover - guarded by CoefficientProfile
        raise ValueError(f"unknown profile kind {kind!r}")

    if params:
        raise ValueError(f"unexpected parameters for {kind!r}: {sorted(params)}")
    if made.a(0.0) == 0.0:
        raise ValueError("a(0) must be nonzero")
    return made


def from_config(config: dict) -> CoefficientSet:
    """Build a CoefficientSet from the JSON configuration sub-schema.

    Accepted shapes::

        {"profile": "fokker-planck", "params": {...}, "T": 2.0}
        {"profile": "custom", "poly": {"a": [1.0], "b": [0, -1], ...}, "T": 2.0}
    """
    if not isinstance(config, dict):
        raise ValueError("coefficient config must be a JSON object")
    kind = config.get("profile")
    if kind not in PROFILE_KINDS:
        raise ValueError(f"config 'profile' must be one of {PROFILE_KINDS}, got {kind!r}")
    T = float(config.get("T", 2.0))
    params = dict(config.get("params", {}))
    if kind == "custom":
        params["poly"] = config.get("poly", config.get("params", {}).get("poly"))
    return expand_profile(CoefficientProfile(kind, params, T))


def profile(kind: str, T: float = 2.0, **params) -> CoefficientSet:
    """Shorthand: ``profile("ou-drift", k=1.0, g=0.5)``."""
    return expand_profile(CoefficientProfile(kind, params, T))


@dataclass
class ValidationReport:
    """Outcome of sampling-based coefficient validation."""

    ok: bool
    issues: list
    max_da_rel_err: float
    max_dd_rel_err: float

    def __bool__(self):
        return self.ok


def validate(coeffs: CoefficientSet, samples: int = 100) -> ValidationReport:
    """Sample the coefficient functions on [0, domain_end] and sanity-check them.

    Checks for non-finite values, sign changes (or zeros) of a, and the
    consistency of the supplied derivatives da, dd against five-point central
    finite differences of a and d (relative tolerance 1e-4).  Failures are
    collected in the report; nothing raises.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    ts = np.linspace(0.0, coeffs.domain_end, samples)
    funcs = {name: getattr(coeffs, name) for name in _COEFF_NAMES}
    funcs["da"] = coeffs.da
    funcs["dd"] = coeffs.dd

    issues = []
    values = {}
    for name, fn in funcs.items():
        vals = np.array([fn(t) for t in ts], dtype=float)
        values[name] = vals
        if not np.all(np.isfinite(vals)):
            bad = ts[~np.isfinite(vals)][0]
            issues.append(f"{name}(t) is non-finite near t={bad:.6g}")

    a_vals = values["a"]
    if np.all(np.isfinite(a_vals)):
        if np.any(a_vals == 0.0) or np.any(np.sign(a_vals[:-1]) != np.sign(a_vals[1:])):
            k = int(np.argmax((a_vals[:-1] * a_vals[1:]) <= 0.0))
            issues.append(f"a(t) vanishes or changes sign between "
                          f"t={ts[k]:.6g} and t={ts[k + 1]:.6g}")

    max_da = _derivative_mismatch(ts, values["a"], values["da"], issues, "da")
    max_dd = _derivative_mismatch(ts, values["d"], values["dd"], issues, "dd")
    return ValidationReport(not issues, issues, max_da, max_dd)


def _derivative_mismatch(ts, vals, dvals, issues, label, rel_tol=1e-4):
    """Max relative error of supplied derivatives against 5-point central FD."""
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(dvals))):
        return float("nan")
    h = ts[1] - ts[0]
    idx = np.arange(2, len(ts) - 2)
    if len(idx) == 0:
        return 0.0
    fd = (vals[idx - 2] - 8.0 * vals[idx - 1]
          + 8.0 * vals[idx + 1] - vals[idx + 2]) / (12.0 * h)
    scale = max(1.0, float(np.max(np.abs(vals))))
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(dvals[idx])), 1e-6 * scale)
    rel = np.abs(fd - dvals[idx]) / denom
    worst = float(np.max(rel))
    if worst > rel_tol:
        k = idx[int(np.argmax(rel))]
        issues.append(f"{label} inconsistent with its function near t={ts[k]:.6g} "
                      f"(max relative error {worst:.3e})")
    return worst
