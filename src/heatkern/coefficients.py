"""Time-dependent coefficients of the diffusion-type equation.

The master equation handled by this package is

    u_t = a(t) u_xx - (g(t) - c(t) x) u_x + (d(t) + f(t) x - b(t) x^2) u

on the whole line.  A :class:`CoefficientSet` holds its six coefficient
functions, which are all the kernel, Cauchy and Burgers paths read.  The
derivatives a', d' are optional: they enter only the reduction to the linear
second-order characteristic equation

    mu'' - tau(t) mu' - 4 sigma(t) mu = 0,

which the package keeps as an oracle (:func:`tau_sigma`,
:func:`heatkern.riccati.asymptotics`,
:func:`heatkern.riccati.gamma0_quadrature_form`).  Every set built by
:func:`profile` or :func:`from_config` carries them exactly.

Built-in profiles reproduce, in this sign convention, the classical constant
heat equation, the cylindrical cable equation, the Fokker–Planck equation
with linear drift, and the Ornstein–Uhlenbeck generator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import check_range

_COEFF_NAMES = ("a", "b", "c", "d", "f", "g")

Coefficient = Callable[[float], float]


@dataclass(frozen=True)
class CoefficientSet:
    """The six time coefficients of the master equation, optionally with a', d'.

    All callables take a scalar time and return a scalar; the solves call
    them on arrays of times, and one that cannot take an array is called per
    element (:func:`on_arrays`).  The kernel needs a(0) > 0 and exists only
    up to the first sign change of ``a``; the characteristic solve finds that
    zero, ends the validity interval there and raises ``IntegrationError``
    where a coefficient is not finite (:mod:`heatkern.characteristic`).
    Nothing is checked at construction.  The kernel, Cauchy and Burgers
    paths read only a…g; the derivatives ``da`` and ``dd`` are read only by
    the reduction's oracles, which raise ``ValueError`` naming a missing one
    (:meth:`derivative`).
    """

    a: Coefficient
    b: Coefficient
    c: Coefficient
    d: Coefficient
    f: Coefficient
    g: Coefficient
    domain_end: float
    da: Optional[Coefficient] = field(default=None, kw_only=True)
    dd: Optional[Coefficient] = field(default=None, kw_only=True)

    def __post_init__(self):
        if not 0.0 < self.domain_end < math.inf:
            raise ValueError("domain_end must be positive and finite")

    def check_time(self, t: float) -> float:
        return check_range("t", float(t), 0.0, self.domain_end)

    def derivative(self, name: str) -> Coefficient:
        """``da`` or ``dd``; raises ``ValueError`` naming a' or d' if unset."""
        fn = getattr(self, name)
        if fn is None:
            raise ValueError(f"{name[1]}' ({name}) is not set on this coefficient "
                             "set; the reduction to mu'' - tau mu' - 4 sigma mu "
                             "= 0 needs it")
        return fn


def on_arrays(fn: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """``fn`` evaluated on an ndarray, as a float array of the same shape.

    A 0-d result, such as a degree-0 table's float, is broadcast and keeps
    its sign (-0.0 stays -0.0).  A callable that raises TypeError or
    ValueError on an array, or returns an array of another shape, is from
    then on called once per element with Python floats.
    """
    elementwise = False

    def call(t):
        nonlocal elementwise
        if not elementwise:
            try:
                out = np.asarray(fn(t), dtype=float)
                if out.shape == t.shape:
                    return out
                if out.ndim == 0:
                    return np.full(t.shape, out)
            except (TypeError, ValueError):
                pass
            elementwise = True
        return np.array([fn(v) for v in t.ravel().tolist()],
                        dtype=float).reshape(t.shape)

    return call


def structure(coeffs: CoefficientSet, t_end: float) -> tuple[set, set]:
    """(zero, constant): the names among a…g that vanish (|v| <= 1e-14) and
    that stay at their t = 0 value (within 1e-12 max(1, |v(0)|)) at 9 equally
    spaced times of [0, t_end].  The package's one guess at structure from
    samples; a NaN value is neither."""
    ts = [t_end * k / 8.0 for k in range(9)]
    zero, constant = set(), set()
    for name in _COEFF_NAMES:
        vs = [getattr(coeffs, name)(t) for t in ts]
        if all(abs(v) <= 1e-14 for v in vs):
            zero.add(name)
        if all(abs(v - vs[0]) <= 1e-12 * max(1.0, abs(vs[0])) for v in vs):
            constant.add(name)
    return zero, constant


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
    ValueError
        If the set has no a' or d'.
    """
    t = coeffs.check_time(t)
    a = coeffs.a(t)
    if a == 0.0:
        raise ZeroDivisionError(f"a({t}) = 0; the reduction divides by a")
    b = coeffs.b(t)
    c = coeffs.c(t)
    d = coeffs.d(t)
    da = coeffs.derivative("da")(t)
    dd = coeffs.derivative("dd")(t)
    tau = da / a + 2.0 * c - 4.0 * d
    sigma = a * b + c * d - d * d + d * da / (2.0 * a) - dd / 2.0
    return tau, sigma


def _number(value, what: str) -> float:
    """``value`` as a finite float.  Only a real number (numpy's included)
    qualifies: a bool (JSON true/false) is not 1 or 0, and a numeric string
    is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _poly_callable(coeffs_ascending) -> Coefficient:
    cs = [float(v) for v in coeffs_ascending] or [0.0]
    if len(cs) == 1:
        # a constant keeps its sign: Horner's 0 t + (-0.0) would give +0.0
        value = cs[0]
        return lambda t: value

    def p(t: float) -> float:
        acc = 0.0
        for v in reversed(cs):
            acc = acc * t + v
        return acc

    return p


def _poly_derivative(coeffs_ascending):
    return [k * float(v) for k, v in enumerate(coeffs_ascending)][1:] or [0.0]


def _cable(lam, tau):
    if lam == 0.0 or tau <= 0.0:
        raise ValueError("cable requires lam != 0 and tau > 0")
    return {"a": lam * lam / tau, "d": 1.0 / tau}


# kind -> (parameters with their defaults, None where required; their map to
# the constant a, c, d, g of u_t = a u_xx - (g - c x) u_x + d u, b = f = 0).
# Equations written with a +(g0 - k x) u_x drift map to g = -g0 and c = -k.
BUILTIN_EQUATIONS = {
    "constant-heat": ({"a": 1.0}, lambda a: {"a": a}),
    "cable": ({"lam": 1.0, "tau": 2.0}, _cable),
    "fokker-planck": ({}, lambda: {"a": 1.0, "c": 1.0, "d": 1.0}),
    "ou-drift": ({"a": 1.0, "k": None, "g": 0.0},
                 lambda a, k, g: {"a": a, "c": -k, "g": -g}),
}
PROFILE_KINDS = (*BUILTIN_EQUATIONS, "custom")


def builtin_equation(kind: str, params: dict) -> dict:
    """The constant coefficients {name: value} of the built-in ``kind`` with
    ``params``; ValueError for an unknown kind, an unexpected, missing or
    non-finite parameter, or a value outside the kind's rules."""
    if not (isinstance(kind, str) and kind in BUILTIN_EQUATIONS):
        raise ValueError(f"unknown built-in profile {kind!r}; "
                         f"expected one of {tuple(BUILTIN_EQUATIONS)}")
    defaults, equation = BUILTIN_EQUATIONS[kind]
    values = {}
    for name, default in defaults.items():
        if name in params:
            values[name] = _number(params[name], f"parameter {name!r}")
        elif default is None:
            raise ValueError(f"profile {kind!r} requires parameter {name!r}")
        else:
            values[name] = default
    unexpected = set(params) - set(defaults)
    if unexpected:
        raise ValueError(f"unexpected parameters for {kind!r}: {sorted(unexpected)}")
    return equation(**values)


def expand_profile(kind: str, params: dict, T: float) -> CoefficientSet:
    """Instantiate the profile ``kind`` (one of ``PROFILE_KINDS``) with its
    parameters on [0, T], as a :class:`CoefficientSet` with exact a', d'.

    A built-in kind is the polynomial table of its constant coefficients,
    so every set is built by the ``custom`` path below.
    """
    params = dict(params)
    T = _number(T, "T")
    if kind == "custom":
        poly = params.pop("poly", None)
        if params:
            raise ValueError(f"unexpected parameters for 'custom': {sorted(params)}")
        if not isinstance(poly, dict):
            raise ValueError("custom profile requires a 'poly' table "
                             "{name: [c0, c1, ...]}")
        unknown = set(poly) - set(_COEFF_NAMES)
        if unknown:
            raise ValueError(f"unknown coefficient names in poly table: {sorted(unknown)}")
        for name, entries in poly.items():
            for v in entries:   # a string's characters are strings: rejected
                _number(v, f"poly entry of {name!r}")
    else:
        poly = {name: [value]
                for name, value in builtin_equation(kind, params).items()}

    made = CoefficientSet(
        **{name: _poly_callable(poly.get(name, [0.0])) for name in _COEFF_NAMES},
        domain_end=T,
        da=_poly_callable(_poly_derivative(poly.get("a", [0.0]))),
        dd=_poly_callable(_poly_derivative(poly.get("d", [0.0]))),
    )
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
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("config 'params' must be a JSON object")
    params = dict(params)
    kind = config.get("profile")
    if kind == "custom":
        params["poly"] = config.get("poly", params.get("poly"))
    return expand_profile(kind, params, config.get("T", 2.0))


def profile(kind: str, T: float = 2.0, **params) -> CoefficientSet:
    """Shorthand: ``profile("ou-drift", k=1.0, g=0.5)``."""
    return expand_profile(kind, params, T)
