"""Exception types shared across the package, and the one range guard."""

import numpy as np


class DomainError(ValueError):
    """Evaluation requested outside the validity interval of a solution."""


class SingularityError(ValueError):
    """A formula was evaluated at (or too close to) one of its singular points."""


class IntegrationError(RuntimeError):
    """An adaptive ODE integration failed (step-size underflow, solver abort)."""


class BlowUpError(IntegrationError):
    """A trajectory left the finite range before the requested horizon.

    Carries ``t_blowup``, the time at which the magnitude threshold was crossed.
    """

    def __init__(self, message, t_blowup):
        super().__init__(message)
        self.t_blowup = float(t_blowup)


class QuadratureError(RuntimeError):
    """An adaptive quadrature did not converge to the requested tolerance."""


class StabilityError(RuntimeError):
    """A finite-difference run violated its stability constraint or diverged."""


def check_range(name: str, value, lo: float, hi: float):
    """``value`` (a float or an array) clipped to [lo, hi].

    Values within s = 1e-12 max(1, |lo|, |hi|) of the interval are accepted
    and clipped; any other value, NaN included, raises :class:`DomainError`
    naming the first offender.  A scalar comes back as a float.
    """
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if isinstance(value, (float, int)):     # Python floats: no array overhead
        v = float(value)
        if lo - slack <= v <= hi + slack:
            return min(max(v, lo), hi)
        bad = v
    else:
        v = np.asarray(value, dtype=float)
        inside = (v >= lo - slack) & (v <= hi + slack)
        if inside.all():
            v = np.clip(v, lo, hi)
            return float(v) if v.ndim == 0 else v
        bad = float(v[~inside].flat[0])
    raise DomainError(f"{name}={bad} outside [{lo}, {hi}]")
