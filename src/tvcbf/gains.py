"""Time-varying gain functions, their power integrals, and initial-gain rules.

The gain function multiplies each barrier level in the chain recursion
and in the filter constraint.  All kinds are strictly increasing on
their domain, which is ``t >= 0`` (and additionally ``t < terminal_time``
for the prescribed-time kind, a comparison baseline that blows up at its
terminal time and is not meant for persistent safety).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff
from .errors import DomainError, ParameterError, UnsafeInitializationError, _about

__all__ = [
    "GainFunction",
    "LinearGain",
    "PolynomialGain",
    "ExponentialGain",
    "PrescribedTimeGain",
    "GainSchedule",
    "gain_function",
    "initial_gain_unperturbed",
    "initial_gain_perturbed",
]


class GainFunction:
    """Base for the strictly increasing gain kinds.

    ``value`` accepts duck scalars (plain floats or lifted autodiff
    numbers) so callers can differentiate through it.  Each kind gives
    its time derivative in closed form (``_slope``), from which
    ``power_jet`` forms the derivative of a power, and its
    ``power_integral`` in closed form; there is no quadrature fallback.
    """

    kind = "abstract"

    def _check_time(self, t):
        if float(t) < 0.0:
            raise DomainError(f"gain function queried at t={float(t)} < 0")

    def _check_positive(self, *fields):
        """Refuse non-positive parameters, tagged with the ones at fault."""
        bad = [f for f in fields if getattr(self, f) <= 0.0]
        if bad:
            needs = " and ".join(f"{f} > 0" for f in fields)
            got = ", ".join(f"{f}={getattr(self, f)}" for f in fields)
            raise _about(ParameterError(f"{self.kind} gain needs {needs}, got {got}"), *bad)

    def value(self, t):
        raise NotImplementedError

    def _slope(self, t, v):
        """Time derivative of the gain at float t, where v = value(t)."""
        raise NotImplementedError

    def power_jet(self, k: float, t: float) -> tuple[float, float]:
        """value and time derivative of ``value(t)**k``."""
        t = float(t)
        v = self.value(t)
        return v**k, k * v ** (k - 1) * self._slope(t, v)

    def _check_span(self, k, t0, t):
        if k <= 0.0:
            raise ParameterError(f"integral power must be positive, got {k}")
        if t < t0:
            raise DomainError(f"integration span reversed: t={t} < t0={t0}")
        self._check_time(t0)
        self._check_time(t)

    def power_integral(self, k: float, t0: float, t: float) -> float:
        """Integral of ``value(s)**k`` over [t0, t]."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinearGain(GainFunction):
    """1 + t."""

    kind = "linear"

    def value(self, t):
        self._check_time(t)
        return 1.0 + t

    def _slope(self, t, v):
        return 1.0

    def power_integral(self, k, t0, t):
        self._check_span(k, t0, t)
        e = k + 1.0
        return ((1.0 + t) ** e - (1.0 + t0) ** e) / e


@dataclass(frozen=True)
class PolynomialGain(GainFunction):
    """(1 + t)**power with power > 0."""

    power: float

    kind = "polynomial"

    def __post_init__(self):
        self._check_positive("power")

    def value(self, t):
        self._check_time(t)
        return (1.0 + t) ** self.power

    def _slope(self, t, v):
        return self.power * (1.0 + t) ** (self.power - 1)

    def power_integral(self, k, t0, t):
        self._check_span(k, t0, t)
        e = self.power * k + 1.0
        return ((1.0 + t) ** e - (1.0 + t0) ** e) / e


@dataclass(frozen=True)
class ExponentialGain(GainFunction):
    """scale * exp(rate * t) with scale > 0, rate > 0."""

    scale: float = 1.0
    rate: float = 1.0

    kind = "exponential"

    def __post_init__(self):
        self._check_positive("scale", "rate")

    def value(self, t):
        self._check_time(t)
        return self.scale * autodiff.exp(self.rate * t)

    def _slope(self, t, v):
        return self.rate * v

    def power_integral(self, k, t0, t):
        self._check_span(k, t0, t)
        rk = self.rate * k
        return self.scale**k * (math.exp(rk * t) - math.exp(rk * t0)) / rk


@dataclass(frozen=True)
class PrescribedTimeGain(GainFunction):
    """scale / (terminal_time - t) on [0, terminal_time).

    Comparison baseline only: the value diverges as t approaches the
    terminal time, so it cannot back a persistent safety guarantee.
    """

    scale: float = 1.0
    terminal_time: float = 1.0

    kind = "prescribed_time"

    def __post_init__(self):
        self._check_positive("scale", "terminal_time")

    def _check_time(self, t):
        super()._check_time(t)
        if float(t) >= self.terminal_time:
            raise DomainError(
                f"prescribed-time gain queried at t={float(t)} >= "
                f"terminal time {self.terminal_time}"
            )

    def value(self, t):
        self._check_time(t)
        return self.scale / (self.terminal_time - t)

    def _slope(self, t, v):
        return self.scale / (self.terminal_time - t) ** 2

    def power_integral(self, k, t0, t):
        self._check_span(k, t0, t)
        big_t = self.terminal_time
        if k == 1.0:
            return self.scale * math.log((big_t - t0) / (big_t - t))
        e = 1.0 - k
        return -(self.scale**k) * ((big_t - t) ** e - (big_t - t0) ** e) / e


_KINDS = {
    "linear": LinearGain,
    "polynomial": PolynomialGain,
    "exponential": ExponentialGain,
    "prescribed_time": PrescribedTimeGain,
}


def gain_function(kind: str, **params) -> GainFunction:
    """Construct a gain function by kind name (used by config loading)."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown gain kind {kind!r}; expected one of {sorted(_KINDS)}"
        ) from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for {kind} gain: {exc}") from None


@dataclass(frozen=True)
class GainSchedule:
    """Per-level constants plus the shared gain function.

    ``levels[i-1]`` multiplies barrier level i; ``exponent_factor`` is
    the aggressiveness exponent applied as ``gain**(exponent_factor*i)``.
    The robust flag selects the perturbed construction (disturbance
    margins subtracted at every level).
    """

    levels: tuple[float, ...]
    function: GainFunction
    exponent_factor: float = 1.0
    robust: bool = False

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not self.levels:
            raise ParameterError("gain schedule needs at least one level")
        if any(v <= 0.0 for v in self.levels):
            raise ParameterError(f"all level gains must be positive, got {self.levels}")
        if self.exponent_factor < 1.0:
            raise ParameterError(
                f"exponent factor must be >= 1, got {self.exponent_factor}"
            )

    def level_exponent(self, i: int) -> float:
        """Exponent attached to level i's decay term."""
        return self.exponent_factor * i


def _check_rule_inputs(h_val, upsilon0, margin):
    if margin <= 0.0:
        raise ParameterError(f"margin must be positive, got {margin}")
    if upsilon0 <= 0.0:
        raise ParameterError(f"upsilon0 must be positive, got {upsilon0}")
    if h_val <= 0.0:
        raise UnsafeInitializationError(
            f"initial-gain rule needs a positive barrier value, got {h_val}"
        )


def initial_gain_unperturbed(
    h_val: float, lfh_val: float, upsilon0: float, margin: float = 0.1
) -> float:
    """Smallest admissible level gain plus margin, disturbance-free case.

    ``upsilon0`` is the gain function (raised to the level exponent)
    evaluated at the start time; the caller supplies it so this rule
    stays level-index-free.  Guarantees the next chain level is strictly
    positive at the start state.
    """
    _check_rule_inputs(h_val, upsilon0, margin)
    return max(0.0, -lfh_val / (upsilon0 * h_val)) + margin


def initial_gain_perturbed(
    h_val: float,
    lfh_val: float,
    lambda_val: float,
    upsilon0: float,
    margin: float = 0.1,
) -> float:
    """Disturbance-aware variant: the smooth margin enters the numerator."""
    if lambda_val < 0.0:
        raise ParameterError(f"lambda_val must be nonnegative, got {lambda_val}")
    _check_rule_inputs(h_val, upsilon0, margin)
    return max(0.0, (lambda_val - lfh_val) / (upsilon0 * h_val)) + margin
