"""Integrator-chain dynamics and bounded disturbance signals.

States are stacked level-major: the first ``axes`` entries are the
level-1 states of every axis, the next ``axes`` entries the level-2
states, and so on.  For the planar double integrator this is
``(p1, p2, v1, v2)``.  Each axis is an independent chain driven by one
input channel; the shift structure is fixed and never user-editable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "IntegratorChain",
    "Sinusoid",
    "Channel",
    "DisturbanceProfile",
    "sample_disturbance",
    "certified_bound",
]


@dataclass(frozen=True)
class IntegratorChain:
    """m parallel integrator chains of order n sharing one input vector."""

    order: int
    axes: int = 1

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 2:
            raise ParameterError(f"order must be an integer >= 2, got {self.order}")
        if not isinstance(self.axes, int) or self.axes < 1:
            raise ParameterError(f"axes must be an integer >= 1, got {self.axes}")

    @property
    def dim(self) -> int:
        return self.order * self.axes

    def dynamics(self, x, u, d=None) -> np.ndarray:
        """State derivative: each level feeds from the next, the last from u."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        m = self.axes
        if x.shape != (self.dim,):
            raise DimensionError(f"state must have length {self.dim}, got {x.shape}")
        if u.shape != (m,):
            raise DimensionError(f"input must have length {m}, got {u.shape}")
        out = np.empty(self.dim)
        out[: self.dim - m] = x[m:]
        out[self.dim - m :] = u
        if d is not None:
            d = np.asarray(d, dtype=float)
            if d.shape != (self.dim,):
                raise DimensionError(
                    f"disturbance must have length {self.dim}, got {d.shape}"
                )
            out += d
        return out

    def drift(self, x: np.ndarray) -> np.ndarray:
        """Input-free, disturbance-free part of the derivative (the shift Ax)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionError(f"state must have length {self.dim}, got {x.shape}")
        out = np.zeros(self.dim)
        out[: self.dim - self.axes] = x[self.axes :]
        return out


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(frequency * t + phase)."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.frequency * t + self.phase)


@dataclass(frozen=True)
class Channel:
    """One disturbance channel: a sum of sinusoids plus uniform noise."""

    sinusoids: tuple[Sinusoid, ...] = ()
    noise_amplitude: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sinusoids", tuple(self.sinusoids))
        if self.noise_amplitude < 0.0:
            raise ParameterError(
                f"noise amplitude must be nonnegative, got {self.noise_amplitude}"
            )

    def deterministic(self, t: float) -> float:
        return sum(s(t) for s in self.sinusoids)

    def worst_case(self) -> float:
        return sum(abs(s.amplitude) for s in self.sinusoids) + self.noise_amplitude


@dataclass(frozen=True)
class DisturbanceProfile:
    """Per-channel disturbance description.

    The noise term draws from the generator the caller passes to
    :func:`sample_disturbance`; a closed-loop run seeds that generator
    from ``Scenario.seed``, so a profile holds no seed of its own.

    ``symmetric_noise`` switches the uniform draw from [0, 1] (the
    default reading of a unit random signal) to [-1, 1].  Either way the
    certified bound covers the full noise amplitude.
    """

    channels: tuple[Channel, ...]
    symmetric_noise: bool = False

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if not self.channels:
            raise ParameterError("disturbance profile needs at least one channel")
        # per-channel noise amplitudes, or None without noise; not a field,
        # built once so that sampling does not rebuild it on every call
        noise = np.array([ch.noise_amplitude for ch in self.channels])
        object.__setattr__(self, "_noise", noise if noise.any() else None)

    def __len__(self) -> int:
        return len(self.channels)


def sample_disturbance(
    profile: DisturbanceProfile, t: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Evaluate the profile at time t.

    The noise term needs a generator; pass the scenario's.  Noise-free
    profiles may omit it.
    """
    if t < 0.0:
        raise ParameterError(f"disturbances are defined for t >= 0, got {t}")
    out = np.array([ch.deterministic(t) for ch in profile.channels], dtype=float)
    noise = profile._noise
    if noise is not None:
        if rng is None:
            raise ParameterError(
                "profile has a noise term; pass a numpy random generator"
            )
        draw = rng.random(len(noise))
        if profile.symmetric_noise:
            draw = 2.0 * draw - 1.0
        out += noise * draw
    return out


def certified_bound(profile: DisturbanceProfile | None) -> float:
    """Worst-case Euclidean norm of the stacked disturbance.

    Per channel the amplitudes add (sinusoids can align and the noise
    draw can land at full amplitude); across channels the worst cases
    combine by root sum of squares.
    """
    if profile is None:
        return 0.0
    return math.sqrt(sum(ch.worst_case() ** 2 for ch in profile.channels))
