"""Integrator-chain dynamics and disturbance signals with certified
norm bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tvcbf.chain import (
    Channel,
    DisturbanceProfile,
    IntegratorChain,
    Sinusoid,
    certified_bound,
    sample_disturbance,
)
from tvcbf.errors import DimensionError, ParameterError


def _reference_profile(noise=0.02):
    """Planar double-integrator disturbances used throughout the suite.

    Channel layout follows the level-major state: position channels
    first, velocity channels second.  The cosine terms are stored as
    phase-shifted sines.
    """
    half_pi = math.pi / 2.0
    return DisturbanceProfile(
        channels=(
            Channel((Sinusoid(0.1, 2.0),), noise),
            Channel((Sinusoid(0.1, 3.0, half_pi),), noise),
            Channel((Sinusoid(0.15, 1.0),), noise),
            Channel((Sinusoid(0.15, 2.0, half_pi),), noise),
        )
    )


def test_dynamics_shift_structure():
    sys2 = IntegratorChain(order=2, axes=1)
    assert np.array_equal(sys2.dynamics([1.0, 2.0], [3.0], [0.0, 0.0]), [2.0, 3.0])
    assert np.array_equal(
        sys2.dynamics([1.0, 2.0], [3.0], [0.5, -0.5]), [2.5, 2.5]
    )
    sys3 = IntegratorChain(order=3, axes=1)
    assert np.array_equal(
        sys3.dynamics([1.0, 2.0, 3.0], [0.0], [0.0, 0.0, 0.0]), [2.0, 3.0, 0.0]
    )


def test_dynamics_multi_axis_layout():
    # level-major stacking: (p1, p2, v1, v2)
    sys = IntegratorChain(order=2, axes=2)
    out = sys.dynamics([1.0, 2.0, 3.0, 4.0], [5.0, 6.0])
    assert np.array_equal(out, [3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(sys.drift([1.0, 2.0, 3.0, 4.0]), [3.0, 4.0, 0.0, 0.0])


def test_dynamics_rejects_wrong_shapes():
    sys = IntegratorChain(order=2, axes=2)
    with pytest.raises(DimensionError):
        sys.dynamics([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(DimensionError):
        sys.dynamics([1.0, 2.0, 3.0, 4.0], [1.0])
    with pytest.raises(DimensionError):
        sys.dynamics([1.0, 2.0, 3.0, 4.0], [1.0, 1.0], [0.0])
    with pytest.raises(DimensionError):
        sys.drift([1.0])


def test_chain_construction_limits():
    with pytest.raises(ParameterError):
        IntegratorChain(order=1, axes=1)
    with pytest.raises(ParameterError):
        IntegratorChain(order=2, axes=0)
    assert IntegratorChain(order=4, axes=2).dim == 8


def test_dynamics_linearity():
    rng = np.random.default_rng(31)
    sys = IntegratorChain(order=3, axes=2)
    for _ in range(100):
        alpha = float(rng.uniform(-3.0, 3.0))
        x = rng.standard_normal(6)
        u = rng.standard_normal(2)
        d = rng.standard_normal(6)
        lhs = sys.dynamics(alpha * x, alpha * u, alpha * d)
        rhs = alpha * sys.dynamics(x, u, d)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_sinusoid_and_channel_values():
    s = Sinusoid(0.1, 2.0)
    assert s(0.0) == 0.0
    assert np.isclose(s(math.pi / 4.0), 0.1)
    cosine = Sinusoid(0.15, 2.0, math.pi / 2.0)
    assert np.isclose(cosine(0.0), 0.15)

    ch = Channel((Sinusoid(0.1, 2.0), Sinusoid(0.05, 1.0)), noise_amplitude=0.02)
    assert np.isclose(ch.deterministic(0.0), 0.0)
    assert ch.worst_case() == 0.1 + 0.05 + 0.02


def test_reference_profile_at_time_zero():
    profile = _reference_profile(noise=0.0)
    d = sample_disturbance(profile, 0.0)
    # position channels (0.1 sin, 0.1 cos), velocity channels (0.15 sin, 0.15 cos)
    assert np.allclose(d, [0.0, 0.1, 0.0, 0.15], atol=1e-15)


def test_zero_profile_samples_zero():
    profile = DisturbanceProfile(channels=(Channel(), Channel()))
    for t in (0.0, 0.7, 12.0):
        assert np.array_equal(sample_disturbance(profile, t), [0.0, 0.0])


def test_certified_bound_values():
    two = DisturbanceProfile(
        channels=(
            Channel((Sinusoid(0.1, 2.0),), 0.02),
            Channel((Sinusoid(0.1, 3.0, math.pi / 2.0),), 0.02),
        )
    )
    assert np.isclose(certified_bound(two), math.sqrt(2.0) * 0.12, rtol=1e-12)

    one = DisturbanceProfile(channels=(Channel((Sinusoid(0.15, 1.0),), 0.02),))
    assert np.isclose(certified_bound(one), 0.17, rtol=1e-12)

    stacked = certified_bound(_reference_profile())
    assert stacked == 0.2942787793912432
    assert np.isclose(stacked, math.sqrt(2 * 0.12**2 + 2 * 0.17**2), rtol=1e-14)
    assert certified_bound(None) == 0.0


def test_samples_stay_within_certified_bound():
    profile = _reference_profile()
    theta = certified_bound(profile)
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100_000):
        t = float(rng.uniform(0.0, 50.0))
        d = sample_disturbance(profile, t, rng)
        worst = max(worst, float(np.linalg.norm(d)))
    assert worst <= theta

    sym = DisturbanceProfile(profile.channels, symmetric_noise=True)
    for _ in range(10_000):
        t = float(rng.uniform(0.0, 50.0))
        d = sample_disturbance(sym, t, rng)
        assert float(np.linalg.norm(d)) <= theta


def test_noise_draw_per_channel_amplitude():
    # one draw per channel, noise-free channels included, scaled by each
    # channel's amplitude; the amplitudes are not part of the profile's
    # value (equality, hash, repr)
    channels = (
        Channel((Sinusoid(0.1, 2.0),), 0.02),
        Channel((), 0.0),
        Channel((Sinusoid(0.15, 1.0),), 0.05),
    )
    for symmetric in (False, True):
        profile = DisturbanceProfile(channels, symmetric_noise=symmetric)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for t in (0.0, 0.3, 2.5):
            draw = ref.random(3)
            if symmetric:
                draw = 2.0 * draw - 1.0
            want = np.array([ch.deterministic(t) for ch in channels])
            want += np.array([0.02, 0.0, 0.05]) * draw
            assert np.array_equal(sample_disturbance(profile, t, rng), want)
    same = DisturbanceProfile(channels)
    assert same == DisturbanceProfile(channels)
    assert hash(same) == hash(DisturbanceProfile(channels))
    assert "array" not in repr(same)
    # a profile without noise draws nothing, so it needs no generator
    quiet = DisturbanceProfile((Channel((Sinusoid(0.1, 2.0),)), Channel()))
    assert np.array_equal(sample_disturbance(quiet, 1.0), [0.1 * math.sin(2.0), 0.0])


def test_noise_requires_generator():
    profile = _reference_profile()
    with pytest.raises(ParameterError):
        sample_disturbance(profile, 1.0)
    with pytest.raises(ParameterError):
        sample_disturbance(profile, -0.5, np.random.default_rng(0))


def test_symmetric_noise_flag_changes_support():
    ch = Channel(noise_amplitude=1.0)
    plain = DisturbanceProfile(channels=(ch,))
    sym = DisturbanceProfile(channels=(ch,), symmetric_noise=True)
    rng = np.random.default_rng(2)
    draws = np.array([sample_disturbance(plain, 0.0, rng)[0] for _ in range(2000)])
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    rng = np.random.default_rng(2)
    draws = np.array([sample_disturbance(sym, 0.0, rng)[0] for _ in range(2000)])
    assert draws.min() < 0.0 and abs(draws).max() <= 1.0


def test_profile_needs_a_channel():
    with pytest.raises(ParameterError):
        DisturbanceProfile(channels=())
