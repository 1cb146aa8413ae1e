"""Time-varying gain functions, their power integrals and the
initial-gain selection rules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from tvcbf import autodiff
from tvcbf.errors import DomainError, ParameterError, UnsafeInitializationError
from tvcbf.gains import (
    ExponentialGain,
    GainSchedule,
    LinearGain,
    PolynomialGain,
    PrescribedTimeGain,
    gain_function,
    initial_gain_perturbed,
    initial_gain_unperturbed,
)

ALL_KINDS = (
    LinearGain(),
    PolynomialGain(power=1.7),
    ExponentialGain(scale=1.2, rate=0.6),
    PrescribedTimeGain(scale=2.0, terminal_time=8.0),
)


def test_values_at_reference_points():
    assert LinearGain().value(0.0) == 1.0
    assert LinearGain().value(2.0) == 3.0
    assert ExponentialGain(scale=1.0, rate=0.5).value(0.0) == 1.0
    assert np.isclose(PolynomialGain(power=2.0).value(1.0), 4.0)
    assert np.isclose(PrescribedTimeGain(scale=2.0, terminal_time=4.0).value(2.0), 1.0)


def test_linear_power_integrals_closed_form():
    g = LinearGain()
    # antiderivative (1+t)^2 / 2 over [0, 2]
    assert np.isclose(g.power_integral(1.0, 0.0, 2.0), 4.0, rtol=1e-14)
    # antiderivative (1+t)^3 / 3 over [0, 1]
    assert np.isclose(g.power_integral(2.0, 0.0, 1.0), 7.0 / 3.0, rtol=1e-14)


def test_power_integral_zero_span():
    for g in ALL_KINDS:
        assert g.power_integral(1.3, 0.5, 0.5) == 0.0


def test_closed_forms_match_quadrature():
    rng = np.random.default_rng(5)
    for g in ALL_KINDS:
        horizon = 6.0 if not isinstance(g, PrescribedTimeGain) else 7.0
        for _ in range(25):
            k = float(rng.uniform(0.2, 4.0))
            t0 = float(rng.uniform(0.0, horizon / 2))
            t1 = float(rng.uniform(t0, horizon))
            closed = g.power_integral(k, t0, t1)
            reference, _ = quad(
                lambda s: g.value(s) ** k, t0, t1, epsrel=1e-10, limit=200
            )
            assert np.isclose(closed, reference, rtol=1e-8, atol=1e-12)


def test_prescribed_time_log_branch():
    g = PrescribedTimeGain(scale=2.0, terminal_time=5.0)
    # k = 1 integrates to a log ratio of the remaining horizon
    expected = 2.0 * math.log((5.0 - 0.0) / (5.0 - 3.0))
    assert np.isclose(g.power_integral(1.0, 0.0, 3.0), expected, rtol=1e-12)


def _lifted_power_jet(g, k, t):
    """value(t)**k and its time derivative through a forward-mode lift."""
    (seed,) = autodiff.lift_first([t])
    y = g.value(seed) ** k
    return autodiff.unwrap(y.value), autodiff.unwrap(y.grad[0])


def test_power_jet_matches_value_and_slope():
    rng = np.random.default_rng(9)
    for g in ALL_KINDS:
        for _ in range(20):
            k = float(rng.uniform(0.5, 3.5))
            t = float(rng.uniform(0.1, 4.0))
            theta, theta_dot = g.power_jet(k, t)
            assert np.isclose(theta, g.value(t) ** k, rtol=1e-12)
            h = 1e-6
            fd = (g.value(t + h) ** k - g.value(t - h) ** k) / (2.0 * h)
            assert np.isclose(theta_dot, fd, rtol=1e-5, atol=1e-8)
            want, want_dot = _lifted_power_jet(g, k, t)
            assert abs(theta - want) <= 1e-13 * abs(want)
            assert abs(theta_dot - want_dot) <= 1e-13 * abs(want_dot)
            if isinstance(g, LinearGain):
                assert (theta, theta_dot) == (want, want_dot)


def test_strictly_increasing():
    rng = np.random.default_rng(13)
    draws = [
        LinearGain(),
        PolynomialGain(power=float(rng.uniform(0.2, 4.0))),
        ExponentialGain(scale=float(rng.uniform(0.3, 3.0)), rate=float(rng.uniform(0.1, 2.0))),
        PrescribedTimeGain(scale=float(rng.uniform(0.5, 3.0)), terminal_time=6.0),
    ]
    for g in draws:
        ts = np.sort(rng.uniform(0.0, 5.5, size=40))
        vals = [g.value(float(t)) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert g.value(0.0) > 0.0


def test_domain_checks():
    g = LinearGain()
    with pytest.raises(DomainError):
        g.value(-0.1)
    with pytest.raises(DomainError):
        g.power_integral(1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        g.power_integral(1.0, 2.0, 1.0)

    pt = PrescribedTimeGain(scale=1.0, terminal_time=3.0)
    with pytest.raises(DomainError):
        pt.value(3.0)
    with pytest.raises(DomainError):
        pt.power_integral(1.0, 0.0, 3.5)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        PolynomialGain(power=0.0)
    with pytest.raises(ParameterError):
        ExponentialGain(scale=-1.0, rate=0.5)
    with pytest.raises(ParameterError):
        ExponentialGain(scale=1.0, rate=0.0)
    with pytest.raises(ParameterError):
        PrescribedTimeGain(scale=0.0, terminal_time=1.0)
    with pytest.raises(ParameterError):
        PrescribedTimeGain(scale=1.0, terminal_time=0.0)


def test_gain_function_factory():
    assert isinstance(gain_function("linear"), LinearGain)
    assert gain_function("polynomial", power=2.5) == PolynomialGain(power=2.5)
    assert gain_function("exponential", scale=2.0, rate=0.3) == ExponentialGain(2.0, 0.3)
    assert gain_function("prescribed_time", scale=1.0, terminal_time=4.0) == (
        PrescribedTimeGain(1.0, 4.0)
    )
    with pytest.raises(ParameterError):
        gain_function("cubic")
    with pytest.raises(ParameterError):
        gain_function("linear", power=2.0)


def test_schedule_validation():
    with pytest.raises(ParameterError):
        GainSchedule(levels=(), function=LinearGain())
    with pytest.raises(ParameterError):
        GainSchedule(levels=(1.0, -2.0), function=LinearGain())
    with pytest.raises(ParameterError):
        GainSchedule(levels=(1.0,), function=LinearGain(), exponent_factor=0.5)
    s = GainSchedule(levels=(2.7, 3.0), function=LinearGain(), exponent_factor=1.5)
    assert s.level_exponent(1) == 1.5
    assert s.level_exponent(2) == 3.0


def test_initial_gain_unperturbed_worked_examples():
    assert initial_gain_unperturbed(1.0, -2.0, 1.0, margin=0.1) == 2.1
    # positive drift needs no gain beyond the margin
    assert initial_gain_unperturbed(1.0, 5.0, 1.0, margin=0.1) == 0.1
    assert initial_gain_unperturbed(2.0, -2.0, 2.0, margin=0.5) == 1.0


def test_initial_gain_perturbed_worked_examples():
    assert initial_gain_perturbed(1.0, -2.0, 0.5, 1.0, margin=0.1) == 2.6
    assert initial_gain_perturbed(1.0, 10.0, 0.5, 1.0, margin=0.1) == 0.1


def test_perturbed_rule_reduces_to_unperturbed_at_zero_margin_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        h = float(rng.uniform(0.1, 5.0))
        lfh = float(rng.uniform(-5.0, 5.0))
        ups0 = float(rng.uniform(0.2, 3.0))
        margin = float(rng.uniform(0.01, 1.0))
        assert initial_gain_perturbed(h, lfh, 0.0, ups0, margin) == (
            initial_gain_unperturbed(h, lfh, ups0, margin)
        )


def test_gain_rule_soundness():
    # the selected gain must make the next chain level strictly positive
    rng = np.random.default_rng(23)
    for _ in range(500):
        h = float(rng.uniform(1e-3, 10.0))
        lfh = float(rng.uniform(-20.0, 20.0))
        lam = float(rng.uniform(0.0, 10.0))
        ups0 = float(rng.uniform(0.05, 5.0))
        margin = float(rng.uniform(0.01, 2.0))
        rho = initial_gain_perturbed(h, lfh, lam, ups0, margin)
        assert rho > 0.0
        assert rho * ups0 * h + lfh - lam > 0.0
        rho_u = initial_gain_unperturbed(h, lfh, ups0, margin)
        assert rho_u * ups0 * h + lfh > 0.0


def test_gain_rules_reject_bad_inputs():
    with pytest.raises(UnsafeInitializationError):
        initial_gain_unperturbed(0.0, -1.0, 1.0)
    with pytest.raises(UnsafeInitializationError):
        initial_gain_perturbed(-0.5, -1.0, 0.1, 1.0)
    with pytest.raises(ParameterError):
        initial_gain_unperturbed(1.0, -1.0, 1.0, margin=0.0)
    with pytest.raises(ParameterError):
        initial_gain_perturbed(1.0, -1.0, -0.2, 1.0)
    with pytest.raises(ParameterError):
        initial_gain_unperturbed(1.0, -1.0, 0.0)
