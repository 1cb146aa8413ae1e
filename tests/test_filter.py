"""Closed-form safety filter against the independent projection oracle."""

from __future__ import annotations

import numpy as np
import pytest

from tvcbf.barrier import BarrierChain, CircularObstacle, robust_margin
from tvcbf.chain import IntegratorChain
from tvcbf.errors import DimensionError, InfeasibleConstraintError
from tvcbf.gains import GainSchedule, LinearGain
from tvcbf.qp import apply_filter, qp_oracle, safety_filter


def _make_chain(
    order=2,
    levels=(1.0, 1.0),
    robust=False,
    theta=0.0,
    smoothing=None,
    center=(0.0, 0.0),
    include_time_partial=False,
    exponent_factor=1.0,
):
    system = IntegratorChain(order=order, axes=2)
    schedule = GainSchedule(
        levels=tuple(levels),
        function=LinearGain(),
        exponent_factor=exponent_factor,
        robust=robust,
    )
    return BarrierChain(
        system,
        CircularObstacle(center=center, radius=1.0),
        schedule,
        smoothing=smoothing,
        disturbance_bound=theta,
        include_time_partial=include_time_partial,
    )


def test_slack_worked_example():
    # state ((2, 0), (1, 0)) against the unit circle: level 2 is 3.5 and
    # its drift rate is 3, so the slack at zero input is 3 + 3.5
    chain = _make_chain()
    x = [2.0, 0.0, 1.0, 0.0]
    assert np.isclose(safety_filter(chain, x, 0.0, [0.0, 0.0]).slack, 6.5, rtol=1e-14)

    # the time-partial switch adds d level2 / dt = 1.5
    with_tp = _make_chain(include_time_partial=True)
    assert np.isclose(
        safety_filter(with_tp, x, 0.0, [0.0, 0.0]).slack, 8.0, rtol=1e-14
    )


def test_slack_cancellation_boundary():
    chain = _make_chain()
    x = [2.0, 0.0, 1.0, 0.0]
    # row is (2, 0); choose u so row . u exactly cancels the offset
    assert safety_filter(chain, x, 0.0, [-3.25, 0.0]).slack == 0.0


def test_passthrough_branch():
    chain = _make_chain()
    x = [2.0, 0.0, 1.0, 0.0]
    u_no = np.array([0.5, -0.25])
    decision = safety_filter(chain, x, 0.0, u_no)
    assert decision.branch == "passthrough"
    assert np.array_equal(decision.u, u_no)
    assert decision.u is not u_no
    assert decision.slack >= 0.0
    assert np.array_equal(decision.row, [2.0, 0.0])
    assert np.isclose(decision.row @ decision.u + decision.offset, decision.slack)


def test_corrected_branch_by_hand():
    # robust chain at the hand-worked state: level 2 = -1.7 and every
    # constraint part can be written out explicitly
    chain = _make_chain(robust=True, theta=1.0, smoothing=(0.2, 0.2))
    x = [2.0, 0.0, 1.0, 0.0]
    decision = safety_filter(chain, x, 0.0, [0.0, 0.0])
    # offset = drift - margin + gain * level2
    #        = -2 - 10.2 - 1.7 = -13.9, row = (2, 0)
    assert decision.branch == "corrected"
    assert np.isclose(decision.offset, -13.9, rtol=1e-12)
    assert np.isclose(decision.slack, -13.9, rtol=1e-12)
    assert np.allclose(decision.u, [6.95, 0.0], rtol=1e-12)
    # constraint holds with equality after the correction
    assert abs(decision.row @ decision.u + decision.offset) < 1e-9


def test_corrected_slack_reconstruction():
    chain = _make_chain(
        robust=True, theta=0.4, smoothing=(0.3, 0.7), include_time_partial=True
    )
    x = np.array([1.8, -0.4, -1.2, 0.6])
    t = 0.9
    ev = chain.evaluate(x, t)
    decision = apply_filter(chain, ev, t, np.array([-2.0, 1.0]))
    expected_offset = (
        ev.drift_rate
        + ev.time_partial
        - robust_margin(ev.gradient, 0.7, 0.4)
        + chain.schedule.levels[1]
        * chain.gain_function.value(t) ** chain.schedule.level_exponent(2)
        * ev.values[-1]
    )
    assert np.isclose(decision.offset, expected_offset, rtol=1e-12)
    assert np.array_equal(decision.row, ev.gradient[-2:])


def test_qp_oracle_worked_examples():
    assert np.array_equal(qp_oracle([0.0, 0.0], [1.0, 0.0], 2.0), [2.0, 0.0])
    assert np.array_equal(qp_oracle([3.0, 4.0], [0.0, 1.0], 10.0), [3.0, 10.0])
    u = np.array([1.0, -1.0])
    out = qp_oracle(u, [1.0, 1.0], -5.0)
    assert np.array_equal(out, u)
    assert out is not u
    assert np.array_equal(qp_oracle([2.0, 2.0], [0.0, 0.0], -1.0), [2.0, 2.0])
    with pytest.raises(InfeasibleConstraintError):
        qp_oracle([0.0, 0.0], [0.0, 0.0], 1.0)


def test_filter_matches_oracle_on_random_instances():
    rng = np.random.default_rng(61)
    chains = [
        _make_chain(levels=(2.7, 3.0), center=(2.0, 2.0)),
        _make_chain(
            levels=(2.7, 3.0),
            center=(2.0, 2.0),
            robust=True,
            theta=0.3,
            include_time_partial=True,
        ),
        _make_chain(
            order=3,
            levels=(3.0, 2.5, 1.5),
            robust=True,
            theta=0.2,
            smoothing=(1.0, 1.0, 1.0),
        ),
    ]
    for _ in range(500):
        chain = chains[int(rng.integers(len(chains)))]
        # sample strictly outside the obstacle
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        p = np.array(chain.oracle.center) + direction * rng.uniform(1.05, 4.0)
        x = np.concatenate([p, rng.uniform(-2.0, 2.0, size=chain.dim - 2)])
        t = float(rng.uniform(0.0, 2.0))
        u_no = rng.uniform(-8.0, 8.0, size=2)
        decision = safety_filter(chain, x, t, u_no)
        reference = qp_oracle(u_no, decision.row, -decision.offset)
        assert np.linalg.norm(decision.u - reference) <= 1e-9
        # the applied input never violates the constraint
        assert decision.row @ decision.u + decision.offset >= -1e-9


def test_minimal_deviation():
    rng = np.random.default_rng(67)
    chain = _make_chain(robust=True, theta=1.0, smoothing=(0.2, 0.2))
    x = [2.0, 0.0, 1.0, 0.0]
    u_no = np.zeros(2)
    decision = safety_filter(chain, x, 0.0, u_no)
    assert decision.branch == "corrected"
    dist = np.linalg.norm(decision.u - u_no)
    for _ in range(100):
        v = rng.uniform(-30.0, 30.0, size=2)
        if decision.row @ v + decision.offset >= 0.0:
            assert dist <= np.linalg.norm(v - u_no) + 1e-12


def test_continuity_at_the_switching_surface():
    chain = _make_chain()
    x = [2.0, 0.0, 1.0, 0.0]
    decision = safety_filter(chain, x, 0.0, [0.0, 0.0])
    row, offset = decision.row, decision.offset
    # walk u_no along the constraint normal so the slack crosses zero
    base = -row * (offset / (row @ row))
    deviations = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        u_no = base - row * (eps / (row @ row))
        d = safety_filter(chain, x, 0.0, u_no)
        assert d.branch == "corrected"
        assert np.isclose(d.slack, -eps, atol=1e-12)
        deviations.append(np.linalg.norm(d.u - u_no))
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 1e-8


def test_infeasible_at_degenerate_row():
    # at the obstacle center every chain gradient vanishes and the
    # constraint is violated, leaving no usable input direction
    chain = _make_chain()
    with pytest.raises(InfeasibleConstraintError):
        safety_filter(chain, [0.0, 0.0, 0.0, 0.0], 0.0, [0.0, 0.0])


def test_filter_checks_input_shape():
    chain = _make_chain()
    with pytest.raises(DimensionError):
        safety_filter(chain, [2.0, 0.0, 1.0, 0.0], 0.0, [0.0, 0.0, 0.0])
