"""Closed-loop simulation harness: integrator step, controller modes,
metrics, determinism and the analytic decay floors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tvcbf.barrier import CircularObstacle
from tvcbf.chain import Channel, DisturbanceProfile, IntegratorChain, Sinusoid
from tvcbf.errors import (
    DimensionError,
    DomainError,
    NumericalBlowupError,
    ParameterError,
    UnsafeInitializationError,
)
from tvcbf.gains import LinearGain, PolynomialGain, PrescribedTimeGain
from tvcbf.barrier import BarrierChain
from tvcbf.sim import (
    HOLD_BLOCK,
    Scenario,
    Trajectory,
    build_chain,
    chain_bound,
    default_nominal_gains,
    rk4_step,
    run_scenario,
    safety_lower_bound,
    state_feedback,
    write_trajectory_csv,
)

REFERENCE_THETA = 0.2942787793912432


def _profile(noise=0.02):
    half_pi = math.pi / 2.0
    return DisturbanceProfile(
        channels=(
            Channel((Sinusoid(0.1, 2.0),), noise),
            Channel((Sinusoid(0.1, 3.0, half_pi),), noise),
            Channel((Sinusoid(0.15, 1.0),), noise),
            Channel((Sinusoid(0.15, 2.0, half_pi),), noise),
        )
    )


def _scenario(**overrides):
    base = dict(
        system=IntegratorChain(order=2, axes=2),
        oracle=CircularObstacle(center=(2.0, 2.0), radius=1.0),
        x0=(0.0, 0.0, 0.0, 0.0),
        goal=(4.0, 4.0),
        mode="srcbf",
        profile=_profile(),
        t_final=2.0,
        dt=2e-3,
    )
    base.update(overrides)
    return Scenario(**base)


# -- integrator ---------------------------------------------------------


def test_rk4_exponential_step():
    out = rk4_step(lambda t, x: x, np.array([1.0]), 0.0, 0.1)
    h = 0.1
    taylor4 = 1.0 + h + h**2 / 2.0 + h**3 / 6.0 + h**4 / 24.0
    assert np.isclose(out[0], taylor4, rtol=1e-15)
    assert abs(out[0] - math.exp(0.1)) < 1e-7


def test_rk4_trivial_fields():
    x = np.array([2.0, -1.0])
    assert np.array_equal(rk4_step(lambda t, x: np.zeros(2), x, 0.0, 0.5), x)
    assert np.array_equal(
        rk4_step(lambda t, x: np.ones(2), x, 0.0, 0.5), x + 0.5
    )


def test_rk4_detects_blowup():
    with pytest.raises(NumericalBlowupError) as info:
        rk4_step(lambda t, x: np.array([math.inf]), np.array([1.0]), 2.0, 0.1)
    assert info.value.t == 2.0
    with pytest.raises(ParameterError):
        rk4_step(lambda t, x: x, np.array([1.0]), 0.0, 0.0)


def test_rk4_uses_stage_times():
    seen = []

    def field(t, x):
        seen.append(t)
        return np.zeros(1)

    rk4_step(field, np.array([0.0]), 1.0, 0.2)
    assert seen == [1.0, 1.1, 1.1, 1.2]


# -- controllers --------------------------------------------------------


def test_default_nominal_gains():
    assert default_nominal_gains(1) == (4.0,)
    assert default_nominal_gains(2) == (16.0, 8.0)
    assert default_nominal_gains(3) == (64.0, 48.0, 12.0)
    with pytest.raises(ParameterError):
        default_nominal_gains(0)


def test_nominal_controller_worked_examples():
    # the PD law u = -kp (p - p_d) - kd v of the double-integrator layout
    u = state_feedback([1.0, 0.0, 0.0, 0.0], [0.0, 0.0], (1.0, 2.0))
    assert np.array_equal(u, [-1.0, 0.0])
    assert np.array_equal(
        state_feedback([3.0, -2.0, 0.0, 0.0], [3.0, -2.0], (1.0, 2.0)), [0.0, 0.0]
    )
    assert np.array_equal(
        state_feedback([0.0, 0.0, 2.0, -1.0], [0.0, 0.0], (0.0, 1.0)), [-2.0, 1.0]
    )


def test_state_feedback_higher_order():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    u = state_feedback(x, [0.0, 0.0], (2.0, 3.0, 4.0))
    assert np.array_equal(u, [-2.0 - 9.0 - 20.0, -4.0 - 12.0 - 24.0])
    with pytest.raises(DimensionError):
        state_feedback([1.0, 2.0], [0.0, 0.0], (1.0, 2.0))


# -- scenario plumbing --------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ParameterError):
        _scenario(mode="fancy")
    with pytest.raises(ParameterError):
        _scenario(dt=0.0)
    with pytest.raises(ParameterError):
        _scenario(t_final=0.0, t0=1.0)
    with pytest.raises(DimensionError):
        _scenario(x0=(0.0, 0.0))
    with pytest.raises(DimensionError):
        _scenario(goal=(4.0,))
    with pytest.raises(DimensionError):
        _scenario(profile=DisturbanceProfile(channels=(Channel(),)))
    # a step that does not land on t_final would end the grid early
    for t0, t_final, dt in ((0.0, 10.0, 0.3), (0.0, 1.0, 0.3), (0.5, 2.0, 0.4)):
        with pytest.raises(ParameterError, match=r"dt .* t_final"):
            _scenario(t0=t0, t_final=t_final, dt=dt)


def test_scenario_grid_and_gains():
    s = _scenario(t_final=1.0, dt=0.1)
    assert s.steps == 10
    assert _scenario(t_final=0.3, dt=1e-2).steps == 30  # 29.999999999999996
    assert _scenario(t0=0.5, t_final=8.0, dt=2.5e-3).steps == 3000
    assert s.feedback_gains() == (16.0, 8.0)
    assert _scenario(nominal_gains=(1.0, 2.0)).feedback_gains() == (1.0, 2.0)


def test_build_chain_modes():
    srcbf = build_chain(_scenario())
    assert srcbf.robust
    assert srcbf.disturbance_bound == REFERENCE_THETA
    assert all(g > 0 for g in srcbf.schedule.levels)

    sbcbf = build_chain(_scenario(mode="sbcbf"))
    assert not sbcbf.robust
    assert sbcbf.disturbance_bound == 0.0

    pinned = build_chain(_scenario(barrier_gains=(2.7, 3.0)))
    assert pinned.schedule.levels == (2.7, 3.0)

    nominal = build_chain(_scenario(mode="nominal"))
    assert nominal.schedule.levels == (1.0, 1.0)


# -- closed-loop runs ---------------------------------------------------


def test_nominal_reaches_goal_without_obstacle():
    s = _scenario(
        mode="nominal",
        oracle=CircularObstacle(center=(50.0, 50.0), radius=1.0),
        goal=(-2.0, -1.0),
        profile=None,
        t_final=3.0,
        dt=1e-2,
    )
    tr = run_scenario(s)
    assert tr.completed
    assert tr.goal_error < 0.01
    assert set(tr.branches) == {"nominal"}
    assert not tr.violation


def test_filtered_run_records_branches_and_stays_safe():
    tr = run_scenario(_scenario(t_final=2.5))
    assert tr.completed
    assert not tr.violation
    assert set(tr.branches) <= {"passthrough", "corrected"}
    assert "corrected" in tr.branches
    assert tr.times.shape[0] == tr.scenario.steps + 1
    assert np.isclose(tr.times[-1], 2.5, atol=1e-12)


def test_violation_flag_tracks_min_h1():
    tr = run_scenario(_scenario(mode="nominal", t_final=3.0, dt=5e-3))
    assert tr.min_h1 < 0.0
    assert tr.violation


def test_unsafe_start_raises_for_filtered_modes():
    inside = (2.0, 2.2, 0.0, 0.0)
    with pytest.raises(UnsafeInitializationError):
        run_scenario(_scenario(x0=inside))
    # the unfiltered mode only records the chain and must still run
    tr = run_scenario(
        _scenario(mode="nominal", x0=inside, t_final=0.2, dt=1e-2)
    )
    assert tr.times.shape[0] == 21


def test_init_warning_on_pinned_gains():
    # the reference gains leave level 2 negative at the start under the
    # robust construction; the run proceeds but says so
    tr = run_scenario(
        _scenario(barrier_gains=(2.7, 3.0), t_final=0.1, dt=1e-2)
    )
    assert tr.init_warning is not None
    assert "h2" in tr.init_warning
    assert tr.completed


def test_partial_abort_on_gain_singularity():
    s = _scenario(
        mode="sbcbf",
        profile=None,
        barrier_gains=(1.0, 1.0),
        gain_function=PrescribedTimeGain(scale=1.0, terminal_time=1.0),
        t0=0.5,
        t_final=2.0,
        dt=0.1,
    )
    tr = run_scenario(s)
    assert not tr.completed
    assert "aborted at" in tr.annotation
    assert tr.times.shape[0] == 5  # samples at 0.5 .. 0.9
    assert np.isfinite(tr.states).all()


@pytest.mark.parametrize("mode", ["nominal", "sbcbf", "srcbf"])
def test_mid_block_gain_singularity_aborts_as_single_instants(monkeypatch, mode):
    # the prescribed-time gain raises from t = 0.1, grid instant 100, which
    # falls inside the second held block; the run must stop exactly where
    # stepping without held blocks stops
    s = _scenario(
        mode=mode,
        system=IntegratorChain(order=3, axes=2),
        x0=(0.0,) * 6,
        profile=DisturbanceProfile(_profile().channels + (Channel((), 0.02),) * 2),
        barrier_gains=(2.0, 1.5, 1.0),
        gain_function=PrescribedTimeGain(scale=0.05, terminal_time=0.1),
        t_final=0.2,
        dt=1e-3,
    )
    assert 100 % HOLD_BLOCK != 0
    held = run_scenario(s)
    monkeypatch.setattr(BarrierChain, "hold", lambda self, times: None)
    single = run_scenario(s)
    assert held.times.shape[0] == single.times.shape[0] == 100
    assert held.annotation == single.annotation
    assert held.annotation == (
        "aborted at t=0.1: prescribed-time gain queried at t=0.1 >= terminal time 0.1"
    )
    for name in ("times", "states", "inputs", "disturbances", "barrier_values"):
        assert np.array_equal(getattr(held, name), getattr(single, name))
    assert held.branches == single.branches


def test_gain_power_taken_once_per_instant_and_level(monkeypatch):
    calls = []
    power_jet = LinearGain.power_jet

    def counted(self, k, t):
        calls.append((k, t))
        return power_jet(self, k, t)

    monkeypatch.setattr(LinearGain, "power_jet", counted)
    s = _scenario(
        system=IntegratorChain(order=3, axes=2),
        x0=(0.0,) * 6,
        barrier_gains=(2.0, 1.5, 1.0),
        profile=None,
        t_final=0.3,
        dt=2e-3,
    )
    tr = run_scenario(s)
    assert tr.completed and tr.times.shape[0] == 151
    assert len(calls) == 151 * 3
    want = {(k, float(t)) for k in (1.0, 2.0, 3.0) for t in tr.times}
    assert sorted(calls) == sorted(want)


def test_empty_trajectory_metrics():
    s = _scenario()
    empty = Trajectory(
        times=np.empty(0),
        states=np.empty((0, 4)),
        inputs=np.empty((0, 2)),
        disturbances=np.empty((0, 4)),
        barrier_values=np.empty((0, 2)),
        branches=[],
        scenario=s,
        chain=build_chain(s),
        annotation="aborted at t=0: boom",
    )
    assert math.isnan(empty.min_h1)
    assert math.isnan(empty.goal_error)
    assert empty.control_effort == 0.0
    assert not empty.violation
    assert not empty.completed


def test_metric_arithmetic_matches_hand_computation():
    tr = run_scenario(_scenario(t_final=0.5, dt=1e-2))
    f = np.sum(tr.inputs**2, axis=1)
    dt = np.diff(tr.times)
    assert np.isclose(
        tr.control_effort, float(np.sum(dt * (f[:-1] + f[1:]) / 2.0)), rtol=1e-12
    )
    assert np.isclose(
        tr.goal_error, float(np.linalg.norm(tr.states[-1, :2] - [4.0, 4.0]))
    )
    assert tr.min_h1 == tr.barrier_values[:, 0].min()


def test_determinism_bitwise():
    s = _scenario(t_final=1.5)
    a = run_scenario(s)
    b = run_scenario(s)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.disturbances, b.disturbances)
    assert np.array_equal(a.barrier_values, b.barrier_values)
    assert a.branches == b.branches

    c = run_scenario(_scenario(t_final=1.5, seed=1))
    assert not np.array_equal(a.disturbances, c.disturbances)


def test_rk4_order_on_the_closed_loop():
    common = dict(
        mode="nominal",
        oracle=CircularObstacle(center=(50.0, 50.0), radius=1.0),
        profile=None,
        goal=(1.0, -1.0),
        t_final=1.0,
    )

    def terminal(dt):
        return run_scenario(_scenario(dt=dt, **common)).states[-1]

    ref = terminal(0.05 / 8.0)
    e1 = np.linalg.norm(terminal(0.05) - ref)
    e2 = np.linalg.norm(terminal(0.025) - ref)
    assert e1 / e2 >= 8.0 * 0.8


# -- analytic floors ----------------------------------------------------


def test_safety_lower_bound_values():
    assert np.isclose(
        safety_lower_bound(4.0, 2.7, 0.0, 1.0), 4.0 * math.exp(-4.05), rtol=1e-12
    )
    assert np.isclose(safety_lower_bound(4.0, 2.7, 0.0, 1.0), 0.0697, rtol=1e-3)
    assert safety_lower_bound(3.3, 2.7, 1.5, 1.5) == 3.3
    assert np.isclose(safety_lower_bound(4.0, 1e-12, 0.0, 2.0), 4.0, rtol=1e-9)


def test_safety_lower_bound_guards():
    safety_lower_bound(1.0, 1.0, 0.0, 1.0, gain=LinearGain())
    with pytest.raises(ParameterError):
        safety_lower_bound(1.0, 1.0, 0.0, 1.0, gain=PolynomialGain(power=2.0))
    with pytest.raises(ParameterError):
        safety_lower_bound(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        safety_lower_bound(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        safety_lower_bound(1.0, 1.0, 1.0, 0.5)


def test_chain_bound_values():
    chain = build_chain(_scenario(barrier_gains=(3.0, 1.0)))
    # the linear gain integrates to 2 at t = sqrt(5) - 1
    t = math.sqrt(5.0) - 1.0
    assert np.isclose(chain_bound(chain, 1, 1.0, 0.0, t), math.exp(-6.0), rtol=1e-12)
    assert chain_bound(chain, 2, 2.5, 0.7, 0.7) == 2.5
    with pytest.raises(ParameterError):
        chain_bound(chain, 3, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        chain_bound(chain, 1, 0.0, 0.0, 1.0)


def test_chain_bound_never_exceeds_level1_closed_form():
    # the closed form restarts the gain clock at t0, so it lies at or
    # above the exact-integral floor; they agree when t0 = 0
    chain = build_chain(_scenario(barrier_gains=(2.7, 3.0)))
    for t in (0.0, 0.5, 1.7, 4.0):
        assert np.isclose(
            chain_bound(chain, 1, 3.5, 0.0, t),
            safety_lower_bound(3.5, 2.7, 0.0, t),
            rtol=1e-12,
        )
    for t0 in (0.3, 1.0):
        for span in (0.1, 1.0, 2.5):
            exact = chain_bound(chain, 1, 3.5, t0, t0 + span)
            restarted = safety_lower_bound(3.5, 2.7, t0, t0 + span)
            assert exact <= restarted * (1.0 + 1e-12)


def test_level_floors_hold_along_filtered_run():
    tr = run_scenario(_scenario(t_final=2.0))
    chain = tr.chain  # the chain the run evaluated, auto gains included
    assert chain.schedule == build_chain(tr.scenario).schedule
    h = tr.barrier_values
    floor1 = np.array(
        [safety_lower_bound(h[0, 0], chain.schedule.levels[0], 0.0, t)
         for t in tr.times]
    )
    assert np.all(h[:, 0] >= 0.95 * floor1)
    floor2 = np.array(
        [chain_bound(chain, 2, h[0, 1], 0.0, t) for t in tr.times]
    )
    assert np.all(h[:, 1] >= 0.95 * floor2)


# -- serialization ------------------------------------------------------


def test_csv_schema_and_roundtrip(tmp_path):
    tr = run_scenario(_scenario(t_final=0.3, dt=1e-2))
    out = tmp_path / "run.csv"
    write_trajectory_csv(tr, out)
    lines = out.read_text().splitlines()
    dim, m, n = 4, 2, 2
    assert lines[0] == "t,x1,x2,x3,x4,u1,u2,d1,d2,d3,d4,h1,h2,branch"
    assert len(lines) == tr.times.shape[0] + 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 1 + dim + m + dim + n + 1
        assert cells[-1] in ("passthrough", "corrected")
    # repr floats survive the round trip exactly
    row = lines[1].split(",")
    assert float(row[0]) == tr.times[0]
    assert [float(v) for v in row[1:5]] == list(tr.states[0])
    assert [float(v) for v in row[11:13]] == list(tr.barrier_values[0])


def test_csv_cells_are_repr_of_stored_floats(tmp_path):
    tr = run_scenario(_scenario(t_final=0.1, dt=1e-2))
    out = tmp_path / "run.csv"
    write_trajectory_csv(tr, out)
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == tr.times.shape[0]
    for i, line in enumerate(lines):
        stored = [
            tr.times[i],
            *tr.states[i],
            *tr.inputs[i],
            *tr.disturbances[i],
            *tr.barrier_values[i],
        ]
        assert line.split(",") == [repr(float(v)) for v in stored] + [tr.branches[i]]


def test_csv_bytes_identical_across_runs(tmp_path):
    s = _scenario(t_final=0.8)
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_trajectory_csv(run_scenario(s), path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
