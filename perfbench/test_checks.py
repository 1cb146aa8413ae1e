"""Tests for the benchmark's output checks and its tracer.

Each check passes on real program output and fails on that output
corrupted in one place.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    workload = workloads.Fig1Cli(3, tmp_path_factory.mktemp("fig1"))
    assert workload.round() == (40004, 0)
    return workload


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workload = workloads.FilterSweep(3, tmp_path_factory.mktemp("sweep"))
    assert workload.round() == (workload.calls, 0)
    return workload


@pytest.fixture(scope="module")
def poly(tmp_path_factory):
    workload = workloads.PolyLifted(3, tmp_path_factory.mktemp("poly"))
    assert workload.round() == (3201, 0)
    return workload


def _fig1_check_with(fig1, label, corrupt):
    """fig1.check() on a copy of the last round's tables, one corrupted."""
    saved = fig1._tables()
    tables = {k: v.copy() for k, v in saved.items()}
    corrupt(tables[label])
    fig1._last = tables
    try:
        return fig1.check()
    finally:
        fig1._last = saved


def _first_row(table, branch):
    return int(np.flatnonzero(table.branch == branch)[10])


def test_fig1_outputs_pass(fig1):
    assert fig1.check() == []


def test_fig1_moved_state_row_fails(fig1):
    def corrupt(table):
        table.x[5000] += 1e-6

    failures = _fig1_check_with(fig1, "srcbf", corrupt)
    assert any("srcbf" in f and "exact step" in f for f in failures)
    assert any("srcbf" in f and "h1 off its formula" in f for f in failures)


def test_fig1_changed_passthrough_input_fails(fig1):
    def corrupt(table):
        table.u[_first_row(table, "passthrough"), 1] += 1e-6

    failures = _fig1_check_with(fig1, "sbcbf", corrupt)
    assert any("sbcbf" in f and "feedback law" in f for f in failures)


def test_fig1_corrected_input_off_boundary_fails(fig1):
    def corrupt(table):
        table.u[_first_row(table, "corrected")] *= 1.0 + 1e-6

    failures = _fig1_check_with(fig1, "srcbf", corrupt)
    assert any("srcbf" in f and "exact step" in f for f in failures)


def test_fig1_disturbance_outside_noise_band_fails(fig1):
    def corrupt(table):
        table.d[100, 2] += 0.021

    failures = _fig1_check_with(fig1, "nominal", corrupt)
    assert any("nominal" in f and "noise part" in f for f in failures)


def test_comparison_outcome_must_hold(fig1):
    tables = fig1._tables()
    positive, negative = np.array([0.5, 0.2]), np.array([0.5, -0.01])
    goal = workloads.FIG1_GOAL
    assert checks.check_comparison(positive, negative, tables["nominal"], goal, 2) == []
    assert checks.check_comparison(negative, negative, tables["nominal"], goal, 2)
    assert checks.check_comparison(positive, positive, tables["nominal"], goal, 2)
    late = tables["nominal"].copy()
    late.x[-1, 0] += 0.1
    assert checks.check_comparison(positive, negative, late, goal, 2)
    assert checks.check_same_bytes("csv", b"1.0\n", b"1.0000000000000002\n")


def _sweep_check_with(sweep, corrupt):
    saved = sweep.decisions
    sweep.decisions = list(saved)
    corrupt(sweep.decisions)
    try:
        return sweep.check()
    finally:
        sweep.decisions = saved


def _index(decisions, branch):
    return next(i for i, d in enumerate(decisions) if d.branch == branch)


def test_sweep_outputs_pass(sweep):
    assert sweep.check() == []


def test_sweep_changed_passthrough_input_fails(sweep):
    def corrupt(decisions):
        i = _index(decisions, "passthrough")
        decisions[i] = dataclasses.replace(decisions[i], u=decisions[i].u + 1e-6)

    assert any("sweep passthrough" in f for f in _sweep_check_with(sweep, corrupt))


def test_sweep_corrected_input_off_boundary_fails(sweep):
    def corrupt(decisions):
        i = _index(decisions, "corrected")
        d = decisions[i]
        decisions[i] = dataclasses.replace(d, u=d.u + 1e-6 * d.row / np.linalg.norm(d.row))

    assert any("sweep active" in f for f in _sweep_check_with(sweep, corrupt))


def test_sweep_correction_across_the_row_fails(sweep):
    def corrupt(decisions):
        i = _index(decisions, "corrected")
        d = decisions[i]
        across = np.array([-d.row[1], d.row[0]]) / np.linalg.norm(d.row)
        decisions[i] = dataclasses.replace(d, u=d.u + 1e-6 * across)

    assert any("sweep direction" in f for f in _sweep_check_with(sweep, corrupt))


def test_sweep_wrong_branch_fails(sweep):
    def corrupt(decisions):
        i = _index(decisions, "passthrough")
        decisions[i] = dataclasses.replace(decisions[i], branch="corrected")

    assert any("sweep branch" in f for f in _sweep_check_with(sweep, corrupt))


def test_h1_formula_check_fails_on_a_moved_value():
    x = np.array([[3.0, 2.0, 0.0, 0.0], [4.0, 4.0, 1.0, 1.0]])
    ref = checks.circle_h1(x, 2, (2.0, 2.0), 1.0)
    assert np.allclose(ref, [0.0, 3.5])
    assert checks.check_h1("h", ref, ref) == []
    assert checks.check_h1("h", ref + np.array([0.0, 1e-6]), ref)
    assert np.allclose(checks.halfplane_h1(x, (0.6, 0.8), 1.0), [2.4, 4.6])


def test_poly_outputs_pass(poly):
    assert poly.check() == []


def test_poly_trajectory_offset_fails(poly):
    saved = poly.trajectory
    poly.trajectory = dataclasses.replace(saved, states=saved.states + 1e-6)
    try:
        failures = poly.check()
    finally:
        poly.trajectory = saved
    assert any("poly vs circle x" in f for f in failures)


def test_level_floor_fails_below_the_floor(poly):
    table = checks.table_from_trajectory(poly.trajectory)
    assert checks.check_level_floor("poly", table, 3, 5.0, 3.0) == []
    table.h[4, 2] = 0.5 * table.h[0, 2]  # the floor at t = 0.01 is 0.90 h3(0)
    assert checks.check_level_floor("poly", table, 3, 5.0, 3.0)


def test_exact_step_is_the_integrator_solution():
    # one axis, order 3, from rest under u = 6 and no disturbance:
    # position 6 t^3 / 6 = t^3, velocity 3 t^2, acceleration 6 t
    x = np.zeros((1, 3))
    step = checks.exact_step(x, np.array([[6.0]]), np.zeros((1, 3)), 3, 1, 0.5)
    assert np.allclose(step, [[0.125, 0.75, 3.0]])


def test_count_check_reports_mismatch():
    assert checks.check_counts({"a": 4}, {"a": 4}) == []
    assert checks.check_counts({"a": 3}, {"a": 4})
    assert checks.check_counts({}, {"a": 1})


def test_tracer_counts_calls_through_module_bindings():
    from tvcbf import sim
    from tvcbf.barrier import CircularObstacle
    from tvcbf.chain import IntegratorChain

    scenario = sim.Scenario(
        system=IntegratorChain(order=2, axes=2),
        oracle=CircularObstacle((2.0, 2.0), 1.0),
        x0=(0.0, 0.0, 0.0, 0.0),
        goal=(4.0, 4.0),
        t_final=0.01,
    )
    original = sim.apply_filter
    tracer = Tracer()
    tracer.install()
    try:
        trajectory = sim.run_scenario(scenario)
    finally:
        tracer.uninstall()
    assert sim.apply_filter is original
    counts = {name: calls for name, (calls, _, _) in tracer.summary([0]).items()}
    rows = len(trajectory.times)
    assert rows == 11
    assert counts["qp.apply_filter"] == rows
    assert counts["sim.rk4_step"] == rows - 1
    assert counts["chain.dynamics"] == 4 * (rows - 1)
    assert counts["chain.sample_disturbance"] == 0  # no disturbance profile
    assert counts["sim.run_scenario"] == 1
    calls, total, own = tracer.summary([0])["sim.run_scenario"]
    assert 0.0 < own < total


def test_rebind_reaches_every_binding():
    import tvcbf
    import tvcbf.cli
    import tvcbf.sim

    original = tvcbf.sim.run_scenario
    saved = spans.rebind(original, "stand-in")
    try:
        assert tvcbf.sim.run_scenario == "stand-in"
        assert tvcbf.cli.run_scenario == "stand-in"
        assert tvcbf.run_scenario == "stand-in"
    finally:
        spans.restore(saved)
    assert tvcbf.sim.run_scenario is tvcbf.cli.run_scenario is tvcbf.run_scenario is original
