"""Acceptance suite: one check per shipped guarantee.

Each test prints a single ``CRITERION k: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them all) and then
asserts, so a red run still reports what was measured.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from importlib.resources import files

import numpy as np

from tvcbf import cli
from tvcbf.barrier import BarrierChain, CircularObstacle, auto_gains, robust_margin
from tvcbf.chain import Channel, DisturbanceProfile, IntegratorChain, Sinusoid
from tvcbf.config import parse_config
from tvcbf.gains import GainSchedule, LinearGain
from tvcbf.qp import qp_oracle, safety_filter
from tvcbf.sim import (
    Scenario,
    chain_bound,
    run_scenario,
    safety_lower_bound,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _preset_path() -> str:
    return str(files("tvcbf") / "presets" / "paper_fig1.cfg")


def _silent_cli(args) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(args)


def _make_chain(order, levels, robust, theta, smoothing, include_time_partial=True):
    system = IntegratorChain(order=order, axes=2)
    schedule = GainSchedule(
        levels=levels,
        function=LinearGain(),
        exponent_factor=1.0,
        robust=robust,
    )
    return BarrierChain(
        system,
        CircularObstacle(center=(2.0, 2.0), radius=1.0),
        schedule,
        smoothing=smoothing,
        disturbance_bound=theta,
        include_time_partial=include_time_partial,
    )


def test_criterion_1_reference_comparison(tmp_path):
    t_start = time.perf_counter()
    code = _silent_cli(["compare", "--config", _preset_path(), "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t_start
    lines = (tmp_path / "compare.csv").read_text(encoding="utf-8").splitlines()
    table = {cells[0]: cells for cells in (line.split(",") for line in lines[1:])}
    srcbf_min = float(table["srcbf"][1])
    sbcbf_min = float(table["sbcbf"][1])
    nominal_err = float(table["nominal"][3])
    ok = (
        code == 0
        and srcbf_min > 0.0
        and sbcbf_min < 0.0
        and nominal_err <= 0.05
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        "reference comparison: robust min h1 "
        f"{srcbf_min:.4g} > 0, unperturbed-design min h1 {sbcbf_min:.4g} < 0, "
        f"nominal goal error {nominal_err:.3g} <= 0.05, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_filter_matches_projection_oracle():
    rng = np.random.default_rng(202)
    setups = [
        (_make_chain(2, (2.7, 3.0), False, 0.0, (0.2, 0.2), False), 1750),
        (_make_chain(2, (2.7, 3.0), True, 0.3, (0.2, 0.2)), 1750),
        (_make_chain(3, (2.7, 3.0, 2.0), True, 0.3, (1.0, 1.0, 1.0)), 1500),
    ]
    worst = 0.0
    instances = 0
    t_start = time.perf_counter()
    for chain, count in setups:
        n, m = chain.order, chain.axes
        for _ in range(count):
            direction = rng.normal(size=m)
            direction /= np.linalg.norm(direction)
            x = np.empty(n * m)
            x[:m] = np.array([2.0, 2.0]) + direction * rng.uniform(1.05, 4.0)
            x[m:] = rng.uniform(-2.0, 2.0, size=(n - 1) * m)
            t = float(rng.uniform(0.0, 3.0))
            for _ in range(2):
                u_no = rng.normal(scale=3.0, size=m)
                decision = safety_filter(chain, x, t, u_no)
                reference = qp_oracle(u_no, decision.row, -decision.offset)
                worst = max(worst, float(np.abs(decision.u - reference).max()))
                instances += 1
    elapsed = time.perf_counter() - t_start
    ok = instances == 10_000 and worst <= 1e-9 and elapsed < 5.0
    _report(
        2,
        ok,
        f"filter vs projection oracle on {instances} instances: "
        f"max deviation {worst:.3g} <= 1e-9, {elapsed:.1f}s < 5s",
    )


def test_criterion_3_margin_dominates_worst_case_term():
    rng = np.random.default_rng(33)
    min_slack = np.inf
    for _ in range(100_000):
        dim = int(rng.integers(1, 7))
        g = rng.normal(size=dim) * rng.uniform(0.0, 4.0)
        mu = float(rng.uniform(0.05, 3.0))
        theta = float(rng.uniform(0.0, 3.0))
        slack = robust_margin(g, mu, theta) - np.linalg.norm(g) * theta
        min_slack = min(min_slack, slack)

    worst_gap = 0.0
    for _ in range(300):
        mu = float(rng.uniform(0.1, 2.0))
        theta = float(rng.uniform(0.1, 2.0))
        unit = rng.normal(size=int(rng.integers(1, 7)))
        unit /= np.linalg.norm(unit)
        g = 2.0 * mu * theta * unit
        gap = abs(robust_margin(g, mu, theta) - np.linalg.norm(g) * theta)
        worst_gap = max(worst_gap, gap)

    ok = min_slack >= -1e-12 and worst_gap <= 1e-12
    _report(
        3,
        ok,
        "smooth margin dominates |g|*theta on 100000 draws "
        f"(min slack {min_slack:.3g}), equality gap {worst_gap:.3g} <= 1e-12 "
        "when |g| = 2*mu*theta",
    )


def test_criterion_4_unperturbed_decay_floor():
    base = parse_config((files("tvcbf") / "presets" / "paper_fig1.cfg").read_text())
    scenario = replace(base.scenario, mode="sbcbf", profile=None)
    trajectory = run_scenario(scenario)
    h1 = trajectory.barrier_values[:, 0]
    rho1 = scenario.barrier_gains[0]
    floors = np.array(
        [safety_lower_bound(h1[0], rho1, scenario.t0, t) for t in trajectory.times]
    )
    ratios = h1 / floors
    ok = trajectory.completed and bool(np.all(h1 >= 0.95 * floors))
    _report(
        4,
        ok,
        "disturbance-free filtered run stays above 0.95x the decay floor "
        f"at every sample (min ratio {ratios.min():.3f})",
    )


def _random_scenario(index: int) -> Scenario:
    rng = np.random.default_rng(1000 + index)
    order = 2 if index < 25 else 3
    axes = int(rng.integers(1, 3)) if order == 2 else 2
    exponent_factor = float(rng.choice([1.0, 1.5]))

    center = tuple(rng.uniform(1.5, 3.0, size=axes))
    radius = float(rng.uniform(0.5, 1.2))
    direction = rng.normal(size=axes)
    direction /= np.linalg.norm(direction)
    position = np.asarray(center) + direction * (radius + rng.uniform(0.5, 2.0))
    x0 = np.concatenate([position, rng.uniform(-0.3, 0.3, size=(order - 1) * axes)])

    channels = tuple(
        Channel(
            (
                Sinusoid(
                    float(rng.uniform(0.02, 0.08)),
                    float(rng.uniform(0.5, 3.0)),
                    float(rng.uniform(0.0, 2.0 * np.pi)),
                ),
            ),
            0.01,
        )
        for _ in range(order * axes)
    )

    if order == 2:
        smoothing = (float(rng.uniform(0.15, 0.6)),) * order
        last_gain, t_final, dt = 2.0, 2.5, 2.5e-3
    else:
        smoothing = (float(rng.uniform(1.0, 2.0)),) * order
        t_final, dt = 2.0, 2e-3
        last_gain = float(rng.uniform(1.5, 3.0)) if exponent_factor == 1.0 else 2.0

    return Scenario(
        system=IntegratorChain(order=order, axes=axes),
        oracle=CircularObstacle(center=center, radius=radius),
        x0=tuple(x0),
        goal=tuple(rng.uniform(3.0, 5.0, size=axes)),
        mode="srcbf",
        profile=DisturbanceProfile(channels=channels),
        auto_margin=float(rng.uniform(0.3, 0.5)),
        last_gain=last_gain,
        exponent_factor=exponent_factor,
        smoothing=smoothing,
        t_final=t_final,
        dt=dt,
        seed=index,
    )


def test_criterion_5_randomized_runs_hold_their_floors():
    failures = []
    t_start = time.perf_counter()
    for index in range(50):
        scenario = _random_scenario(index)
        trajectory = run_scenario(scenario)
        if not trajectory.completed:
            failures.append(f"run {index} aborted: {trajectory.annotation}")
            continue
        if trajectory.min_h1 < -1e-6:
            failures.append(f"run {index} min h1 {trajectory.min_h1:.3g}")
        n = scenario.system.order
        chain = trajectory.chain
        top = trajectory.barrier_values[:, n - 1]
        floors = np.array(
            [chain_bound(chain, n, top[0], scenario.t0, t) for t in trajectory.times]
        )
        if not np.all(top >= 0.95 * floors):
            failures.append(f"run {index} broke the level-{n} floor")
    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < 60.0
    _report(
        5,
        ok,
        "50 randomized filtered runs kept h1 >= -1e-6 and the top level "
        f"above 0.95x its decay floor, {elapsed:.1f}s < 60s"
        + ("" if not failures else f"; failures: {failures[:3]}"),
    )


def test_criterion_6_derivative_fidelity():
    rng = np.random.default_rng(66)
    setups = [
        (_make_chain(2, (2.7, 3.0), True, 0.3, (0.2, 0.2)), 500),
        (_make_chain(3, (2.7, 3.0, 2.0), True, 0.3, (1.0, 1.0, 1.0)), 500),
    ]
    h = 1e-5
    worst = 0.0
    count = 0
    for chain, draws in setups:
        n, m, dim = chain.order, chain.axes, chain.dim
        for _ in range(draws):
            direction = rng.normal(size=m)
            direction /= np.linalg.norm(direction)
            x = np.empty(dim)
            x[:m] = np.array([2.0, 2.0]) + direction * rng.uniform(1.1, 3.0)
            x[m:] = rng.uniform(-1.0, 1.0, size=dim - m)
            t = float(rng.uniform(0.0, 2.0))
            ev = chain.evaluate(x, t)
            fd_grad = np.empty(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                fd_grad[j] = (
                    chain.eval_level(n, x + e, t).value
                    - chain.eval_level(n, x - e, t).value
                ) / (2.0 * h)
            fd_tp = (
                chain.eval_level(n, x, t + h).value
                - chain.eval_level(n, x, t - h).value
            ) / (2.0 * h)
            scale = max(1.0, float(np.abs(fd_grad).max()))
            worst = max(worst, float(np.abs(ev.gradient - fd_grad).max()) / scale)
            worst = max(worst, abs(ev.time_partial - fd_tp) / max(1.0, abs(fd_tp)))
            count += 1
    ok = count == 1000 and worst < 1e-5
    _report(
        6,
        ok,
        f"gradients and time partials on {count} states: "
        f"worst relative error vs central differences {worst:.3g} < 1e-5",
    )


def test_criterion_7_gain_rule_soundness():
    rng = np.random.default_rng(77)
    failures = 0
    for trial in range(1000):
        order = 2 if trial < 700 else 3
        axes = int(rng.integers(1, 3))
        robust = bool(rng.integers(2))
        theta = float(rng.uniform(0.05, 0.5)) if robust else 0.0
        center = tuple(rng.uniform(-1.0, 3.0, size=axes))
        radius = float(rng.uniform(0.4, 1.5))
        direction = rng.normal(size=axes)
        direction /= np.linalg.norm(direction)
        position = np.asarray(center) + direction * (radius + rng.uniform(0.3, 2.0))
        x0 = np.concatenate(
            [position, rng.uniform(-1.0, 1.0, size=(order - 1) * axes)]
        )
        template = BarrierChain(
            IntegratorChain(order=order, axes=axes),
            CircularObstacle(center=center, radius=radius),
            GainSchedule(
                levels=(1.0,) * order,
                function=LinearGain(),
                exponent_factor=float(rng.choice([1.0, 1.5])),
                robust=robust,
            ),
            smoothing=(float(rng.uniform(0.2, 1.5)),) * order,
            disturbance_bound=theta,
        )
        t0 = float(rng.uniform(0.0, 1.0))
        schedule = auto_gains(
            template,
            x0,
            t0,
            margin=float(rng.uniform(0.1, 0.6)),
            last_gain=float(rng.uniform(0.5, 3.0)),
        )
        rows = template.with_levels(schedule.levels).validate_initialization(x0, t0)
        if not all(positive for _, _, positive in rows):
            failures += 1
    ok = failures == 0
    _report(
        7,
        ok,
        "initial-gain rule left every chain level positive on 1000 random "
        f"safe starts ({failures} failures)",
    )


def test_criterion_8_byte_identical_artifacts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = _silent_cli(["simulate", "--config", _preset_path(), "--out", str(out)])
        assert code == 0
    same = (out_a / "trajectory.csv").read_bytes() == (
        out_b / "trajectory.csv"
    ).read_bytes()
    _report(
        8,
        same,
        "two runs of the same config and seed wrote byte-identical "
        "trajectory CSVs",
    )
