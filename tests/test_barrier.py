"""Backstepping barrier chains: hand-worked values, derivative
fidelity against finite differences and a symbolic mirror, and the
initial-gain selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib.resources import files

import numpy as np
import pytest
import sympy as sp

from tvcbf.barrier import (
    BarrierChain,
    CircularObstacle,
    HalfPlane,
    PolynomialBarrier,
    auto_gains,
    robust_margin,
)
from tvcbf.chain import IntegratorChain
from tvcbf.config import load_config
from tvcbf.errors import (
    DimensionError,
    DomainError,
    ParameterError,
    UnsafeInitializationError,
)
from tvcbf.gains import (
    ExponentialGain,
    GainSchedule,
    LinearGain,
    PolynomialGain,
    PrescribedTimeGain,
)
from tvcbf.qp import safety_filter
from tvcbf.sim import HOLD_BLOCK, run_scenario

REFERENCE_THETA = 0.2942787793912432  # stacked bound of the reference profile


def _chain(
    order=2,
    axes=2,
    levels=None,
    robust=False,
    theta=0.0,
    smoothing=None,
    center=(0.0, 0.0),
    radius=1.0,
    exponent_factor=1.0,
    include_time_partial=True,
):
    system = IntegratorChain(order=order, axes=axes)
    if levels is None:
        levels = (1.0,) * order
    schedule = GainSchedule(
        levels=tuple(levels),
        function=LinearGain(),
        exponent_factor=exponent_factor,
        robust=robust,
    )
    return BarrierChain(
        system,
        CircularObstacle(center=center, radius=radius),
        schedule,
        smoothing=smoothing,
        disturbance_bound=theta,
        include_time_partial=include_time_partial,
    )


# -- oracles ------------------------------------------------------------


def test_circular_obstacle_values():
    h = CircularObstacle(center=(0.0, 0.0), radius=1.0)
    assert h([2.0, 0.0, 1.0, 0.0]) == 1.5
    assert h([0.0, 0.0, 0.0, 0.0]) == -0.5
    reference = CircularObstacle(center=(2.0, 2.0), radius=1.0)
    assert reference([0.0, 0.0, 0.0, 0.0]) == 3.5
    with pytest.raises(ParameterError):
        CircularObstacle(center=(0.0,), radius=0.0)
    with pytest.raises(ParameterError):
        CircularObstacle(center=(), radius=1.0)


def test_half_plane_values():
    h = HalfPlane(normal=(1.0, -2.0), offset=0.5)
    assert h([3.0, 1.0, 9.9, 9.9]) == 0.5
    with pytest.raises(ParameterError):
        HalfPlane(normal=(0.0, 0.0))


def test_polynomial_barrier_values():
    # 2 x1^2 x2 - 3 x3
    h = PolynomialBarrier(terms=((2.0, ((0, 2), (1, 1))), (-3.0, ((2, 1),))))
    assert h([1.0, 2.0, 1.0]) == 1.0
    with pytest.raises(ParameterError):
        PolynomialBarrier(terms=())
    with pytest.raises(ParameterError):
        PolynomialBarrier(terms=((1.0, ((0, 0),)),))


# -- the smooth margin --------------------------------------------------


def test_robust_margin_worked_examples():
    assert np.isclose(robust_margin((2.0, 0.0), 0.2, 1.0), 5.2, rtol=1e-14)
    assert robust_margin((0.0, 0.0), 0.7, 0.0) == 0.0
    # equality with |g| theta exactly at |g| = 2 mu theta
    val = robust_margin((1.0, 0.0), 0.5, 1.0)
    assert val == 1.0


def test_robust_margin_dominates_worst_case():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        dim = int(rng.integers(1, 7))
        g = rng.uniform(-3.0, 3.0, size=dim)
        mu = float(rng.uniform(0.05, 3.0))
        theta = float(rng.uniform(0.0, 2.0))
        assert robust_margin(g, mu, theta) >= np.linalg.norm(g) * theta - 1e-12


def test_robust_margin_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        robust_margin((1.0,), 0.0, 1.0)
    with pytest.raises(ParameterError):
        robust_margin((1.0,), -0.3, 1.0)
    with pytest.raises(ParameterError):
        robust_margin((1.0,), 0.2, -0.1)


# -- chain construction -------------------------------------------------


def test_chain_validates_inputs():
    with pytest.raises(ParameterError):
        _chain(order=2, levels=(1.0,))  # level count mismatch
    with pytest.raises(ParameterError):
        _chain(order=2, smoothing=(0.2,))
    with pytest.raises(ParameterError):
        _chain(order=2, smoothing=(0.2, -0.1), robust=True)
    with pytest.raises(ParameterError):
        _chain(order=2, theta=0.1)  # bound without the robust construction
    with pytest.raises(ParameterError):
        _chain(order=2, robust=True, theta=-0.1)
    with pytest.raises(DimensionError):
        _chain(order=2, axes=2, center=(0.0,) * 5)  # center longer than the state
    with pytest.raises(DimensionError):  # x3 on a two-entry state
        BarrierChain(
            IntegratorChain(order=2, axes=1),
            PolynomialBarrier(((1.0, ((0, 2),)), (1.0, ((2, 1),)))),
            GainSchedule(levels=(1.0, 1.0), function=LinearGain()),
        )


def test_chain_checks_declared_smoothness():
    class RoughBarrier:
        smoothness_order = 1

        def __call__(self, x):
            return x[0]

    system = IntegratorChain(order=2, axes=1)
    schedule = GainSchedule(levels=(1.0, 1.0), function=LinearGain())
    with pytest.raises(ParameterError):
        BarrierChain(system, RoughBarrier(), schedule)


def test_with_levels_copies():
    chain = _chain(levels=(1.0, 1.0))
    other = chain.with_levels((2.5, 3.5))
    assert other.schedule.levels == (2.5, 3.5)
    assert chain.schedule.levels == (1.0, 1.0)
    assert other.oracle is chain.oracle


# -- worked chain evaluations -------------------------------------------


def test_unperturbed_levels_by_hand():
    # unit circle at the origin, state (p, v) = ((2, 0), (1, 0))
    chain = _chain()
    x = [2.0, 0.0, 1.0, 0.0]
    e1 = chain.eval_level(1, x, 0.0)
    assert e1.value == 1.5
    assert np.array_equal(e1.gradient, [2.0, 0.0, 0.0, 0.0])
    assert e1.time_partial == 0.0

    e2 = chain.eval_level(2, x, 0.0)
    # h2 = rho1 * (1+t) * h1 + (p - c) . v
    assert e2.value == 3.5
    assert np.array_equal(e2.gradient, [3.0, 0.0, 2.0, 0.0])
    # d h2 / dt = rho1 * h1 at t = 0
    assert e2.time_partial == 1.5


def test_robust_level_by_hand():
    chain = _chain(robust=True, theta=1.0, smoothing=(0.2, 0.2))
    x = [2.0, 0.0, 1.0, 0.0]
    e2 = chain.eval_level(2, x, 0.0)
    # margin: |grad h1|^2 / (4 mu) + mu theta^2 = 4 / 0.8 + 0.2 = 5.2
    assert np.isclose(e2.value, 3.5 - 5.2, rtol=1e-14)
    # gradient loses Hess(h1) . grad(h1) / (2 mu) = (5, 0, 0, 0)
    assert np.allclose(e2.gradient, [-2.0, 0.0, 2.0, 0.0], atol=1e-14)


def test_reference_scenario_levels():
    # obstacle (2, 2) radius 1, start at rest at the origin
    x0 = [0.0, 0.0, 0.0, 0.0]
    unper = _chain(levels=(2.7, 3.0), center=(2.0, 2.0))
    ev = unper.evaluate(x0, 0.0)
    assert np.allclose(ev.values, [3.5, 9.45], rtol=1e-14)

    robust = _chain(
        levels=(2.7, 3.0), center=(2.0, 2.0), robust=True, theta=REFERENCE_THETA
    )
    ev = robust.evaluate(x0, 0.0)
    expected_margin = 8.0 / 0.8 + 0.2 * REFERENCE_THETA**2
    assert np.isclose(ev.values[1], 9.45 - expected_margin, rtol=1e-12)
    assert np.isclose(ev.values[1], -0.56732, atol=5e-6)


def test_evaluate_matches_eval_level():
    rng = np.random.default_rng(29)
    chain = _chain(order=3, levels=(2.0, 1.5, 1.0), robust=True, theta=0.3,
                   smoothing=(0.5, 0.5, 0.5), center=(1.0, -1.0))
    for _ in range(10):
        x = rng.uniform(-3.0, 3.0, size=6)
        t = float(rng.uniform(0.0, 2.0))
        ev = chain.evaluate(x, t)
        for i in range(1, 4):
            level = chain.eval_level(i, x, t)
            assert np.isclose(ev.values[i - 1], level.value, rtol=1e-13)
        top = chain.eval_level(3, x, t)
        assert np.allclose(ev.gradient, top.gradient, rtol=1e-13)
        assert np.isclose(ev.time_partial, top.time_partial, rtol=1e-13)
        drift = chain.system.drift(x)
        assert np.isclose(ev.drift_rate, float(top.gradient @ drift), rtol=1e-13)
        assert np.isclose(
            ev.level1_gradient_norm,
            np.linalg.norm(chain.eval_level(1, x, t).gradient),
            rtol=1e-13,
        )


def _assert_evaluations_equal(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.gradient, b.gradient)
    assert a.time_partial == b.time_partial
    assert a.drift_rate == b.drift_rate
    assert a.level1_gradient_norm == b.level1_gradient_norm
    assert a.next_level == b.next_level


def test_reused_instant_matches_fresh_chains():
    # one chain called at t1, t2, t1 with eval_level and the filter in
    # between reuses the coefficients of the last instant; every result
    # must equal that of a chain built for the single call
    def build(levels=(2.0, 1.5, 1.0)):
        return _chain(order=3, levels=levels, robust=True, theta=0.3,
                      smoothing=(0.5, 0.4, 0.3), center=(1.0, -1.0),
                      exponent_factor=1.5)

    rng = np.random.default_rng(41)
    chain = build()
    for t in (0.25, 1.75, 0.25):
        for _ in range(3):
            x = rng.uniform(-3.0, 3.0, size=6)
            u_no = rng.uniform(-5.0, 5.0, size=2)
            ev = chain.evaluate(x, t)
            _assert_evaluations_equal(ev, build().evaluate(x, t))
            ev.gradient[:] = 1e9  # returned arrays are the caller's own
            _assert_evaluations_equal(chain.evaluate(x, t), build().evaluate(x, t))
            for i in range(1, 4):
                level, want = chain.eval_level(i, x, t), build().eval_level(i, x, t)
                assert level.value == want.value
                assert np.array_equal(level.gradient, want.gradient)
                assert level.time_partial == want.time_partial
                level.gradient[:] = -1e9
            got = safety_filter(chain, x, t, u_no)
            want = safety_filter(build(), x, t, u_no)
            assert np.array_equal(got.u, want.u) and got.slack == want.slack
            assert np.array_equal(got.row, want.row) and got.offset == want.offset
            assert got.branch == want.branch
    # a copy with other gains starts without the cached instant
    _assert_evaluations_equal(
        chain.with_levels((3.0, 2.0, 1.0)).evaluate(x, t),
        build((3.0, 2.0, 1.0)).evaluate(x, t),
    )
    # a time outside the gain's domain is never kept: every call raises,
    # also after level 1 (which needs no gain) was evaluated there
    chain.eval_level(1, x, -0.5)
    for _ in range(2):
        with pytest.raises(DomainError):
            chain.evaluate(x, -0.5)
        with pytest.raises(DomainError):
            chain.eval_level(2, x, -0.5)
        with pytest.raises(DomainError):
            safety_filter(chain, x, -0.5, u_no)
    _assert_evaluations_equal(chain.evaluate(x, t), build().evaluate(x, t))


HOLD_GAINS = (
    LinearGain(),
    PolynomialGain(power=1.5),
    ExponentialGain(scale=0.8, rate=0.5),
    PrescribedTimeGain(scale=2.0, terminal_time=1.0),
)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_held_block_matches_single_instants(order):
    # a chain that holds blocks of grid instants, as run_scenario does,
    # gives the coefficients and evaluations of a chain that runs the
    # recursion for one instant at a time, bit for bit; the grids end
    # inside, at and just past a block boundary
    system = IntegratorChain(order=order, axes=2)
    quadric = PolynomialBarrier(
        ((0.5, ((0, 2),)), (0.3, ((0, 1), (2, 1))), (-0.2, ((1, 2),)),
         (0.7, ((1, 1), (3, 1))), (-1.5, ((0, 1),)), (0.25, ()))
    )
    rng = np.random.default_rng(order)
    for gain in HOLD_GAINS:
        for robust in (False, True):
            for factor in (1.0, 1.5):
                schedule = GainSchedule(
                    levels=tuple(rng.uniform(0.5, 3.0, size=order)),
                    function=gain,
                    exponent_factor=factor,
                    robust=robust,
                )
                kwargs = dict(
                    smoothing=tuple(rng.uniform(0.2, 1.0, size=order)),
                    disturbance_bound=0.3 if robust else 0.0,
                )
                oracle = quadric if robust else CircularObstacle((1.0, -1.0), 1.0)
                single = BarrierChain(system, oracle, schedule, **kwargs)
                times = [0.05 + k * 0.004 for k in range(200)]
                xs = rng.uniform(-3.0, 3.0, size=(200, system.dim))
                want = [
                    (single._coefficients(order + 1, t), single.evaluate(x, t))
                    for t, x in zip(times, xs)
                ]
                for count in (1, 63, 64, 65, 200):
                    held = BarrierChain(system, oracle, schedule, **kwargs)
                    for start in range(0, count, HOLD_BLOCK):
                        stop = min(start + HOLD_BLOCK, count)
                        held.hold(times[start:stop])
                        # the jets of levels 1..n+1 and the evaluation stack,
                        # each stacked over the instants
                        _, jets, stacks = held._held
                        for item, part in ((jets, 0), (stacks, 1)):
                            one_by_one = [want[k][0][part] for k in range(start, stop)]
                            assert np.array_equal(item, one_by_one)
                        for k in range(start, stop):
                            _assert_evaluations_equal(
                                held.evaluate(xs[k], times[k]), want[k][1]
                            )


def test_held_block_ends_at_the_first_rejected_instant():
    # the prescribed-time gain raises from t = 1 on: the block keeps the
    # instants before it, and evaluating at or after it raises as without
    # a block
    def build(gain=PrescribedTimeGain(scale=1.0, terminal_time=1.0)):
        return BarrierChain(
            IntegratorChain(order=3, axes=2),
            CircularObstacle((1.0, -1.0), 1.0),
            GainSchedule(levels=(2.0, 1.5, 1.0), function=gain, robust=True),
            smoothing=(0.5, 0.4, 0.3),
            disturbance_bound=0.3,
        )

    chain = build()
    times = [0.9 + k * 0.01 for k in range(20)]
    chain.hold(times)
    index, jets, stacks = chain._held
    assert sorted(index.values()) == list(range(10))  # 0.9 .. 0.99
    assert len(jets) == len(stacks) == 10
    x = np.array([3.0, 0.5, 0.1, -0.2, 0.3, 0.0])
    for t in times[:10]:
        _assert_evaluations_equal(chain.evaluate(x, t), build().evaluate(x, t))
    for t in times[10:12]:
        with pytest.raises(DomainError):
            chain.evaluate(x, t)
    level1 = build().eval_level(1, x, times[10]).value
    assert chain.eval_level(1, x, times[10]).value == level1
    # a block whose first instant is rejected holds nothing
    chain.hold(times[10:])
    assert chain._held == ({}, None, None)

    # a gain that rejects one instant only: the block still ends there,
    # and the instants after it are evaluated one at a time
    @dataclass(frozen=True)
    class GapGain(LinearGain):
        def _check_time(self, t):
            super()._check_time(t)
            if float(t) == times[5]:
                raise DomainError(f"gain rejects t={t}")

    gap, reference = build(GapGain()), build(LinearGain())
    gap.hold(times)
    assert sorted(gap._held[0].values()) == list(range(5))
    assert len(gap._held[1]) == len(gap._held[2]) == 5
    with pytest.raises(DomainError):
        gap.evaluate(x, times[5])
    for t in times[:5] + times[6:]:
        _assert_evaluations_equal(gap.evaluate(x, t), reference.evaluate(x, t))


def test_with_levels_copy_and_lifted_chains_hold_no_block():
    chain = _chain(order=3, levels=(2.0, 1.5, 1.0), robust=True, theta=0.3)
    chain.hold([0.1, 0.2, 0.3])
    assert len(chain._held[0]) == len(chain._held[1]) == len(chain._held[2]) == 3
    copy = chain.with_levels((3.0, 2.0, 1.0))
    assert copy._held == ({}, None, None)
    x = np.array([2.0, 0.5, 0.1, -0.2, 0.3, 0.0])
    _assert_evaluations_equal(
        copy.evaluate(x, 0.2),
        _chain(order=3, levels=(3.0, 2.0, 1.0), robust=True, theta=0.3).evaluate(
            x, 0.2
        ),
    )
    lifted = BarrierChain(
        chain.system, lambda xt: chain.oracle(xt), chain.schedule,
        disturbance_bound=0.3,
    )
    lifted.hold([0.1, 0.2, 0.3])
    assert lifted._held == ({}, None, None)


def test_level_one_never_consults_the_gain(monkeypatch):
    # level 1 is the oracle alone: evaluating it at a new instant, at a
    # held one or outside the gain's domain takes no gain value or power
    calls = []
    for name in ("value", "power_jet"):
        method = getattr(LinearGain, name)

        def counted(self, *args, _method=method, _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(LinearGain, name, counted)
    closed = _chain(order=3, levels=(2.0, 1.5, 1.0), robust=True, theta=0.3)
    lifted = BarrierChain(
        closed.system, lambda xt: closed.oracle(xt), closed.schedule,
        disturbance_bound=0.3,
    )
    closed.hold([0.1, 0.2, 0.3])
    calls.clear()
    x = np.array([2.0, 0.5, 0.1, -0.2, 0.3, 0.0])
    for chain in (closed, lifted):
        for t in (0.1, 0.2, 0.25, 0.25, -0.5, 0.3):
            assert chain.eval_level(1, x, t).value == closed.oracle(x)
    assert calls == []


def test_level_index_range():
    chain = _chain()
    with pytest.raises(ParameterError):
        chain.eval_level(0, [2.0, 0.0, 0.0, 0.0], 0.0)
    with pytest.raises(ParameterError):
        chain.eval_level(3, [2.0, 0.0, 0.0, 0.0], 0.0)


def test_unperturbed_values_ignore_smoothing():
    x = [0.3, -1.7, 0.4, 1.1]
    a = _chain(levels=(2.0, 3.0), smoothing=(0.2, 0.2))
    b = _chain(levels=(2.0, 3.0), smoothing=(1.7, 0.9))
    ea, eb = a.evaluate(x, 0.7), b.evaluate(x, 0.7)
    assert np.array_equal(ea.values, eb.values)
    assert np.array_equal(ea.gradient, eb.gradient)
    assert ea.time_partial == eb.time_partial


def test_robust_zero_bound_subtracts_pure_gradient_term():
    x = [2.0, 0.0, 1.0, 0.0]
    plain = _chain().eval_level(2, x, 0.0)
    reduced = _chain(robust=True, theta=0.0, smoothing=(0.2, 0.2)).eval_level(
        2, x, 0.0
    )
    # only |grad h1|^2 / (4 mu) = 5 remains of the margin
    assert np.isclose(plain.value - reduced.value, 5.0, rtol=1e-14)


# -- derivative fidelity ------------------------------------------------


def _fd_check(chain, x, t, rel=1e-5):
    n = chain.order
    ev = chain.eval_level(n, x, t)
    h = 1e-5
    fd_grad = np.empty(chain.dim)
    for j in range(chain.dim):
        e = np.zeros(chain.dim)
        e[j] = h
        fd_grad[j] = (
            chain.eval_level(n, x + e, t).value - chain.eval_level(n, x - e, t).value
        ) / (2.0 * h)
    fd_tp = (
        chain.eval_level(n, x, t + h).value - chain.eval_level(n, x, t - h).value
    ) / (2.0 * h)
    scale = max(1.0, np.abs(fd_grad).max())
    assert np.abs(ev.gradient - fd_grad).max() / scale < rel
    assert abs(ev.time_partial - fd_tp) / max(1.0, abs(fd_tp)) < rel


def test_derivatives_match_finite_differences_double():
    rng = np.random.default_rng(37)
    robust = _chain(
        levels=(2.7, 3.0), center=(2.0, 2.0), robust=True, theta=REFERENCE_THETA
    )
    plain = _chain(levels=(2.7, 3.0), center=(2.0, 2.0))
    for _ in range(60):
        x = rng.uniform(-2.0, 5.0, size=4)
        t = float(rng.uniform(0.0, 3.0))
        _fd_check(robust, x, t)
        _fd_check(plain, x, t)


def test_derivatives_match_finite_differences_triple():
    rng = np.random.default_rng(43)
    chain = _chain(
        order=3,
        levels=(2.0, 2.0, 1.0),
        robust=True,
        theta=0.25,
        smoothing=(1.0, 1.0, 1.0),
        center=(2.0, 2.0),
        exponent_factor=1.5,
    )
    for _ in range(20):
        x = rng.uniform(-1.5, 3.5, size=6)
        t = float(rng.uniform(0.0, 1.5))
        _fd_check(chain, x, t)


# -- closed form against the lifted path --------------------------------


def _lifted(chain):
    """The same chain behind a plain callable oracle, which exposes no
    quadratic form and therefore evaluates through the lifted path."""
    oracle = chain.oracle
    return BarrierChain(
        chain.system,
        lambda x: oracle(x),
        chain.schedule,
        smoothing=chain.smoothing,
        disturbance_bound=chain.disturbance_bound,
    )


def _assert_same(a, b, rel=1e-12):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    assert np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))), (a, b)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_closed_form_matches_lifted_path(order):
    rng = np.random.default_rng(59 + order)
    oracles = (
        CircularObstacle(center=(1.5, -0.5), radius=1.0),
        HalfPlane(normal=(1.0, -2.0, 0.5), offset=0.3),
        # 0.6 x1 x1 + 0.8 x1 x2 - 0.3 x1 x3 + 0.4 x2^2 - 1.2 x1 + 0.7 x2 + 2:
        # a repeated factor, a cross term, a position-velocity term and a
        # constant-only term
        PolynomialBarrier(
            terms=(
                (0.6, ((0, 1), (0, 1))),
                (0.8, ((0, 1), (1, 1))),
                (-0.3, ((0, 1), (2, 1))),
                (0.4, ((1, 2),)),
                (-1.2, ((0, 1),)),
                (0.7, ((1, 1),)),
                (2.0, ()),
            )
        ),
    )
    for oracle in oracles:
        for function in (LinearGain(), ExponentialGain(scale=1.0, rate=0.5)):
            for robust in (False, True):
                for exponent_factor in (1.0, 1.5):
                    schedule = GainSchedule(
                        levels=tuple(rng.uniform(0.5, 3.0, size=order)),
                        function=function,
                        exponent_factor=exponent_factor,
                        robust=robust,
                    )
                    chain = BarrierChain(
                        IntegratorChain(order=order, axes=2),
                        oracle,
                        schedule,
                        smoothing=tuple(rng.uniform(0.3, 1.5, size=order)),
                        disturbance_bound=0.3 if robust else 0.0,
                    )
                    lifted = _lifted(chain)
                    x = rng.uniform(-2.0, 2.0, size=chain.dim)
                    t = float(rng.uniform(0.0, 2.0))
                    ev, ref = chain.evaluate(x, t), lifted.evaluate(x, t)
                    _assert_same(ev.values, ref.values)
                    _assert_same(ev.gradient, ref.gradient)
                    _assert_same(ev.time_partial, ref.time_partial)
                    _assert_same(ev.drift_rate, ref.drift_rate)
                    _assert_same(
                        ev.level1_gradient_norm, ref.level1_gradient_norm
                    )
                    _assert_same(ev.next_level, ref.next_level)
                    for i in range(1, order + 1):
                        level, want = chain.eval_level(i, x, t), lifted.eval_level(
                            i, x, t
                        )
                        assert level.level == want.level == i
                        _assert_same(level.value, want.value)
                        _assert_same(level.gradient, want.gradient)
                        _assert_same(level.time_partial, want.time_partial)


_CIRCLE_TERMS = (  # 0.5 x1^2 - 2 x1 + 0.5 x2^2 - 2 x2 + 3.5
    (0.5, ((0, 2),)),
    (-2.0, ((0, 1),)),
    (0.5, ((1, 2),)),
    (-2.0, ((1, 1),)),
    (3.5, ()),
)


def test_polynomial_quadratic_form():
    # 1.5 x1 x1 + 0.8 x1 x2 - 0.3 x3 x1 - 1.2 x2 + 2 + 0.5, over 4 entries
    oracle = PolynomialBarrier(
        terms=(
            (1.5, ((0, 1), (0, 1))),
            (0.8, ((0, 1), (1, 1))),
            (-0.3, ((2, 1), (0, 1))),
            (-1.2, ((1, 1),)),
            (2.0, ()),
            (0.5, ()),
        )
    )
    p, q, r = oracle.quadratic_form(4)
    want_p = np.zeros((4, 4))
    want_p[0, 0] = 3.0
    want_p[0, 1] = want_p[1, 0] = 0.8
    want_p[0, 2] = want_p[2, 0] = -0.3
    assert np.array_equal(p, want_p)
    assert np.array_equal(q, [0.0, -1.2, 0.0, 0.0])
    assert r == 2.5
    x = np.array([0.7, -1.1, 2.3, 0.4])
    assert np.isclose(0.5 * x @ p @ x + q @ x + r, oracle(x), rtol=1e-14)
    # the circle restated as a polynomial gives the circle's own form
    circle = CircularObstacle(center=(2.0, 2.0), radius=1.0).quadratic_form(6)
    for got, want in zip(PolynomialBarrier(_CIRCLE_TERMS).quadratic_form(6), circle):
        assert np.array_equal(got, want)
    # degree 3 in any spelling has no quadratic form
    for factors in (((0, 3),), ((0, 2), (1, 1)), ((0, 1), (0, 1), (1, 1))):
        cubic = PolynomialBarrier(terms=((1.0, ()), (1.0, factors)))
        assert cubic.quadratic_form(4) is None
    with pytest.raises(DimensionError):
        oracle.quadratic_form(2)  # reads x3


def test_polynomial_circle_chain_equals_circle_chain():
    for order in (2, 3, 4, 5):
        for robust in (False, True):
            schedule = GainSchedule(
                levels=(2.0, 1.5, 1.2, 1.0, 1.0)[:order],
                function=LinearGain(),
                exponent_factor=1.5,
                robust=robust,
            )
            system = IntegratorChain(order=order, axes=2)
            chains = [
                BarrierChain(system, oracle, schedule, disturbance_bound=0.3 * robust)
                for oracle in (
                    CircularObstacle(center=(2.0, 2.0), radius=1.0),
                    PolynomialBarrier(_CIRCLE_TERMS),
                )
            ]
            x = np.linspace(-1.0, 1.5, system.dim)
            _assert_evaluations_equal(*(c.evaluate(x, 0.6) for c in chains))
    # a whole closed-loop run of the triple-integrator preset
    circle = load_config(files("tvcbf") / "presets" / "triple_demo.cfg").scenario
    runs = [
        run_scenario(replace(circle, oracle=oracle))
        for oracle in (circle.oracle, PolynomialBarrier(_CIRCLE_TERMS))
    ]
    assert runs[0].completed and runs[1].completed
    for name in ("times", "states", "inputs", "disturbances", "barrier_values"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name
    assert runs[0].branches == runs[1].branches


def test_polynomial_barrier_chain_matches_finite_differences():
    # x1^2 x2 + 0.5 x2^2 - 0.3 x3 x4
    oracle = PolynomialBarrier(
        terms=(
            (1.0, ((0, 2), (1, 1))),
            (0.5, ((1, 2),)),
            (-0.3, ((2, 1), (3, 1))),
        )
    )
    # a cubic term: no quadratic form, so the chain takes the lifted path
    assert oracle.quadratic_form(6) is None
    schedule = GainSchedule(
        levels=(1.5, 2.0, 1.0),
        function=LinearGain(),
        exponent_factor=1.5,
        robust=True,
    )
    chain = BarrierChain(
        IntegratorChain(order=3, axes=2),
        oracle,
        schedule,
        smoothing=(0.8, 0.8, 0.8),
        disturbance_bound=0.2,
    )
    rng = np.random.default_rng(61)
    for _ in range(8):
        x = rng.uniform(-1.5, 1.5, size=chain.dim)
        t = float(rng.uniform(0.0, 1.5))
        _fd_check(chain, x, t)


# -- symbolic mirror ----------------------------------------------------


def _symbolic_chain(order, levels, mus, theta, exponent_factor, center, radius):
    """Rebuild the recursion in sympy, independently of the package:
    level n's value, gradient and time partial, and level n+1."""
    m = 2
    dim = order * m
    xs = sp.symbols(f"x0:{dim}")
    t = sp.Symbol("t")
    drift = list(xs[m:]) + [sp.Integer(0)] * m
    h = sp.Rational(1, 2) * (
        (xs[0] - center[0]) ** 2 + (xs[1] - center[1]) ** 2 - radius**2
    )
    hs = [h]
    for i in range(2, order + 2):
        grad = [sp.diff(h, v) for v in xs]
        lf = sum(g * a for g, a in zip(grad, drift))
        lam = sum(g**2 for g in grad) / (4 * mus[i - 2]) + mus[i - 2] * theta**2
        ups = (1 + t) ** (exponent_factor * (i - 1))
        h = levels[i - 2] * ups * h + lf - lam
        hs.append(h)
    top = hs[order - 1]
    grad = [sp.diff(top, v) for v in xs]
    args = list(xs) + [t]
    return (
        sp.lambdify(args, top, modules="numpy"),
        sp.lambdify(args, grad, modules="numpy"),
        sp.lambdify(args, sp.diff(top, t), modules="numpy"),
        sp.lambdify(args, hs[order], modules="numpy"),
    )


@pytest.mark.parametrize("order", [2, 3])
def test_chain_matches_symbolic_reference(order):
    levels = (2.2, 1.3, 1.0)[:order]
    mus = (0.4, 0.8, 0.6)[:order]
    theta = 0.3
    chain = _chain(
        order=order,
        levels=levels,
        robust=True,
        theta=theta,
        smoothing=mus,
        center=(1.5, -0.5),
        exponent_factor=1.5,
    )
    value_f, grad_f, tp_f, next_f = _symbolic_chain(
        order, levels, mus, theta, sp.Rational(3, 2), (1.5, -0.5), 1.0
    )
    rng = np.random.default_rng(47)
    for _ in range(25):
        x = rng.uniform(-2.0, 2.0, size=chain.dim)
        t = float(rng.uniform(0.0, 2.0))
        ev = chain.eval_level(order, x, t)
        args = [*x, t]
        assert np.isclose(ev.value, float(value_f(*args)), rtol=1e-9, atol=1e-9)
        assert np.allclose(
            ev.gradient, np.array(grad_f(*args), dtype=float), rtol=1e-9, atol=1e-9
        )
        assert np.isclose(ev.time_partial, float(tp_f(*args)), rtol=1e-9, atol=1e-9)
        assert np.isclose(
            chain.evaluate(x, t).next_level, float(next_f(*args)), rtol=1e-9, atol=1e-9
        )


# -- initialization -----------------------------------------------------


def test_validate_initialization_flags():
    chain = _chain(levels=(2.7, 3.0), center=(2.0, 2.0))
    report = chain.validate_initialization([0.0, 0.0, 0.0, 0.0], 0.0)
    assert [flag for _, _, flag in report] == [True, True]

    inside = chain.validate_initialization([2.0, 2.5, 0.0, 0.0], 0.0)
    assert inside[0][2] is False

    # tiny gain with inward velocity leaves level 2 negative
    weak = _chain(levels=(1e-9, 3.0))
    report = weak.validate_initialization([2.0, 0.0, -1.0, 0.0], 0.0)
    assert report[0][2] is True
    assert report[1][2] is False


def test_auto_gains_reference_scenario():
    template = _chain(
        levels=(1.0, 1.0), center=(2.0, 2.0), robust=True, theta=REFERENCE_THETA
    )
    schedule = auto_gains(template, [0.0, 0.0, 0.0, 0.0], 0.0, margin=0.1)
    assert np.isclose(schedule.levels[0], 2.9620914285714286, rtol=1e-13)
    assert schedule.levels[1] == 1.0
    tuned = template.with_levels(schedule.levels)
    ev = tuned.evaluate([0.0, 0.0, 0.0, 0.0], 0.0)
    # the margin term is exactly what remains of level 2
    assert np.isclose(ev.values[1], 0.1 * 3.5, rtol=1e-10)


def test_auto_gains_clears_negative_hand_example():
    # with unit gains this state has level 2 = -1.7; the rule must push
    # the first gain above (5.2 - 2) / 1.5
    template = _chain(robust=True, theta=1.0, smoothing=(0.2, 0.2))
    x0 = [2.0, 0.0, 1.0, 0.0]
    schedule = auto_gains(template, x0, 0.0, margin=0.05)
    assert schedule.levels[0] > 3.2 / 1.5
    report = template.with_levels(schedule.levels).validate_initialization(x0, 0.0)
    assert all(flag for _, _, flag in report)


def test_auto_gains_margin_only_when_drift_helps():
    # outward velocity: L_f h1 > 0, so the max{0, .} branch collapses
    template = _chain()
    schedule = auto_gains(template, [2.0, 0.0, 1.0, 0.0], 0.0, margin=0.1)
    assert schedule.levels[0] == 0.1


def test_auto_gains_rejects_unsafe_start():
    template = _chain(center=(2.0, 2.0))
    with pytest.raises(UnsafeInitializationError):
        auto_gains(template, [2.0, 2.0, 0.0, 0.0], 0.0)
    with pytest.raises(ParameterError):
        auto_gains(template, [0.0, 0.0, 0.0, 0.0], 0.0, last_gain=0.0)


def test_auto_gains_initialization_property():
    rng = np.random.default_rng(53)
    for trial in range(150):
        order = 2 if trial % 3 else 3
        robust = bool(trial % 2)
        center = rng.uniform(-2.0, 2.0, size=2)
        radius = float(rng.uniform(0.4, 1.5))
        # place the start strictly outside the obstacle
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        p0 = center + direction * (radius + rng.uniform(0.3, 2.0))
        rest = rng.uniform(-1.0, 1.0, size=2 * (order - 1))
        x0 = np.concatenate([p0, rest])
        t0 = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, 0.5)) if robust else 0.0
        template = _chain(
            order=order,
            levels=(1.0,) * order,
            robust=robust,
            theta=theta,
            smoothing=tuple(rng.uniform(0.3, 2.0, size=order)),
            center=tuple(center),
            radius=radius,
            exponent_factor=float(rng.choice([1.0, 1.5])),
        )
        schedule = auto_gains(
            template, x0, t0, margin=float(rng.uniform(0.05, 0.5))
        )
        tuned = template.with_levels(schedule.levels)
        report = tuned.validate_initialization(x0, t0)
        assert all(flag for _, _, flag in report), report


def test_polynomial_gain_chain_evaluates():
    # non-linear gain kinds flow through the same recursion
    system = IntegratorChain(order=2, axes=2)
    schedule = GainSchedule(
        levels=(2.0, 1.0), function=PolynomialGain(power=2.0), robust=False
    )
    chain = BarrierChain(
        system, CircularObstacle(center=(0.0, 0.0), radius=1.0), schedule
    )
    x = [2.0, 0.0, 1.0, 0.0]
    # upsilon(1)^1 = 4 at t = 1: h2 = 2 * 4 * h1 + (p . v)
    ev = chain.eval_level(2, x, 1.0)
    assert np.isclose(ev.value, 2.0 * 4.0 * 1.5 + 2.0, rtol=1e-14)
