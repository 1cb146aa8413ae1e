"""Closed-loop simulation: fixed-step integration, controller modes,
metrics, and the analytic decay floors checked along trajectories.

Controller modes:

* ``nominal``    - the goal-seeking state feedback, unfiltered.
* ``sbcbf``      - filter against the unperturbed chain construction,
                   even when disturbances act (the baseline that the
                   robust construction is compared to).
* ``srcbf``      - filter against the robust construction with the
                   disturbance bound certified from the profile.

Disturbance and input are sampled once per step and held constant over
the four integration stages, which keeps runs reproducible bit for bit.
The time grid t0 + i*dt is known before the loop starts, so the loop
hands the barrier chain the next ``HOLD_BLOCK`` grid instants at a
time (``BarrierChain.hold``), and the chain's closed-form coefficients
for all of them come from one vectorized recursion.  The step must
divide t_final - t0 into whole steps, so the grid ends at t_final.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import BarrierChain, auto_gains
from .chain import (
    DisturbanceProfile,
    IntegratorChain,
    certified_bound,
    sample_disturbance,
)
from .errors import (
    DimensionError,
    DomainError,
    InfeasibleConstraintError,
    NumericalBlowupError,
    ParameterError,
    UnsafeInitializationError,
    _about,
)
from .gains import GainFunction, GainSchedule, LinearGain
from .qp import FilterDecision, apply_filter

__all__ = [
    "rk4_step",
    "state_feedback",
    "default_nominal_gains",
    "Scenario",
    "Trajectory",
    "build_chain",
    "run_scenario",
    "safety_lower_bound",
    "chain_bound",
    "write_trajectory_csv",
]

MODES = ("nominal", "sbcbf", "srcbf")

# grid instants whose chain coefficients ``run_scenario`` computes at once
HOLD_BLOCK = 64

DEGENERATE_GRADIENT_NORM = 1e-9


def rk4_step(derivative_field, x, t, dt):
    """One classical 4th-order Runge-Kutta step of ``derivative_field(t, x)``."""
    if dt <= 0.0:
        raise ParameterError(f"step size must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    t = float(t)
    half = 0.5 * dt
    k1 = np.asarray(derivative_field(t, x), dtype=float)
    k2 = np.asarray(derivative_field(t + half, x + half * k1), dtype=float)
    k3 = np.asarray(derivative_field(t + half, x + half * k2), dtype=float)
    k4 = np.asarray(derivative_field(t + dt, x + dt * k3), dtype=float)
    for k in (k1, k2, k3, k4):
        if not np.all(np.isfinite(k)):
            raise NumericalBlowupError(
                "non-finite derivative during integration step", t=t, state=x
            )
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def default_nominal_gains(order: int) -> tuple[float, ...]:
    """Feedback constants placing all closed-loop poles at -4.

    Coefficients of (s + 4)^order below the leading term, lowest power
    first, so gains[k] multiplies the k-th derivative block.
    """
    if order < 1:
        raise ParameterError(f"order must be at least 1, got {order}")
    return tuple(
        float(math.comb(order, k) * 4 ** (order - k)) for k in range(order)
    )


def state_feedback(x, goal, gains) -> np.ndarray:
    """u = -sum_k gains[k] * (block_k - ref_k), ref_0 = goal, rest 0.

    Blocks are the position-like, velocity-like, ... slices of the
    stacked state; the number of gains fixes the expected order.
    """
    x = np.asarray(x, dtype=float)
    goal = np.asarray(goal, dtype=float)
    gains = tuple(float(g) for g in gains)
    n = len(gains)
    m = goal.shape[0]
    if x.shape != (n * m,):
        raise DimensionError(
            f"state length {x.shape} does not match {n} blocks of {m}"
        )
    u = -gains[0] * (x[:m] - goal)
    for k in range(1, n):
        u -= gains[k] * x[k * m : (k + 1) * m]
    return u


@dataclass(frozen=True)
class Scenario:
    """Everything one closed-loop run depends on, hashable and immutable.

    ``barrier_gains`` of None means the per-level constants are chosen
    by the initial-gain rules at (x0, t0).  ``nominal_gains`` of None
    means the pole placement defaults.  ``smoothing`` of None means the
    default constant on every level.
    """

    system: IntegratorChain
    oracle: object
    x0: tuple[float, ...]
    goal: tuple[float, ...]
    gain_function: GainFunction = field(default_factory=LinearGain)
    mode: str = "srcbf"
    barrier_gains: tuple[float, ...] | None = None
    auto_margin: float = 0.1
    last_gain: float = 1.0
    exponent_factor: float = 1.0
    smoothing: tuple[float, ...] | None = None
    include_time_partial: bool = True
    profile: DisturbanceProfile | None = None
    nominal_gains: tuple[float, ...] | None = None
    t0: float = 0.0
    t_final: float = 10.0
    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(
                f"mode must be one of {', '.join(MODES)}, got {self.mode!r}"
            )
        if not all(math.isfinite(v) for v in (self.t0, self.t_final, self.dt)):
            raise ParameterError(
                f"t0, t_final and dt must be finite, got "
                f"{self.t0}, {self.t_final}, {self.dt}"
            )
        if self.dt <= 0.0:
            raise _about(ParameterError(f"dt must be positive, got {self.dt}"), "dt")
        if self.t_final <= self.t0:
            raise _about(
                ParameterError(f"t_final ({self.t_final}) must exceed t0 ({self.t0})"),
                "t_final",
                "t0",
            )
        span = (self.t_final - self.t0) / self.dt
        steps = round(span)
        if abs(span - steps) > 1e-9 * max(1, steps):
            raise _about(
                ParameterError(
                    f"dt ({self.dt}) does not divide t_final - t0 "
                    f"({self.t_final} - {self.t0}) into whole steps ({span:.6g}); "
                    f"the grid would end at t = {self.t0 + steps * self.dt:.6g}"
                ),
                "dt",
                "t_final",
                "t0",
            )
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        object.__setattr__(self, "goal", tuple(float(v) for v in self.goal))
        dim = self.system.dim
        if len(self.x0) != dim:
            raise _about(
                DimensionError(f"x0 must have length {dim}, got {len(self.x0)}"), "x0"
            )
        if len(self.goal) != self.system.axes:
            raise _about(
                DimensionError(
                    f"goal must have length {self.system.axes}, got {len(self.goal)}"
                ),
                "goal",
            )
        if self.barrier_gains is not None:
            object.__setattr__(
                self, "barrier_gains", tuple(float(g) for g in self.barrier_gains)
            )
        if self.nominal_gains is not None:
            object.__setattr__(
                self, "nominal_gains", tuple(float(g) for g in self.nominal_gains)
            )
        if self.smoothing is not None:
            object.__setattr__(
                self, "smoothing", tuple(float(v) for v in self.smoothing)
            )
        if self.profile is not None and len(self.profile) != dim:
            raise DimensionError(
                f"disturbance profile has {len(self.profile)} channels, "
                f"state dimension is {dim}"
            )

    @property
    def steps(self) -> int:
        """Grid steps from t0 to t_final; dt divides the span (checked)."""
        return int(round((self.t_final - self.t0) / self.dt))

    def feedback_gains(self) -> tuple[float, ...]:
        if self.nominal_gains is not None:
            return self.nominal_gains
        return default_nominal_gains(self.system.order)


def build_chain(scenario: Scenario) -> BarrierChain:
    """Barrier chain for the scenario's mode.

    srcbf uses the robust construction with the certified disturbance
    bound; sbcbf and nominal use the unperturbed construction.  Gains
    come from the scenario or, when absent, from the initial-gain rules
    (nominal mode falls back to all-ones constants, since it only
    records the chain and must run even from unsafe starts).
    """
    robust = scenario.mode == "srcbf"
    bound = certified_bound(scenario.profile) if robust else 0.0
    n = scenario.system.order
    placeholder = scenario.barrier_gains or (1.0,) * n
    schedule = GainSchedule(
        levels=placeholder,
        function=scenario.gain_function,
        exponent_factor=scenario.exponent_factor,
        robust=robust,
    )
    chain = BarrierChain(
        scenario.system,
        scenario.oracle,
        schedule,
        smoothing=scenario.smoothing,
        disturbance_bound=bound,
        include_time_partial=scenario.include_time_partial,
    )
    if scenario.barrier_gains is None and scenario.mode != "nominal":
        schedule = auto_gains(
            chain,
            np.asarray(scenario.x0),
            scenario.t0,
            margin=scenario.auto_margin,
            last_gain=scenario.last_gain,
        )
        chain = chain.with_levels(schedule.levels)
    return chain


@dataclass(eq=False)
class Trajectory:
    """Sampled closed-loop run plus derived metrics.

    Rows align: states[i] is the state at times[i]; inputs[i],
    disturbances[i] and branches[i] describe the step taken from it
    (the final row holds the input that would have been applied next).
    ``chain`` is the barrier chain the run evaluated, with the gains it
    used.  ``annotation`` is set when the run aborted early, and the arrays
    stop at the last completed sample.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    disturbances: np.ndarray
    barrier_values: np.ndarray
    branches: list[str]
    scenario: Scenario
    chain: BarrierChain
    annotation: str | None = None
    init_warning: str | None = None
    degenerate_gradient: bool = False

    @property
    def completed(self) -> bool:
        return self.annotation is None

    @property
    def min_h1(self) -> float:
        if self.barrier_values.shape[0] == 0:
            return math.nan
        return float(np.min(self.barrier_values[:, 0]))

    @property
    def violation(self) -> bool:
        return self.min_h1 < 0.0

    @property
    def control_effort(self) -> float:
        """Trapezoidal integral of |u|^2 over the sampled times.

        Aborted runs can hold huge recorded inputs, so the square may
        overflow to inf; that is reported as-is rather than warned on.
        """
        with np.errstate(over="ignore"):
            f = np.sum(self.inputs**2, axis=1)
            dt = np.diff(self.times)
            return float(np.sum(dt * (f[:-1] + f[1:]) * 0.5))

    @property
    def goal_error(self) -> float:
        if self.states.shape[0] == 0:
            return math.nan
        m = self.scenario.system.axes
        p = self.states[-1, :m]
        return float(np.linalg.norm(p - np.asarray(self.scenario.goal)))


def run_scenario(scenario: Scenario) -> Trajectory:
    """Step the closed loop over the scenario's time grid.

    Raises UnsafeInitializationError when a filtered mode starts with a
    non-positive level-1 value.  Non-positive higher levels are
    reported as a warning instead of aborting: the initial-gain rules
    cannot always make them positive once the robust margins are fixed,
    and the run itself remains informative.

    Filter infeasibility, gain-domain exits and numerical blowups stop
    the run early and annotate the partial trajectory.
    """
    system = scenario.system
    chain = build_chain(scenario)
    dim, m, n = system.dim, system.axes, system.order
    x0 = np.asarray(scenario.x0, dtype=float)
    steps = scenario.steps

    def hold_from(i):
        stop = min(i + HOLD_BLOCK, steps + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            chain.hold([scenario.t0 + k * scenario.dt for k in range(i, stop)])

    hold_from(0)  # before the start check, which then reads t0 from the block
    init_warning = None
    if scenario.mode != "nominal":
        levels = chain.validate_initialization(x0, scenario.t0)
        if not levels[0][2]:
            raise UnsafeInitializationError(
                f"level-1 value {levels[0][1]} at the start state is not positive"
            )
        bad = [f"h{i}={v:.6g}" for i, v, ok in levels[1:] if not ok]
        if bad:
            init_warning = (
                "non-positive chain levels at start: " + ", ".join(bad)
                + "; decay floors for those levels do not apply"
            )

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, dim))
    inputs = np.empty((steps + 1, m))
    disturbances = np.empty((steps + 1, dim))
    h = np.empty((steps + 1, n))
    branches: list[str] = []

    rng = np.random.default_rng(scenario.seed)
    gains = scenario.feedback_gains()
    goal = np.asarray(scenario.goal, dtype=float)
    annotation = None
    degenerate = False

    x = x0
    recorded = 0
    # overflow to inf is expected on the way into a detected blowup;
    # the isfinite checks in rk4_step turn it into a clean abort
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps + 1):
            t = scenario.t0 + i * scenario.dt
            if i and i % HOLD_BLOCK == 0:
                hold_from(i)
            try:
                if scenario.profile is not None:
                    d = sample_disturbance(scenario.profile, t, rng)
                else:
                    d = np.zeros(dim)
                ev = chain.evaluate(x, t)
                if ev.level1_gradient_norm < DEGENERATE_GRADIENT_NORM:
                    degenerate = True
                u_no = state_feedback(x, goal, gains)
                if scenario.mode == "nominal":
                    decision = FilterDecision(
                        u_no, 0.0, "nominal", np.zeros(m), 0.0
                    )
                else:
                    decision = apply_filter(chain, ev, u_no)
            except (
                InfeasibleConstraintError,
                NumericalBlowupError,
                DomainError,
                OverflowError,
            ) as exc:
                annotation = f"aborted at t={t:.6g}: {exc}"
                break

            times[i] = t
            states[i] = x
            inputs[i] = decision.u
            disturbances[i] = d
            h[i] = ev.values
            branches.append(decision.branch)
            recorded = i + 1
            if i == steps:
                break

            u, d_held = decision.u, d
            if scenario.mode == "nominal":
                # the feedback law is cheap, so the unfiltered mode applies
                # it continuously inside the stages and integrates the true
                # closed loop at full RK4 order; filtered modes hold the
                # computed input over the step (sampled-data control),
                # which keeps one chain evaluation per step
                def field(tt, xx):
                    return system.dynamics(xx, state_feedback(xx, goal, gains), d_held)

            else:
                def field(tt, xx):
                    return system.dynamics(xx, u, d_held)

            try:
                x = rk4_step(field, x, t, scenario.dt)
            except (NumericalBlowupError, OverflowError) as exc:
                annotation = f"aborted at t={t:.6g}: {exc}"
                break
    chain.hold(())  # drop the last block

    return Trajectory(
        times=times[:recorded],
        states=states[:recorded],
        inputs=inputs[:recorded],
        disturbances=disturbances[:recorded],
        barrier_values=h[:recorded],
        branches=branches[:recorded],
        scenario=scenario,
        chain=chain,
        annotation=annotation,
        init_warning=init_warning,
        degenerate_gradient=degenerate,
    )


def safety_lower_bound(h1_0, rho1, t0, t, gain: GainFunction | None = None):
    """Closed-form decay floor for the level-1 value under the filter.

    h1_0 * exp(-rho1 * ((t - t0)^2 / 2 + (t - t0))).  The closed form
    assumes the linear gain; pass the scenario's gain function to have
    that assumption checked.
    """
    if gain is not None and not isinstance(gain, LinearGain):
        raise ParameterError(
            f"the closed-form floor assumes the linear gain, got {gain.kind!r}"
        )
    if h1_0 <= 0.0:
        raise ParameterError(f"initial level value must be positive, got {h1_0}")
    if rho1 <= 0.0:
        raise ParameterError(f"gain constant must be positive, got {rho1}")
    if t < t0:
        raise DomainError(f"t ({t}) must not precede t0 ({t0})")
    span = t - t0
    return h1_0 * math.exp(-rho1 * (span * span / 2.0 + span))


def chain_bound(chain: BarrierChain, i: int, hi_0, t0, t):
    """Exponential decay floor for chain level i from its start value.

    hi_0 * exp(-gain_i * integral of the gain function to the level's
    power over [t0, t]).
    """
    if not 1 <= i <= chain.order:
        raise ParameterError(f"level index must be in 1..{chain.order}, got {i}")
    if hi_0 <= 0.0:
        raise ParameterError(f"initial level value must be positive, got {hi_0}")
    exponent = chain.schedule.level_exponent(i)
    integral = chain.gain_function.power_integral(exponent, t0, t)
    return float(hi_0 * math.exp(-chain.schedule.levels[i - 1] * integral))


def write_trajectory_csv(trajectory: Trajectory, path):
    """CSV with header t,x1..,u1..,d1..,h1..hn,branch; repr-precision floats."""
    s = trajectory.scenario
    dim, m, n = s.system.dim, s.system.axes, s.system.order
    header = (
        ["t"]
        + [f"x{j + 1}" for j in range(dim)]
        + [f"u{j + 1}" for j in range(m)]
        + [f"d{j + 1}" for j in range(dim)]
        + [f"h{j + 1}" for j in range(n)]
        + ["branch"]
    )
    rows = np.column_stack(
        (
            trajectory.times,
            trajectory.states,
            trajectory.inputs,
            trajectory.disturbances,
            trajectory.barrier_values,
        )
    ).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, branch in zip(rows, trajectory.branches):
            fh.write(",".join(map(repr, row)) + "," + branch + "\n")
