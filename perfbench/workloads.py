"""The benchmark's workloads: set-up, one timed round, and output checks.

Each workload is built from a seed and a scratch directory.  Building it
is the set-up (configs written and parsed, inputs generated); ``round``
runs one fixed batch of control decisions through tvcbf's public
functions and returns (attempted, failed); ``check`` runs after the
timed part and returns failure messages for the last round's outputs;
``output_counts`` gives the per-round layer call counts that those
outputs imply, for comparison with a trace, and the number of corrected
filter decisions.

Every round of a workload repeats the same operations on the same
inputs, so each round attempts the same number of decisions.
"""

from __future__ import annotations

import contextlib
import functools
import io
import re
import time
from dataclasses import replace
from importlib import import_module
from pathlib import Path

import numpy as np

import checks
import spans

PRESETS = Path(__file__).resolve().parents[1] / "src" / "tvcbf" / "presets"

# paper_fig1.cfg, restated here so that the checks do not read it back
# through the program: obstacle, goal, default order-2 feedback gains
# (poles at -4) and the disturbance channels (amplitude, frequency, shape)
FIG1_CENTER, FIG1_RADIUS, FIG1_GOAL, FIG1_GAINS = (2.0, 2.0), 1.0, (4.0, 4.0), (16.0, 8.0)
FIG1_CHANNELS = [
    [(0.1, 2.0, "sin")],
    [(0.1, 3.0, "cos")],
    [(0.15, 1.0, "sin")],
    [(0.15, 2.0, "cos")],
]
FIG1_NOISE = 0.02
FIG1_SEGMENT_CALLS = 2000  # disturbance draws per timed segment of a fig1_cli round

# the circle of triple_demo.cfg written as a polynomial in the state
POLY_TERMS = "0.5 x1^2 + -2 x1 + 0.5 x2^2 + -2 x2 + 3.5"
TRIPLE_LAST_LEVEL = 5.0  # triple_demo.cfg's last_level: the level-3 gain
POLY_SEGMENT_CALLS = 200  # filter calls per timed segment of a poly_lifted round


def _tvcbf(name):
    """The tvcbf module, looked up at call time: run.py puts src/ on the
    path first, and a traced run replaces module attributes with wrappers
    that calls must find."""
    return import_module(f"tvcbf.{name}")


@contextlib.contextmanager
def _marking(fn, marks, every):
    """For the block, append the time before and after every ``every``-th
    call of ``fn``, at every binding of it, to ``marks``.  The marks cut a
    round into segments that are timed apart."""
    calls = 0

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % every:
            return fn(*args, **kwargs)
        marks.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append(time.perf_counter())

    saved = spans.rebind(fn, marked)
    try:
        yield
    finally:
        spans.restore(saved)


def _with_seed(text: str, seed: int) -> str:
    out, count = re.subn(r"^seed = .*$", f"seed = {seed}", text, flags=re.M)
    if count != 1:
        raise ValueError("preset has no single 'seed =' line")
    return out


class Fig1Cli:
    """``tvcbf compare`` then ``tvcbf simulate`` (srcbf) on paper_fig1.cfg.

    The paper's headline experiment.  ``compare`` takes no ``--seed``,
    so the seed is written into a scratch copy of the config.
    """

    def __init__(self, seed: int, workdir: Path):
        text = (PRESETS / "paper_fig1.cfg").read_text(encoding="utf-8")
        self.config = workdir / "paper_fig1.cfg"
        self.config.write_text(_with_seed(text, seed), encoding="utf-8")
        scenario = _tvcbf("config").load_config(self.config).scenario
        if scenario.seed != seed:
            raise ValueError(f"config seed {scenario.seed} is not {seed}")
        self.scenario = scenario
        self.rows = scenario.steps + 1
        self.compare_dir = workdir / "compare"
        self.simulate_dir = workdir / "simulate"
        self._last = None  # tables parsed from the last round's CSVs

    def _cli(self, *argv) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return _tvcbf("cli").main([*argv, "--config", str(self.config)])

    def round(self):
        """One compare and one simulate; ``marks`` cuts the round into
        segments of FIG1_SEGMENT_CALLS decisions (each draws one
        disturbance) and the work between them."""
        failed, self._last, self.marks = 0, None, []
        with _marking(_tvcbf("chain").sample_disturbance, self.marks, FIG1_SEGMENT_CALLS):
            if self._cli("compare", "--out", str(self.compare_dir)) != 0:
                failed += 3 * self.rows
            if self._cli("simulate", "--controller", "srcbf", "--out", str(self.simulate_dir)) != 0:
                failed += self.rows
        return 4 * self.rows, failed

    def _tables(self):
        if self._last is not None:
            return self._last
        tables = {
            mode: checks.read_trajectory_csv(self.compare_dir / f"trajectory_{mode}.csv")
            for mode in ("nominal", "sbcbf", "srcbf")
        }
        tables["simulate"] = checks.read_trajectory_csv(self.simulate_dir / "trajectory.csv")
        self._last = tables
        return tables

    def check(self):
        tables = self._tables()
        dt, out = self.scenario.dt, []
        h1 = {}
        for label, table in tables.items():
            out += checks.check_rows(label, table, self.rows)
            h1[label] = checks.circle_h1(table.x, 2, FIG1_CENTER, FIG1_RADIUS)
            out += checks.check_h1(label, table.h[:, 0], h1[label])
            out += checks.check_feedback_rows(label, table, FIG1_GOAL, FIG1_GAINS, 2)
            out += checks.check_disturbance(label, table, FIG1_CHANNELS, FIG1_NOISE)
            if label != "nominal":
                out += checks.check_exact_propagation(label, table, 2, 2, dt)
        out += checks.check_comparison(h1["srcbf"], h1["sbcbf"], tables["nominal"], FIG1_GOAL, 2)
        out += checks.check_same_bytes(
            "simulate trajectory.csv vs compare trajectory_srcbf.csv",
            (self.simulate_dir / "trajectory.csv").read_bytes(),
            (self.compare_dir / "trajectory_srcbf.csv").read_bytes(),
        )
        return out

    def output_counts(self):
        tables = self._tables()
        filtered = [tables[k] for k in ("sbcbf", "srcbf", "simulate")]
        steps = sum(len(t) - 1 for t in tables.values())
        return {
            "qp.apply_filter": sum(len(t) for t in filtered),
            "sim.rk4_step": steps,
            "chain.dynamics": 4 * steps,
        }, sum(int(np.sum(t.branch == "corrected")) for t in filtered)


class PolyLifted:
    """``run_scenario`` of triple_demo.cfg with its circle as a polynomial.

    The only workload on the lifted (autodiff) chain path.
    """

    def __init__(self, seed: int, workdir: Path):
        text = (PRESETS / "triple_demo.cfg").read_text(encoding="utf-8")
        circle = "kind = circle\ncenter = 2, 2\nradius = 1\n"
        if circle not in text:
            raise ValueError("triple_demo.cfg no longer holds the expected circle")
        text = _with_seed(text, seed).replace(
            circle, f"kind = polynomial\nterms = {POLY_TERMS}\n"
        )
        path = workdir / "triple_poly.cfg"
        path.write_text(text, encoding="utf-8")
        self.scenario = _tvcbf("config").load_config(path).scenario
        if not isinstance(self.scenario.oracle, _tvcbf("barrier").PolynomialBarrier):
            raise ValueError("the written config did not select a polynomial barrier")
        self.rows = self.scenario.steps + 1
        self.trajectory = None

    def round(self):
        """One closed-loop run; ``marks`` cuts it into segments of
        POLY_SEGMENT_CALLS decisions."""
        self.marks = []
        with _marking(_tvcbf("qp").apply_filter, self.marks, POLY_SEGMENT_CALLS):
            self.trajectory = _tvcbf("sim").run_scenario(self.scenario)
        return self.rows, self.rows - len(self.trajectory.times)

    def check(self):
        table = checks.table_from_trajectory(self.trajectory)
        circle = replace(
            self.scenario, oracle=_tvcbf("barrier").CircularObstacle((2.0, 2.0), 1.0)
        )
        reference = checks.table_from_trajectory(_tvcbf("sim").run_scenario(circle))
        out = checks.check_rows("poly", table, self.rows)
        if self.trajectory.annotation:
            out.append(f"poly: run aborted: {self.trajectory.annotation}")
        h1 = checks.circle_h1(table.x, 2, (2.0, 2.0), 1.0)
        out += checks.check_h1("poly", table.h[:, 0], h1)
        if not np.min(h1) > 0.0:
            out.append(f"poly: min h1 {np.min(h1):.6g} is not positive")
        out += checks.check_tables_match("poly vs circle", table, reference)
        out += checks.check_exact_propagation("poly", table, 3, 2, self.scenario.dt)
        out += checks.check_level_floor("poly", table, 3, TRIPLE_LAST_LEVEL, 3.0)
        return out

    def output_counts(self):
        rows = len(self.trajectory.times)
        return {
            "qp.apply_filter": rows,
            "sim.rk4_step": rows - 1,
            "chain.dynamics": 4 * (rows - 1),
        }, self.trajectory.branches.count("corrected")


# sweep geometry: the obstacle of the presets and one tilted half-plane
SWEEP_CENTER, SWEEP_RADIUS = (2.0, 2.0), 1.0
SWEEP_NORMAL, SWEEP_OFFSET = (0.6, 0.8), 1.0
SWEEP_ORDERS = (2, 3, 4, 5)
SWEEP_GROUPS = 4  # groups per chain
SWEEP_GROUP_SIZE = 16  # states per group, all at the group's time instant
SWEEP_THETA = 0.3  # disturbance bound of the robust chains
SWEEP_SMOOTHING = 0.5
SWEEP_LEVEL_GAIN = 2.0
SWEEP_FD_STEP = 1e-5


class FilterSweep:
    """Pointwise ``qp.safety_filter`` calls on seeded safe states.

    32 chains: orders 2-5 x circle/half-plane x robust/unperturbed x
    exponent factor 1/1.5, two axes, linear gain.  Each chain gets
    SWEEP_GROUPS groups of SWEEP_GROUP_SIZE calls that share one time
    instant; nothing is integrated.
    """

    def __init__(self, seed: int, workdir: Path):
        barrier, gains = _tvcbf("barrier"), _tvcbf("gains")
        system_cls = _tvcbf("chain").IntegratorChain
        rng = np.random.default_rng(seed)
        self.groups = []
        for order in SWEEP_ORDERS:
            system = system_cls(order=order, axes=2)
            for kind in ("circle", "halfplane"):
                if kind == "circle":
                    oracle = barrier.CircularObstacle(SWEEP_CENTER, SWEEP_RADIUS)
                else:
                    oracle = barrier.HalfPlane(SWEEP_NORMAL, SWEEP_OFFSET)
                for robust in (False, True):
                    for factor in (1.0, 1.5):
                        schedule = gains.GainSchedule(
                            levels=(SWEEP_LEVEL_GAIN,) * order,
                            function=gains.LinearGain(),
                            exponent_factor=factor,
                            robust=robust,
                        )
                        chain = barrier.BarrierChain(
                            system, oracle, schedule,
                            smoothing=(SWEEP_SMOOTHING,) * order,
                            disturbance_bound=SWEEP_THETA if robust else 0.0,
                        )
                        for _ in range(SWEEP_GROUPS):
                            t = float(rng.uniform(0.0, 2.0))
                            xs = _safe_states(rng, kind, order, SWEEP_GROUP_SIZE)
                            u_nos = rng.uniform(-5.0, 5.0, size=(SWEEP_GROUP_SIZE, 2))
                            self.groups.append((kind, chain, t, xs, u_nos))
        self.calls = sum(len(g[3]) for g in self.groups)
        self.decisions = []

    def round(self):
        qp = _tvcbf("qp")
        decisions, failed = [], 0
        for _, chain, t, xs, u_nos in self.groups:
            for x, u_no in zip(xs, u_nos):
                try:
                    decisions.append(qp.safety_filter(chain, x, t, u_no))
                except _tvcbf("errors").TvcbfError:
                    decisions.append(None)
                    failed += 1
        self.decisions = decisions
        return self.calls, failed

    def check(self):
        out = []
        ok = [d is not None for d in self.decisions]
        if not all(ok):
            out.append(f"sweep: {ok.count(False)} filter calls raised")
        u_nos = [u for *_, group_u in self.groups for u in group_u]
        done = [(u, d) for u, d in zip(u_nos, self.decisions) if d is not None]
        out += checks.check_filter_decisions(
            [u for u, _ in done],
            [d.u for _, d in done],
            [d.slack for _, d in done],
            [d.branch for _, d in done],
            [d.row for _, d in done],
            [d.offset for _, d in done],
        )
        for kind, chain, t, xs, _ in self.groups:
            h1 = np.array([chain.evaluate(x, t).values[0] for x in xs])
            if kind == "circle":
                ref = checks.circle_h1(xs, 2, SWEEP_CENTER, SWEEP_RADIUS)
            else:
                ref = checks.halfplane_h1(xs, SWEEP_NORMAL, SWEEP_OFFSET)
            out += checks.check_h1(f"sweep {kind} order {chain.order}", h1, ref)
        # one state per chain: derivatives against central differences of
        # eval_level, and the same chain over the oracle as a plain callable
        for kind, chain, t, xs, _ in self.groups[::SWEEP_GROUPS]:
            out += _check_derivatives(f"sweep {kind} order {chain.order}", chain, xs[0], t)
        return out

    def output_counts(self):
        made = [d for d in self.decisions if d is not None]
        return {
            "qp.safety_filter": self.calls,
            "qp.apply_filter": len(made),
            "barrier.evaluate": self.calls,
            "sim.rk4_step": 0,
            "chain.dynamics": 0,
        }, sum(d.branch == "corrected" for d in made)


def _safe_states(rng, kind, order, count):
    """States with h1 > 0: positions 0.1-2 units clear of the boundary
    (circle: 1.1-3 radii from the center), higher blocks in [-1, 1]."""
    dim = 2 * order
    xs = np.empty((count, dim))
    if kind == "circle":
        direction = rng.normal(size=(count, 2))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        xs[:, :2] = np.asarray(SWEEP_CENTER) + direction * (
            SWEEP_RADIUS * rng.uniform(1.1, 3.0, size=(count, 1))
        )
    else:
        normal = np.asarray(SWEEP_NORMAL)
        tangent = np.array([-normal[1], normal[0]])
        xs[:, :2] = (
            (SWEEP_OFFSET + rng.uniform(0.1, 2.0, size=(count, 1))) * normal
            + rng.uniform(-2.0, 2.0, size=(count, 1)) * tangent
        )
    xs[:, 2:] = rng.uniform(-1.0, 1.0, size=(count, dim - 2))
    return xs


def _check_derivatives(label, chain, x, t):
    n, dim, h = chain.order, chain.dim, SWEEP_FD_STEP
    ev = chain.evaluate(x, t)

    def top(xx, tt):
        return chain.eval_level(n, xx, tt).value

    fd_grad = np.empty(dim)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        fd_grad[j] = (top(x + e, t) - top(x - e, t)) / (2.0 * h)
    fd_tp = (top(x, t + h) - top(x, t - h)) / (2.0 * h)
    out = checks.check_close(f"{label} gradient vs central differences", ev.gradient, fd_grad, 1e-5)
    out += checks.check_close(f"{label} time partial vs central differences", ev.time_partial, fd_tp, 1e-5)
    oracle = chain.oracle
    lifted = _tvcbf("barrier").BarrierChain(
        chain.system, lambda xt: oracle(xt), chain.schedule,
        smoothing=chain.smoothing, disturbance_bound=chain.disturbance_bound,
    ).evaluate(x, t)
    for name in ("values", "gradient", "time_partial", "drift_rate"):
        out += checks.check_close(
            f"{label} {name} vs lifted path", getattr(ev, name), getattr(lifted, name), 1e-9
        )
    return out


WORKLOADS = {"fig1_cli": Fig1Cli, "filter_sweep": FilterSweep, "poly_lifted": PolyLifted}
