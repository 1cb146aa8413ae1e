"""Output checks for the benchmark workloads.

Every check takes plain arrays and returns a list of failure messages
(empty when the check passes).  The reference values are recomputed
here from the formulas of the method, never taken from the program's
own helpers, so a check can only pass if the program's output agrees
with an independent computation or has a property the method must have.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

FILTERED = ("passthrough", "corrected")
MAX_MESSAGES = 3


@dataclass
class Table:
    """One trajectory: rows of t, state, input, disturbance, h and branch."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    d: np.ndarray
    h: np.ndarray
    branch: np.ndarray

    def __len__(self):
        return self.t.shape[0]

    def copy(self) -> "Table":
        return Table(*(np.array(a, copy=True) for a in vars(self).values()))


def read_trajectory_csv(path) -> Table:
    """Parse a trajectory CSV written by ``tvcbf simulate`` or ``compare``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: j for j, name in enumerate(header)}
    numeric = np.array([[float(v) for v in r[:-1]] for r in body]).reshape(
        len(body), len(header) - 1
    )

    def block(prefix):
        idx = [cols[c] for c in header if c[:1] == prefix and c[1:].isdigit()]
        return numeric[:, idx]

    return Table(
        t=numeric[:, cols["t"]],
        x=block("x"),
        u=block("u"),
        d=block("d"),
        h=block("h"),
        branch=np.array([r[-1] for r in body]),
    )


def table_from_trajectory(trajectory) -> Table:
    return Table(
        t=np.asarray(trajectory.times),
        x=np.asarray(trajectory.states),
        u=np.asarray(trajectory.inputs),
        d=np.asarray(trajectory.disturbances),
        h=np.asarray(trajectory.barrier_values),
        branch=np.array(trajectory.branches),
    )


def _fail(label, bad_rows, detail):
    rows = [int(i) for i in np.flatnonzero(bad_rows)[:MAX_MESSAGES]]
    return [f"{label}: {int(np.count_nonzero(bad_rows))} rows fail ({detail}), first at {rows}"]


def _rel_err(a, b):
    """Row-wise max |a - b| relative to max(1, |b|)."""
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    scale = np.maximum(1.0, np.abs(b))
    return np.max(np.abs(a - b) / scale, axis=1)


def circle_h1(x, axes, center, radius) -> np.ndarray:
    p = np.asarray(x)[:, :axes]
    return 0.5 * (np.sum((p - np.asarray(center)) ** 2, axis=1) - radius * radius)


def halfplane_h1(x, normal, offset) -> np.ndarray:
    normal = np.asarray(normal, dtype=float)
    return np.asarray(x)[:, : normal.shape[0]] @ normal - offset


def check_rows(label, table: Table, expected: int) -> list[str]:
    """A completed run records one row per grid point, all finite."""
    out = []
    if len(table) != expected:
        out.append(f"{label}: {len(table)} rows, expected {expected}")
    for name in ("t", "x", "u", "d", "h"):
        if not np.all(np.isfinite(getattr(table, name))):
            out.append(f"{label}: non-finite values in column block {name}")
    return out


def check_h1(label, h1, reference, tol=1e-9) -> list[str]:
    """The recorded level-1 value equals the barrier formula."""
    err = _rel_err(h1, reference)
    bad = ~(err <= tol)
    return _fail(label, bad, f"h1 off its formula by up to {err.max():.3g}") if bad.any() else []


def exact_step(x, u, d, order, axes, dt) -> np.ndarray:
    """Exact solution over dt of the integrator chain under held u and d.

    Block k obeys x_k' = x_{k+1} + d_k (k < n-1) and x_{n-1}' = u + d_{n-1},
    so over a step of length dt every block is a polynomial in dt.
    """
    n, m = order, axes
    blocks = [np.asarray(x)[:, k * m : (k + 1) * m] for k in range(n)]
    dist = [np.asarray(d)[:, k * m : (k + 1) * m] for k in range(n)]
    out = []
    for k in range(n):
        acc = np.zeros_like(blocks[k])
        for j in range(k, n):
            acc = acc + blocks[j] * (dt ** (j - k) / math.factorial(j - k))
            acc = acc + dist[j] * (dt ** (j - k + 1) / math.factorial(j - k + 1))
        acc = acc + np.asarray(u) * (dt ** (n - k) / math.factorial(n - k))
        out.append(acc)
    return np.concatenate(out, axis=1)


def check_exact_propagation(label, table: Table, order, axes, dt, tol=1e-12) -> list[str]:
    """Each filtered row's next state is the exact step under its held u, d.

    RK4 is exact here: with the input and disturbance held, the
    augmented drift is nilpotent of order n + 1 <= 5.
    """
    rows = np.flatnonzero(np.isin(table.branch[:-1], FILTERED))
    if rows.size == 0:
        return [f"{label}: no filtered rows to propagate"]
    expected = exact_step(table.x[rows], table.u[rows], table.d[rows], order, axes, dt)
    err = _rel_err(table.x[rows + 1], expected)
    bad = np.zeros(len(table), dtype=bool)
    bad[rows[~(err <= tol)]] = True
    if bad.any():
        return _fail(label, bad, f"next state off the exact step by up to {err.max():.3g}")
    return []


def feedback_law(x, goal, gains, axes) -> np.ndarray:
    """u = -gains[0] (p - goal) - sum_k gains[k] x_k over the state blocks."""
    x = np.asarray(x)
    u = -gains[0] * (x[:, :axes] - np.asarray(goal))
    for k in range(1, len(gains)):
        u = u - gains[k] * x[:, k * axes : (k + 1) * axes]
    return u


def check_feedback_rows(label, table: Table, goal, gains, axes, tol=1e-12) -> list[str]:
    """Passthrough and nominal rows apply exactly the nominal feedback law."""
    rows = np.flatnonzero(np.isin(table.branch, ("passthrough", "nominal")))
    if rows.size == 0:
        return []
    err = _rel_err(table.u[rows], feedback_law(table.x[rows], goal, gains, axes))
    bad = np.zeros(len(table), dtype=bool)
    bad[rows[~(err <= tol)]] = True
    return _fail(label, bad, f"input off the feedback law by up to {err.max():.3g}") if bad.any() else []


def check_disturbance(label, table: Table, channels, noise_amplitude, tol=1e-12) -> list[str]:
    """Each entry minus its sinusoids lies in [0, noise amplitude].

    ``channels`` lists, per state channel, (amplitude, frequency, shape)
    terms with shape "sin" or "cos".
    """
    t = table.t
    det = np.zeros_like(table.d)
    for k, terms in enumerate(channels):
        for amp, freq, shape in terms:
            det[:, k] += amp * (np.sin(freq * t) if shape == "sin" else np.cos(freq * t))
    residual = table.d - det
    bad = np.any((residual < -tol) | (residual > noise_amplitude + tol), axis=1)
    if bad.any():
        return _fail(
            label, bad,
            f"noise part in [{residual.min():.3g}, {residual.max():.3g}], "
            f"allowed [0, {noise_amplitude}]",
        )
    return []


def check_comparison(srcbf_h1, sbcbf_h1, nominal: Table, goal, axes, goal_tol=0.05) -> list[str]:
    """The paper's outcome: srcbf stays safe, sbcbf violates, nominal arrives."""
    out = []
    if not np.min(srcbf_h1) > 0.0:
        out.append(f"srcbf min h1 {np.min(srcbf_h1):.6g} is not positive")
    if not np.min(sbcbf_h1) < 0.0:
        out.append(f"sbcbf min h1 {np.min(sbcbf_h1):.6g} is not negative")
    err = float(np.linalg.norm(nominal.x[-1, :axes] - np.asarray(goal)))
    if not err <= goal_tol:
        out.append(f"nominal goal error {err:.6g} exceeds {goal_tol}")
    return out


def check_same_bytes(label, a: bytes, b: bytes) -> list[str]:
    return [] if a == b else [f"{label}: files differ"]


def check_filter_decisions(u_no, u, slack, branch, row, offset, tol=1e-9) -> list[str]:
    """Properties of the minimal-deviation projection onto one half-space.

    Per call: the slack is row . u_no + offset; the applied input meets
    the constraint; passthrough exactly when slack >= 0, and then u is
    u_no; otherwise the constraint is active at u and u - u_no is a
    positive multiple of the row.
    """
    u_no, u, row = (np.asarray(a, dtype=float) for a in (u_no, u, row))
    slack, offset = np.asarray(slack, dtype=float), np.asarray(offset, dtype=float)
    branch = np.asarray(branch)
    out = []
    row_norm = np.linalg.norm(row, axis=1)
    scale = np.maximum(1.0, row_norm * np.maximum(
        np.linalg.norm(u, axis=1), np.linalg.norm(u_no, axis=1)) + np.abs(offset))
    bad = ~(np.abs(np.sum(row * u_no, axis=1) + offset - slack) <= tol * scale)
    if bad.any():
        out += _fail("sweep slack", bad, "slack is not row . u_no + offset")
    value = np.sum(row * u, axis=1) + offset
    bad = ~(value >= -tol * scale)
    if bad.any():
        out += _fail("sweep constraint", bad, f"applied input violates it by {-value.min():.3g}")
    passthrough = branch == "passthrough"
    bad = passthrough != (slack >= 0.0)
    if bad.any():
        out += _fail("sweep branch", bad, "branch is not passthrough exactly when slack >= 0")
    bad = passthrough & np.any(u != u_no, axis=1)
    if bad.any():
        out += _fail("sweep passthrough", bad, "u differs from u_no")
    corrected = branch == "corrected"
    bad = corrected & ~(np.abs(value) <= tol * scale)
    if bad.any():
        out += _fail("sweep active", bad, f"corrected input off the boundary by {np.abs(value[corrected]).max():.3g}")
    step = u - u_no
    along = np.sum(step * row, axis=1) / np.where(row_norm > 0.0, row_norm**2, 1.0)
    perp = np.linalg.norm(step - along[:, None] * row, axis=1)
    bad = corrected & ~((perp <= tol * np.maximum(1.0, np.linalg.norm(step, axis=1))) & (along > 0.0))
    if bad.any():
        out += _fail("sweep direction", bad, "u - u_no is not a positive multiple of the row")
    bad = ~(passthrough | corrected)
    if bad.any():
        out += _fail("sweep branch", bad, "unknown branch name")
    return out


def check_close(label, actual, reference, tol) -> list[str]:
    """max |actual - reference| / max(1, max |reference|) <= tol."""
    actual, reference = np.asarray(actual, dtype=float), np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.max(np.abs(reference))))
    err = float(np.max(np.abs(actual - reference))) / scale
    return [] if err <= tol else [f"{label}: relative error {err:.3g} > {tol}"]


def check_tables_match(label, table: Table, reference: Table, tol=1e-9) -> list[str]:
    """Two runs of one scenario agree in states, inputs, h values and branches."""
    if len(table) != len(reference):
        return [f"{label}: {len(table)} rows against {len(reference)}"]
    out = []
    for name in ("x", "u", "h"):
        err = _rel_err(getattr(table, name), getattr(reference, name))
        bad = ~(err <= tol)
        if bad.any():
            out += _fail(f"{label} {name}", bad, f"differs by up to {err.max():.3g}")
    bad = table.branch != reference.branch
    if bad.any():
        out += _fail(f"{label} branch", bad, "branches differ")
    return out


def check_level_floor(label, table: Table, level, gain, exponent, t0=0.0, factor=0.95) -> list[str]:
    """h_level(t) >= factor * h_level(t0) * exp(-gain * int_t0^t (1+s)^exponent ds).

    The decay floor of a chain level under the filter with the linear
    gain 1 + t; ``factor`` leaves room for the sampled-data loop.
    """
    h = table.h[:, level - 1]
    if not h[0] > 0.0:
        return [f"{label}: h{level}(t0) = {h[0]:.6g} is not positive"]
    e = exponent + 1.0
    integral = ((1.0 + table.t) ** e - (1.0 + t0) ** e) / e
    floor = factor * h[0] * np.exp(-gain * integral)
    bad = ~(h >= floor)
    return _fail(label, bad, f"h{level} below its decay floor") if bad.any() else []


def check_counts(counts: dict, expected: dict) -> list[str]:
    """Layer call counts from the trace equal the counts implied by the outputs."""
    return [
        f"trace count {name} = {counts.get(name, 0)}, outputs imply {value}"
        for name, value in expected.items()
        if counts.get(name, 0) != value
    ]
