"""Backstepping barrier chains over integrator dynamics.

Level 1 is a user barrier on the state (positive inside the safe set).
Each further level adds the gain-scaled previous level, its rate of
change along the drift, and - in the robust construction - subtracts a
smooth margin that dominates the worst-case disturbance action:

    level[i] = gain[i-1] * g(t)**(e*(i-1)) * level[i-1]
               + d(level[i-1])/dx . (A x)
               - margin[i-1]                  (robust only)

Oracles with a ``quadratic_form`` (``CircularObstacle``, ``HalfPlane``
and a ``PolynomialBarrier`` whose terms all have total degree at most
2) take a closed-form path.  The drift A is the linear shift, so every
level stays quadratic, h_i = 0.5 x'P_i x + q_i'x + r_i, with
s_i = gain[i] * g(t)**(e*i) and

    P_{i+1} = s_i P_i + P_i A + A'P_i - P_i P_i / (2 mu_i)
    q_{i+1} = s_i q_i + A'q_i - P_i q_i / (2 mu_i)
    r_{i+1} = s_i r_i - |q_i|^2 / (4 mu_i) - mu_i theta^2

(the mu terms in the robust construction only).  Time partials follow
by carrying (dP/dt, dq/dt, dr/dt) along, using ds_i/dt from
``GainFunction.power_jet``; the cost grows linearly with the order.
The coefficients depend on t alone, so the recursion runs once per
time instant: a chain keeps the last instant's coefficients and reuses
them for every state evaluated at that instant, which leaves one
matrix-vector product per level, plus one for the time partial, for
each further state.  A closed loop knows its time grid in advance, so
``BarrierChain.hold`` runs the same recursion once over a block of
instants, with the instants as a leading axis of every coefficient
array, and an evaluation at one of them only looks its coefficients
up.

Any other oracle (a ``PolynomialBarrier`` of degree 3 or more, a user
callable) takes the lifted path: the recursion re-lifts its inputs at
every level through ``tvcbf.autodiff``, so the gradient of level i-1 is
available as differentiable quantities when level i is formed.  Its
cost grows about tenfold with each added order.  Neither path uses
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff
from .autodiff import FirstOrderNumber, SecondOrderNumber, unwrap
from .chain import IntegratorChain
from .errors import (
    DimensionError,
    DomainError,
    ParameterError,
    UnsafeInitializationError,
)
from .gains import (
    GainSchedule,
    initial_gain_perturbed,
    initial_gain_unperturbed,
)

__all__ = [
    "CircularObstacle",
    "HalfPlane",
    "PolynomialBarrier",
    "BarrierEvaluation",
    "ChainEvaluation",
    "BarrierChain",
    "robust_margin",
    "auto_gains",
]

DEFAULT_SMOOTHING = 0.2


# -- barrier oracles ----------------------------------------------------


def _check_leading(k: int, dim: int, what: str) -> int:
    if k > dim:
        raise DimensionError(f"{what} has {k} entries, state has only {dim}")
    return k


@dataclass(frozen=True)
class CircularObstacle:
    """Positive outside a ball around ``center`` in the level-1 block.

    h(x) = 0.5 * (|p - center|^2 - radius^2) where p holds the first
    len(center) state entries.
    """

    center: tuple[float, ...]
    radius: float

    smoothness_order = None  # polynomial, differentiable to any order

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not self.center:
            raise ParameterError("obstacle center must have at least one coordinate")
        if self.radius <= 0.0:
            raise ParameterError(f"obstacle radius must be positive, got {self.radius}")

    def __call__(self, x):
        acc = 0.0
        for j, c in enumerate(self.center):
            dj = x[j] - c
            acc = acc + dj * dj
        return 0.5 * (acc - self.radius * self.radius)

    def quadratic_form(self, dim: int):
        """(P, q, r) with h(x) = 0.5 x'Px + q'x + r over a length-dim state."""
        k = _check_leading(len(self.center), dim, "obstacle center")
        c = np.array(self.center)
        p = np.zeros((dim, dim))
        p[range(k), range(k)] = 1.0
        q = np.zeros(dim)
        q[:k] = -c
        return p, q, 0.5 * (float(c @ c) - self.radius * self.radius)


@dataclass(frozen=True)
class HalfPlane:
    """h(x) = normal . x - offset over the leading state entries."""

    normal: tuple[float, ...]
    offset: float = 0.0

    smoothness_order = None

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(float(a) for a in self.normal))
        if not any(self.normal):
            raise ParameterError("half-plane normal must be nonzero")

    def __call__(self, x):
        acc = 0.0
        for j, a in enumerate(self.normal):
            if a != 0.0:
                acc = acc + a * x[j]
        return acc - self.offset

    def quadratic_form(self, dim: int):
        """(P, q, r) with h(x) = 0.5 x'Px + q'x + r over a length-dim state."""
        k = _check_leading(len(self.normal), dim, "half-plane normal")
        q = np.zeros(dim)
        q[:k] = self.normal
        return np.zeros((dim, dim)), q, -self.offset


@dataclass(frozen=True)
class PolynomialBarrier:
    """Sum of monomials: terms are (coefficient, ((state index, power), ...))."""

    terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

    smoothness_order = None

    def __post_init__(self):
        canon = tuple(
            (float(c), tuple((int(j), int(p)) for j, p in factors))
            for c, factors in self.terms
        )
        object.__setattr__(self, "terms", canon)
        if not canon:
            raise ParameterError("polynomial barrier needs at least one term")
        for _, factors in canon:
            if any(p < 1 or j < 0 for j, p in factors):
                raise ParameterError(f"bad monomial factors {factors}")

    def __call__(self, x):
        acc = 0.0
        for coeff, factors in self.terms:
            term = coeff
            for j, p in factors:
                term = term * (x[j] ** p if p > 1 else x[j])
            acc = acc + term
        return acc

    def _check_reads(self, dim: int):
        reads = 1 + max(
            (j for _, factors in self.terms for j, _ in factors), default=-1
        )
        if reads > dim:
            raise DimensionError(
                f"polynomial barrier reads x{reads}, state has only {dim} entries"
            )

    def quadratic_form(self, dim: int):
        """(P, q, r) with h(x) = 0.5 x'Px + q'x + r over a length-dim state,
        or None when a term has total degree above 2."""
        self._check_reads(dim)
        if any(sum(k for _, k in factors) > 2 for _, factors in self.terms):
            return None
        p = np.zeros((dim, dim))
        q = np.zeros(dim)
        r = 0.0
        for coeff, factors in self.terms:
            index = [j for j, k in factors for _ in range(k)]
            if not index:
                r += coeff
            elif len(index) == 1:
                q[index[0]] += coeff
            elif index[0] == index[1]:
                p[index[0], index[0]] += 2.0 * coeff
            else:
                # split symmetrically: the chain recursion assumes P = P'
                a, b = index
                p[a, b] += coeff
                p[b, a] += coeff
        return p, q, r


# -- evaluation records -------------------------------------------------


@dataclass(frozen=True)
class BarrierEvaluation:
    """One chain level at one (state, time) point."""

    level: int
    value: float
    gradient: np.ndarray  # spatial only, length order*axes
    time_partial: float


@dataclass(frozen=True)
class ChainEvaluation:
    """All level values plus the top level's derivatives, in one pass."""

    values: np.ndarray  # h_1 .. h_n
    gradient: np.ndarray  # spatial gradient of the top level
    time_partial: float  # time partial of the top level
    drift_rate: float  # gradient . (A x) of the top level
    level1_gradient_norm: float


def robust_margin(gradient, mu: float, theta: float) -> float:
    """Smooth upper bound on the worst-case disturbance action.

    (1/(4 mu)) |g|^2 + mu theta^2 >= |g| theta for every mu > 0, with
    equality exactly at |g| = 2 mu theta.
    """
    if mu <= 0.0:
        raise ParameterError(f"smoothing constant must be positive, got {mu}")
    if theta < 0.0:
        raise ParameterError(f"disturbance bound must be nonnegative, got {theta}")
    g = np.asarray(gradient, dtype=float)
    return float(g @ g) / (4.0 * mu) + mu * theta * theta


class _LevelSink:
    """Collects per-level values (and the level-1 gradient) during a pass."""

    __slots__ = ("values", "grad1_sq")

    def __init__(self):
        self.values = {}
        self.grad1_sq = None


class BarrierChain:
    """Immutable barrier chain over an integrator system.

    ``smoothing`` lists one positive constant per level; level i's
    constant shapes the margin subtracted when forming level i+1, and
    the last one shapes the filter constraint's margin.  The robust
    flag comes from the gain schedule; the unperturbed construction
    ignores ``disturbance_bound`` (it must be 0 there).  After
    construction a chain stores only closed-form coefficients: those
    of the last time it was evaluated at, and those of the block of
    instants passed to the last ``hold``.  They follow from the
    construction arguments and their times alone, so no result depends
    on the order of calls.
    """

    def __init__(
        self,
        system: IntegratorChain,
        oracle,
        schedule: GainSchedule,
        smoothing=None,
        disturbance_bound: float = 0.0,
        include_time_partial: bool = True,
    ):
        n = system.order
        if len(schedule.levels) != n:
            raise ParameterError(
                f"schedule has {len(schedule.levels)} levels, system order is {n}"
            )
        if smoothing is None:
            smoothing = (DEFAULT_SMOOTHING,) * n
        smoothing = tuple(float(v) for v in smoothing)
        if len(smoothing) != n:
            raise ParameterError(
                f"need one smoothing constant per level ({n}), got {len(smoothing)}"
            )
        if any(v <= 0.0 for v in smoothing):
            raise ParameterError(f"smoothing constants must be positive: {smoothing}")
        if disturbance_bound < 0.0:
            raise ParameterError(
                f"disturbance bound must be nonnegative, got {disturbance_bound}"
            )
        if not schedule.robust and disturbance_bound != 0.0:
            raise ParameterError(
                "unperturbed construction takes no disturbance bound; "
                "use a robust schedule or bound 0"
            )
        declared = getattr(oracle, "smoothness_order", None)
        if declared is not None and declared < n:
            raise ParameterError(
                f"barrier oracle is only C^{declared}; chain of order {n} "
                f"needs at least C^{n}"
            )
        if isinstance(oracle, PolynomialBarrier):
            # the lifted path would read t as the entry past the state
            oracle._check_reads(system.dim)
        self.system = system
        self.oracle = oracle
        self.schedule = schedule
        self.smoothing = smoothing
        self.disturbance_bound = float(disturbance_bound)
        self.include_time_partial = bool(include_time_partial)
        self._bound_sq = self.disturbance_bound**2
        # exponent on the gain value when scaling level i, index i-1
        self._exponents = tuple(schedule.level_exponent(i) for i in range(1, n + 1))
        # level 1 as (P, q, r) for quadratic oracles; None selects the lifted path
        form = getattr(oracle, "quadratic_form", None)
        level1 = None if form is None else form(system.dim)
        if level1 is not None:
            p, q, r = level1
            level1 = (p, q, r, np.zeros_like(p), np.zeros_like(q), 0.0)
        self._level1 = level1  # with zero time derivatives
        self._shift = np.eye(system.dim, k=system.axes)  # the drift A
        self._instant = (None, [])  # (t, _coefficients at t)
        self._held = ({}, [])  # ({t: index}, levels 2..n over the instants)

    @property
    def order(self) -> int:
        return self.system.order

    @property
    def axes(self) -> int:
        return self.system.axes

    @property
    def dim(self) -> int:
        return self.system.dim

    @property
    def robust(self) -> bool:
        return self.schedule.robust

    @property
    def gain_function(self):
        return self.schedule.function

    def with_levels(self, levels) -> "BarrierChain":
        """Copy of this chain with replaced per-level gain constants."""
        return BarrierChain(
            self.system,
            self.oracle,
            replace(self.schedule, levels=tuple(levels)),
            self.smoothing,
            self.disturbance_bound,
            self.include_time_partial,
        )

    def _check_state(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionError(f"state must have length {self.dim}, got {x.shape}")
        return x

    # -- closed-form evaluation of quadratic chains ---------------------

    def _extend(self, levels, i, jet):
        """Coefficient list ``levels`` extended by the recursion to level i.

        ``jet(k)`` is (s, ds/dt) of the gain power that scales level k:
        floats for one instant, or arrays over a block of instants, in
        which case every level formed has the instants as its leading
        axis.  Returns a new list; ``levels`` is left as it is.
        """
        a = self._shift
        for k in range(len(levels), i):
            p, q, r, p_dot, q_dot, r_dot = levels[-1]
            rho = self.schedule.levels[k - 1]
            s_val, s_dot = jet(k)
            s_val, s_dot = rho * s_val, rho * s_dot
            if isinstance(s_val, np.ndarray):  # each instant scales its own q, P
                sq, sq_dot = s_val[:, None], s_dot[:, None]
                sp, sp_dot = s_val[:, None, None], s_dot[:, None, None]
            else:
                sq = sp = s_val
                sq_dot = sp_dot = s_dot
            pa, pa_dot = p @ a, p_dot @ a
            p_next = sp * p + pa + pa.mT
            p_dot_next = sp_dot * p + sp * p_dot + pa_dot + pa_dot.mT
            q_next = sq * q + q @ a
            q_dot_next = sq_dot * q + sq * q_dot + q_dot @ a
            r_next = s_val * r
            r_dot_next = s_dot * r + s_val * r_dot
            if self.schedule.robust:
                mu = self.smoothing[k - 1]
                pp_dot = p_dot @ p
                p_next -= p @ p / (2.0 * mu)
                p_dot_next -= (pp_dot + pp_dot.mT) / (2.0 * mu)
                q_next -= np.matvec(p, q) / (2.0 * mu)
                pq_dot = np.matvec(p_dot, q) + np.matvec(p, q_dot)
                q_dot_next -= pq_dot / (2.0 * mu)
                r_next -= np.vecdot(q, q) / (4.0 * mu) + mu * self._bound_sq
                r_dot_next -= np.vecdot(q, q_dot) / (2.0 * mu)
            levels = levels + [
                (p_next, q_next, r_next, p_dot_next, q_dot_next, r_dot_next)
            ]
        return levels

    def hold(self, times):
        """Compute every level's coefficients at each of ``times`` at once.

        The block is kept until the next ``hold`` and replaces the one
        before; an evaluation at one of its instants looks its
        coefficients up instead of running the recursion.  The block
        ends before the first instant at which the gain raises, so an
        evaluation there raises as it would without a block.  The gain
        power of each level is taken once per instant, as for a single
        instant.  Chains on the lifted path hold nothing.
        """
        self._held = ({}, [])
        if self._level1 is None:
            return
        jets = []
        for t in times:
            try:
                jets.append(
                    [self.gain_function.power_jet(e, t) for e in self._exponents[:-1]]
                )
            except (DomainError, OverflowError):
                break
        if not jets:
            return
        jets = np.array(jets)  # (instant, level - 1, value or derivative)
        levels = self._extend(
            [self._level1], self.order, lambda k: (jets[:, k - 1, 0], jets[:, k - 1, 1])
        )
        block = [
            (p, q, r.tolist(), pd, qd, rd.tolist())
            for p, q, r, pd, qd, rd in levels[1:]
        ]
        self._held = ({t: j for j, t in enumerate(times[: len(jets)])}, block)

    def _coefficients(self, i, t):
        """(P, q, r, dP/dt, dq/dt, dr/dt) of levels 1..i (at least) at t.

        They depend on t alone.  An instant of the held block is looked
        up; otherwise the recursion runs for t alone.  The last
        instant's list is kept and reused, and extended when a higher
        level is asked for, while t is unchanged.  The list is stored
        only once every level it holds is computed, so a time the gain
        rejects raises on every call.
        """
        cached_t, levels = self._instant
        if cached_t != t:
            index, block = self._held
            j = index.get(t)
            if j is None:
                levels = [self._level1]
            else:
                levels = [self._level1] + [
                    (p[j], q[j], r[j], pd[j], qd[j], rd[j])
                    for p, q, r, pd, qd, rd in block
                ]
        if len(levels) < i:
            gain, exponents = self.gain_function, self._exponents
            levels = self._extend(
                levels, i, lambda k: gain.power_jet(exponents[k - 1], t)
            )
        self._instant = (t, levels)
        return levels

    def _closed_form(self, i, x, t):
        """Levels 1..i over a quadratic oracle, from the coefficients at t.

        Returns the level values, the spatial gradients of levels 1..i
        and level i's time partial; every returned array is freshly
        computed from x.
        """
        levels = self._coefficients(i, t)[:i]
        values, grads = [], []
        for p, q, r, *_ in levels:
            grad = p @ x + q
            grads.append(grad)
            values.append(0.5 * float(x @ (grad + q)) + r)
        _, _, _, p_dot, q_dot, r_dot = levels[-1]
        tp = 0.5 * float(x @ (p_dot @ x)) + float(q_dot @ x) + r_dot
        return values, grads, float(tp)

    # -- recursive lifted evaluation ----------------------------------

    def _eval_scalar(self, i, xt, sink):
        """Level-i value in duck arithmetic; xt = state entries plus time.

        Gradients of the lower level are obtained by re-lifting the
        inputs, so the returned object keeps the ambient lift depth of
        ``xt`` and carries exact derivatives at that depth.
        """
        dim = self.system.dim
        if i == 1:
            val = self.oracle(xt)
            if sink is not None:
                sink.values[1] = unwrap(val)
                if isinstance(val, (SecondOrderNumber, FirstOrderNumber)):
                    sink.grad1_sq = math.fsum(
                        unwrap(g) ** 2 for g in val.grad[:dim]
                    )
            return val
        seeds = autodiff.lift_first(xt)
        prev = self._eval_scalar(i - 1, seeds, sink)
        g = prev.grad
        m = self.system.axes
        lf = 0.0
        for j in range(dim - m):
            lf = lf + g[j] * xt[j + m]
        scale = self.schedule.levels[i - 2] * (
            self.gain_function.value(xt[dim]) ** self._exponents[i - 2]
        )
        val = scale * prev.value + lf
        if self.schedule.robust:
            sq = 0.0
            for j in range(dim):
                sq = sq + g[j] * g[j]
            mu = self.smoothing[i - 2]
            val = val - (sq / (4.0 * mu) + mu * self._bound_sq)
        if sink is not None:
            sink.values[i] = unwrap(val)
        return val

    def _assemble(self, i, x, t, sink=None):
        """Level-i evaluation with spatial gradient and time partial.

        The level below is evaluated once under a joint (x, t) lift;
        level i's derivatives then follow from the product and chain
        rules, which stays one lift shallower than differentiating
        level i directly.
        """
        x = self._check_state(x)
        dim = self.system.dim
        m = self.system.axes
        t = float(t)
        xt = tuple(x) + (t,)
        seeds = autodiff.lift(xt)

        if i == 1:
            y = self._eval_scalar(1, seeds, sink)
            value = unwrap(y.value)
            grad = np.array([unwrap(gj) for gj in y.grad[:dim]])
            tp = unwrap(y.grad[dim])
            if sink is not None:
                sink.values[1] = value
        else:
            prev = self._eval_scalar(i - 1, seeds, sink)
            v = unwrap(prev.value)
            g = np.array([unwrap(gj) for gj in prev.grad])
            hess = np.array([[unwrap(e) for e in row] for row in prev.hess])
            g_x = g[:dim]
            g_t = g[dim]
            h_xx = hess[:dim, :dim]
            h_tx = hess[dim, :dim]
            ax = self.system.drift(x)

            rho = self.schedule.levels[i - 2]
            exponent = self._exponents[i - 2]
            theta_val, theta_dot = self.gain_function.power_jet(exponent, t)

            value = rho * theta_val * v + float(g_x @ ax)
            grad = rho * theta_val * g_x + h_xx @ ax
            grad[m:] += g_x[: dim - m]  # shift: gradient of the drift term in x
            tp = rho * (theta_dot * v + theta_val * g_t) + float(h_tx @ ax)
            if self.schedule.robust:
                mu = self.smoothing[i - 2]
                value -= float(g_x @ g_x) / (4.0 * mu) + mu * self._bound_sq
                grad -= h_xx @ g_x / (2.0 * mu)
                tp -= float(h_tx @ g_x) / (2.0 * mu)
            if sink is not None:
                sink.values[i] = value

        return BarrierEvaluation(i, float(value), grad, float(tp))

    # -- public API -----------------------------------------------------

    def eval_level(self, i: int, x, t) -> BarrierEvaluation:
        """Evaluate chain level i at (x, t)."""
        if not 1 <= i <= self.order:
            raise ParameterError(
                f"level index must be in 1..{self.order}, got {i}"
            )
        if self._level1 is None:
            return self._assemble(i, x, t)
        values, grads, tp = self._closed_form(i, self._check_state(x), float(t))
        return BarrierEvaluation(i, float(values[-1]), grads[-1], tp)

    def evaluate(self, x, t) -> ChainEvaluation:
        """All level values plus top-level derivatives in a single pass."""
        x = self._check_state(x)
        if self._level1 is None:
            sink = _LevelSink()
            top = self._assemble(self.order, x, t, sink)
            values = [sink.values[i] for i in range(1, self.order + 1)]
            gradient, time_partial = top.gradient, top.time_partial
            grad1_norm = (
                math.sqrt(sink.grad1_sq)
                if sink.grad1_sq is not None
                else float(np.linalg.norm(gradient))
            )
        else:
            values, grads, time_partial = self._closed_form(self.order, x, float(t))
            gradient = grads[-1]
            grad1_norm = math.sqrt(float(grads[0] @ grads[0]))
        return ChainEvaluation(
            values=np.array(values),
            gradient=gradient,
            time_partial=time_partial,
            drift_rate=float(gradient @ self.system.drift(x)),
            level1_gradient_norm=grad1_norm,
        )

    def validate_initialization(self, x0, t0):
        """(level, value, positive?) for every level at the start point."""
        ev = self.evaluate(x0, t0)
        return [(i + 1, float(v), bool(v > 0.0)) for i, v in enumerate(ev.values)]


def auto_gains(
    template: BarrierChain, x0, t0, margin: float = 0.1, last_gain: float = 1.0
) -> GainSchedule:
    """Pick per-level gain constants that make every level start positive.

    Walks the chain bottom-up: each level is evaluated with the gains
    chosen so far, and the next constant comes from the initial-gain
    rule (robust or not, matching the template).  The top-level constant
    is not pinned by initialization and is set to ``last_gain``.
    """
    if last_gain <= 0.0:
        raise ParameterError(f"last_gain must be positive, got {last_gain}")
    n = template.order
    working = [1.0] * n
    chain = template.with_levels(working)
    first = chain.eval_level(1, x0, t0)
    if first.value <= 0.0:
        raise UnsafeInitializationError(
            f"start state is not strictly inside the safe set: "
            f"level-1 value {first.value}"
        )
    x0 = np.asarray(x0, dtype=float)
    for i in range(2, n + 1):
        chain = template.with_levels(working)
        ev = chain.eval_level(i - 1, x0, t0)
        if ev.value <= 0.0:
            raise UnsafeInitializationError(
                f"level {i - 1} is non-positive ({ev.value}) despite the gain rule"
            )
        lf = float(ev.gradient @ template.system.drift(x0))
        ups0 = template.gain_function.value(float(t0)) ** (
            template.schedule.level_exponent(i - 1)
        )
        if template.robust:
            lam = robust_margin(
                ev.gradient, template.smoothing[i - 2], template.disturbance_bound
            )
            working[i - 2] = initial_gain_perturbed(ev.value, lf, lam, ups0, margin)
        else:
            working[i - 2] = initial_gain_unperturbed(ev.value, lf, ups0, margin)
    working[n - 1] = float(last_gain)
    return replace(template.schedule, levels=tuple(working))
