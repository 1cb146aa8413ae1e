"""Backstepping barrier chains over integrator dynamics.

Level 1 is a user barrier on the state (positive inside the safe set).
Each further level adds the gain-scaled previous level, its rate of
change along the drift, and - in the robust construction - subtracts a
smooth margin that dominates the worst-case disturbance action:

    level[i] = gain[i-1] * g(t)**(e*(i-1)) * level[i-1]
               + d(level[i-1])/dx . (A x)
               - margin[i-1]                  (robust only)

The chain has n levels, and the same step applied once more to level
n gives level n+1: the filter's constraint is level n+1 plus the input
term d(level n)/dx . B u and, when enabled, the time partial of level
n (the (n+1)-th condition of a high-order CBF).  So every evaluation
runs the recursion to level n+1, and the filter adds nothing to it.

Oracles with a ``quadratic_form`` (``CircularObstacle``, ``HalfPlane``
and a ``PolynomialBarrier`` whose terms all have total degree at most
2) take a closed-form path.  The drift A is the linear shift, so every
level stays quadratic, h_i = 0.5 x'P_i x + q_i'x + r_i, with
s_i = gain[i] * g(t)**(e*i) and

    P_{i+1} = s_i P_i + P_i A + A'P_i - P_i P_i / (2 mu_i)
    q_{i+1} = s_i q_i + A'q_i - P_i q_i / (2 mu_i)
    r_{i+1} = s_i r_i - |q_i|^2 / (4 mu_i) - mu_i theta^2

(the mu terms in the robust construction only).  The chain keeps each
level as one symmetric matrix over the state with a constant 1
appended, H_i = [[P_i, q_i], [q_i', 2 r_i]], so h_i = 0.5 x~'H_i x~
for x~ = (x, 1), and the three updates above are one matrix update of
H_i.  Time partials follow by carrying dH/dt along, using ds_i/dt from
``GainFunction.power_jet``: each level is a pair (H_i, dH_i/dt) that a
fixed handful of array operations maps to the next pair, so the cost
grows linearly with the order.  The coefficients depend on t alone,
so the recursion runs once per time instant, and the chain keeps the
last instant's levels 1..n+1 stacked into one array together with
level n's dH/dt.  Every further state at that instant costs two
products with that stack, whatever the order: one gives every level's
gradient (H x~), the next every level's value and level n's time
partial.  A closed loop knows its time grid in advance, so
``BarrierChain.hold`` runs the same recursion once over a block of
instants, with the instants as an axis of every array, and an
evaluation at one of them only looks its stack up.

Any other oracle (a ``PolynomialBarrier`` of degree 3 or more, a user
callable) takes the lifted path, one recursion over first-order
``tvcbf.autodiff`` numbers: level i is formed from the levels below
evaluated over its inputs lifted once more, so the gradient of level
i-1 is at hand as differentiable numbers when level i is formed.  One
lift of (x, t) on top of that gives every level's value and the top
level's gradient and time partial, and one more step of the same
formula, on plain numbers, gives level n+1.  Its cost grows about
tenfold with each added order.  Neither path uses finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff
from .autodiff import FirstOrderNumber, unwrap
from .chain import IntegratorChain
from .errors import (
    DimensionError,
    DomainError,
    ParameterError,
    UnsafeInitializationError,
    _about,
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

_ONE = np.ones(1)  # appended to a state: x~ = (x, 1)
_ONE.flags.writeable = False


# -- barrier oracles ----------------------------------------------------


def _check_leading(k: int, dim: int, what: str, field: str) -> int:
    if k > dim:
        raise _about(
            DimensionError(f"{what} has {k} entries, state has only {dim}"), field
        )
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
            raise _about(
                ParameterError("obstacle center must have at least one coordinate"),
                "center",
            )
        if self.radius <= 0.0:
            raise _about(
                ParameterError(f"obstacle radius must be positive, got {self.radius}"),
                "radius",
            )

    def __call__(self, x):
        acc = 0.0
        for j, c in enumerate(self.center):
            dj = x[j] - c
            acc = acc + dj * dj
        return 0.5 * (acc - self.radius * self.radius)

    def quadratic_form(self, dim: int):
        """(P, q, r) with h(x) = 0.5 x'Px + q'x + r over a length-dim state."""
        k = _check_leading(len(self.center), dim, "obstacle center", "center")
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
            raise _about(ParameterError("half-plane normal must be nonzero"), "normal")

    def __call__(self, x):
        acc = 0.0
        for j, a in enumerate(self.normal):
            if a != 0.0:
                acc = acc + a * x[j]
        return acc - self.offset

    def quadratic_form(self, dim: int):
        """(P, q, r) with h(x) = 0.5 x'Px + q'x + r over a length-dim state."""
        k = _check_leading(len(self.normal), dim, "half-plane normal", "normal")
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
            raise _about(
                ParameterError("polynomial barrier needs at least one term"), "terms"
            )
        for _, factors in canon:
            if any(p < 1 or j < 0 for j, p in factors):
                raise _about(ParameterError(f"bad monomial factors {factors}"), "terms")

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
    next_level: float  # h_{n+1}, one more step of the recursion from h_n


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


class BarrierChain:
    """Immutable barrier chain over an integrator system.

    ``smoothing`` lists one positive constant per level; level i's
    constant shapes the margin subtracted when forming level i+1, so
    the last one shapes level n+1, the filter constraint.  The robust
    flag comes from the gain schedule; the unperturbed construction
    ignores ``disturbance_bound`` (it must be 0 there).  After
    construction a chain stores only values that follow from the
    construction arguments and a time: the closed-form levels of the
    last time it was evaluated at and those of the block of instants
    passed to the last ``hold``.  No result depends on the order of
    calls.
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
        # for quadratic oracles, the (H, dH/dt) pairs of levels 1..n+1
        # with level 1 filled in (see _extend); None selects the lifted path
        dim = system.dim
        form = getattr(oracle, "quadratic_form", None)
        level1 = None if form is None else form(dim)
        self._jets1 = None
        if level1 is not None:
            p, q, r = level1
            self._jets1 = np.zeros((n + 1, 2, dim + 1, dim + 1))
            h = self._jets1[0, 0]
            h[:dim, :dim] = p
            h[:dim, dim] = h[dim, :dim] = q
            h[dim, dim] = 2.0 * r
        # the drift A acting on x~ = (x, 1): the constant does not move
        self._shift = np.zeros((dim + 1, dim + 1))
        self._shift[:dim, :dim] = np.eye(dim, k=system.axes)
        self._instant = (None, 0, None, None)  # (t, levels formed, jets, stack)
        self._held = ({}, None, None)  # ({t: index}, jets, stacks) over instants

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

    def _extend(self, jets, formed, i, jet):
        """Form levels formed+1..i of ``jets`` in place from level ``formed``.

        ``jets[k]`` holds level k+1 as the pair (H, dH/dt), where
        H = [[P, q], [q', 2 r]] over x~ = (x, 1).  ``jet(k)`` is
        (s, ds/dt) of the gain power that scales level k: floats for
        one instant, or arrays over a block of instants, in which case
        ``jets`` has the instants as the axis after the pair.  With
        Ã the drift on x~ and E the projection onto the state entries,

            H_{k+1} = s_k H_k + H_k Ã + Ã'H_k
                      - (H_k E H_k / (2 mu_k) + 2 mu_k theta^2 e e')

        (e the last unit vector) is the recursion of the module
        docstring for P, q and r at once; its time derivative adds
        s_k' H_k and takes dH_k/dt in place of each H_k factor in turn.
        """
        a, dim = self._shift, self.system.dim
        for k in range(formed, i):
            rho = self.schedule.levels[k - 1]
            s_val, s_dot = jet(k)
            s_val, s_dot = rho * s_val, rho * s_dot
            if isinstance(s_val, np.ndarray):  # each instant scales its own H
                s_val, s_dot = s_val[:, None, None], s_dot[:, None, None]
            prev, nxt = jets[k - 1], jets[k]
            h = prev[0]
            ha = prev @ a
            np.multiply(s_val, prev, out=nxt)
            nxt[1] += s_dot * h
            nxt += ha
            nxt += ha.mT
            if self.schedule.robust:
                mu = self.smoothing[k - 1]
                heh = prev[..., :dim] @ h[..., :dim, :]  # (H E H, dH/dt E H)
                heh[1] += heh[1].mT
                heh /= 2.0 * mu
                heh[0, ..., dim, dim] += 2.0 * mu * self._bound_sq
                nxt -= heh

    def hold(self, times):
        """Compute the coefficients of levels 1..n+1 at each of ``times`` at once.

        The block is kept until the next ``hold`` and replaces the one
        before; an evaluation at one of its instants looks its
        coefficients up instead of running the recursion.  The block
        ends before the first instant at which the gain raises, so an
        evaluation there raises as it would without a block.  The gain
        power of each level is taken once per instant, as for a single
        instant.  Chains on the lifted path hold nothing.
        """
        self._held = ({}, None, None)
        if self._jets1 is None:
            return
        jets = []
        for t in times:
            try:
                jets.append([self.gain_function.power_jet(e, t) for e in self._exponents])
            except (DomainError, OverflowError):
                break
        if not jets:
            return
        jets = np.array(jets)  # (instant, level - 1, value or derivative)
        count = len(jets)
        block = np.empty(self._jets1.shape[:2] + (count,) + self._jets1.shape[2:])
        block[0] = self._jets1[0][:, None]
        self._extend(
            block, 1, self.order + 1, lambda k: (jets[:, k - 1, 0], jets[:, k - 1, 1])
        )
        block = np.ascontiguousarray(np.moveaxis(block, 2, 0))  # instants first
        self._held = (
            {t: j for j, t in enumerate(times[:count])}, block, _stack(block)
        )

    def _coefficients(self, i, t):
        """(jets, stack) at t: levels 1..i (at least) as in ``_extend``,
        and once all n+1 levels are formed the evaluation stack
        (H_1 .. H_{n+1}, dH_n/dt).

        They depend on t alone.  An instant of the held block is looked
        up; otherwise the recursion runs for t alone.  The last
        instant's arrays are kept and reused, and extended when a higher
        level is asked for, while t is unchanged.  A level counts as
        formed only once the recursion has completed it, so a time the
        gain rejects raises on every call.
        """
        cached_t, formed, jets, stack = self._instant
        if cached_t != t:
            index, held_jets, held_stacks = self._held
            j = index.get(t)
            if j is None:
                jets, formed, stack = self._jets1.copy(), 1, None
            else:
                jets, formed, stack = held_jets[j], self.order + 1, held_stacks[j]
        if formed < i:
            gain, exponents = self.gain_function, self._exponents
            self._extend(jets, formed, i, lambda k: gain.power_jet(exponents[k - 1], t))
            formed = i
            if formed == self.order + 1:
                stack = _stack(jets)
        self._instant = (t, formed, jets, stack)
        return jets, stack

    # -- recursive lifted evaluation ----------------------------------

    def _levels(self, i, xt):
        """[h_1 .. h_i] in duck arithmetic at the lift depth of ``xt``,
        the state entries followed by the time.

        Level i is formed from the levels below evaluated over ``xt``
        lifted once more, so the gradient of level i-1 is at hand as
        numbers at the depth of ``xt``.  That inner lift seeds the state
        entries only and carries the time with a zero gradient: no level
        reads the time derivative of the level below.
        """
        if i == 1:
            return [self.oracle(xt)]
        dim = self.system.dim
        below = self._levels(
            i - 1, autodiff.lift(xt[:dim]) + (FirstOrderNumber(xt[dim], (0.0,) * dim),)
        )
        return [h.value for h in below] + [self._form(i, below[-1], xt)]

    def _form(self, i, prev, xt):
        """Level i at ``xt`` from level i-1 lifted over the state entries
        of ``xt`` (any further gradient entry is not read)."""
        dim, m = self.system.dim, self.system.axes
        g = prev.grad
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
        return val

    def _lifted(self, i, x, t):
        """Levels 1..i at (x, t), each lifted over (x, t)."""
        x = self._check_state(x)
        return self._levels(i, autodiff.lift(tuple(x) + (float(t),)))

    # -- public API -----------------------------------------------------

    def eval_level(self, i: int, x, t) -> BarrierEvaluation:
        """Evaluate chain level i at (x, t)."""
        if not 1 <= i <= self.order:
            raise ParameterError(
                f"level index must be in 1..{self.order}, got {i}"
            )
        if self._jets1 is None:
            top = self._lifted(i, x, t)[-1]
            return BarrierEvaluation(i, unwrap(top), *_derivatives(top))
        jets, _ = self._coefficients(i, float(t))
        xt = np.concatenate((self._check_state(x), _ONE))
        hx = jets[i - 1] @ xt  # (H x~, dH/dt x~) of level i
        value, tp = 0.5 * (hx @ xt)
        return BarrierEvaluation(i, float(value), hx[0, :-1], float(tp))

    def evaluate(self, x, t) -> ChainEvaluation:
        """Levels 1..n+1 plus the top level's derivatives in a single pass."""
        x = self._check_state(x)
        n = self.order
        if self._jets1 is None:
            levels = self._lifted(n, x, t)
            values = np.array([unwrap(h) for h in levels])
            gradient, time_partial = _derivatives(levels[-1])
            grad1, _ = _derivatives(levels[0])
            next_level = self._form(n + 1, levels[-1], tuple(x) + (float(t),))
        else:
            _, stack = self._coefficients(n + 1, float(t))
            xt = np.concatenate((x, _ONE))
            hx = stack @ xt  # H_i x~ of levels 1..n+1, then dH_n/dt x~
            quad = 0.5 * (hx @ xt)
            values, next_level, time_partial = quad[:n], quad[n], quad[-1]
            gradient, grad1 = hx[n - 1, :-1], hx[0, :-1]
        m = self.system.axes
        return ChainEvaluation(
            values=values,
            gradient=gradient,
            time_partial=float(time_partial),
            drift_rate=float(gradient[:-m] @ x[m:]),  # gradient . (A x)
            level1_gradient_norm=math.sqrt(float(grad1 @ grad1)),
            next_level=float(next_level),
        )

    def validate_initialization(self, x0, t0):
        """(level, value, positive?) for every level at the start point."""
        ev = self.evaluate(x0, t0)
        return [(i + 1, float(v), bool(v > 0.0)) for i, v in enumerate(ev.values)]


def _derivatives(h):
    """(spatial gradient, time partial) of a level lifted over (x, t)."""
    grad = np.array([unwrap(g) for g in h.grad])
    return grad[:-1], float(grad[-1])


def _stack(jets):
    """(H_1 .. H_{n+1}, dH_n/dt) from the jets of all n+1 levels, along
    the level axis; any axes before it (the held instants) are kept."""
    return np.concatenate((jets[..., 0, :, :], jets[..., -2:-1, 1, :, :]), axis=-3)


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
