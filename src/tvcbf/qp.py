"""Closed-form safety filtering against the top chain level.

The filter solves

    min |u - u_no|^2   s.t.   slack(x, t, u) >= 0

where the slack is affine in u.  With a single constraint the KKT
system collapses to a branch: keep the nominal input when it already
satisfies the constraint, otherwise project it onto the constraint
boundary along the constraint row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import BarrierChain
from .errors import DimensionError, InfeasibleConstraintError

__all__ = [
    "FilterDecision",
    "safety_filter",
    "apply_filter",
    "qp_oracle",
]

DEGENERATE_ROW_NORM = 1e-9


@dataclass(frozen=True)
class FilterDecision:
    """Filter output: the applied input plus the branch diagnostics.

    ``slack`` is the constraint value at the nominal input; negative
    means the nominal input had to be corrected.  ``row`` is the
    constraint's coefficient on u and ``offset`` the u-independent
    part, so slack = row . u + offset for any candidate u.
    """

    u: np.ndarray
    slack: float
    branch: str  # "passthrough" or "corrected"
    row: np.ndarray
    offset: float


def _constraint_parts(chain: BarrierChain, evaluation, t):
    """Constraint row and u-independent offset from a chain evaluation."""
    m = chain.axes
    gradient = evaluation.gradient
    row = gradient[-m:].copy()
    offset = evaluation.drift_rate
    if chain.include_time_partial:
        offset += evaluation.time_partial
    if chain.robust:
        # robust_margin, whose checks of mu and theta the chain has made
        mu, theta = chain.smoothing[-1], chain.disturbance_bound
        offset -= float(gradient @ gradient) / (4.0 * mu) + mu * theta * theta
    # gain * upsilon * h_n, with gain * upsilon taken once per instant
    offset += chain._top_scale(t) * float(evaluation.values[-1])
    return row, float(offset)


def _check_input(chain: BarrierChain, u_no) -> np.ndarray:
    u_no = np.asarray(u_no, dtype=float)
    if u_no.shape != (chain.axes,):
        raise DimensionError(
            f"input must have length {chain.axes}, got {u_no.shape}"
        )
    return u_no


def apply_filter(chain: BarrierChain, evaluation, t, u_no) -> FilterDecision:
    """Filter step for callers that already hold the chain evaluation.

    Raises InfeasibleConstraintError when the constraint is violated
    but the row is numerically zero, leaving no input direction that
    can repair it.
    """
    u_no = _check_input(chain, u_no)
    row, offset = _constraint_parts(chain, evaluation, t)
    slack = float(row @ u_no) + offset
    if slack >= 0.0:
        return FilterDecision(u_no.copy(), slack, "passthrough", row, offset)
    row_sq = float(row @ row)
    if row_sq < DEGENERATE_ROW_NORM**2:
        raise InfeasibleConstraintError(
            f"constraint violated (slack {slack}) with a degenerate row "
            f"|row| = {np.sqrt(row_sq)}"
        )
    u = u_no - row * (slack / row_sq)
    return FilterDecision(u, slack, "corrected", row, offset)


def safety_filter(chain: BarrierChain, x, t, u_no) -> FilterDecision:
    """Minimally correct u_no so the top-level constraint holds."""
    return apply_filter(chain, chain.evaluate(x, t), t, u_no)


def qp_oracle(u_no, row, rhs) -> np.ndarray:
    """Reference solution of min |u - u_no|^2 s.t. row . u >= rhs.

    Independent of the filter's branch logic: always projects onto the
    halfspace.  Used to cross-check the closed form.
    """
    u_no = np.asarray(u_no, dtype=float)
    row = np.asarray(row, dtype=float)
    gap = float(rhs) - float(row @ u_no)
    if gap <= 0.0:
        return u_no.copy()
    row_sq = float(row @ row)
    if row_sq == 0.0:
        raise InfeasibleConstraintError(
            f"no input satisfies row . u >= {rhs} with a zero row"
        )
    return u_no + row * (gap / row_sq)
