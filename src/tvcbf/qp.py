"""Closed-form safety filtering against the top chain level.

The filter solves

    min |u - u_no|^2   s.t.   slack(x, t, u) >= 0

where the slack is affine in u: the chain's level n+1, plus the time
partial of level n when the chain includes it, plus the input term
d(level n)/dx . B u, whose row is the gradient's last block.  The chain
evaluation carries every part, so the filter forms no level itself.
With a single constraint the KKT system collapses to a branch: keep
the nominal input when it already satisfies the constraint, otherwise
project it onto the constraint boundary along the constraint row.
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


def _constraint_parts(chain: BarrierChain, evaluation):
    """Constraint row and u-independent offset from a chain evaluation."""
    row = evaluation.gradient[-chain.axes :].copy()
    offset = evaluation.next_level
    if chain.include_time_partial:
        offset += evaluation.time_partial
    return row, offset


def _check_input(chain: BarrierChain, u_no) -> np.ndarray:
    u_no = np.asarray(u_no, dtype=float)
    if u_no.shape != (chain.axes,):
        raise DimensionError(
            f"input must have length {chain.axes}, got {u_no.shape}"
        )
    return u_no


def apply_filter(chain: BarrierChain, evaluation, u_no) -> FilterDecision:
    """Filter step for callers that already hold the chain evaluation.

    Raises InfeasibleConstraintError when the constraint is violated
    but the row is numerically zero, leaving no input direction that
    can repair it.
    """
    u_no = _check_input(chain, u_no)
    row, offset = _constraint_parts(chain, evaluation)
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
    return apply_filter(chain, chain.evaluate(x, t), u_no)
