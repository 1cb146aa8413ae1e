"""Reference projection for the filter tests, independent of the
filter's branch logic."""

from __future__ import annotations

import numpy as np

from tvcbf.errors import InfeasibleConstraintError


def qp_oracle(u_no, row, rhs) -> np.ndarray:
    """Reference solution of min |u - u_no|^2 s.t. row . u >= rhs.

    Always projects onto the halfspace.  Used to cross-check the
    filter's closed form.
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
