"""Sort-and-regress baseline learners.

Both learners sort the variables by a per-column statistic (ascending), then
regress each variable on all of its predecessors in that order using least
squares on centered but otherwise unscaled columns, and keep an edge wherever
the absolute coefficient exceeds a threshold. The output is acyclic by
construction. These are deliberately simple order-based, scale-sensitive
learners: both the ordering statistic and the coefficient threshold see the
data on its original scale, so informative variances help them and
column-standardized input gives them nothing to exploit. They use plain least
squares with coefficient thresholding rather than any penalized regression.

All p - 1 regressions come from the triangular factor S of the sorted,
centered data: the fit of column k on the columns before it is S[:k, :k]^-1
S[:k, k]. With X = QR in column order, the p x p QR of R[:, order] gives S
up to row signs, which cancel; the same R gives the sample R^2 scores. The
data are rank deficient when a predecessor pivot |S_jj| is at most eps *
max(n, p) times the largest, the cutoff of least squares' default ``rcond``.
"""

from __future__ import annotations

import numpy as np

from .graph import Pdag
from .metrics import (
    _data_factor, _qr_r_inplace, _require_pivots, _sample_r2_from_factor, varsortability_scores,
)
from .simdata import Dataset

__all__ = ["var_sort_regress", "r2_sort_regress"]

DEFAULT_THRESHOLD = 0.1


def _require_threshold(threshold: float) -> None:
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")


def _sort_regress_from_factor(
    n: int, R: np.ndarray, scores: np.ndarray, threshold: float
) -> Pdag:
    """Order the columns by ascending ``scores``, then regress and threshold,
    from R = ``_data_factor(d)`` and n = ``d.n``; equal scores keep the
    column order. After ``_data_factor``'s RankDeficientDataError (n <= p or
    a constant column), raises ValueError for a negative or NaN threshold,
    then RankDeficientDataError for collinear predecessors."""
    from scipy.linalg import solve_triangular

    _require_threshold(threshold)
    # Stable sort: equal scores keep their original column order.
    order = np.argsort(scores, kind="stable")
    S = _qr_r_inplace(R.T[order].T)  # a Fortran-ordered copy of R[:, order]
    # The last column is never a predecessor, so its pivot is not checked.
    _require_pivots(np.abs(np.diag(S))[:-1], n, "predecessor")
    # coef[j, k] is the coefficient of sorted column j (< k) in the fit of k;
    # entries with j >= k are exactly zero.
    coef = solve_triangular(S[:-1, :-1], np.triu(S, 1)[:-1])
    src, dst = np.nonzero(np.abs(coef) > threshold)
    return Pdag(len(R), np.column_stack((order[src], order[dst])) + 1)


def var_sort_regress(d: Dataset, threshold: float = DEFAULT_THRESHOLD) -> Pdag:
    """Order by ascending sample variance, then regress and threshold."""
    scores = varsortability_scores(d)  # first, so n < 2 is a ValueError
    return _sort_regress_from_factor(d.n, _data_factor(d), scores, threshold)


def r2_sort_regress(d: Dataset, threshold: float = DEFAULT_THRESHOLD) -> Pdag:
    """Order by ascending sample R^2, then regress and threshold.

    The ordering statistic is the fraction of each variable's variance
    explained by all the other variables, which is invariant to rescaling
    any column; the coefficients and threshold are not, so the estimate
    still depends on the scale of the input columns.
    """
    R = _data_factor(d)
    r2 = _sample_r2_from_factor(R, d.n)
    return _sort_regress_from_factor(d.n, R, r2, threshold)
