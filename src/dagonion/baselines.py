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

All p - 1 regressions come from one QR factorization X = QR of the sorted,
centered data: the coefficients of column k on the columns before it are
R[:k, :k]^-1 R[:k, k], so one triangular solve yields every fit. The data
count as rank deficient when a predecessor column's pivot |R_jj| is at most
eps * max(n, p) times the largest such pivot, the relative cutoff that
least squares with the default ``rcond`` applies to singular values.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .errors import RankDeficientDataError
from .metrics import Pdag, _require_full_rank_shape, sample_r2, varsortability_scores
from .simdata import Dataset

__all__ = ["sort_regress", "var_sort_regress", "r2_sort_regress"]

DEFAULT_THRESHOLD = 0.1


def sort_regress(d: Dataset, scores: np.ndarray, threshold: float) -> Pdag:
    """Order the columns by ascending ``scores``, then regress and threshold.

    Equal scores keep the column order. Raises ValueError for a negative or
    NaN threshold and RankDeficientDataError when n <= p, a column is
    constant, or predecessor columns are collinear.
    """
    if threshold < 0 or np.isnan(threshold):
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    _require_full_rank_shape(d)
    # Stable sort: equal scores keep their original column order.
    order = np.argsort(scores, kind="stable")
    # Centering absorbs the intercept without touching coefficient scale.
    X = d.values[:, order]
    X = X - X.mean(axis=0)
    R = np.linalg.qr(X, mode="r")
    # The last column is never a predecessor, so its pivot is not checked.
    piv = np.abs(np.diag(R))[:-1]
    if np.any(piv <= np.finfo(float).eps * max(X.shape) * piv.max(initial=0.0)):
        raise RankDeficientDataError(
            "predecessor columns are collinear; regression is rank deficient"
        )
    # coef[j, k] is the coefficient of sorted column j (< k) in the fit of k;
    # entries with j >= k are exactly zero.
    coef = linalg.solve_triangular(R[:-1, :-1], np.triu(R, 1)[:-1])
    src, dst = np.nonzero(np.abs(coef) > threshold)
    edges = frozenset(
        (int(a) + 1, int(b) + 1) for a, b in zip(order[src], order[dst])
    )
    return Pdag(d.p, edges, frozenset())


def var_sort_regress(d: Dataset, threshold: float = DEFAULT_THRESHOLD) -> Pdag:
    """Order by ascending sample variance, then regress and threshold."""
    return sort_regress(d, varsortability_scores(d), threshold)


def r2_sort_regress(d: Dataset, threshold: float = DEFAULT_THRESHOLD) -> Pdag:
    """Order by ascending sample R^2, then regress and threshold.

    The ordering statistic is the fraction of each variable's variance
    explained by all the other variables, which is invariant to rescaling
    any column; the coefficients and threshold are not, so the estimate
    still depends on the scale of the input columns.
    """
    return sort_regress(d, sample_r2(d), threshold)
