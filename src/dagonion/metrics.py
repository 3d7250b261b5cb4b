"""Sortability diagnostics and graph-comparison metrics.

Graph comparison classifies every unordered vertex pair by its status in
the true DAG (edge or no edge) and in the estimate (directed, undirected,
or absent), and accumulates adjacency and orientation confusion counts:

    true a->b, estimated a->b        adjacency tp, orientation tp and tn
    true a->b, estimated b->a        adjacency tp, orientation fp and fn
    true a->b, estimated a - b       adjacency tp, orientation fn
    true a->b, no estimated edge     adjacency fn, orientation fn
    no true edge, estimated directed adjacency fp, orientation fp
    no true edge, estimated a - b    adjacency fp
    no true edge, no estimated edge  adjacency tn

Orientation cells for true non-edges are left uncounted except for the
false positive a spurious directed edge earns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientDataError, SingularMatrixError
from .graph import Dag, Pdag, _codes
from .simdata import Dataset

__all__ = [
    "PairCounts",
    "ConfusionCounts",
    "PrecisionRecall",
    "compare_graphs",
    "precision_recall",
    "population_r2",
    "sample_r2",
    "sortability_rank_corr",
    "varsortability_scores",
]


@dataclass(frozen=True)
class PairCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


@dataclass(frozen=True)
class ConfusionCounts:
    adjacency: PairCounts
    orientation: PairCounts


@dataclass(frozen=True)
class PrecisionRecall:
    adjacency_precision: float
    adjacency_recall: float
    orientation_precision: float
    orientation_recall: float


def compare_graphs(truth: Dag, estimate: Pdag) -> ConfusionCounts:
    """Adjacency and orientation confusion counts per the table above.

    The adjacency counts partition all p(p-1)/2 unordered pairs. Raises
    ValueError when the vertex counts differ.
    """
    if truth.p != estimate.p:
        raise ValueError(f"vertex counts differ: truth {truth.p}, estimate {estimate.p}")
    p, t = truth.p, truth._ends
    d, u = estimate._directed_codes, estimate._undirected_codes
    # A true edge a -> b is estimated as a -> b, b -> a, a - b or not at all.
    # Codes are unique within each side: a Dag has no pair twice, and a Pdag
    # no pair in both directions or in both sets.
    agree, flipped, undirected = (
        len(np.intersect1d(_codes(ends, p), codes, assume_unique=True))
        for ends, codes in ((t, d), (t[:, ::-1], d), (np.sort(t, axis=1), u))
    )
    adj_tp, n_true, n_est = agree + flipped + undirected, len(t), len(d) + len(u)
    return ConfusionCounts(
        adjacency=PairCounts(
            adj_tp, n_est - adj_tp, n_true - adj_tp,
            p * (p - 1) // 2 - n_true - n_est + adj_tp,
        ),
        orientation=PairCounts(agree, len(d) - agree, n_true - agree, agree),
    )


def _ratio(num: int, den: int) -> float:
    # An empty claim set makes no errors, so 0/0 counts as perfect.
    return num / den if den else 1.0


def precision_recall(c: ConfusionCounts) -> PrecisionRecall:
    """tp/(tp+fp) and tp/(tp+fn) for both count groups; 0/0 gives 1.0."""
    a, o = c.adjacency, c.orientation
    return PrecisionRecall(
        _ratio(a.tp, a.tp + a.fp), _ratio(a.tp, a.tp + a.fn),
        _ratio(o.tp, o.tp + o.fp), _ratio(o.tp, o.tp + o.fn),
    )


def population_r2(R: np.ndarray) -> np.ndarray:
    """Fraction of each variable's variance explained by all the others.

    This is 1 - 1/(R_ii (R^-1)_ii) per variable, 1 - 1/(R^-1)_ii for a
    correlation matrix R. Raises SingularMatrixError when R is not
    invertible as a positive definite matrix.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {R.shape}")
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is not positive definite") from exc
    return _r2_from_factor(np.diag(R), L.T)


def _r2_from_factor(gram_diag: np.ndarray, U: np.ndarray) -> np.ndarray:
    """1 - 1/(G_ii (G^-1)_ii) for G = U^T U, U upper triangular: (G^-1)_ii is
    the squared norm of row i of U^-1, so one triangular inversion serves."""
    from scipy.linalg import lapack

    Uinv, _ = lapack.dtrtri(U, lower=0)
    return 1.0 - 1.0 / (gram_diag * np.einsum("ij,ij->i", Uinv, Uinv))


def _data_factor(d: Dataset) -> np.ndarray:
    """The p x p R of X = QR, X the centered data; R[:, pi] has the Gram
    matrix of X[:, pi] for any column order pi. Raises
    RankDeficientDataError when n <= p or some column is constant."""
    if d.n <= d.p:
        raise RankDeficientDataError(f"need more rows than columns, got n={d.n}, p={d.p}")
    # Exact: the rounded mean of a constant column can differ from its value.
    if (d.values == d.values[0]).all(axis=0).any():
        raise RankDeficientDataError("a column has zero sample variance")
    # Fortran order, as LAPACK reads it; the mean is still taken over the data.
    return _qr_r_inplace(np.subtract(d.values, d.values.mean(axis=0), order="F"))


def _qr_r_inplace(X: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(X, mode="r")`` for a Fortran-ordered n x p X, n >= p,
    factored in place, so X is overwritten. Its bytes equal numpy's as long
    as numpy's and scipy's LAPACK builds compute alike; their bundled
    OpenBLAS builds do on one BLAS thread."""
    from scipy.linalg import lapack

    n, p = X.shape
    # The default workspace is LAPACK's minimum, which runs unblocked.
    lwork, _ = lapack.dgeqrf_lwork(n, p)
    qr, _, _, info = lapack.dgeqrf(X, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise ValueError(f"dgeqrf failed with info={info}")
    return np.triu(qr[:p])


def _require_pivots(pivots: np.ndarray, n: int, what: str) -> None:
    """Raise RankDeficientDataError when some |R_jj| <= eps * max(n, p) *
    max |R_jj|, given n > p: the relative cutoff of least squares."""
    if np.any(pivots <= np.finfo(float).eps * n * pivots.max(initial=0.0)):
        raise RankDeficientDataError(f"{what} columns are collinear")


def _sample_r2_from_factor(R: np.ndarray, n: int) -> np.ndarray:
    _require_pivots(np.abs(np.diag(R)), n, "data")
    return _r2_from_factor(np.einsum("ij,ij->j", R, R), R)


def sample_r2(d: Dataset) -> np.ndarray:
    """Fraction of each column's sample variance explained by the others.

    From the QR factor R of the centered data X, which unlike the sample
    correlation matrix does not square the condition number: (X^T X)_ii =
    ||R[:, i]||^2 and (X^T X)^-1_ii = ||R^-1[i, :]||^2. Raises
    RankDeficientDataError for n <= p, a constant column, or a pivot |R_jj|
    at most eps * n times the largest."""
    return _sample_r2_from_factor(_data_factor(d), d.n)


def sortability_rank_corr(
    scores, causal_index, *, largest_first: bool = False
) -> float:
    """Spearman rank correlation between scores and causal position.

    ``causal_index`` must be a permutation of 1..p giving each variable's
    position in the causal order. Ties in the scores receive average ranks,
    with -0.0 tied to 0.0 and equal infinities tied. Scores that are strictly
    increasing along the causal order give +1; a constant score vector
    (including p = 1) and any NaN score return 0.0 by convention.

    With ``largest_first=True`` the variables are ranked with the largest
    score first before correlating, which negates the plain statistic; this
    is the orientation used by the benchmark tables, where a negative value
    means the score grows along the causal order.
    """
    scores = np.asarray(scores, dtype=float)
    causal_index = np.asarray(causal_index)  # uncast, so that 1.9 is no 1
    p = len(scores)
    if causal_index.shape != (p,):
        raise ValueError(
            f"scores and causal_index lengths differ: {p} vs {causal_index.shape}"
        )
    if sorted(causal_index.tolist()) != list(range(1, p + 1)):
        raise ValueError("causal_index must be a permutation of 1..p")
    if p < 2 or np.all(scores == scores[0]):
        return 0.0
    ranks = _average_ranks(scores)
    if largest_first:
        ranks = (p + 1) - ranks
    # Pearson correlation of the two rank vectors, as scipy's spearmanr
    # computes it; NaN ranks give a NaN rho and so 0.0.
    rho = np.corrcoef(np.column_stack((ranks, causal_index)), rowvar=False)[1, 0]
    return float(rho) if np.isfinite(rho) else 0.0


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, a run of equal values at sorted positions
    start..end-1 sharing 0.5 * (start + end + 1); all NaN if some x is NaN.
    Exact halves, so equal to scipy's ``rankdata(x)``."""
    if np.isnan(x).any():
        return np.full(len(x), np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    start = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    end = np.append(start[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (start + end + 1), end - start)
    return ranks


def varsortability_scores(d: Dataset) -> np.ndarray:
    """Sample variance of each column (divisor n - 1); requires n >= 2."""
    if d.n < 2:
        raise ValueError(f"need at least two rows, got n={d.n}")
    return d.values.var(axis=0, ddof=1)
