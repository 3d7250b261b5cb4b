"""Linear SEM parameterizations, implied covariance, and standardization.

A recursive linear structural equation model over a DAG is X = X B^T + Z
with independent errors Z of diagonal covariance Omega. Row i of B holds
the coefficients of vertex i's parents, so B is strictly lower triangular
after permuting the vertices into any consistent order. With A = (I - B)^-1
the implied covariance is Sigma = A Omega A^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveVarianceError, SingularMatrixError, SingularParentBlockError
from .graph import Dag, _parent_slices, source_first_order

__all__ = [
    "SemParameters",
    "zarx_params",
    "tetrad_params",
    "implied_covariance",
    "cov_to_corr",
    "cov_to_dag",
    "standardize",
]

# Matrices whose 2-norm condition number exceeds this are treated as
# numerically singular rather than silently amplifying rounding error.
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SemParameters:
    """Coefficient matrix and error variances of a linear SEM over a DAG.

    ``B[i-1, j-1]`` is the coefficient of parent j in vertex i's equation;
    entries outside the graph's edges must be exactly zero. ``omega`` holds
    the error variances, strictly positive; every entry must be finite.
    """

    g: Dag
    B: np.ndarray
    omega: np.ndarray

    def __post_init__(self) -> None:
        p = self.g.p
        B = np.asarray(self.B, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        if B.shape != (p, p):
            raise ValueError(f"B must be {p}x{p}, got {B.shape}")
        if omega.shape != (p,):
            raise ValueError(f"omega must have length {p}, got {omega.shape}")
        # NaN-safe: a NaN entry fails every comparison.
        if not (np.all(np.isfinite(B)) and np.all((omega > 0) & (omega < np.inf))):
            raise ValueError("B and omega must be finite, omega strictly positive")
        ends = self.g._ends - 1
        if np.count_nonzero(B) != np.count_nonzero(B[ends[:, 1], ends[:, 0]]):
            raise ValueError("B has a nonzero entry outside the graph's edges")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "omega", omega)


def zarx_params(g: Dag, rng: np.random.Generator) -> SemParameters:
    """Coefficients uniform on [-2, -0.5] union [0.5, 2], unit error variances.

    Each interval carries probability 1/2, realized as a fair-coin sign times
    a magnitude uniform on [0.5, 2]. Edges take two uniform draws each in
    lexicographic order, sign first, so a given seed always yields the same
    parameters.
    """
    u = rng.random(2 * g.num_edges)
    coef = np.where(u[0::2] < 0.5, -1.0, 1.0) * (0.5 + 1.5 * u[1::2])
    return SemParameters(g, _edge_matrix(g, coef), np.ones(g.p))


def tetrad_params(g: Dag, rng: np.random.Generator) -> SemParameters:
    """Coefficients uniform on [-1, 1] in lexicographic edge order, error
    variances uniform on [1, 2]."""
    B = _edge_matrix(g, rng.uniform(-1.0, 1.0, size=g.num_edges))
    return SemParameters(g, B, rng.uniform(1.0, 2.0, size=g.p))


def _edge_matrix(g: Dag, coef: np.ndarray) -> np.ndarray:
    """The p x p B with ``coef[k]`` (or a scalar ``coef``) at [b-1, a-1] for
    the k-th edge (a, b) in lexicographic order, zero elsewhere."""
    B = np.zeros((g.p, g.p))
    B[g._ends[:, 1] - 1, g._ends[:, 0] - 1] = coef
    return B


def implied_covariance(params: SemParameters) -> np.ndarray:
    """Population covariance A Omega A^T with A = (I - B)^-1.

    Computed by a triangular solve in a consistent vertex order (where I - B
    is unit lower triangular), then mapped back to the original labels.
    """
    from scipy.linalg import solve_triangular

    p = params.g.p
    order = np.asarray(source_first_order(params.g), dtype=np.intp) - 1
    # At most three p x p arrays are alive at once: each temporary goes as
    # soon as the next exists.
    ImB = np.eye(p)
    ImB -= params.B[np.ix_(order, order)]
    # A Fortran-ordered right-hand side is solved in place.
    A = solve_triangular(
        ImB, np.eye(p, order="F"), lower=True, unit_diagonal=True, overwrite_b=True
    )
    del ImB
    S = (A * params.omega[order]) @ A.T
    del A
    S = S + S.T
    S /= 2.0
    pos = np.argsort(order)
    return S[np.ix_(pos, pos)]


def cov_to_corr(sigma: np.ndarray) -> np.ndarray:
    """Rescale a covariance matrix to a correlation matrix (unit diagonal)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {sigma.shape}")
    d = np.diag(sigma)
    if np.any(d <= 0):
        raise NonPositiveVarianceError(
            "covariance matrix has a nonpositive diagonal entry"
        )
    s = 1.0 / np.sqrt(d)
    R = np.outer(s, s)
    R *= sigma
    np.fill_diagonal(R, 1.0)
    return R


def cov_to_dag(g: Dag, sigma: np.ndarray) -> SemParameters:
    """Recover the SEM parameters of ``sigma`` with respect to the DAG ``g``.

    For each vertex i with parent set J, solves Sigma_JJ b = Sigma_Ji for the
    coefficient row and sets omega_i to the conditional variance
    Sigma_ii - b . Sigma_Ji. When ``sigma`` is a correlation matrix the result
    is the standardized model. Parent blocks that are numerically singular
    (failed factorization, condition number above 1e12, or a nonpositive
    conditional variance) raise SingularParentBlockError.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    sigma = np.asarray(sigma, dtype=float)
    p = g.p
    if sigma.shape != (p, p):
        raise ValueError(
            f"covariance shape {sigma.shape} does not match vertex count {p}"
        )
    B = np.zeros((p, p))
    omega = np.diag(sigma).astype(float).copy()
    lo, by_child = _parent_slices(g, np.arange(p))
    for i0 in np.flatnonzero(np.diff(lo)).tolist():  # the vertices with parents
        J0 = by_child[lo[i0]:lo[i0 + 1], 0]
        i = i0 + 1
        Sjj = sigma[np.ix_(J0, J0)]
        if np.linalg.cond(Sjj) > _COND_LIMIT:
            raise SingularParentBlockError(
                f"parent block of vertex {i} is numerically singular"
            )
        try:
            factor = cho_factor(Sjj, lower=True)
        except LinAlgError as exc:
            raise SingularParentBlockError(
                f"parent block of vertex {i} is not positive definite"
            ) from exc
        sji = sigma[J0, i0]
        b = cho_solve(factor, sji)
        w = sigma[i0, i0] - b @ sji
        if w <= 0:
            raise SingularParentBlockError(
                f"conditional variance of vertex {i} is not positive"
            )
        B[i0, J0] = b
        omega[i0] = w
    return SemParameters(g, B, omega)


def standardize(params: SemParameters) -> SemParameters:
    """Rescale a SEM so every variable's implied variance is exactly one.

    A change of units, B_std = D^-1 B D and omega_std = omega / sigma_ii with
    D = diag(sqrt(sigma_ii)) from the implied covariance; idempotent. Raises
    SingularMatrixError when some omega_std is below 1e-12 or NaN: since
    (R^-1)_ii >= 1/omega_std_i, the implied correlation R has cond > 1e12.
    """
    sigma = np.diag(implied_covariance(params))
    omega = params.omega / sigma
    if not np.all(omega >= 1.0 / _COND_LIMIT):
        raise SingularMatrixError("a standardized error variance is below 1e-12")
    s = np.sqrt(sigma)
    return SemParameters(params.g, params.B / s[:, None] * s, omega)
