"""Uniform sampling of correlation matrices Markov to a DAG.

The sampler builds the correlation matrix one vertex at a time, like
peeling an onion in reverse, walking the graph's source-first consistent
order in its own labels. The sources come first and keep identity rows.
Each later vertex v with parents pa draws w from the open unit k-ball,
k = |pa|; with L the Cholesky root of the parents' k x k correlation block,
v gets regression coefficients z = L^-T w on its parents and correlations
R[prev, pa] z with the vertices prev placed before it. This makes (a) v
conditionally independent of its non-parent predecessors given its parents,
and (b) the completed matrix uniformly distributed over the set of
correlation matrices satisfying those constraints. The conditional (error)
variance of v is 1 - w . w, so the draw doubles as a standardized SEM whose
implied covariance reproduces the matrix exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CholeskyFailure, NumericalError
from .graph import Dag, _parent_slices, source_first_order
from .sem import SemParameters

__all__ = ["sample_mpii", "dao_sample"]

_MAX_REDRAWS = 100


def sample_mpii(k: int, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Sample w = sqrt(q) * u, a radially symmetric point of the open unit k-ball.

    q follows beta(k/2, gamma + 1/2) and u is uniform on the unit k-sphere
    (a normalized standard normal vector); w . w < 1 strictly. For k = 0 the
    empty vector is returned and ``rng`` is not used. Draws with 1 - q below
    1e-12, or with an underflowed direction norm, are redrawn up to 100 times
    so the squared norm stays strictly inside the unit ball; persistent
    degeneracy raises NumericalError.

    Raises ValueError for gamma <= -1/2 or k < 0.
    """
    if gamma <= -0.5:
        raise ValueError(f"shape parameter must exceed -1/2, got {gamma}")
    if k < 0:
        raise ValueError(f"dimension must be nonnegative, got {k}")
    if k == 0:
        return np.zeros(0)
    for _ in range(_MAX_REDRAWS):
        q = rng.beta(k / 2.0, gamma + 0.5)
        y = rng.standard_normal(k)
        norm = math.sqrt(y.dot(y))  # np.linalg.norm of a float vector
        if 1.0 - q >= 1e-12 and norm >= 1e-300:
            return np.sqrt(q) * y / norm
    raise NumericalError(
        f"degenerate unit-ball draw persisted through {_MAX_REDRAWS} retries"
    )


def dao_sample(
    g: Dag, rng: np.random.Generator
) -> tuple[np.ndarray, SemParameters]:
    """Draw a correlation matrix uniform over those Markov to ``g``.

    Returns (R, params) where R is symmetric with unit diagonal and strictly
    positive definite, params.B holds the regression coefficients of each
    vertex on its parents (zero elsewhere), params.omega the conditional
    variances in (0, 1], and R equals the implied covariance of params up to
    floating point. The vertex at position i of ``source_first_order(g)``
    uses shape parameter (p - i) / 2 with i counted from 0, and its parents
    are taken in walk order, which fixes the Cholesky root and so the draw.

    Raises CholeskyFailure if a parent block loses positive definiteness
    numerically.
    """
    from scipy.linalg import lapack

    p = g.p
    order = source_first_order(g)
    walk = np.asarray(order, dtype=np.intp) - 1
    position = np.empty(p, dtype=np.intp)
    position[walk] = np.arange(p)
    lo, by_child = _parent_slices(g, position)
    parents = by_child[:, 0]

    R = np.eye(p)
    coef = np.empty(len(parents))  # z of each vertex in its parents' rows
    omega = np.ones(p)
    for i, v in enumerate(walk.tolist()):
        a, b = lo[v], lo[v + 1]
        if a == b:
            continue  # a source: identity row, no draw
        pa = parents[a:b]
        w = sample_mpii(b - a, (p - i) / 2.0, rng)
        rows = R[pa]
        if b - a == 1:
            z = w  # the parent block is [[1.0]], its root 1.0: z = w / 1.0
        else:
            try:
                L = np.linalg.cholesky(rows[:, pa])
            except np.linalg.LinAlgError as exc:
                raise CholeskyFailure(
                    f"parent block of vertex {v + 1} lost positive definiteness"
                ) from exc
            # L^T is upper triangular and, as a view of C-ordered L, Fortran-ordered.
            z, info = lapack.dtrtrs(L.T, w, lower=0)
            if info != 0:
                raise CholeskyFailure(f"parent block of vertex {v + 1} has a singular root")
        # Rows of placed vertices are zero in the columns of vertices not yet
        # placed, v's own among them, so r is zero there too; each of those
        # columns is written whole when its vertex is placed.
        r = z @ rows
        R[v] = r
        R[:, v] = r
        R[v, v] = 1.0
        coef[a:b] = z
        omega[v] = 1.0 - float(w @ w)
    B = np.zeros((p, p))
    B[by_child[:, 1], parents] = coef
    return R, SemParameters(g, B, omega)
