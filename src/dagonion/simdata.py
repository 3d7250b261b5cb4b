"""Finite-sample data generation from linear SEM parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ZeroVarianceColumnError
from .graph import _parent_slices, source_first_order
from .sem import SemParameters

__all__ = ["Dataset", "simulate", "standardize_data"]

ERROR_KINDS = ("gaussian", "exponential")


@dataclass
class Dataset:
    """An n x p data matrix with column names and generation metadata."""

    values: np.ndarray
    names: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-d, got shape {values.shape}")
        if values.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if values.shape[1] < 1:
            raise ValueError("dataset must contain at least one column")
        if len(self.names) != values.shape[1]:
            raise ValueError(
                f"{len(self.names)} names for {values.shape[1]} columns"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite entries")
        self.values = values
        self.names = tuple(self.names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def simulate(
    params: SemParameters,
    error_kind: str,
    n: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw n samples of X = X B^T + Z from one batched p x n error draw.

    Row j of the draw is the j-th vertex of the source-first order, and rows
    are completed in that order, so every parent is filled in before its
    children; the returned matrix keeps the original label order.
    ``error_kind`` selects the error family: "gaussian" gives normal(0,
    omega_i) errors, "exponential" gives mean-zero shifted exponential
    errors with variance omega_i. Raises NumericalError when the data
    overflow to non-finite values.
    """
    if error_kind not in ERROR_KINDS:
        raise ValueError(
            f"error kind must be one of {ERROR_KINDS}, got {error_kind!r}"
        )
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    p = params.g.p
    order = np.asarray(source_first_order(params.g), dtype=np.intp) - 1
    pos = np.argsort(order)  # row of each vertex
    lo, by_child = _parent_slices(params.g, np.arange(p))
    coef = params.B[by_child[:, 1], by_child[:, 0]]
    prow = pos[by_child[:, 0]]  # the row of each parent
    sd = np.sqrt(params.omega[order])[:, None]
    draw = rng.standard_normal if error_kind == "gaussian" else rng.standard_exponential
    W = draw((p, n))
    W *= sd
    if error_kind == "exponential":
        # Exponential with scale sqrt(omega), shifted to mean zero: variance
        # stays omega and the skewness of 2 is unaffected by the shift.
        W -= sd
    sources = p - np.count_nonzero(np.diff(lo))  # the walk's leading rows
    with np.errstate(over="ignore", invalid="ignore"):
        W[:sources] += 0.0  # as adding their empty parent sum: -0.0 becomes 0.0
        for j, v in enumerate(order[sources:].tolist(), sources):
            a, b = lo[v], lo[v + 1]
            W[j] += coef[a:b] @ W[prow[a:b]]
    if not np.isfinite(W).all():
        raise NumericalError("simulated data overflowed to non-finite values")
    # A row gather, then one transposing copy into a C-ordered n x p array
    # (faster than a column gather): column means, and with them
    # the bench tables, depend on the memory layout in the last bit.
    X = np.ascontiguousarray(W[pos].T)
    names = tuple(f"X{j}" for j in range(1, p + 1))
    meta = {
        "n": n,
        "error": error_kind,
        "error_centering": "shifted to mean zero" if error_kind == "exponential" else None,
        "standardized": False,
    }
    return Dataset(X, names, meta)


def standardize_data(d: Dataset) -> Dataset:
    """Center each column to mean zero and scale to unit sample variance.

    The variance divisor is n - 1. A constant column raises
    ZeroVarianceColumnError.
    """
    mean = d.values.mean(axis=0)
    sd = d.values.std(axis=0, ddof=1) if d.n > 1 else np.zeros(d.p)
    # Exact: the rounded mean of a constant column can differ from its
    # value, which leaves a tiny nonzero SD.
    zero = (d.values == d.values[0]).all(axis=0) | (sd == 0)
    if zero.any():
        raise ZeroVarianceColumnError(
            f"column {d.names[int(np.argmax(zero))]} has zero sample variance"
        )
    meta = dict(d.meta)
    meta["standardized"] = True
    return Dataset((d.values - mean) / sd, d.names, meta)
