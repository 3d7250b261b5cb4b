"""Shared helpers for the test suite: exhaustive enumeration and oracles."""

from __future__ import annotations

import hashlib
import heapq
import json
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
from scipy import linalg, stats
from scipy.linalg import lapack

from dagonion import (
    CholeskyFailure,
    CyclicGraphError,
    Dag,
    Dataset,
    Pdag,
    RankDeficientDataError,
    SchemaError,
    SemParameters,
    SingularParentBlockError,
    cov_to_corr,
    cov_to_dag,
    dao_sample,
    er_dag,
    implied_covariance,
    sample_mpii,
    sfi_rewire,
    sfo_rewire,
    shuffle_labels,
    simulate,
    source_first_order,
    tetrad_params,
    zarx_params,
)
from dagonion.baselines import _sort_regress_from_factor
from dagonion.fileio import atomic_write_text, meta_path
from dagonion.graph import _parent_slices
from dagonion.metrics import _data_factor


def all_pairs(p: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, p + 1), 2))


def shuffled_pair_array(pairs, rng: np.random.Generator) -> np.ndarray:
    """An int32 or int64 (m, 2) array of ``pairs``: rows in random order, and
    up to three of them repeated."""
    rows = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    if len(rows):
        rows = np.concatenate((rows, rows[rng.integers(0, len(rows), rng.integers(0, 4))]))
    return rng.permutation(rows).astype((np.int32, np.int64)[rng.integers(2)])


def enumerate_dags(p: int) -> list[Dag]:
    """Every labeled DAG on p vertices (feasible for p <= 4)."""
    pairs = all_pairs(p)
    dags = []
    for states in product((0, 1, 2), repeat=len(pairs)):
        edges = set()
        for (a, b), s in zip(pairs, states):
            if s == 1:
                edges.add((a, b))
            elif s == 2:
                edges.add((b, a))
        try:
            dags.append(Dag(p, frozenset(edges)))
        except CyclicGraphError:
            continue
    return dags


def enumerate_pdags(p: int) -> list[Pdag]:
    """Every labeled partially directed graph on p vertices (p <= 3)."""
    pairs = all_pairs(p)
    out = []
    for states in product((0, 1, 2, 3), repeat=len(pairs)):
        directed = set()
        undirected = set()
        for (a, b), s in zip(pairs, states):
            if s == 1:
                directed.add((a, b))
            elif s == 2:
                directed.add((b, a))
            elif s == 3:
                undirected.add((a, b))
        out.append(Pdag(p, frozenset(directed), frozenset(undirected)))
    return out


def brute_pair_counts(truth: Dag, est: Pdag):
    """Independent per-pair classifier used as an oracle for compare_graphs."""
    adj = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    ori = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for a, b in all_pairs(truth.p):
        t_ab, t_ba = (a, b) in truth.edges, (b, a) in truth.edges
        e_ab, e_ba = (a, b) in est.directed, (b, a) in est.directed
        e_un = (a, b) in est.undirected
        true_edge = t_ab or t_ba
        est_dir = e_ab or e_ba
        if true_edge and est_dir:
            adj["tp"] += 1
            if t_ab == e_ab:
                ori["tp"] += 1
                ori["tn"] += 1
            else:
                ori["fp"] += 1
                ori["fn"] += 1
        elif true_edge and e_un:
            adj["tp"] += 1
            ori["fn"] += 1
        elif true_edge:
            adj["fn"] += 1
            ori["fn"] += 1
        elif est_dir:
            adj["fp"] += 1
            ori["fp"] += 1
        elif e_un:
            adj["fp"] += 1
        else:
            adj["tn"] += 1
    return adj, ori


def partial_corr(R: np.ndarray, i0: int, j0: int, given0: list[int]) -> float:
    """Partial correlation of variables i0 and j0 given a conditioning set."""
    idx = [i0, j0] + list(given0)
    P = np.linalg.inv(R[np.ix_(idx, idx)])
    return float(-P[0, 1] / np.sqrt(P[0, 0] * P[1, 1]))


def is_consistent(order: tuple[int, ...], g: Dag) -> bool:
    pos = {v: k for k, v in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in g.edges)


def is_source_first(order: tuple[int, ...], g: Dag) -> bool:
    has_parent = {b for _, b in g.edges}
    seen_nonsource = False
    for v in order:
        if v in has_parent:
            seen_nonsource = True
        elif seen_nonsource:
            return False
    return True


def parents(g: Dag, v: int) -> tuple[int, ...]:
    """Parents of ``v`` in ascending label order."""
    return tuple(sorted(a for a, b in g.edges if b == v))


def children(g: Dag, v: int) -> tuple[int, ...]:
    """Children of ``v`` in ascending label order."""
    return tuple(sorted(b for a, b in g.edges if a == v))


def _require_full_rank_shape(d: Dataset) -> None:
    if d.n <= d.p:
        raise RankDeficientDataError(
            f"need more rows than columns, got n={d.n}, p={d.p}"
        )
    # Exact, as max == min: a constant column can have a tiny nonzero SD.
    if np.any(np.ptp(d.values, axis=0) == 0):
        raise RankDeficientDataError("a column has zero sample variance")


def corrcoef_sample_r2(d: Dataset) -> np.ndarray:
    """Sample R^2 from the Cholesky factor of the sample correlation matrix:
    the oracle for ``sample_r2``, which factors the data instead."""
    _require_full_rank_shape(d)
    try:
        L = np.linalg.cholesky(np.corrcoef(d.values, rowvar=False))
    except np.linalg.LinAlgError as exc:
        raise RankDeficientDataError("sample correlation matrix is singular") from exc
    Linv = linalg.solve_triangular(L, np.eye(d.p), lower=True)
    return 1.0 - 1.0 / np.einsum("ji,ji->i", Linv, Linv)


def lstsq_sample_r2(d: Dataset) -> np.ndarray:
    """Sample R^2 from one least-squares fit of each centered column on all
    the others: an accuracy reference for ill-conditioned data."""
    X = d.values - d.values.mean(axis=0)
    r2 = np.empty(d.p)
    for i in range(d.p):
        rest = np.delete(X, i, axis=1)
        coef = np.linalg.lstsq(rest, X[:, i], rcond=None)[0]
        resid = X[:, i] - rest @ coef
        r2[i] = 1.0 - (resid @ resid) / (X[:, i] @ X[:, i])
    return r2


def sort_regress(d: Dataset, scores: np.ndarray, threshold: float) -> Pdag:
    """The learners' shared core on ``d``, ordered by any ``scores``."""
    return _sort_regress_from_factor(d.n, _data_factor(d), scores, threshold)


def data_qr_sort_regress(d: Dataset, scores: np.ndarray, threshold: float) -> Pdag:
    """Sort-and-regress from the QR factorization of the sorted n x p data:
    the oracle for ``sort_regress``, which factors the p x p data factor in
    sorted column order instead."""
    if threshold < 0 or np.isnan(threshold):
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    _require_full_rank_shape(d)
    order = np.argsort(scores, kind="stable")
    X = d.values[:, order]
    X = X - X.mean(axis=0)
    R = np.linalg.qr(X, mode="r")
    piv = np.abs(np.diag(R))[:-1]
    if np.any(piv <= np.finfo(float).eps * max(X.shape) * piv.max(initial=0.0)):
        raise RankDeficientDataError(
            "predecessor columns are collinear; regression is rank deficient"
        )
    coef = linalg.solve_triangular(R[:-1, :-1], np.triu(R, 1)[:-1])
    src, dst = np.nonzero(np.abs(coef) > threshold)
    edges = frozenset(
        (int(a) + 1, int(b) + 1) for a, b in zip(order[src], order[dst])
    )
    return Pdag(d.p, edges, frozenset())


def method_params(method: str, g: Dag, rng: np.random.Generator) -> SemParameters:
    """A dao, zarx or tetrad model of ``g``."""
    if method == "dao":
        return dao_sample(g, rng)[1]
    return (zarx_params if method == "zarx" else tetrad_params)(g, rng)


def model_data(method: str, g: Dag, n: int, rng: np.random.Generator) -> Dataset:
    """Gaussian data of size n from a dao, zarx or tetrad model of ``g``."""
    return simulate(method_params(method, g, rng), "gaussian", n, rng)


def with_column(vals: np.ndarray, col: np.ndarray, first: bool) -> np.ndarray:
    return np.column_stack([col, vals] if first else [vals, col])


# Columns that make the data exactly rank deficient, built from columns 1-3
# of the others.
DEGENERATE = {
    "duplicate": lambda v: v[:, 2],
    "affine": lambda v: 2.5 * v[:, 2] + 1.0,
    "sum": lambda v: v[:, 1] + v[:, 3],
    "constant": lambda v: np.full(len(v), 0.1),
    "zero": lambda v: np.zeros(len(v)),
}


def degenerate_data(kind: str, first: bool) -> Dataset:
    """Six independent columns plus one ``DEGENERATE[kind]`` column, placed
    first or last."""
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((40, 6)) * rng.uniform(0.5, 3.0, 6)
    vals = with_column(vals, DEGENERATE[kind](vals), first)
    return Dataset(vals, tuple(f"X{i}" for i in range(1, 8)))


def mixed_data(
    p: int, n: int, rng: np.random.Generator, degenerate: str | None = None, first: bool = False
) -> Dataset:
    """Well-conditioned data with nonzero regression coefficients, from
    unit-lower mixing and column scales in [0.5, 3], plus optionally one
    ``DEGENERATE[degenerate]`` column placed first or last."""
    mix = np.eye(p) + np.tril(rng.uniform(-1.0, 1.0, (p, p)), -1)
    vals = rng.standard_normal((n, p)) @ mix.T * rng.uniform(0.5, 3.0, p)
    if degenerate is not None:
        # Tiling gives the column builders the four columns they index.
        vals = with_column(vals, DEGENERATE[degenerate](np.tile(vals, 4)), first)
    return Dataset(vals, tuple(f"X{i}" for i in range(1, vals.shape[1] + 1)))


def near_collinear_data(delta: float) -> Dataset:
    """Four independent columns, then the first plus delta * noise."""
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((60, 4))
    vals = np.column_stack([vals, vals[:, 0] + delta * rng.standard_normal(60)])
    return Dataset(vals, tuple("abcde"))


def lstsq_sort_regress(d: Dataset, scores: np.ndarray, threshold: float) -> Pdag:
    """Sort-and-regress with one least-squares solve per column: the oracle
    for the single-factorization learners."""
    if threshold < 0 or np.isnan(threshold):
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    _require_full_rank_shape(d)
    X = d.values - d.values.mean(axis=0)
    order = np.argsort(scores, kind="stable")
    edges: set[tuple[int, int]] = set()
    for k in range(1, d.p):
        target = int(order[k])
        preds = order[:k]
        coef, _, rank, _ = np.linalg.lstsq(X[:, preds], X[:, target], rcond=None)
        if rank < k:
            raise RankDeficientDataError(
                "predecessor columns are collinear; regression is rank deficient"
            )
        for j, c in zip(preds, coef):
            if abs(c) > threshold:
                edges.add((int(j) + 1, target + 1))
    return Pdag(d.p, frozenset(edges), frozenset())


def full_block_dao_sample(g: Dag, rng: np.random.Generator):
    """The DaO sampler that factors the whole permuted leading block at every
    layer, on the graph relabeled into source-first positions: the oracle for
    ``dao_sample``, which factors only each vertex's parent block."""
    p = g.p
    order = source_first_order(g)
    identity_order = order == tuple(range(1, p + 1))
    if identity_order:
        h = g
    else:
        pos = {v: t + 1 for t, v in enumerate(order)}
        h = Dag(p, frozenset((pos[a], pos[b]) for a, b in g.edges))

    pa_of = parent_map(h)
    m = sum(1 for v in range(1, p + 1) if not pa_of[v])

    R = np.eye(p)
    B = np.zeros((p, p))
    omega = np.ones(p)
    for i in range(m, p):
        # Layer i extends the i x i leading block to cover vertex i+1.
        parents0 = np.asarray(pa_of[i + 1], dtype=np.intp) - 1
        k = len(parents0)
        w = np.zeros(i)
        w[:k] = sample_mpii(k, (p - i) / 2.0, rng)
        nonparents0 = np.setdiff1d(np.arange(i, dtype=np.intp), parents0)
        perm = np.concatenate([parents0, nonparents0])
        try:
            L = np.linalg.cholesky(R[np.ix_(perm, perm)])
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailure(
                f"leading block at layer {i} lost positive definiteness"
            ) from exc
        r = np.empty(i)
        r[perm] = L @ w
        R[i, :i] = r
        R[:i, i] = r
        if k:
            z = linalg.solve_triangular(L, w, lower=True, trans="T")
            B[i, parents0] = z[:k]
        omega[i] = 1.0 - float(w @ w)

    if not identity_order:
        posof = np.empty(p, dtype=np.intp)
        posof[np.asarray(order, dtype=np.intp) - 1] = np.arange(p)
        R = R[np.ix_(posof, posof)]
        B = B[np.ix_(posof, posof)]
        omega = omega[posof]
    return R, SemParameters(g, B, omega)


def _weighted_pick(eligible: list[int], weight_of: np.ndarray, rng: np.random.Generator) -> int:
    """Pick one label from ``eligible`` with probability proportional to its weight."""
    w = weight_of[np.array(eligible, dtype=np.intp) - 1]
    cum = np.cumsum(w)
    return eligible[int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))]


def list_sfi_rewire(g: Dag, rng: np.random.Generator) -> Dag:
    """Candidate-list sfi rewiring, the oracle for ``sfi_rewire``.

    Rebuilds the eligible successors of each vertex as a list and removes
    every pick from it. The input must have every edge point from a smaller
    to a larger label.
    """
    out_deg = Counter(a for a, _ in g.edges)
    in_deg = np.zeros(g.p)  # in-degree of each vertex in the rewired graph
    edges: list[tuple[int, int]] = []
    for i in range(g.p, 0, -1):
        need = out_deg[i]
        if need == 0:
            continue
        eligible = list(range(i + 1, g.p + 1))
        for _ in range(need):
            j = _weighted_pick(eligible, 1.0 + in_deg, rng)
            eligible.remove(j)
            edges.append((i, j))
            in_deg[j - 1] += 1.0
    return Dag(g.p, frozenset(edges))


def list_sfo_rewire(g: Dag, rng: np.random.Generator) -> Dag:
    """Candidate-list sfo rewiring, the oracle for ``sfo_rewire``."""
    in_deg_in = {v: len(ps) for v, ps in parent_map(g).items()}
    out_deg = np.zeros(g.p)
    edges: list[tuple[int, int]] = []
    for i in range(1, g.p + 1):
        need = in_deg_in[i]
        if need == 0:
            continue
        eligible = list(range(1, i))
        for _ in range(need):
            j = _weighted_pick(eligible, 1.0 + out_deg, rng)
            eligible.remove(j)
            edges.append((j, i))
            out_deg[j - 1] += 1.0
    return Dag(g.p, frozenset(edges))


def dense_implied_covariance(params: SemParameters) -> np.ndarray:
    """``implied_covariance`` with every p x p temporary alive until the
    function returns (four to five at once): the byte-identity oracle for
    it, which drops each one as soon as the next exists."""
    p = params.g.p
    order = np.asarray(source_first_order(params.g), dtype=np.intp) - 1
    Bp = params.B[np.ix_(order, order)]
    A = linalg.solve_triangular(
        np.eye(p) - Bp, np.eye(p), lower=True, unit_diagonal=True
    )
    S = (A * params.omega[order]) @ A.T
    S = (S + S.T) / 2.0
    pos = np.argsort(order)
    return S[np.ix_(pos, pos)]


def product_cov_to_corr(sigma: np.ndarray) -> np.ndarray:
    """``cov_to_corr`` as sigma times a fresh outer product of the inverse
    standard deviations: the byte-identity oracle for it, which multiplies
    sigma into the outer product in place."""
    s = 1.0 / np.sqrt(np.diag(sigma))
    R = sigma * np.outer(s, s)
    np.fill_diagonal(R, 1.0)
    return R


def traced_peak(f, *args) -> int:
    """The most bytes that ``tracemalloc`` sees allocated at once while
    ``f(*args)`` runs, its result included, beyond those allocated before."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_kept(f, *args):
    """``f(*args)`` and the bytes that ``tracemalloc`` sees still allocated
    once it returns, beyond those allocated before: what the result holds."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def refit_standardize(params: SemParameters) -> SemParameters:
    """Refit the model to its implied correlation matrix: the oracle for
    ``standardize``, which rescales B and omega instead."""
    return cov_to_dag(params.g, cov_to_corr(implied_covariance(params)))


def _draw_errors(
    kind: str, omega_i: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    sd = np.sqrt(omega_i)
    if kind == "gaussian":
        return rng.normal(0.0, sd, size=n)
    return rng.exponential(scale=sd, size=n) - sd


def column_loop_simulate(
    params: SemParameters, error_kind: str, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The n x p data filled column by column, one error draw per vertex in
    source-first order: the oracle for ``simulate``, which draws every error
    at once and completes the rows of a p x n buffer."""
    pa_of = parent_map(params.g)
    X = np.zeros((n, params.g.p))
    for v in source_first_order(params.g):
        i0 = v - 1
        z = _draw_errors(error_kind, float(params.omega[i0]), n, rng)
        pa0 = np.asarray(pa_of[v], dtype=np.intp) - 1
        if len(pa0):
            X[:, i0] = X[:, pa0] @ params.B[i0, pa0] + z
        else:
            X[:, i0] = z
    return X


def three_pass_pdag_sets(p: int, directed, undirected):
    """The three Python passes that validated a Pdag's edges: the oracle for
    ``Pdag.__post_init__``, which checks arrays of the edges instead.
    Returns the normalized ``(directed, undirected)`` frozensets or raises
    ValueError."""
    if p < 1:
        raise ValueError(f"vertex count must be positive, got {p}")
    directed = frozenset((int(a), int(b)) for a, b in directed)
    undirected = frozenset(
        (min(int(a), int(b)), max(int(a), int(b))) for a, b in undirected
    )
    for a, b in directed | undirected:
        if not (1 <= a <= p and 1 <= b <= p):
            raise ValueError(f"edge ({a}, {b}) outside vertex range 1..{p}")
        if a == b:
            raise ValueError(f"self-loop on vertex {a}")
    dir_pairs = {(min(a, b), max(a, b)) for a, b in directed}
    if len(dir_pairs) != len(directed):
        raise ValueError("a pair appears in both directions of directed")
    if dir_pairs & undirected:
        raise ValueError("a pair appears in both directed and undirected sets")
    return directed, undirected


def _adjacency(p: int, edges) -> np.ndarray:
    """p x p boolean matrix with [a-1, b-1] set for each pair (a, b)."""
    ab = np.array(list(edges), dtype=np.intp).reshape(-1, 2) - 1
    mask = np.zeros((p, p), dtype=bool)
    mask[ab[:, 0], ab[:, 1]] = True
    return mask


def mask_compare_graphs(truth: Dag, estimate: Pdag):
    """Confusion counts from three p x p masks gathered over the unordered
    pairs: the oracle for ``compare_graphs``, which intersects sorted pair
    codes instead. Returns ``(adjacency, orientation)`` dicts like
    ``brute_pair_counts``."""
    upper = np.triu_indices(truth.p, 1)
    true_ab = _adjacency(truth.p, truth.edges)
    est_ab = _adjacency(truth.p, estimate.directed)
    t_ab, e_ab = true_ab[upper], est_ab[upper]
    true_edge = t_ab | true_ab.T[upper]
    est_dir = e_ab | est_ab.T[upper]
    est_edge = est_dir | _adjacency(truth.p, estimate.undirected)[upper]
    agree = int(np.sum(true_edge & est_dir & (t_ab == e_ab)))
    adj = {
        "tp": int(np.sum(true_edge & est_edge)),
        "fp": int(np.sum(~true_edge & est_edge)),
        "fn": int(np.sum(true_edge & ~est_edge)),
        "tn": int(np.sum(~true_edge & ~est_edge)),
    }
    ori = {
        "tp": agree,
        "fp": int(np.sum(est_dir)) - agree,
        "fn": int(np.sum(true_edge)) - agree,
        "tn": agree,
    }
    return adj, ori


def edge_loop_zarx_params(g: Dag, rng: np.random.Generator) -> SemParameters:
    """One sign draw and one magnitude draw per edge in lexicographic order:
    the oracle for ``zarx_params``, which draws them all at once."""
    B = np.zeros((g.p, g.p))
    for a, b in sorted(g.edges):
        sign = -1.0 if rng.random() < 0.5 else 1.0
        B[b - 1, a - 1] = sign * rng.uniform(0.5, 2.0)
    return SemParameters(g, B, np.ones(g.p))


def edge_loop_tetrad_params(g: Dag, rng: np.random.Generator) -> SemParameters:
    """One coefficient draw per edge in lexicographic order: the oracle for
    ``tetrad_params``."""
    B = np.zeros((g.p, g.p))
    for a, b in sorted(g.edges):
        B[b - 1, a - 1] = rng.uniform(-1.0, 1.0)
    return SemParameters(g, B, rng.uniform(1.0, 2.0, size=g.p))


def list_dao_sample(g: Dag, rng: np.random.Generator, solve=None):
    """The sampler with a list of parents per vertex, sorted by walk position,
    one factorization and one ``solve(L, w)`` for z = L^-T w per non-source
    vertex, and B filled row by row: the byte-identity oracle for
    ``dao_sample``, which slices one sorted edge array, skips one-parent
    factorizations and fills B at once. ``solve`` defaults to LAPACK dtrtrs."""
    p = g.p
    order = source_first_order(g)
    walk = np.asarray(order, dtype=np.intp) - 1
    position = {v: i for i, v in enumerate(order)}
    pa_of = parent_map(g)

    R = np.eye(p)
    B = np.zeros((p, p))
    omega = np.ones(p)
    for i, v in enumerate(order):
        if not pa_of[v]:
            continue
        pa = np.asarray(sorted(pa_of[v], key=position.__getitem__)) - 1
        w = sample_mpii(len(pa), (p - i) / 2.0, rng)
        rows = R[pa]
        try:
            L = np.linalg.cholesky(rows[:, pa])
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailure(
                f"parent block of vertex {v} lost positive definiteness"
            ) from exc
        if solve is None:
            z, info = lapack.dtrtrs(L.T, w, lower=0)
            if info != 0:
                raise CholeskyFailure(f"parent block of vertex {v} has a singular root")
        else:
            z = solve(L, w)
        prev = walk[:i]
        r = (z @ rows)[prev]
        R[v - 1, prev] = r
        R[prev, v - 1] = r
        B[v - 1, pa] = z
        omega[v - 1] = 1.0 - float(w @ w)
    return R, SemParameters(g, B, omega)


def solve_triangular_dao_sample(g: Dag, rng: np.random.Generator):
    """``dao_sample`` with z = L^-T w from ``scipy.linalg.solve_triangular``:
    the exact-equality oracle for the sampler, which calls the LAPACK
    routine dtrtrs directly."""
    return list_dao_sample(
        g, rng, lambda L, w: linalg.solve_triangular(L, w, lower=True, trans="T")
    )


def row_loop_simulate(
    params: SemParameters, error_kind: str, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``simulate``'s n x p values with one parent list, one coefficient
    gather and one fresh sum per row, sources included: the byte-identity
    oracle for ``simulate``, which gathers coefficients and parent rows once
    and adds 0.0 to every source row at once."""
    p = params.g.p
    pa_of = parent_map(params.g)
    order = np.asarray(source_first_order(params.g), dtype=np.intp) - 1
    pos = np.argsort(order)
    sd = np.sqrt(params.omega[order])[:, None]
    draw = rng.standard_normal if error_kind == "gaussian" else rng.standard_exponential
    W = draw((p, n))
    W *= sd
    if error_kind == "exponential":
        W -= sd
    for j, v in enumerate(order.tolist()):
        pa = np.asarray(pa_of[v + 1], dtype=np.intp) - 1
        W[j] = params.B[v, pa] @ W[pos[pa]] + W[j]
    return np.ascontiguousarray(W[pos].T)


def scalar_draw_rewire(g: Dag, rng: np.random.Generator, *, forward: bool) -> Dag:
    """``sfo_rewire`` (``forward``) or ``sfi_rewire`` with one scalar uniform
    draw per pick: the byte-identity oracle for the rewiring, which draws
    every uniform at once."""
    p = g.p
    ends = g._ends
    need = np.bincount(ends[:, 1] if forward else ends[:, 0], minlength=p + 1)
    deg = np.zeros(p + 1)
    edges: list[int] = []
    for i in range(1, p + 1) if forward else range(p, 0, -1):
        if need[i] == 0:
            continue
        lo, hi = (1, i) if forward else (i + 1, p + 1)
        w = 1.0 + deg[lo:hi]
        for _ in range(need[i]):
            cum = w.cumsum()
            k = int(cum.searchsorted(rng.random() * cum[-1], side="right"))
            w[k] = 0.0
            j = lo + k
            deg[j] += 1.0
            edges.extend((j, i) if forward else (i, j))
    return Dag(p, np.array(edges, np.int64).reshape(-1, 2))


def c_order_data_factor(d: Dataset) -> np.ndarray:
    """The R of the C-ordered centered data: the byte-identity oracle for
    ``metrics._data_factor``, which centers into a Fortran-ordered copy."""
    return np.linalg.qr(d.values - d.values.mean(axis=0), mode="r")


def assert_same_bytes(*pairs) -> None:
    """Each pair of arrays has one dtype, shape and byte string; unlike
    ``np.array_equal``, this tells -0.0 from 0.0."""
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


GRAPH_KINDS = ("er", "sfi", "sfo", "sf-both", "shuffled", "empty", "dense", "complete")


def kind_graph(kind: str, p: int, rng: np.random.Generator) -> Dag:
    """A graph of one of ``GRAPH_KINDS``: er, its sfi, sfo and sfi-then-sfo
    rewirings and a shuffled relabeling at average degree up to 3; empty;
    shuffled dense at degree 0.7 (p - 1); shuffled complete."""
    if kind == "empty":
        return Dag(p)
    degree = {"dense": 0.7 * (p - 1), "complete": p - 1}.get(kind, min(3.0, p - 1))
    g = er_dag(p, degree, rng)
    if kind in ("sfi", "sf-both"):
        g = sfi_rewire(g, rng)
    if kind in ("sfo", "sf-both"):
        g = sfo_rewire(g, rng)
    if kind in ("shuffled", "dense", "complete"):
        g, _ = shuffle_labels(g, rng)
    return g


def scipy_sortability_rank_corr(scores, causal_index, *, largest_first: bool = False) -> float:
    """``sortability_rank_corr`` with the ranks of ``scipy.stats.rankdata``:
    the exact-equality oracle for its NumPy average ranks."""
    scores = np.asarray(scores, dtype=float)
    causal_index = np.asarray(causal_index, dtype=np.intp)
    p = len(scores)
    if causal_index.shape != (p,):
        raise ValueError(
            f"scores and causal_index lengths differ: {p} vs {causal_index.shape}"
        )
    if sorted(causal_index.tolist()) != list(range(1, p + 1)):
        raise ValueError("causal_index must be a permutation of 1..p")
    if p < 2 or np.all(scores == scores[0]):
        return 0.0
    ranks = stats.rankdata(scores)
    if largest_first:
        ranks = (p + 1) - ranks
    rho = np.corrcoef(np.column_stack((ranks, causal_index)), rowvar=False)[1, 0]
    return float(rho) if np.isfinite(rho) else 0.0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pdag_dict(est: Pdag) -> dict:
    """``est`` in the pdag layout that ``fileio.pdag_from_dict`` reads."""
    return {
        "p": est.p,
        "directed": est._directed.tolist(),
        "undirected": est._undirected.tolist(),
    }


def pdag_from_dag(g: Dag) -> Pdag:
    """The estimate that claims exactly the edges of ``g``, all directed."""
    return Pdag(g.p, frozenset(g.edges), frozenset())


def list_walk_source_first(p: int, ends: np.ndarray) -> tuple[int, ...]:
    """The source-first walk over per-vertex child lists built edge by edge:
    the oracle for ``graph._walk_source_first``, which slices the edge array."""
    indeg = [0] * (p + 1)
    children: list[list[int]] = [[] for _ in range(p + 1)]
    for a, b in ends.tolist():
        indeg[b] += 1
        children[a].append(b)
    sources = [v for v in range(1, p + 1) if indeg[v] == 0]
    order = list(sources)
    heap: list[int] = []
    for v in sources:
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(heap, c)
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(heap, c)
    if len(order) != p:
        raise CyclicGraphError("edge set contains a directed cycle")
    return tuple(order)


def parent_map(g: Dag) -> dict[int, list[int]]:
    """Sorted parent lists for every vertex: slices of the edge array
    sorted by child, then by parent label (``graph._parent_slices``)."""
    lo, by_child = _parent_slices(g, np.arange(g.p))
    pa = (by_child[:, 0] + 1).tolist()
    return {v: pa[lo[v - 1]:lo[v]] for v in range(1, g.p + 1)}


def append_parent_map(g: Dag) -> dict[int, list[int]]:
    """Parent lists appended edge by edge in lexicographic order: the oracle
    for ``parent_map``, which slices the child-sorted edge array."""
    pa: dict[int, list[int]] = {v: [] for v in range(1, g.p + 1)}
    for a, b in sorted(g.edges):
        pa[b].append(a)
    return pa


def parent_list_cov_to_dag(g: Dag, sigma: np.ndarray) -> SemParameters:
    """``cov_to_dag`` over a dict of parent lists appended edge by edge: the
    byte-identity oracle for it, which slices the child-sorted edge array."""
    sigma = np.asarray(sigma, dtype=float)
    p = g.p
    B = np.zeros((p, p))
    omega = np.diag(sigma).astype(float).copy()
    for i, J in append_parent_map(g).items():
        if not J:
            continue
        J0 = np.asarray(J, dtype=np.intp) - 1
        i0 = i - 1
        Sjj = sigma[np.ix_(J0, J0)]
        if np.linalg.cond(Sjj) > 1e12:
            raise SingularParentBlockError(
                f"parent block of vertex {i} is numerically singular"
            )
        try:
            factor = linalg.cho_factor(Sjj, lower=True)
        except linalg.LinAlgError as exc:
            raise SingularParentBlockError(
                f"parent block of vertex {i} is not positive definite"
            ) from exc
        sji = sigma[J0, i0]
        b = linalg.cho_solve(factor, sji)
        w = sigma[i0, i0] - b @ sji
        if w <= 0:
            raise SingularParentBlockError(
                f"conditional variance of vertex {i} is not positive"
            )
        B[i0, J0] = b
        omega[i0] = w
    return SemParameters(g, B, omega)


def loop_int_pairs(raw, where: str) -> list[tuple[int, int]]:
    """The pairs of a JSON edge list that the graph file readers accept, as
    tuples, from one check call per pair: their oracle."""

    def require(cond: bool, msg: str) -> None:
        if not cond:
            raise SchemaError(f"{where}: {msg}")

    pairs = []
    require(isinstance(raw, list), "expected a list of pairs")
    for item in raw:
        require(isinstance(item, list) and len(item) == 2, f"bad pair {item!r}")
        a, b = item
        require(
            isinstance(a, int) and not isinstance(a, bool)
            and isinstance(b, int) and not isinstance(b, bool),
            f"pair entries must be integers, got {item!r}",
        )
        pairs.append((a, b))
    return pairs


def triu_er_dag(p: int, avg_degree: float, rng: np.random.Generator) -> Dag:
    """``graph.er_dag`` reading the chosen pairs off ``np.triu_indices``, an
    O(p^2) list of every pair: its oracle."""
    m = round(avg_degree * p / 2)
    if m == 0:
        return Dag(p)
    rows, cols = np.triu_indices(p, k=1)
    chosen = rng.choice(p * (p - 1) // 2, size=m, replace=False)
    return Dag(p, np.column_stack((rows[chosen], cols[chosen])) + 1)


def loop_write_dataset(path, d: Dataset) -> None:
    """``fileio.write_dataset`` with one ``repr(float(x))`` per value, the
    whole CSV joined in memory and the sidecar from ``json.dumps``: its oracle."""
    lines = [",".join(d.names)]
    for row in d.values:
        lines.append(",".join(repr(float(x)) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
    meta = dict(d.meta)
    meta["names"] = list(d.names)
    atomic_write_text(meta_path(path), json.dumps(meta, indent=2) + "\n")
