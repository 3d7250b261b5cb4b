"""Shared helpers for the test suite: exhaustive enumeration and oracles."""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

import numpy as np
from scipy import linalg

from dagonion import (
    CholeskyFailure,
    CyclicGraphError,
    Dag,
    Dataset,
    Pdag,
    RankDeficientDataError,
    SemParameters,
    sample_mpii,
    source_first_order,
)


def all_pairs(p: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, p + 1), 2))


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


def lstsq_sort_regress(d: Dataset, scores: np.ndarray, threshold: float) -> Pdag:
    """Sort-and-regress with one least-squares solve per column: the oracle
    for the single-factorization learners."""
    if threshold < 0 or np.isnan(threshold):
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if d.n <= d.p:
        raise RankDeficientDataError(
            f"need more rows than columns, got n={d.n}, p={d.p}"
        )
    sd = d.values.std(axis=0, ddof=1)
    if np.any(sd == 0):
        raise RankDeficientDataError("a column has zero sample variance")
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

    parent_map = h.parent_map()
    m = sum(1 for v in range(1, p + 1) if not parent_map[v])

    R = np.eye(p)
    B = np.zeros((p, p))
    omega = np.ones(p)
    for i in range(m, p):
        # Layer i extends the i x i leading block to cover vertex i+1.
        parents0 = np.asarray(parent_map[i + 1], dtype=np.intp) - 1
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
    in_deg_in = {v: len(ps) for v, ps in g.parent_map().items()}
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
