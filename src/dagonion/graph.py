"""The DAG and PDAG types, random DAG generation, rewiring, and vertex orderings.

Vertices are labeled 1..p. An edge is an ordered pair ``(parent, child)``.
The samplers in this module return graphs whose edges all point from a
smaller label to a larger one, so the identity order 1, 2, ..., p is a
consistent (topological) order for freshly sampled graphs. Rewiring
preserves that property; label shuffling deliberately breaks it.
"""

from __future__ import annotations

import heapq
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import CyclicGraphError

__all__ = [
    "Dag",
    "Pdag",
    "er_dag",
    "sfi_rewire",
    "sfo_rewire",
    "shuffle_labels",
    "source_first_order",
]


class _Graph:
    """What ``Dag`` and ``Pdag`` share: repr and hash of a frozen dataclass
    whose fields are ``_fields``, and its refusal of assignment and deletion.
    Equality and pickling go by p and the ``_arrays`` that the constructor
    takes in place of the other fields: equality builds no frozenset, and a
    copy builds its own from the sorted array, so its repr lists the pairs
    in the same order."""

    _fields: tuple[str, ...]
    _arrays: tuple[str, ...]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in self._arrays
        )

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), (self.p, *(getattr(self, k) for k in self._arrays))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Dag(_Graph):
    """A directed acyclic graph on vertices 1..p.

    ``edges`` holds ``(parent, child)`` pairs, as an iterable or an (m, 2)
    integer array. Construction validates p, the pairs (``_edge_array``) and
    acyclicity (a cycle raises :class:`~dagonion.errors.CyclicGraphError`),
    and keeps p as a Python int, the read-only (m, 2) int64 array ``_ends``
    of the pairs in lexicographic order and the source-first ``_order``.
    The public ``edges``, a frozenset of Python-int tuples, is built from
    ``_ends`` on first access and kept; eq, hash and repr are those of a
    frozen dataclass with fields p and edges.
    """

    _fields = ("p", "edges")
    _arrays = ("_ends",)

    def __init__(self, p: int, edges=frozenset()) -> None:
        p = _vertex_count(p)
        ends, _ = _sorted_pairs(_edge_array(edges, p), p)  # raises on a bad label
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_order", _walk_source_first(p, ends))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return _pair_set(self._ends)

    @property
    def num_edges(self) -> int:
        return len(self._ends)


class Pdag(_Graph):
    """A partially directed graph: directed plus undirected edges.

    ``directed`` holds (parent, child) pairs; ``undirected`` holds unordered
    pairs. Each is an iterable of pairs or an (m, 2) integer array, checked,
    like p, as a Dag's are. Construction keeps, as a Dag does, the read-only
    sorted arrays ``_directed`` and ``_undirected``, the latter of (min, max)
    rows, and their sorted codes; the public frozensets of Python-int tuples
    are built from the arrays on first access. It raises ValueError for a
    pair in both directions of ``directed``, or a pair in both sets (in
    either orientation). Full equivalence-class semantics are not enforced;
    this is a container for estimated structures.
    """

    _fields = ("p", "directed", "undirected")
    _arrays = ("_directed", "_undirected")

    def __init__(self, p: int, directed=frozenset(), undirected=frozenset()) -> None:
        p = _vertex_count(p)
        d, dcode = _sorted_pairs(_edge_array(directed, p), p)
        u, ucode = _sorted_pairs(np.sort(_edge_array(undirected, p), axis=1), p)
        if len(np.intersect1d(dcode, _codes(d[:, ::-1], p), assume_unique=True)):
            raise ValueError("a pair appears in both directions of directed")
        # With no pair in both directions, the (min, max) codes are unique too.
        if len(np.intersect1d(_codes(np.sort(d, axis=1), p), ucode, assume_unique=True)):
            raise ValueError("a pair appears in both directed and undirected sets")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_directed", d)
        object.__setattr__(self, "_undirected", u)
        object.__setattr__(self, "_directed_codes", dcode)
        object.__setattr__(self, "_undirected_codes", ucode)

    @cached_property
    def directed(self) -> frozenset[tuple[int, int]]:
        return _pair_set(self._directed)

    @cached_property
    def undirected(self) -> frozenset[tuple[int, int]]:
        return _pair_set(self._undirected)


def _parent_slices(g: Dag, rank: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The 0-based (parent, child) rows of ``g``'s edges sorted by child, then
    by ``rank[parent]``, with ``rank`` distinct over the 0-based vertices, and
    the offsets ``lo``: the parents of vertex u (0-based) are rows
    ``lo[u]:lo[u + 1]``, in ascending rank."""
    ends = g._ends - 1
    by_child = ends[np.argsort(ends[:, 1] * g.p + rank[ends[:, 0]])]
    return np.searchsorted(by_child[:, 1], np.arange(g.p + 1)).tolist(), by_child


def er_dag(p: int, avg_degree: float, rng: np.random.Generator) -> Dag:
    """Sample an Erdos-Renyi style DAG with a fixed number of edges.

    Draws m = round(avg_degree * p / 2) edges uniformly at random among the
    p(p-1)/2 pairs (a, b) with a < b, so every edge respects the label order
    and the result is acyclic by construction. Rounding of a half-integer
    edge count follows Python's round (ties to even).

    Raises ValueError when avg_degree is negative or exceeds p - 1.
    """
    if not 0 <= avg_degree <= p - 1:
        raise ValueError(
            f"average degree must lie in [0, p-1] = [0, {p - 1}], got {avg_degree}"
        )
    m = round(avg_degree * p / 2)
    n_pairs = p * (p - 1) // 2
    if m == 0:
        return Dag(p)
    chosen = rng.choice(n_pairs, size=m, replace=False)
    # Pair t in row-major order of the upper triangle, as np.triu_indices(p, 1)
    # lists them, without building that O(p^2) list: row r starts at off[r].
    r = np.arange(p - 1)
    off = r * (2 * p - r - 1) // 2
    rows = np.searchsorted(off, chosen, side="right") - 1
    cols = chosen - off[rows] + rows + 1
    return Dag(p, np.column_stack((rows, cols)) + 1)


def sfi_rewire(g: Dag, rng: np.random.Generator) -> Dag:
    """Rewire toward a scale-free in-degree distribution.

    Processes vertices in reverse label order. Each vertex keeps its
    out-degree but its children are resampled among the successors j > i,
    with selection weight 1 + (in-degree of j accumulated so far). Sampling
    is without replacement among the not-yet-chosen candidates, with weights
    renormalized after every pick, so the loop always terminates.

    Requires an input whose edges all satisfy parent < child.
    """
    return _rewire(g, rng, forward=False)


def sfo_rewire(g: Dag, rng: np.random.Generator) -> Dag:
    """Rewire toward a scale-free out-degree distribution.

    Mirror image of :func:`sfi_rewire`: vertices are processed in forward
    label order, each keeps its in-degree, and its parents are resampled
    among the predecessors j < i with weight 1 + (out-degree of j
    accumulated so far).
    """
    return _rewire(g, rng, forward=True)


def _rewire(g: Dag, rng: np.random.Generator, *, forward: bool) -> Dag:
    """The preferential-attachment loop shared by sfi_rewire and sfo_rewire.

    ``forward`` walks 1..p and redraws each vertex's parents among j < i
    (sfo); otherwise it walks p..1 and redraws children among j > i (sfi).
    A chosen candidate's weight drops to 0.0, which leaves every cumulative
    sum bit-identical to the one over the remaining candidates and is never
    picked, so each draw equals a pick from the shrinking candidate list.
    Only picked vertices gain degree, and each is out of the current
    vertex's candidates, so the weights are copied once per vertex.
    """
    p = g.p
    ends = g._ends
    bad = ends[ends[:, 0] >= ends[:, 1]]
    if len(bad):
        raise ValueError(
            f"{'sfo' if forward else 'sfi'}_rewire requires every edge to point from "
            f"a smaller to a larger label; offending edge {tuple(bad[0].tolist())}"
        )
    need = np.bincount(ends[:, 1] if forward else ends[:, 0], minlength=p + 1).tolist()
    # One array draw gives the same doubles, in order, as one scalar draw per pick.
    u = iter(rng.random(len(ends)).tolist())
    deg = np.zeros(p + 1)  # degree gained so far in the rewired graph; slot 0 unused
    edges: list[int] = []  # flat (parent, child) labels
    for i in range(1, p + 1) if forward else range(p, 0, -1):
        if need[i] == 0:
            continue
        lo, hi = (1, i) if forward else (i + 1, p + 1)
        w = 1.0 + deg[lo:hi]
        for _ in range(need[i]):
            cum = w.cumsum()
            k = int(cum.searchsorted(next(u) * cum[-1], side="right"))
            w[k] = 0.0
            j = lo + k
            deg[j] += 1.0
            edges.extend((j, i) if forward else (i, j))
    return Dag(p, np.array(edges, np.int64).reshape(-1, 2))


def _is_integer(x) -> bool:
    """True for a Python or numpy integer other than a bool, a subclass of int
    (JSON true and false load as bool)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _vertex_count(p) -> int:
    """``p`` as a Python int; raises ValueError unless it is an integer >= 1."""
    if not (_is_integer(p) and p >= 1):
        raise ValueError(f"vertex count must be a positive integer, got {p!r}")
    return int(p)


def _edge_array(edges, p: int) -> np.ndarray:
    """The (m, 2) int64 array of the (a, b) pairs in ``edges``, an (m, 2)
    integer array or an iterable of pairs, in the given order. Raises
    ValueError unless every item is a list, tuple or 1-d array of two
    integer labels a != b in 1..p; input that is neither an array nor an
    iterable is one bad item. Three C-level scans accept lists and
    tuples of Python ints; only when they fail does a loop run, which checks
    every item and names the first bad one."""
    if isinstance(edges, np.ndarray):
        if edges.dtype.kind not in "iu" or edges.shape[1:] != (2,):
            raise ValueError(f"edge array must be (m, 2) integer, not {edges.dtype} {edges.shape}")
        ends = edges.astype(np.int64, copy=False)  # an unsigned label past int64 wraps below 1
    else:
        items = list(edges) if np.iterable(edges) else [edges]
        if not (set(map(type, items)) <= {list, tuple} and set(map(len, items)) <= {2}
                and set(map(type, chain.from_iterable(items))) <= {int}):  # bool is not int
            for item in items:
                if not (isinstance(item, (list, tuple, np.ndarray))
                        and getattr(item, "ndim", 1) == 1 and len(item) == 2):
                    raise ValueError(f"bad pair {item!r}")
                if not all(map(_is_integer, item)):
                    raise ValueError(f"pair entries must be integers, got {item!r}")
        try:
            ends = np.fromiter(chain.from_iterable(items), np.int64, 2 * len(items)).reshape(-1, 2)
        except OverflowError:
            raise ValueError(f"an edge label lies outside vertex range 1..{p}") from None
    if ends.min(initial=1) < 1 or ends.max(initial=p) > p:
        out = ends[((ends < 1) | (ends > p)).any(axis=1)][0]
        raise ValueError(f"edge {tuple(out.tolist())} outside vertex range 1..{p}")
    loops = ends[:, 0] == ends[:, 1]
    if loops.any():
        raise ValueError(f"self-loop on vertex {ends[loops][0, 0]}")
    return ends


def _sorted_pairs(ends: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``ends`` by ascending code without repeats and their codes,
    both read-only."""
    code = _codes(ends, p)
    order = np.argsort(code)
    order = order[np.diff(code[order], prepend=-1) != 0]  # codes are positive
    ends, code = ends[order], code[order]
    ends.flags.writeable = code.flags.writeable = False
    return ends, code


def _pair_set(ends: np.ndarray) -> frozenset[tuple[int, int]]:
    """The rows of ``ends`` as a frozenset of Python-int tuples, inserted in row order."""
    return frozenset(zip(*ends.T.tolist()))


def _codes(ends: np.ndarray, p: int) -> np.ndarray:
    """The code a * (p + 1) + b of each pair (a, b), ascending in lexicographic order."""
    return ends[:, 0] * (p + 1) + ends[:, 1]


def shuffle_labels(g: Dag, rng: np.random.Generator) -> tuple[Dag, tuple[int, ...]]:
    """Relabel the vertices by a uniformly random permutation.

    Returns the relabeled graph and the permutation as a tuple ``perm``
    where ``perm[v-1]`` is the new label of old vertex ``v``.
    """
    perm = rng.permutation(g.p) + 1
    return Dag(g.p, perm[g._ends - 1]), tuple(perm.tolist())


def source_first_order(g: Dag) -> tuple[int, ...]:
    """Deterministic source-first consistent order of ``g``.

    All parentless vertices come first (ascending label), then the remaining
    vertices in topological order with ties broken by ascending label. Every
    parent precedes its children. ``g`` keeps the order walked when it was built.
    """
    return g._order


def _walk_source_first(p: int, ends: np.ndarray) -> tuple[int, ...]:
    # ends is sorted by parent, so the children of v are ends[lo[v]:lo[v + 1], 1].
    indeg = np.bincount(ends[:, 1], minlength=p + 1)
    lo = np.searchsorted(ends[:, 0], np.arange(p + 2)).tolist()
    kids = ends[:, 1].tolist()
    sources = (np.flatnonzero(indeg[1:] == 0) + 1).tolist()
    indeg = indeg.tolist()
    order: list[int] = []
    heap: list[int] = []

    def place(v: int) -> None:
        order.append(v)
        for c in kids[lo[v]:lo[v + 1]]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(heap, c)

    for v in sources:  # all placed before any released vertex
        place(v)
    while heap:
        place(heapq.heappop(heap))
    if len(order) != p:
        raise CyclicGraphError("edge set contains a directed cycle")
    return tuple(order)
