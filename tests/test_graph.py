import copy
import pickle
import re
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dagonion
from dagonion import (
    CyclicGraphError,
    Dag,
    Pdag,
    er_dag,
    sfi_rewire,
    sfo_rewire,
    shuffle_labels,
    source_first_order,
)
from dagonion import graph, metrics
from dagonion.graph import _parent_slices
from util import (
    GRAPH_KINDS,
    append_parent_map,
    children,
    enumerate_dags,
    is_consistent,
    is_source_first,
    kind_graph,
    list_sfi_rewire,
    list_sfo_rewire,
    list_walk_source_first,
    parent_map,
    parents,
    scalar_draw_rewire,
    shuffled_pair_array,
    traced_kept,
    triu_er_dag,
)


class TestDagType:
    def test_rejects_cycle(self):
        with pytest.raises(CyclicGraphError):
            Dag(3, frozenset({(1, 2), (2, 3), (3, 1)}))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Dag(3, frozenset({(2, 2)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dag(3, frozenset({(1, 4)}))

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            Dag(0, frozenset())

    def test_parent_child_queries(self):
        g = Dag(4, frozenset({(1, 3), (2, 3), (3, 4)}))
        assert parents(g, 3) == (1, 2)
        assert children(g, 3) == (4,)
        assert parents(g, 1) == ()
        assert parent_map(g)[3] == [1, 2]


class TestDagKeptArrays:
    def test_edge_array_and_order_are_kept(self):
        g = Dag(5, [(3, 1), (1, 2), (2, 5), (1, 4)])
        assert g._ends.tolist() == [[1, 2], [1, 4], [2, 5], [3, 1]]
        assert g._ends.dtype == np.int64 and not g._ends.flags.writeable
        with pytest.raises(ValueError):
            g._ends[0, 0] = 4
        assert g._order == (3, 1, 2, 4, 5) and source_first_order(g) is g._order

    def test_outside_equality_hash_and_repr(self):
        g = Dag(4, frozenset({(1, 2), (3, 4)}))
        h = Dag(4, [(3, 4), (1, 2)])
        assert g == h and hash(g) == hash(h) and {g: 1}[h] == 1
        assert repr(g) == f"Dag(p=4, edges={g.edges!r})"
        assert g != Dag(4, frozenset({(1, 2)}))
        # Each side's __eq__ returns NotImplemented, so == falls back to identity.
        assert Dag(2).__eq__(Pdag(2)) is NotImplemented
        assert Dag(2) != Pdag(2) and Pdag(2) != Dag(2)

    def test_empty_graph(self):
        g = Dag(3)
        assert g._ends.shape == (0, 2) and g._order == (1, 2, 3)


@st.composite
def _shaped_graphs(draw):
    """(p, edges) of an er, sfi, sfo or sf-both graph, possibly shuffled,
    empty or complete; p = 1 included."""
    p = draw(st.integers(1, 60))
    density = draw(st.sampled_from([0.0, 1.0, None]))
    if density is None:
        density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = er_dag(p, density * (p - 1), rng)
    shape = draw(st.sampled_from(["er", "sfi", "sfo", "sf-both"]))
    if shape in ("sfi", "sf-both"):
        g = sfi_rewire(g, rng)
    if shape in ("sfo", "sf-both"):
        g = sfo_rewire(g, rng)
    if draw(st.booleans()):
        g, _ = shuffle_labels(g, rng)
    return p, g.edges


@st.composite
def _random_edge_sets(draw):
    """(p, edges) of any loop-free edge set on p <= 30 vertices, cycles allowed."""
    p = draw(st.integers(1, 30))
    pair = st.tuples(st.integers(1, p), st.integers(1, max(p - 1, 1))).map(
        lambda ab: (ab[0], ab[1] + (ab[1] >= ab[0]))
    )
    return p, draw(st.frozensets(pair, max_size=0 if p == 1 else 3 * p))


class TestArrayInput:
    """An (m, 2) integer array builds the same Dag as the frozenset of its rows."""

    @settings(max_examples=200)
    @given(shaped=_shaped_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_same_graph_as_from_frozenset(self, shaped, seed):
        p, edges = shaped
        g = Dag(p, shuffled_pair_array(edges, np.random.default_rng(seed)))
        # A frozenset's repr follows its insertion order; an array's rows go in sorted.
        h = Dag(p, frozenset(sorted(edges)))
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        assert np.array_equal(g._ends, h._ends) and g._order == h._order
        assert all(type(x) is int for e in g.edges for x in e)

    @settings(max_examples=100)
    @given(shaped=_shaped_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_every_iterable_builds_the_array_graph(self, shaped, seed):
        # edges always come from the sorted array, so even repr does not
        # depend on the input's type or order.
        p, edges = shaped
        rows = shuffled_pair_array(edges, np.random.default_rng(seed))
        want = Dag(p, rows)
        for given_edges in (
            set(edges), frozenset(edges), rows.tolist(), (tuple(e) for e in rows.tolist()),
            [(np.int64(a), np.int32(b)) for a, b in rows], list(rows),
        ):
            g = Dag(p, given_edges)
            assert g == want and hash(g) == hash(want) and repr(g) == repr(want)
            assert np.array_equal(g._ends, want._ends) and g._order == want._order
            assert all(type(x) is int for e in g.edges for x in e)

    @pytest.mark.parametrize("edges, bad", [
        ([(1, 2, 3), (4,)], "(1, 2, 3)"),
        ([(1, 2), (4,), (1, 2, 3)], "(4,)"),
        ([(1, 2, 3)], "(1, 2, 3)"),
        ([(1, 2), ()], "()"),
    ])
    def test_rejects_items_that_are_not_pairs(self, edges, bad):
        with pytest.raises(ValueError, match=re.escape(f"bad pair {bad}")):
            Dag(5, edges)

    def test_unsigned_and_empty_arrays(self):
        assert Dag(3, np.array([[2, 3], [1, 2]], np.uint8)) == Dag(3, {(1, 2), (2, 3)})
        assert Dag(3, np.empty((0, 2), np.int64)) == Dag(3)

    @pytest.mark.parametrize("ends", [
        np.array([[1.0, 2.0]]),
        np.array([[True, False]]),
        np.array([[1, 2, 3]]),
        np.array([1, 2]),
        np.array([[[1, 2]]]),
        np.array([[1, 2]], dtype=object),
        np.array([[1, 4]]),
        np.array([[0, 2]]),
        np.array([[2**64 - 1, 2]], np.uint64),
        np.array([[1, 2], [3, 3]]),
    ], ids=["float", "bool", "m-by-3", "1-d", "3-d", "object", "above-p", "zero",
            "uint64-wraps", "self-loop"])
    def test_rejects_bad_arrays(self, ends):
        with pytest.raises(ValueError):
            Dag(3, ends)

    def test_rejects_cyclic_array(self):
        with pytest.raises(CyclicGraphError):
            Dag(3, np.array([[1, 2], [2, 3], [3, 1]]))


def _dense_rows() -> np.ndarray:
    """The 40,000 edges of a shuffled p = 400, degree-200 graph, rows shuffled."""
    rng = np.random.default_rng(25)
    g, _ = shuffle_labels(er_dag(400, 200, rng), rng)
    return rng.permutation(g._ends)


_LAZY = {
    "dag": (lambda e: Dag(400, e), ("edges",)),
    "pdag": (lambda e: Pdag(400, e[::2], e[1::2]), ("directed", "undirected")),
}


@pytest.mark.parametrize("build, sets", _LAZY.values(), ids=_LAZY)
class TestLazyEdgeSets:
    """Dag and Pdag keep their edges as arrays; each public frozenset is
    built on first access and kept."""

    def test_arrays_alone_until_a_set_is_read(self, build, sets):
        rows = _dense_rows()
        g, kept = traced_kept(build, rows)
        assert kept < 2 * 16 * len(rows)
        assert not set(sets) & set(vars(g))
        got = [getattr(g, name) for name in sets]
        assert sum(map(len, got)) == len(rows)
        assert all(getattr(g, name) is s for name, s in zip(sets, got))

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_pickle_and_deepcopy_round_trips(self, build, sets, read_first):
        g = build(_dense_rows()[:300])
        if read_first:
            [getattr(g, name) for name in sets]
        copies = [pickle.loads(pickle.dumps(g, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for h in copies + [copy.deepcopy(g)]:
            # A copy is built from the arrays alone and keeps them read-only.
            assert not set(sets) & set(vars(h))
            assert not any(getattr(h, k).flags.writeable for k in type(h)._arrays)
            # A frozenset's repr follows its insertion order, so a copy of
            # the set itself could list the pairs in another order.
            assert h == g and hash(h) == hash(g) and repr(h) == repr(g)

    def test_frozen(self, build, sets):
        g = build(_dense_rows()[:10])
        for name in ("p", *sets):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(g, name, getattr(g, name))
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(g, name)


def test_pdag_is_one_class_in_graph():
    assert dagonion.Pdag is graph.Pdag is metrics.Pdag
    assert "Pdag" in graph.__all__ and "Pdag" not in metrics.__all__


_BUILDERS = {
    "dag": lambda p, e: Dag(p, e),
    "pdag-directed": lambda p, e: Pdag(p, e),
    "pdag-undirected": lambda p, e: Pdag(p, (), e),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
class TestEdgeRule:
    """Dag and both Pdag sets take an item only as a list, tuple or 1-d
    array of two Python or numpy integers, and name the first item that is
    not, in the words of the graph file readers."""

    @pytest.mark.parametrize("edges, message", [
        ([(1.0, 2)], "pair entries must be integers, got (1.0, 2)"),
        ([(1, 2), (1.5, 2), None], "pair entries must be integers, got (1.5, 2)"),
        ([(True, 2)], "pair entries must be integers, got (True, 2)"),
        ([(1, np.True_)], "pair entries must be integers, got (1, np.True_)"),
        ([np.array([1.0, 2.0])], "pair entries must be integers, got array([1., 2.])"),
        (["12"], "bad pair '12'"),
        ([(1, 2), {1: 2, 3: 4}], "bad pair {1: 2, 3: 4}"),
        ([(1, 2), None], "bad pair None"),
        ([None, (1.5, 2)], "bad pair None"),
        ([((1, 2), (2, 3))], "pair entries must be integers, got ((1, 2), (2, 3))"),
        ([[[1], 2]], "pair entries must be integers, got [[1], 2]"),
        ([np.array([[1, 2], [2, 3]])], f"bad pair {np.array([[1, 2], [2, 3]])!r}"),
        ([np.array(1)], "bad pair array(1)"),
    ], ids=lambda x: " ".join(repr(x).split())[:32])
    def test_names_the_first_bad_item(self, build, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(3, edges)

    @pytest.mark.parametrize("edges", [None, 7, 2.5, np.int64(1)], ids=repr)
    def test_non_iterable_input_is_one_bad_item(self, build, edges):
        # Not a TypeError from list(edges); the pdag-undirected case is Pdag(3, (), None).
        with pytest.raises(ValueError, match=f"^{re.escape(f'bad pair {edges!r}')}$"):
            build(3, edges)

    @pytest.mark.parametrize("edges", [
        [(1, 2)],
        [[np.int64(1), 2]],
        [(np.int64(1), np.uint8(2))],
        [np.array([1, 2])],
        [np.array([1, 2], np.int32)],
    ], ids=["tuple", "list-with-numpy-int", "numpy-ints", "row", "int32-row"])
    def test_integer_pairs_give_the_array_graph(self, build, edges):
        want = build(3, np.array([[1, 2]]))
        got = build(3, edges)
        assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("p", [0, -1, 2.5, 3.0, np.float64(3), "3", True, None], ids=repr)
    def test_vertex_count_must_be_a_positive_integer(self, build, p):
        message = f"vertex count must be a positive integer, got {p!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(p, [(1, 2)])

    def test_numpy_vertex_count_becomes_a_python_int(self, build):
        # Kept as numpy, a uint64 p makes float pair codes and uint8(255) + 1 wraps.
        for p in (np.int64(3), np.uint64(3), np.uint8(255)):
            got = build(p, [(1, 2)])
            assert got == build(int(p), [(1, 2)]) and type(got.p) is int


class TestEdgeArrayWalkOracle:
    """The walk and ``_parent_slices`` slice the kept edge array; the
    edge-by-edge loops in tests/util.py are their oracles."""

    @staticmethod
    def _check(p, edges):
        ends = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        try:
            want = list_walk_source_first(p, ends)
        except CyclicGraphError:
            with pytest.raises(CyclicGraphError):
                Dag(p, edges)
            return False
        g = Dag(p, edges)
        assert g._order == want
        want_pa = append_parent_map(g)
        assert parent_map(g) == want_pa
        # Any distinct rank orders each vertex's parent slice.
        rank = np.random.default_rng(len(edges)).permutation(p)
        lo, by_child = _parent_slices(g, rank)
        assert len(lo) == p + 1 and lo[p] == len(by_child) == len(edges)
        for u in range(p):
            rows = by_child[lo[u]:lo[u + 1]]
            assert (rows[:, 1] == u).all()
            assert (rows[:, 0] + 1).tolist() == sorted(want_pa[u + 1], key=lambda a: rank[a - 1])
        return True

    @given(_shaped_graphs())
    def test_shaped_graphs_match(self, pe):
        assert self._check(*pe)

    @given(_random_edge_sets())
    def test_random_edge_sets_match(self, pe):
        self._check(*pe)

    def test_cyclic_and_acyclic_sets_match(self):
        # Random sets of m edges on 30 vertices: sparse ones are acyclic here,
        # dense ones are not.
        rng = np.random.default_rng(5)
        outcomes = set()
        for m in (5, 10, 20, 40, 80):
            pairs = rng.integers(1, 31, size=(m, 2)).tolist()
            outcomes.add(self._check(30, {(a, b) for a, b in pairs if a != b}))
        assert outcomes == {True, False}

    def test_edges_in_any_order(self):
        g = Dag(5, [(4, 1), (5, 2), (1, 2), (5, 1), (3, 2)])
        assert g._order == (3, 4, 5, 1, 2)
        assert parent_map(g) == {1: [4, 5], 2: [1, 3, 5], 3: [], 4: [], 5: []}


class TestErDag:
    def test_exact_edge_count(self):
        rng = np.random.default_rng(0)
        g = er_dag(100, 10, rng)
        assert g.num_edges == 500
        assert all(a < b for a, b in g.edges)

    def test_complete_when_degree_saturates(self):
        rng = np.random.default_rng(1)
        g = er_dag(3, 2, rng)
        assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_zero_degree_empty(self):
        g = er_dag(5, 0, np.random.default_rng(2))
        assert g.num_edges == 0

    def test_invalid_degree(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            er_dag(5, -0.1, rng)
        with pytest.raises(ValueError):
            er_dag(5, 4.5, rng)

    def test_uniform_over_edge_subsets(self):
        # p=4, m=2: all C(6,2)=15 two-edge subsets should be equally likely.
        rng = np.random.default_rng(4)
        counts: dict[frozenset, int] = {}
        n = 30_000
        for _ in range(n):
            g = er_dag(4, 1, rng)
            assert g.num_edges == 2
            counts[g.edges] = counts.get(g.edges, 0) + 1
        assert len(counts) == 15
        chi = stats.chisquare(list(counts.values()))
        assert chi.pvalue > 0.001

    def test_matches_triu_indices_oracle(self):
        # Same edges and the same generator state after the draw, for every
        # p in 2..60 at sparse, half and complete densities.
        for p in range(2, 61):
            for degree in sorted({1.0, (p - 1) / 2, p - 1.0}):
                for seed in range(3):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert er_dag(p, degree, rng) == triu_er_dag(p, degree, ref)
                    assert rng.bit_generator.state == ref.bit_generator.state


def _random_consistent_dag(rng, p=30, degree=4.0):
    return er_dag(p, degree, rng)


class TestRewiring:
    def test_empty_graph_unchanged(self):
        g = Dag(10, frozenset())
        rng = np.random.default_rng(0)
        assert sfi_rewire(g, rng).edges == frozenset()
        assert sfo_rewire(g, rng).edges == frozenset()

    def test_sfi_preserves_out_degrees(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = _random_consistent_dag(rng)
            h = sfi_rewire(g, rng)
            assert h.p == g.p
            got = sorted(len(children(h, v)) for v in range(1, g.p + 1))
            want = sorted(len(children(g, v)) for v in range(1, g.p + 1))
            assert got == want
            assert all(a < b for a, b in h.edges)

    def test_sfo_preserves_in_degrees(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = _random_consistent_dag(rng)
            h = sfo_rewire(g, rng)
            got = sorted(len(parents(h, v)) for v in range(1, g.p + 1))
            want = sorted(len(parents(g, v)) for v in range(1, g.p + 1))
            assert got == want
            assert all(a < b for a, b in h.edges)

    def test_rejects_label_inconsistent_input(self):
        g = Dag(3, frozenset({(3, 1)}))
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            sfi_rewire(g, rng)
        with pytest.raises(ValueError):
            sfo_rewire(g, rng)
        assert rng.bit_generator.state == before  # rejected before any draw

    def test_sfi_concentrates_in_degree(self):
        rng = np.random.default_rng(8)
        er_max, sfi_max = [], []
        for _ in range(40):
            g = er_dag(60, 6, rng)
            h = sfi_rewire(g, rng)
            er_max.append(max(len(parents(g, v)) for v in range(1, 61)))
            sfi_max.append(max(len(parents(h, v)) for v in range(1, 61)))
        assert np.mean(sfi_max) > np.mean(er_max)

    def test_sfo_concentrates_out_degree(self):
        rng = np.random.default_rng(9)
        er_max, sfo_max = [], []
        for _ in range(40):
            g = er_dag(60, 6, rng)
            h = sfo_rewire(g, rng)
            er_max.append(max(len(children(g, v)) for v in range(1, 61)))
            sfo_max.append(max(len(children(h, v)) for v in range(1, 61)))
        assert np.mean(sfo_max) > np.mean(er_max)


def _assert_matches_oracle(g, seed):
    """Both rewirings equal the candidate-list oracle draw for draw."""
    # sfi keeps each vertex's out-degree (edge slot 0), sfo its in-degree (slot 1).
    for rewire, oracle, kept in ((sfi_rewire, list_sfi_rewire, 0), (sfo_rewire, list_sfo_rewire, 1)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        h = rewire(g, rng)
        assert h.edges == oracle(g, ref_rng).edges
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert Counter(e[kept] for e in h.edges) == Counter(e[kept] for e in g.edges)
        assert all(a < b for a, b in h.edges)


class TestRewireOracle:
    def test_empty_and_complete(self):
        _assert_matches_oracle(Dag(6, frozenset()), 0)
        for p in (2, 5, 30):
            complete = er_dag(p, p - 1, np.random.default_rng(p))
            assert complete.num_edges == p * (p - 1) // 2
            _assert_matches_oracle(complete, p)

    def test_er_graphs(self):
        rng = np.random.default_rng(11)
        for p in range(2, 81):
            for degree in range(min(12, p - 1) + 1):
                g = er_dag(p, degree, rng)
                _assert_matches_oracle(g, 1000 * p + degree)

    @given(
        st.integers(1, 40).flatmap(
            lambda p: st.tuples(st.just(p), st.floats(0, p - 1), st.integers(0, 2**32))
        )
    )
    def test_property_matches_oracle(self, case):
        p, degree, seed = case
        g = er_dag(p, degree, np.random.default_rng(seed))
        _assert_matches_oracle(g, seed + 1)


class TestScalarDrawOracle:
    """One array of uniforms gives the rewiring of one scalar draw per pick,
    edge array bytes and generator state alike."""

    @given(
        kind=st.sampled_from(GRAPH_KINDS),
        p=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_and_draws(self, kind, p, seed):
        g = kind_graph(kind, p, np.random.default_rng(seed))
        g = Dag(p, np.sort(g._ends, axis=1))  # shuffled kinds back to label order
        for rewire, forward in ((sfi_rewire, False), (sfo_rewire, True)):
            fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            h = rewire(g, fast)
            assert h._ends.tobytes() == scalar_draw_rewire(g, slow, forward=forward)._ends.tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state


class _FixedPermRng:
    """Stand-in random source returning a preset permutation."""

    def __init__(self, perm0):
        self._perm0 = np.asarray(perm0)

    def permutation(self, n):
        assert n == len(self._perm0)
        return self._perm0


class TestShuffleLabels:
    def test_chain_relabeling(self):
        g = Dag(3, frozenset({(1, 2), (2, 3)}))
        # Old labels 1,2,3 become 3,1,2.
        h, perm = shuffle_labels(g, _FixedPermRng([2, 0, 1]))
        assert perm == (3, 1, 2)
        assert h.edges == frozenset({(3, 1), (1, 2)})

    def test_single_vertex(self):
        g = Dag(1, frozenset())
        h, perm = shuffle_labels(g, np.random.default_rng(0))
        assert h.edges == frozenset() and perm == (1,)

    def test_isomorphism(self):
        rng = np.random.default_rng(10)
        g = _random_consistent_dag(rng)
        h, perm = shuffle_labels(g, rng)
        assert h.num_edges == g.num_edges
        assert sorted(perm) == list(range(1, g.p + 1))
        got = sorted(len(parents(h, v)) for v in range(1, g.p + 1))
        want = sorted(len(parents(g, v)) for v in range(1, g.p + 1))
        assert got == want
        # Relabeling back recovers the original edges.
        inv = {new: old for old, new in enumerate(perm, start=1)}
        assert frozenset((inv[a], inv[b]) for a, b in h.edges) == g.edges


class TestSourceFirstOrder:
    def test_empty_graph(self):
        assert source_first_order(Dag(3, frozenset())) == (1, 2, 3)

    def test_two_sources(self):
        g = Dag(3, frozenset({(2, 1), (3, 1)}))
        assert source_first_order(g) == (2, 3, 1)

    def test_source_precedes_smaller_nonsource(self):
        # Vertex 3 has no parents, so it must come before vertex 2.
        g = Dag(3, frozenset({(1, 2), (3, 2)}))
        assert source_first_order(g) == (1, 3, 2)

    def test_exhaustive_small_graphs(self):
        for p in (1, 2, 3, 4):
            for g in enumerate_dags(p):
                order = source_first_order(g)
                assert sorted(order) == list(range(1, p + 1))
                assert is_consistent(order, g)
                assert is_source_first(order, g)
                assert source_first_order(g) == order  # deterministic
