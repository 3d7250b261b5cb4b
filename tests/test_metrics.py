import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dagonion import (
    ConfusionCounts,
    Dag,
    Dataset,
    PairCounts,
    Pdag,
    RankDeficientDataError,
    SingularMatrixError,
    ZeroVarianceColumnError,
    compare_graphs,
    dao_sample,
    er_dag,
    population_r2,
    precision_recall,
    sample_r2,
    shuffle_labels,
    simulate,
    sortability_rank_corr,
    standardize_data,
    varsortability_scores,
)
from dagonion.metrics import _average_ranks, _data_factor, _qr_r_inplace
from util import (
    DEGENERATE,
    GRAPH_KINDS,
    all_pairs,
    assert_same_bytes,
    brute_pair_counts,
    c_order_data_factor,
    corrcoef_sample_r2,
    degenerate_data,
    enumerate_dags,
    enumerate_pdags,
    kind_graph,
    lstsq_sample_r2,
    mask_compare_graphs,
    mixed_data,
    model_data,
    near_collinear_data,
    pdag_from_dag,
    scipy_sortability_rank_corr,
    shuffled_pair_array,
    three_pass_pdag_sets,
)

# Values whose ranking is easy to get wrong: signed zeros, infinities and
# magnitudes near the ends of the float64 range.
_SPECIAL_SCORES = np.array(
    [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 1.0]
)


@st.composite
def rank_scores(draw):
    """Score vectors of length 1..120: continuous, heavily tied, special
    values mixed with magnitudes near 1e+-300, or any of these with a NaN."""
    p = draw(st.integers(1, 120))
    kind = draw(st.sampled_from(["continuous", "tied", "special"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        x = rng.standard_normal(p)
    elif kind == "tied":
        x = rng.integers(0, draw(st.integers(1, 4)), p).astype(float)
    else:
        near_limits = rng.standard_normal(p) * 10.0 ** rng.choice([-300, 300], p)
        x = np.where(rng.random(p) < 0.5, rng.choice(_SPECIAL_SCORES, p), near_limits)
    if draw(st.integers(0, 3)) == 0:  # a NaN in one vector of four
        x[rng.integers(p)] = np.nan
    return x


class TestPdagType:
    def test_normalizes_undirected_pairs(self):
        est = Pdag(3, frozenset(), frozenset({(3, 1)}))
        assert est.undirected == frozenset({(1, 3)})

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Pdag(3, frozenset({(1, 2)}), frozenset({(2, 1)}))

    def test_rejects_two_cycle(self):
        with pytest.raises(ValueError):
            Pdag(3, frozenset({(1, 2), (2, 1)}), frozenset())

    def test_rejects_self_loop_and_range(self):
        with pytest.raises(ValueError):
            Pdag(3, frozenset({(2, 2)}), frozenset())
        with pytest.raises(ValueError):
            Pdag(3, frozenset(), frozenset({(1, 4)}))

    def test_from_dag(self):
        g = Dag(3, frozenset({(1, 2)}))
        est = pdag_from_dag(g)
        assert est.directed == frozenset({(1, 2)}) and not est.undirected

    def test_numpy_labels_become_python_ints(self):
        est = Pdag(4, frozenset({(np.int64(1), np.int32(2))}),
                   frozenset({(np.intp(4), np.int64(3))}))
        assert est.directed == frozenset({(1, 2)}) and est.undirected == frozenset({(3, 4)})
        assert all(type(x) is int for e in est.directed | est.undirected for x in e)

    @pytest.mark.parametrize("directed, undirected", [
        ({(1, 2, 3)}, set()),
        (set(), {(1,)}),
        ({(1, 2**70)}, set()),
        # Four labels in two items once read as two valid pairs.
        ({(2, 3, 1), (3,)}, set()),
        (set(), {(1, 2, 3), (2,)}),
    ])
    def test_malformed_pairs_rejected(self, directed, undirected):
        with pytest.raises(ValueError):
            Pdag(3, frozenset(directed), frozenset(undirected))

    def test_iterables_of_pairs_accepted(self):
        want = Pdag(5, np.array([[1, 2], [3, 4]]), np.array([[5, 1]]))
        rows = np.array([[3, 4], [1, 2]])
        for directed in ([(3, 4), (1, 2)], ((a, b) for a, b in [(1, 2), (3, 4)]), list(rows),
                         [(np.int64(3), np.int32(4)), (np.intp(1), np.int64(2))]):
            got = Pdag(5, directed, ((a, b) for a, b in [(1, 5)]))
            assert got == want and repr(got) == repr(want)

    @settings(max_examples=200)
    @given(p=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_array_input_same_as_frozensets(self, p, seed):
        rng = np.random.default_rng(seed)
        states = rng.choice(4, size=p * (p - 1) // 2, p=[0.4, 0.2, 0.2, 0.2])
        pairs = all_pairs(p)
        directed = [ab if s == 1 else ab[::-1] for ab, s in zip(pairs, states) if s in (1, 2)]
        undirected = [ab for ab, s in zip(pairs, states) if s == 3]
        flipped = [ab[::-1] if rng.random() < 0.5 else ab for ab in undirected]
        got = Pdag(p, shuffled_pair_array(directed, rng), shuffled_pair_array(flipped, rng))
        # A frozenset's repr follows its insertion order; an array's rows go in sorted.
        want = Pdag(p, frozenset(sorted(directed)), frozenset(undirected))
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        for codes in (got._directed_codes, got._undirected_codes):
            assert np.all(np.diff(codes) > 0) and not codes.flags.writeable
        assert np.array_equal(got._directed_codes, want._directed_codes)
        assert np.array_equal(got._undirected_codes, want._undirected_codes)

    @pytest.mark.parametrize("ends", [
        np.array([[1.0, 2.0]]),
        np.array([[True, False]]),
        np.array([[1, 2, 3]]),
        np.array([1, 2]),
        np.array([[1, 4]]),
        np.array([[0, 2]]),
        np.array([[2, 2]]),
    ], ids=["float", "bool", "m-by-3", "1-d", "above-p", "zero", "self-loop"])
    def test_rejects_bad_arrays(self, ends):
        with pytest.raises(ValueError):
            Pdag(3, ends)
        with pytest.raises(ValueError):
            Pdag(3, np.empty((0, 2), np.int64), ends)

    def test_array_pair_checks(self):
        with pytest.raises(ValueError, match="both directions"):
            Pdag(3, np.array([[1, 2], [2, 1]]))
        with pytest.raises(ValueError, match="both directed and undirected"):
            Pdag(3, np.array([[2, 1]]), np.array([[2, 1]]))
        assert Pdag(3, np.array([[1, 2], [1, 2]]), np.array([[3, 2]])) == Pdag(
            3, {(1, 2)}, {(2, 3)})

    @settings(max_examples=300)
    @given(data=st.data(), p=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_property_matches_three_pass_oracle(self, data, p, seed):
        # A valid partially directed graph from per-pair states, plus a few
        # raw pairs that may break any of the checks.
        rng = np.random.default_rng(seed)
        states = rng.choice(4, size=p * (p - 1) // 2, p=[0.7, 0.1, 0.1, 0.1])
        pairs = all_pairs(p)
        directed = [ab if s == 1 else ab[::-1] for ab, s in zip(pairs, states) if s in (1, 2)]
        undirected = [ab[::-1] if rng.random() < 0.5 else ab
                      for ab, s in zip(pairs, states) if s == 3]
        label = st.integers(-1, p + 2) if data.draw(st.booleans()) else st.integers(1, p)
        raw = st.lists(st.tuples(label, label), max_size=3)
        directed += data.draw(raw)
        undirected += data.draw(raw)
        if data.draw(st.booleans()):
            directed = [(np.int64(a), np.int64(b)) for a, b in directed]
        form = data.draw(st.sampled_from(["list", "frozenset", "array"]))
        if form == "frozenset":
            directed, undirected = frozenset(directed), frozenset(undirected)
        elif form == "array":
            directed, undirected = (np.array(e, np.int64).reshape(-1, 2)
                                    for e in (directed, undirected))
        try:
            want = three_pass_pdag_sets(p, directed, undirected)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Pdag(p, directed, undirected)
            # Which bad label or self-loop is named depends on set order; the
            # pair checks run only when every label is fine.
            pair_error = str(exc).startswith("a pair")
            assert (str(got.value) == str(exc)) if pair_error else (
                not str(got.value).startswith("a pair"))
            return
        est = Pdag(p, directed, undirected)
        assert (est.directed, est.undirected) == want
        assert all(type(x) is int for e in est.directed | est.undirected for x in e)


class TestCompareGraphs:
    def test_both_empty(self):
        c = compare_graphs(Dag(4, frozenset()), Pdag(4))
        assert c.adjacency == PairCounts(tp=0, fp=0, fn=0, tn=6)
        assert c.orientation == PairCounts()

    def test_worked_example(self):
        truth = Dag(3, frozenset({(1, 2), (1, 3)}))
        est = Pdag(3, frozenset({(1, 2), (3, 1)}), frozenset({(2, 3)}))
        c = compare_graphs(truth, est)
        assert c.adjacency == PairCounts(tp=2, fp=1, fn=0, tn=0)
        assert c.orientation == PairCounts(tp=1, fp=1, fn=1, tn=1)

    def test_undirected_estimate_of_true_edge(self):
        c = compare_graphs(
            Dag(2, frozenset({(1, 2)})), Pdag(2, frozenset(), frozenset({(1, 2)}))
        )
        assert c.adjacency == PairCounts(tp=1, fp=0, fn=0, tn=0)
        assert c.orientation == PairCounts(tp=0, fp=0, fn=1, tn=0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compare_graphs(Dag(3, frozenset()), Pdag(4))

    def test_adjacency_counts_partition_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = er_dag(8, 3, rng)
            est = pdag_from_dag(er_dag(8, 2.5, rng))
            c = compare_graphs(g, est)
            total = c.adjacency.tp + c.adjacency.fp + c.adjacency.fn + c.adjacency.tn
            assert total == 8 * 7 // 2

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        g = er_dag(7, 3, rng)
        est_dag = er_dag(7, 2, rng)
        before = compare_graphs(g, pdag_from_dag(est_dag))
        gp, perm = shuffle_labels(g, rng)
        relabeled = frozenset((perm[a - 1], perm[b - 1]) for a, b in est_dag.edges)
        after = compare_graphs(gp, Pdag(7, relabeled, frozenset()))
        assert before == after

    @settings(max_examples=60)
    @given(
        p=st.integers(1, 30),
        true_density=st.floats(0.0, 1.0),
        est_density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_brute_force(self, p, true_density, est_density, seed):
        rng = np.random.default_rng(seed)
        truth, _ = shuffle_labels(er_dag(p, true_density * (p - 1), rng), rng)
        # Per pair (a, b): absent, a -> b, b -> a or undirected.
        weights = [1.0 - est_density] + [est_density / 3.0] * 3
        states = rng.choice(4, size=p * (p - 1) // 2, p=weights)
        pairs = all_pairs(p)
        est = Pdag(
            p,
            frozenset(ab if s == 1 else ab[::-1] for ab, s in zip(pairs, states) if s in (1, 2)),
            frozenset(ab for ab, s in zip(pairs, states) if s == 3),
        )
        c = compare_graphs(truth, est)
        got = (asdict(c.adjacency), asdict(c.orientation))
        assert got == brute_pair_counts(truth, est) == mask_compare_graphs(truth, est)

    def test_exhaustive_agreement_small(self):
        truths = enumerate_dags(3)
        ests = enumerate_pdags(3)
        for truth in truths[:8]:
            for est in ests:
                c = compare_graphs(truth, est)
                adj, ori = brute_pair_counts(truth, est)
                assert (adj, ori) == mask_compare_graphs(truth, est)
                assert (c.adjacency.tp, c.adjacency.fp, c.adjacency.fn, c.adjacency.tn) == (
                    adj["tp"], adj["fp"], adj["fn"], adj["tn"],
                )
                assert (c.orientation.tp, c.orientation.fp, c.orientation.fn, c.orientation.tn) == (
                    ori["tp"], ori["fp"], ori["fn"], ori["tn"],
                )


class TestPrecisionRecall:
    def test_formula(self):
        c = ConfusionCounts(PairCounts(tp=2, fp=1, fn=0), PairCounts(tp=1, fp=1, fn=1))
        pr = precision_recall(c)
        assert pr.adjacency_precision == pytest.approx(2 / 3)
        assert pr.adjacency_recall == 1.0
        assert pr.orientation_precision == 0.5
        assert pr.orientation_recall == 0.5

    def test_empty_convention(self):
        pr = precision_recall(ConfusionCounts(PairCounts(), PairCounts()))
        assert pr == precision_recall(ConfusionCounts(PairCounts(tn=3), PairCounts()))
        assert (pr.adjacency_precision, pr.adjacency_recall) == (1.0, 1.0)
        assert (pr.orientation_precision, pr.orientation_recall) == (1.0, 1.0)


class TestPopulationR2:
    def test_identity(self):
        assert np.array_equal(population_r2(np.eye(4)), np.zeros(4))

    def test_two_variables(self):
        for r in (-0.7, 0.0, 0.3, 0.95):
            R = np.array([[1.0, r], [r, 1.0]])
            assert np.allclose(population_r2(R), [r * r, r * r], atol=1e-12)

    def test_chain_hand_values(self):
        # X2 = 2 X1 + Z2, X3 = 2 X2 + Z3, unit error variances.
        sigma = np.array([[1.0, 2.0, 4.0], [2.0, 5.0, 10.0], [4.0, 10.0, 21.0]])
        d = np.sqrt(np.diag(sigma))
        R = sigma / np.outer(d, d)
        assert np.allclose(population_r2(R), [0.8, 0.96, 20 / 21], atol=1e-12)

    def test_matches_regression_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = er_dag(6, 2.5, rng)
            R, _ = dao_sample(g, rng)
            got = population_r2(R)
            for i in range(6):
                rest = [j for j in range(6) if j != i]
                b = np.linalg.solve(R[np.ix_(rest, rest)], R[rest, i])
                assert abs(got[i] - R[i, rest] @ b) < 1e-10

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrixError):
            population_r2(np.ones((3, 3)))

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_non_square_matrix(self, shape):
        with pytest.raises(ValueError, match="square"):
            population_r2(np.ones(shape))


class TestSampleR2:
    def test_consistency(self):
        rng = np.random.default_rng(3)
        g = er_dag(5, 2, rng)
        R, params = dao_sample(g, rng)
        d = simulate(params, "gaussian", 100_000, rng)
        assert np.max(np.abs(sample_r2(d) - population_r2(R))) < 0.02

    def test_orthogonal_columns(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.standard_normal((5000, 4)), tuple("ABCD"))
        assert np.all(sample_r2(d) < 0.01)

    def test_duplicate_column(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        d = Dataset(np.column_stack([x, x, rng.standard_normal(100)]), ("a", "b", "c"))
        with pytest.raises(RankDeficientDataError):
            sample_r2(d)

    def test_too_few_rows(self):
        d = Dataset(np.eye(3), ("a", "b", "c"))
        with pytest.raises(RankDeficientDataError):
            sample_r2(d)


class TestSampleR2Oracle:
    """sample_r2 from the QR factor of the data against the Cholesky factor
    of the sample correlation matrix."""

    @pytest.mark.parametrize("method", ["dao", "zarx", "tetrad"])
    def test_matches_oracle_on_models(self, method):
        rng = np.random.default_rng(11)
        for shuffle in (False, True):
            # Sparse, and complete at two sizes; n from p + 1 up.
            for p, deg in ((10, 3), (8, 7), (12, 11)):
                for n in (p + 1, p + 2, 500):
                    g = er_dag(p, deg, rng)
                    if shuffle:
                        g, _ = shuffle_labels(g, rng)
                    d = model_data(method, g, n, rng)
                    got = sample_r2(d)
                    assert np.max(np.abs(got - corrcoef_sample_r2(d))) < 1e-9
                    assert np.max(np.abs(got - lstsq_sample_r2(d))) < 1e-9

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("kind", sorted(DEGENERATE))
    def test_exact_collinearity_raises(self, kind, first):
        # Raises wherever the oracle raises, and also where rounding let the
        # correlation matrix's Cholesky factorization through.
        with pytest.raises(RankDeficientDataError):
            sample_r2(degenerate_data(kind, first))

    @pytest.mark.parametrize("delta", [10.0**-k for k in range(2, 9)])
    def test_ill_conditioned_full_rank_data(self, delta):
        # The correlation matrix has the squared condition number of the
        # data, so its Cholesky path loses accuracy much sooner.
        d = near_collinear_data(delta)
        want = lstsq_sample_r2(d)
        err = np.max(np.abs(sample_r2(d) - want))
        assert err < 1e-9
        assert err <= np.max(np.abs(corrcoef_sample_r2(d) - want))

    def test_full_rank_data_the_oracle_rejects(self):
        # cond(X) is about 1e9: the oracle's Cholesky factorization fails,
        # the data factor gives an R^2 near the least-squares one.
        d = near_collinear_data(1e-9)
        with pytest.raises(RankDeficientDataError):
            corrcoef_sample_r2(d)
        assert np.max(np.abs(sample_r2(d) - lstsq_sample_r2(d))) < 1e-7

    @settings(max_examples=60)
    @given(
        p=st.integers(2, 12),
        extra=st.integers(1, 188),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.sampled_from([None, *sorted(DEGENERATE)]),
        first=st.booleans(),
    )
    def test_property_matches_oracle(self, p, extra, seed, degenerate, first):
        rng = np.random.default_rng(seed)
        d = mixed_data(p, min(p + extra, 200), rng, degenerate, first)
        try:
            want = corrcoef_sample_r2(d)
        except RankDeficientDataError:
            want = None
        if want is None or degenerate is not None:
            with pytest.raises(RankDeficientDataError):
                sample_r2(d)
        else:
            assert np.max(np.abs(sample_r2(d) - want)) < 1e-9


class TestDataFactorLayout:
    """Centering into a Fortran-ordered copy gives the R of the C-ordered
    centered data byte for byte."""

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_same_bytes(self, kind):
        rng = np.random.default_rng(17)
        for p, n in ((1, 2), (6, 7), (30, 31), (40, 500), (120, 300)):
            for d in (mixed_data(p, n, rng), model_data("dao", kind_graph(kind, p, rng), n, rng)):
                assert_same_bytes((_data_factor(d), c_order_data_factor(d)))


# numpy's and scipy's bundled OpenBLAS builds give the same bytes on one
# BLAS thread; threaded, they split large products differently, so the
# large shapes are checked in a process pinned to one thread.
_QR_BYTES_CHECK = """
import sys
import numpy as np
from dagonion.metrics import _qr_r_inplace
# The square cases are the learners' p x p factorizations.
for n, p in [(2, 1), (61, 60), (1000, 100), (1000, 800), (6, 6), (20, 20), (100, 100), (400, 400)]:
    X = np.asfortranarray(np.random.default_rng(n + p).standard_normal((n, p)))
    want = np.linalg.qr(X, mode="r")
    got = _qr_r_inplace(X)
    sys.stdout.write(f"{n}x{p}:{got.shape == want.shape and got.tobytes() == want.tobytes()} ")
"""


class TestQrInPlace:
    """The in-place LAPACK QR gives np.linalg.qr's R byte for byte."""

    def test_same_bytes_on_one_blas_thread(self):
        src = Path(__file__).resolve().parents[1] / "src"
        threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        proc = subprocess.run(
            [sys.executable, "-c", _QR_BYTES_CHECK], capture_output=True, text=True,
            env={**os.environ, **threads, "PYTHONPATH": str(src)}, check=True,
        )
        assert proc.stdout.split() == [
            "2x1:True", "61x60:True", "1000x100:True", "1000x800:True",
            "6x6:True", "20x20:True", "100x100:True", "400x400:True",
        ]

    @settings(max_examples=60)
    @given(
        p=st.integers(1, 40),
        extra=st.integers(0, 120),
        seed=st.integers(0, 2**32 - 1),
        scaled=st.booleans(),
    )
    def test_property_same_bytes(self, p, extra, seed, scaled):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((p + extra, p))
        if scaled:
            X *= 10.0 ** rng.integers(-150, 150, p)
        want = np.linalg.qr(X, mode="r")
        assert_same_bytes((_qr_r_inplace(np.asfortranarray(X)), want))


class TestConstantColumns:
    """A constant column whose rounded mean differs from its value leaves a
    tiny nonzero sample SD; it is still a constant column."""

    @pytest.mark.parametrize("value,n", [(0.1, 3), (0.7, 7), (2.2, 11)])
    def test_rejected_by_message(self, value, n):
        vals = np.column_stack([np.arange(n, dtype=float), np.full(n, value)])
        d = Dataset(vals, ("X1", "X2"))
        assert d.values[:, 1].std(ddof=1) > 0  # the case this guards
        with pytest.raises(RankDeficientDataError, match="^a column has zero sample variance$"):
            sample_r2(d)
        with pytest.raises(ZeroVarianceColumnError, match="^column X2 has zero sample variance$"):
            standardize_data(d)


class TestSortabilityRankCorr:
    def test_increasing_scores(self):
        assert sortability_rank_corr([1.0, 2.0, 3.0], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversed_scores(self):
        assert sortability_rank_corr([3.0, 2.0, 1.0], [1, 2, 3]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert sortability_rank_corr([3.0, 1.0, 2.0], [1, 2, 3]) == pytest.approx(-0.5)

    def test_constant_scores(self):
        assert sortability_rank_corr([2.0, 2.0, 2.0], [1, 2, 3]) == 0.0
        assert sortability_rank_corr([5.0], [1]) == 0.0

    def test_ties_average(self):
        scores = [1.0, 1.0, 2.0, 3.0]
        idx = [1, 2, 3, 4]
        expected = stats.spearmanr(scores, idx).statistic
        assert sortability_rank_corr(scores, idx) == pytest.approx(expected)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(20)
        idx = rng.permutation(20) + 1
        base = sortability_rank_corr(scores, idx)
        assert sortability_rank_corr(np.exp(scores), idx) == pytest.approx(base)
        assert sortability_rank_corr(3 * scores + 7, idx) == pytest.approx(base)

    def test_largest_first_negates(self):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal(15)
        idx = rng.permutation(15) + 1
        plain = sortability_rank_corr(scores, idx)
        flipped = sortability_rank_corr(scores, idx, largest_first=True)
        assert flipped == pytest.approx(-plain)

    def test_nan_scores_give_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scores in ([np.nan, 1.0, 2.0], [1.0, 2.0, np.nan], [np.nan] * 3):
                for largest_first in (False, True):
                    rho = sortability_rank_corr(scores, [1, 2, 3], largest_first=largest_first)
                    assert rho == 0.0

    @settings(max_examples=300, deadline=None)
    @given(scores=rank_scores(), largest_first=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_property_matches_scipy_oracle(self, scores, largest_first, seed):
        idx = np.random.default_rng(seed).permutation(len(scores)) + 1
        got = sortability_rank_corr(scores, idx, largest_first=largest_first)
        want = scipy_sortability_rank_corr(scores, idx, largest_first=largest_first)
        assert repr(got) == repr(want)
        ranks = _average_ranks(scores)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, stats.rankdata(scores), equal_nan=True)

    def test_validates_permutation(self):
        with pytest.raises(ValueError):
            sortability_rank_corr([1.0, 2.0], [1, 3])
        with pytest.raises(ValueError):
            sortability_rank_corr([1.0, 2.0], [1])

    @pytest.mark.parametrize("idx", [
        [1.9, 2.2, 3.7], [1.0, 2.5, 3.0], [0.5, 2.0, 3.0], [np.nan, 2.0, 3.0],
    ])
    def test_non_integer_index_rejected(self, idx):
        # Casting to an integer type would truncate these to a permutation.
        with pytest.raises(ValueError, match="must be a permutation of 1..p"):
            sortability_rank_corr([1.0, 2.0, 3.0], idx)

    def test_integer_valued_index_of_any_type_accepted(self):
        scores = [3.0, 1.0, 2.0]
        for idx in ([1, 2, 3], np.array([1, 2, 3], np.int32), np.array([1, 2, 3], np.uint8),
                    [1.0, 2.0, 3.0]):
            assert sortability_rank_corr(scores, idx) == -0.5


class TestVarsortabilityScores:
    def test_values(self):
        d = Dataset(np.array([[0.0, 1.0], [2.0, 1.5]]), ("a", "b"))
        assert np.allclose(varsortability_scores(d), [2.0, 0.125])

    def test_standardized_scores_flat(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((2000, 5))
        vals = (vals - vals.mean(0)) / vals.std(0, ddof=1)
        d = Dataset(vals, tuple(f"v{i}" for i in range(5)))
        assert np.allclose(varsortability_scores(d), 1.0, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            varsortability_scores(Dataset(np.ones((1, 2)), ("a", "b")))
