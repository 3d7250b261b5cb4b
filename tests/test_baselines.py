import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagonion import (
    Dag,
    Dataset,
    RankDeficientDataError,
    SemParameters,
    compare_graphs,
    dao_sample,
    er_dag,
    precision_recall,
    r2_sort_regress,
    sample_r2,
    shuffle_labels,
    simulate,
    tetrad_params,
    var_sort_regress,
    varsortability_scores,
    zarx_params,
)
from dagonion import baselines, metrics
from util import (
    DEGENERATE,
    data_qr_sort_regress,
    degenerate_data,
    lstsq_sort_regress,
    mixed_data,
    model_data,
    sort_regress,
)


def _independent_data(n=10_000, p=5, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, p))
    vals = (vals - vals.mean(0)) / vals.std(0, ddof=1)
    return Dataset(vals, tuple(f"X{i}" for i in range(1, p + 1)))


class TestSortRegress:
    def test_independent_columns_give_empty_graph(self):
        d = _independent_data()
        assert var_sort_regress(d).directed == frozenset()
        assert r2_sort_regress(d).directed == frozenset()

    def test_zarx_chain_recovered(self):
        chain = Dag(3, frozenset({(1, 2), (2, 3)}))
        rng = np.random.default_rng(1)
        params = zarx_params(chain, rng)
        d = simulate(params, "gaussian", 2000, rng)
        est = var_sort_regress(d)
        assert est.directed == frozenset({(1, 2), (2, 3)})

    def test_infinite_threshold_empty(self):
        d = _independent_data(n=200, p=4, seed=2)
        assert var_sort_regress(d, threshold=np.inf).directed == frozenset()
        assert r2_sort_regress(d, threshold=np.inf).directed == frozenset()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            var_sort_regress(_independent_data(n=50, p=3, seed=3), threshold=-1.0)

    def test_bad_threshold_versus_rank_deficiency(self):
        # A bad threshold is checked before the predecessor pivots in the
        # learners' core and var_sort_regress, and after the R^2 scores in
        # r2_sort_regress.
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        dup = Dataset(np.column_stack([x, x, rng.standard_normal(50)]), ("a", "b", "c"))
        full = _independent_data(n=50, p=3, seed=3)
        for threshold in (-1.0, np.nan):
            for fit in (var_sort_regress, r2_sort_regress):
                with pytest.raises(ValueError):
                    fit(full, threshold=threshold)
            with pytest.raises(ValueError):
                sort_regress(dup, np.arange(3.0), threshold)
            with pytest.raises(ValueError):
                var_sort_regress(dup, threshold=threshold)
            with pytest.raises(RankDeficientDataError):
                r2_sort_regress(dup, threshold=threshold)

    def test_r2_learner_factors_the_data_once(self, monkeypatch):
        calls = []
        data_factor = metrics._data_factor

        def counting_data_factor(d):
            calls.append(d)
            return data_factor(d)

        monkeypatch.setattr(metrics, "_data_factor", counting_data_factor)
        monkeypatch.setattr(baselines, "_data_factor", counting_data_factor)
        d = model_data("zarx", er_dag(6, 2, np.random.default_rng(8)), 80,
                       np.random.default_rng(9))
        est = r2_sort_regress(d)
        assert len(calls) == 1
        assert est == sort_regress(d, sample_r2(d), 0.1)

    def test_threshold_sees_raw_coefficient_scale(self):
        # Blowing up one independent column inflates the raw regression
        # coefficients pointing at it past the threshold; the same data with
        # unit column scales stays empty. The learners are scale sensitive
        # by design.
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((400, 2))
        vals = (vals - vals.mean(0)) / vals.std(0, ddof=1)
        assert var_sort_regress(Dataset(vals, ("a", "b"))).directed == frozenset()
        inflated = Dataset(vals * np.array([1.0, 50.0]), ("a", "b"))
        assert var_sort_regress(inflated).directed == frozenset({(1, 2)})

    def test_outputs_are_acyclic(self):
        rng = np.random.default_rng(5)
        g = er_dag(8, 3, rng)
        d = simulate(zarx_params(g, rng), "gaussian", 500, rng)
        for fit in (var_sort_regress, r2_sort_regress):
            est = fit(d)
            Dag(est.p, est.directed)  # raises if cyclic
            assert est.undirected == frozenset()

    def test_rank_deficient_inputs(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(50)
        # Two collinear predecessors of the highest-variance column make the
        # third regression's design matrix rank deficient.
        y = 3.0 * rng.standard_normal(50)
        dup = Dataset(np.column_stack([x, x, y]), ("a", "b", "c"))
        with pytest.raises(RankDeficientDataError):
            var_sort_regress(dup)
        wide = Dataset(rng.standard_normal((4, 6)), tuple("abcdef"))
        with pytest.raises(RankDeficientDataError):
            var_sort_regress(wide)

    def test_exploitability_gap_on_matched_graphs(self):
        # Adjacency recall on raw zarx data should beat recall on data whose
        # correlation matrix was drawn uniformly for the same graphs.
        rng = np.random.default_rng(7)
        zarx_rec, dao_rec = [], []
        for _ in range(10):
            g = er_dag(10, 3, rng)
            dz = simulate(zarx_params(g, rng), "gaussian", 800, rng)
            zarx_rec.append(
                precision_recall(compare_graphs(g, var_sort_regress(dz))).adjacency_recall
            )
            _, pd = dao_sample(g, rng)
            dd = simulate(pd, "gaussian", 800, rng)
            dao_rec.append(
                precision_recall(compare_graphs(g, var_sort_regress(dd))).adjacency_recall
            )
        assert np.mean(zarx_rec) > np.mean(dao_rec)


LEARNERS = ((var_sort_regress, varsortability_scores), (r2_sort_regress, sample_r2))


def _outcome(fit, *args):
    try:
        return fit(*args).directed
    except RankDeficientDataError:
        return "rank deficient"


class TestLstsqOracle:
    """The one-factorization learners give the per-column least-squares
    learner's edges, and raise exactly where it raises."""

    @pytest.mark.parametrize("method", ["dao", "zarx", "tetrad"])
    def test_matches_oracle_on_models(self, method):
        rng = np.random.default_rng(8)
        for shuffle in (False, True):
            for n in (12, 500):  # n = p + 2 and n >> p
                g = er_dag(10, 3, rng)
                if shuffle:
                    g, _ = shuffle_labels(g, rng)
                if method == "dao":
                    _, params = dao_sample(g, rng)
                else:
                    params = (zarx_params if method == "zarx" else tetrad_params)(g, rng)
                d = simulate(params, "gaussian", n, rng)
                for fit, scores in LEARNERS:
                    for threshold in (0.0, 0.1, np.inf):
                        assert _outcome(fit, d, threshold) == _outcome(
                            lstsq_sort_regress, d, scores(d), threshold
                        )

    def test_tied_scores_keep_stable_order(self):
        rng = np.random.default_rng(9)
        g = er_dag(6, 3, rng)
        g, _ = shuffle_labels(g, rng)
        d = simulate(zarx_params(g, rng), "gaussian", 300, rng)
        flat = np.zeros(6)
        est = sort_regress(d, flat, 0.0)
        assert est.directed == lstsq_sort_regress(d, flat, 0.0).directed
        # With every score tied the order is the column order, so every
        # column regresses on all earlier columns.
        assert est.directed == frozenset((a, b) for a in range(1, 7) for b in range(a + 1, 7))
        halves = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        assert sort_regress(d, halves, 0.1).directed == (
            lstsq_sort_regress(d, halves, 0.1).directed
        )

    @pytest.mark.parametrize("delta", [10.0**-k for k in range(2, 17, 2)])
    def test_near_collinear_columns(self, delta):
        # Columns x and x + delta * noise, then y. Ordered by variance the
        # near-collinear pair are both predecessors of y; with y first they
        # are the last two columns, and only the earlier one is a predecessor.
        rng = np.random.default_rng(10)
        x = rng.standard_normal(60)
        vals = np.column_stack(
            [x, x + delta * rng.standard_normal(60), 3.0 * rng.standard_normal(60)]
        )
        d = Dataset(vals, ("a", "b", "c"))
        for scores in (varsortability_scores(d), np.array([1.0, 2.0, 0.0])):
            assert _outcome(sort_regress, d, scores, 0.1) == _outcome(
                lstsq_sort_regress, d, scores, 0.1
            )

    @settings(max_examples=60)
    @given(
        p=st.integers(2, 12),
        extra=st.integers(2, 188),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.floats(min_value=0.0, allow_nan=False),
    )
    def test_property_matches_oracle_and_is_acyclic(self, p, extra, seed, threshold):
        n = min(p + extra, 200)
        rng = np.random.default_rng(seed)
        # Unit-lower mixing and column scales in [0.5, 3] keep the data well
        # conditioned while giving the regressions nonzero coefficients.
        mix = np.eye(p) + np.tril(rng.uniform(-1.0, 1.0, (p, p)), -1)
        vals = rng.standard_normal((n, p)) @ mix.T * rng.uniform(0.5, 3.0, p)
        d = Dataset(vals, tuple(f"X{i}" for i in range(1, p + 1)))
        for fit, scores in LEARNERS:
            est = fit(d, threshold)
            assert est.directed == lstsq_sort_regress(d, scores(d), threshold).directed
            Dag(est.p, est.directed)  # raises if cyclic


def _fit_outcome(fit):
    try:
        return fit().directed
    except RankDeficientDataError:
        return "rank deficient"


class TestDataQrOracle:
    """The learners factor the p x p data factor in sorted order; the oracle
    factors the sorted n x p data. Same edges, same failures."""

    @pytest.mark.parametrize("method", ["dao", "zarx", "tetrad"])
    def test_matches_oracle_on_models(self, method):
        rng = np.random.default_rng(13)
        for shuffle in (False, True):
            for p, deg in ((10, 3), (8, 7), (12, 11)):
                for n in (p + 1, p + 2, 500):
                    g = er_dag(p, deg, rng)
                    if shuffle:
                        g, _ = shuffle_labels(g, rng)
                    d = model_data(method, g, n, rng)
                    for _, scores in LEARNERS:
                        for threshold in (0.0, 0.1, np.inf):
                            assert _fit_outcome(
                                lambda: sort_regress(d, scores(d), threshold)
                            ) == _fit_outcome(
                                lambda: data_qr_sort_regress(d, scores(d), threshold)
                            )

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("kind", sorted(DEGENERATE))
    def test_degenerate_columns(self, kind, first):
        # Ascending, descending and tied scores put the degenerate column
        # first, last, or where it stands.
        d = degenerate_data(kind, first)
        for scores in (np.arange(d.p), -np.arange(d.p), np.zeros(d.p)):
            got = _fit_outcome(lambda: sort_regress(d, scores, 0.1))
            assert got == _fit_outcome(lambda: data_qr_sort_regress(d, scores, 0.1))
            assert got == _fit_outcome(lambda: lstsq_sort_regress(d, scores, 0.1))

    @settings(max_examples=60)
    @given(
        p=st.integers(2, 12),
        extra=st.integers(1, 188),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.sampled_from([None, *sorted(DEGENERATE)]),
        first=st.booleans(),
        tied=st.booleans(),
    )
    def test_property_matches_oracle(self, p, extra, seed, degenerate, first, tied):
        rng = np.random.default_rng(seed)
        d = mixed_data(p, min(p + extra, 200), rng, degenerate, first)
        # Scores on a coarse grid tie often; stable sorting keeps column order.
        scores = rng.integers(0, 3, d.p) if tied else rng.permutation(d.p)
        assert _fit_outcome(lambda: sort_regress(d, scores, 0.1)) == _fit_outcome(
            lambda: data_qr_sort_regress(d, scores, 0.1)
        )
