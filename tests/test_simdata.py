import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from dagonion import (
    Dag,
    Dataset,
    NumericalError,
    SemParameters,
    ZeroVarianceColumnError,
    dao_sample,
    er_dag,
    implied_covariance,
    r2_sort_regress,
    sample_r2,
    sfi_rewire,
    shuffle_labels,
    simulate,
    standardize_data,
    tetrad_params,
    var_sort_regress,
    varsortability_scores,
    zarx_params,
)
from dagonion.fileio import read_dataset, write_dataset
from util import (
    GRAPH_KINDS,
    assert_same_bytes,
    column_loop_simulate,
    kind_graph,
    method_params,
    row_loop_simulate,
    traced_peak,
)


def _independent_params(p=5):
    return SemParameters(Dag(p, frozenset()), np.zeros((p, p)), np.ones(p))


class TestSimulate:
    def test_invalid_arguments(self):
        params = _independent_params()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate(params, "gaussian", 0, rng)
        with pytest.raises(ValueError):
            simulate(params, "laplace", 10, rng)

    def test_independent_gaussian_moments(self):
        n = 10_000
        d = simulate(_independent_params(), "gaussian", n, np.random.default_rng(1))
        assert d.values.shape == (n, 5)
        assert np.all(np.abs(d.values.mean(axis=0)) < 4 / np.sqrt(n))
        assert np.all(np.abs(d.values.var(axis=0, ddof=1) - 1.0) < 0.1)

    def test_sample_correlation_approaches_model(self):
        rng = np.random.default_rng(2)
        g = er_dag(5, 2, rng)
        R, params = dao_sample(g, rng)
        d = simulate(params, "gaussian", 100_000, rng)
        Rhat = np.corrcoef(d.values, rowvar=False)
        assert np.max(np.abs(Rhat - R)) < 0.02

    def test_exponential_skewness(self):
        d = simulate(_independent_params(3), "exponential", 100_000, np.random.default_rng(3))
        skew = stats.skew(d.values, axis=0)
        assert np.all(np.abs(skew - 2.0) < 0.1)
        assert np.all(np.abs(d.values.mean(axis=0)) < 0.02)
        assert np.all(np.abs(d.values.var(axis=0, ddof=1) - 1.0) < 0.05)

    def test_exponential_matches_gaussian_covariance(self):
        rng = np.random.default_rng(4)
        g = Dag(4, frozenset({(1, 2), (2, 3), (3, 4)}))
        params = zarx_params(g, rng)
        sigma = implied_covariance(params)
        for kind in ("gaussian", "exponential"):
            d = simulate(params, kind, 100_000, np.random.default_rng(5))
            shat = np.cov(d.values, rowvar=False)
            scale = np.max(np.abs(sigma))
            assert np.max(np.abs(shat - sigma)) / scale < 0.03

    def test_dao_variances_near_one(self):
        rng = np.random.default_rng(6)
        g = er_dag(8, 3, rng)
        _, params = dao_sample(g, rng)
        d = simulate(params, "gaussian", 100_000, rng)
        assert np.all(np.abs(d.values.var(axis=0, ddof=1) - 1.0) < 0.05)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        g = er_dag(6, 2, rng)
        params = zarx_params(g, rng)
        d1 = simulate(params, "gaussian", 50, np.random.default_rng(42))
        d2 = simulate(params, "gaussian", 50, np.random.default_rng(42))
        assert np.array_equal(d1.values, d2.values)

    def test_memory_budget(self):
        # The p x n draw, the n x p result and one 256-column block: about
        # 2.26 times the result's size at this p and n.
        rng = np.random.default_rng(11)
        p, n = 1000, 1500
        params = tetrad_params(sfi_rewire(er_dag(p, 4, rng), rng), rng)
        assert traced_peak(simulate, params, "exponential", n, rng) < 2.5 * 8 * n * p

    def test_metadata(self):
        d = simulate(_independent_params(2), "exponential", 5, np.random.default_rng(8))
        assert d.meta["error"] == "exponential"
        assert d.meta["error_centering"] == "shifted to mean zero"
        assert d.meta["standardized"] is False
        assert d.names == ("X1", "X2")


def _graph(kind: str, rng: np.random.Generator) -> Dag:
    if kind == "er":
        return er_dag(40, 6, rng)
    if kind == "sfi":
        return sfi_rewire(er_dag(40, 6, rng), rng)
    if kind == "shuffled":
        return shuffle_labels(sfi_rewire(er_dag(40, 8, rng), rng), rng)[0]
    if kind == "complete":
        return shuffle_labels(er_dag(25, 24, rng), rng)[0]
    if kind == "empty":
        return Dag(12, frozenset())
    return Dag(1, frozenset())  # "p1"


def _assert_matches_oracle(params, kind, n, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    values = simulate(params, kind, n, rng).values
    expected = column_loop_simulate(params, kind, n, oracle_rng)
    assert np.array_equal(values, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert values.flags.c_contiguous


class TestColumnLoopOracle:
    """The batched draw gives the column loop's data bit for bit, leaves
    the generator in the same state, and returns a C-ordered array."""

    @pytest.mark.parametrize("graph", ["er", "sfi", "shuffled", "complete", "empty", "p1"])
    @pytest.mark.parametrize("method", ["dao", "zarx", "tetrad"])
    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_matches_oracle(self, graph, method, kind):
        rng = np.random.default_rng(20)
        params = method_params(method, _graph(graph, rng), rng)
        for n in (1, 7, 500):
            _assert_matches_oracle(params, kind, n, seed=n)

    def test_dense_graph_large_n(self):
        # Parent sets of up to 199 vertices: the gemv sums of both layouts.
        rng = np.random.default_rng(21)
        g, _ = shuffle_labels(er_dag(200, 100, rng), rng)
        params = tetrad_params(g, rng)
        for kind in ("gaussian", "exponential"):
            _assert_matches_oracle(params, kind, 2000, seed=22)

    @given(
        p=st.integers(1, 25),
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["dao", "zarx", "tetrad"]),
        kind=st.sampled_from(["gaussian", "exponential"]),
        n=st.integers(1, 60),
    )
    def test_property_matches_oracle(self, p, frac, seed, method, kind, n):
        rng = np.random.default_rng(seed)
        g, _ = shuffle_labels(er_dag(p, frac * (p - 1), rng), rng)
        _assert_matches_oracle(method_params(method, g, rng), kind, n, seed + 1)


class TestRowLoopOracle:
    """The loop over sorted edge slices gives the per-row parent-list loop's
    data byte for byte and draws the same numbers."""

    @given(
        graph=st.sampled_from(GRAPH_KINDS),
        p=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["dao", "zarx", "tetrad"]),
        kind=st.sampled_from(["gaussian", "exponential"]),
        n=st.integers(1, 60),
    )
    def test_same_bytes_and_draws(self, graph, p, seed, method, kind, n):
        rng = np.random.default_rng(seed)
        params = method_params(method, kind_graph(graph, p, rng), rng)
        fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        values = simulate(params, kind, n, fast).values
        assert_same_bytes((values, row_loop_simulate(params, kind, n, slow)))
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("p", [255, 256, 257, 600])
    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_column_block_edges(self, p, kind):
        # The output is filled 256 columns at a time: one block, one block
        # and a column, and a partial third block.
        rng = np.random.default_rng(p)
        g, _ = shuffle_labels(sfi_rewire(er_dag(p, 4, rng), rng), rng)
        params = tetrad_params(g, rng)
        fast, slow = np.random.default_rng(24), np.random.default_rng(24)
        values = simulate(params, kind, 30, fast).values
        assert_same_bytes((values, row_loop_simulate(params, kind, 30, slow)))
        assert fast.bit_generator.state == slow.bit_generator.state
        assert values.flags.c_contiguous

    def test_negative_zero_draws(self):
        # Every source's -0.0 becomes 0.0, as adding an empty parent sum did.
        class NegativeZeros:
            def standard_normal(self, shape):
                return np.full(shape, -0.0)

        g = Dag(4, frozenset({(1, 3), (2, 3), (3, 4)}))
        params = SemParameters(g, np.array(
            [[0, 0, 0, 0], [0, 0, 0, 0], [-0.5, 2.0, 0, 0], [0, 0, -1.0, 0.0]]
        ), np.ones(4))
        values = simulate(params, "gaussian", 3, NegativeZeros()).values
        assert_same_bytes((values, row_loop_simulate(params, "gaussian", 3, NegativeZeros())))
        assert not np.signbit(values[:, :2]).any()


class TestOverflow:
    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    @pytest.mark.parametrize("coefs", [
        # A 3-chain: the data overflow to inf.
        {(1, 2): 1e200, (2, 3): 1e200},
        # Opposite infinities meet in vertex 3 and give NaN.
        {(1, 2): 1e200, (1, 3): 1e300, (2, 3): -1e200},
    ])
    def test_non_finite_data_is_numerical_error(self, kind, coefs):
        B = np.zeros((3, 3))
        for (a, b), c in coefs.items():
            B[b - 1, a - 1] = c
        params = SemParameters(Dag(3, frozenset(coefs)), B, np.ones(3))
        # The suite turns warnings into errors, so this also checks that none
        # is emitted.
        with pytest.raises(NumericalError, match="non-finite"):
            simulate(params, kind, 5, np.random.default_rng(1))


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.nan]]), ("X1",))

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), ("X1",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), ("X1", "X2"))

    def test_rejects_one_dimensional_values(self):
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros(3), ("X1", "X2", "X3"))

    def test_outputs_do_not_depend_on_the_layout(self):
        # numpy sums a C-ordered column row by row but an F-ordered one
        # pairwise; the means, and so every statistic below, agree bit for
        # bit only because Dataset keeps one layout.
        rng = np.random.default_rng(0)
        n, p = 1000, 30
        vals = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p) + rng.uniform(-5, 5, p)
        wide = np.zeros((2 * n, 2 * p))
        wide[::2, 1::2] = vals
        names = tuple(f"X{j}" for j in range(1, p + 1))
        c, *others = (Dataset(v, names) for v in (vals, np.asfortranarray(vals), wide[::2, 1::2]))
        for d in others:
            assert_same_bytes(
                (sample_r2(d), sample_r2(c)),
                (varsortability_scores(d), varsortability_scores(c)),
                (standardize_data(d).values, standardize_data(c).values),
            )
            assert var_sort_regress(d) == var_sort_regress(c)
            assert r2_sort_regress(d) == r2_sort_regress(c)

    def test_keeps_the_arrays_it_is_built_from(self, tmp_path, monkeypatch):
        # simulate, standardize_data and read_dataset build C-ordered float
        # arrays, which Dataset keeps rather than copies.
        given = []
        post_init = Dataset.__post_init__

        def recording_post_init(self):
            given.append(self.values)
            post_init(self)

        monkeypatch.setattr(Dataset, "__post_init__", recording_post_init)
        d = simulate(_independent_params(3), "exponential", 20, np.random.default_rng(5))
        write_dataset(tmp_path / "d.csv", d)
        built = [d, standardize_data(d), read_dataset(tmp_path / "d.csv")]
        assert len(given) == 3
        for out, values in zip(built, given):
            assert out.values is values


class TestStandardizeData:
    def test_two_point_column(self):
        d = Dataset(np.array([[0.0], [2.0]]), ("X1",))
        out = standardize_data(d)
        assert np.allclose(out.values[:, 0], [-0.70710678, 0.70710678], atol=1e-8)

    def test_already_standardized_unchanged(self):
        d = simulate(_independent_params(3), "gaussian", 1000, np.random.default_rng(9))
        once = standardize_data(d)
        twice = standardize_data(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_constant_column_rejected(self):
        d = Dataset(np.array([[1.0, 2.0], [1.0, 3.0]]), ("X1", "X2"))
        with pytest.raises(ZeroVarianceColumnError):
            standardize_data(d)

    def test_moments_and_metadata(self):
        d = simulate(_independent_params(4), "exponential", 500, np.random.default_rng(10))
        out = standardize_data(d)
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.values.var(axis=0, ddof=1), 1.0, atol=1e-12)
        assert out.meta["standardized"] is True
