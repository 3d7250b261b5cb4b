import numpy as np
import pytest

from dagonion import (
    Dag,
    NonPositiveVarianceError,
    NumericalError,
    SemParameters,
    SingularMatrixError,
    SingularParentBlockError,
    cov_to_corr,
    cov_to_dag,
    dao_sample,
    er_dag,
    implied_covariance,
    sfi_rewire,
    sfo_rewire,
    shuffle_labels,
    standardize,
    tetrad_params,
    zarx_params,
)
from dagonion.cli import _apply_shape, _rng
from util import refit_standardize

CHAIN2 = Dag(2, frozenset({(1, 2)}))


def _chain2_params(beta=0.8):
    B = np.zeros((2, 2))
    B[1, 0] = beta
    return SemParameters(CHAIN2, B, np.ones(2))


class TestSemParameters:
    def test_rejects_off_support_entry(self):
        B = np.zeros((2, 2))
        B[0, 1] = 0.5  # 2 -> 1 is not an edge
        with pytest.raises(ValueError):
            SemParameters(CHAIN2, B, np.ones(2))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            SemParameters(CHAIN2, np.zeros((2, 2)), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError):
            SemParameters(CHAIN2, np.zeros((2, 2)), np.array([1.0, bad]))
        B = np.zeros((2, 2))
        B[1, 0] = bad  # on the edge 1 -> 2
        with pytest.raises(ValueError):
            SemParameters(CHAIN2, B, np.ones(2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SemParameters(CHAIN2, np.zeros((3, 3)), np.ones(2))
        with pytest.raises(ValueError):
            SemParameters(CHAIN2, np.zeros((2, 2)), np.ones(3))


class TestZarxParams:
    def test_empty_graph(self):
        params = zarx_params(Dag(3, frozenset()), np.random.default_rng(0))
        assert np.array_equal(params.B, np.zeros((3, 3)))
        assert np.array_equal(params.omega, np.ones(3))

    def test_magnitude_bounds_and_sign_balance(self):
        rng = np.random.default_rng(1)
        mags, negs, total = [], 0, 0
        while total < 10_000:
            g = er_dag(45, 44, rng)  # complete DAG: 990 edges per draw
            params = zarx_params(g, rng)
            coefs = np.array([params.B[b - 1, a - 1] for a, b in g.edges])
            mags.extend(np.abs(coefs))
            negs += int((coefs < 0).sum())
            total += len(coefs)
        mags = np.array(mags)
        assert np.all((mags >= 0.5) & (mags <= 2.0))
        assert abs(negs / total - 0.5) < 0.02


class TestTetradParams:
    def test_bounds(self):
        rng = np.random.default_rng(2)
        g = er_dag(30, 6, rng)
        params = tetrad_params(g, rng)
        coefs = np.array([params.B[b - 1, a - 1] for a, b in g.edges])
        assert np.all(np.abs(coefs) <= 1.0)
        assert np.all((params.omega >= 1.0) & (params.omega <= 2.0))

    def test_omega_mean(self):
        rng = np.random.default_rng(3)
        omegas = []
        for _ in range(1000):
            omegas.extend(tetrad_params(Dag(10, frozenset()), rng).omega)
        assert abs(np.mean(omegas) - 1.5) < 0.01


class TestImpliedCovariance:
    def test_identity_model(self):
        params = SemParameters(Dag(3, frozenset()), np.zeros((3, 3)), np.ones(3))
        assert np.array_equal(implied_covariance(params), np.eye(3))

    def test_single_edge_hand_value(self):
        sigma = implied_covariance(_chain2_params(0.8))
        assert np.allclose(sigma, [[1.0, 0.8], [0.8, 1.64]], atol=1e-15)

    def test_reproduces_dao_matrix(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = er_dag(10, 3, rng)
            R, params = dao_sample(g, rng)
            assert np.max(np.abs(implied_covariance(params) - R)) < 1e-10


class TestCovToCorr:
    def test_correlation_unchanged(self):
        rng = np.random.default_rng(5)
        R, _ = dao_sample(er_dag(6, 2, rng), rng)
        assert np.allclose(cov_to_corr(R), R, atol=1e-15)

    def test_hand_example(self):
        R = cov_to_corr(np.array([[4.0, 2.0], [2.0, 4.0]]))
        assert np.array_equal(R, [[1.0, 0.5], [0.5, 1.0]])

    def test_single_edge_correlation(self):
        r = cov_to_corr(implied_covariance(_chain2_params(0.8)))[0, 1]
        assert abs(r - 0.8 / np.sqrt(1.64)) < 1e-12

    def test_nonpositive_variance(self):
        with pytest.raises(NonPositiveVarianceError):
            cov_to_corr(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_square(self):
        with pytest.raises(ValueError):
            cov_to_corr(np.ones((2, 3)))


class TestCovToDag:
    def test_empty_graph(self):
        sigma = np.diag([2.0, 3.0])
        params = cov_to_dag(Dag(2, frozenset()), sigma)
        assert np.array_equal(params.B, np.zeros((2, 2)))
        assert np.array_equal(params.omega, [2.0, 3.0])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(6)
        for make in (zarx_params, tetrad_params):
            for _ in range(5):
                g = er_dag(12, 4, rng)
                params = make(g, rng)
                back = cov_to_dag(g, implied_covariance(params))
                assert np.max(np.abs(back.B - params.B)) < 1e-10
                assert np.max(np.abs(back.omega - params.omega)) < 1e-10

    def test_recovers_dao_parameters(self):
        rng = np.random.default_rng(7)
        g = er_dag(15, 4, rng)
        R, params = dao_sample(g, rng)
        back = cov_to_dag(g, R)
        assert np.max(np.abs(back.B - params.B)) < 1e-10
        assert np.max(np.abs(back.omega - params.omega)) < 1e-10

    def test_singular_parent_block(self):
        g = Dag(3, frozenset({(1, 3), (2, 3)}))
        sigma = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        with pytest.raises(SingularParentBlockError):
            cov_to_dag(g, sigma)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cov_to_dag(CHAIN2, np.eye(3))


class TestStandardize:
    def test_hand_example(self):
        std = standardize(_chain2_params(0.8))
        assert abs(std.B[1, 0] - 0.8 / np.sqrt(1.64)) < 1e-12
        assert abs(std.omega[0] - 1.0) < 1e-12
        assert abs(std.omega[1] - 1.0 / 1.64) < 1e-12

    def test_unit_implied_variances(self):
        rng = np.random.default_rng(8)
        for make in (zarx_params, tetrad_params):
            params = standardize(make(er_dag(20, 5, rng), rng))
            diag = np.diag(implied_covariance(params))
            assert np.max(np.abs(diag - 1.0)) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        params = standardize(zarx_params(er_dag(15, 4, rng), rng))
        again = standardize(params)
        assert np.max(np.abs(again.B - params.B)) < 1e-10
        assert np.max(np.abs(again.omega - params.omega)) < 1e-10

    def test_fixed_point_on_already_standardized(self):
        rng = np.random.default_rng(10)
        g = er_dag(10, 3, rng)
        _, params = dao_sample(g, rng)
        std = standardize(params)
        assert np.max(np.abs(std.B - params.B)) < 1e-10
        assert np.max(np.abs(std.omega - params.omega)) < 1e-10

    def test_support_preserved(self):
        rng = np.random.default_rng(11)
        g = er_dag(25, 6, rng)
        std = standardize(tetrad_params(g, rng))
        mask = np.zeros((25, 25), dtype=bool)
        for a, b in g.edges:
            mask[b - 1, a - 1] = True
        assert np.all(std.B[~mask] == 0.0)

    def test_single_parent_standardized_magnitudes_below_one(self):
        # A single-parent child's variance splits as omega + beta^2 var(parent),
        # so after rescaling beta^2 becomes a variance fraction strictly below
        # one. Children with several (correlated) parents have no such bound.
        rng = np.random.default_rng(12)
        p = 12
        chain = Dag(p, frozenset((i, i + 1) for i in range(1, p)))
        rows, cols = np.arange(1, p), np.arange(p - 1)
        for maker in (zarx_params, tetrad_params):
            for _ in range(10):
                std = standardize(maker(chain, rng))
                assert np.all(np.abs(std.B[rows, cols]) < 1.0)

    def test_preserves_coefficient_signs(self):
        rng = np.random.default_rng(13)
        g = er_dag(25, 6, rng)
        for maker in (zarx_params, tetrad_params):
            params = maker(g, rng)
            std = standardize(params)
            assert np.all(np.sign(std.B) == np.sign(params.B))


def _omega_std(params):
    return params.omega / np.diag(implied_covariance(params))


def _bench_model(seed, cell_idx, rep, shape, p=30, avg_degree=29):
    """The zarx model that ``bench`` draws for one replication of a cell."""
    rng = _rng(seed, spawn_key=(cell_idx, rep))
    g, _ = _apply_shape(er_dag(p, avg_degree, rng), shape, rng)
    return zarx_params(g, rng)


class TestRefitOracle:
    """Rescaling B and omega agrees with refitting the model to its implied
    correlation matrix. On models whose smallest standardized error
    variance is at least 1e-3 the two agree within 1e-11 in B and 1e-13 in
    omega; below that the refit loses accuracy with the parent blocks'
    conditioning, while the rescaling stays exact to a few ulps."""

    @pytest.mark.parametrize("maker", [zarx_params, tetrad_params])
    @pytest.mark.parametrize("shape", ["er", "sfi", "sfo", "shuffled"])
    def test_matches_oracle_on_well_conditioned_models(self, maker, shape):
        rng = np.random.default_rng(30)
        compared = 0
        for p in (2, 5, 12, 30, 60):
            for deg in (1, 2, 4):
                g = er_dag(p, min(deg, p - 1), rng)
                if shape == "sfi":
                    g = sfi_rewire(g, rng)
                elif shape == "sfo":
                    g = sfo_rewire(g, rng)
                elif shape == "shuffled":
                    g, _ = shuffle_labels(g, rng)
                params = maker(g, rng)
                if _omega_std(params).min() < 1e-3:
                    continue
                std, ref = standardize(params), refit_standardize(params)
                assert np.max(np.abs(std.B - ref.B)) <= 1e-11
                assert np.max(np.abs(std.omega - ref.omega)) <= 1e-13
                assert std.g == params.g
                compared += 1
        assert compared >= 10

    def test_correlation_matrix_unchanged(self):
        # Exact on ill-conditioned models too, where the refit drifts.
        rng = np.random.default_rng(31)
        for maker in (zarx_params, tetrad_params):
            for _ in range(5):
                params = maker(er_dag(25, 12, rng), rng)
                std = standardize(params)
                R = cov_to_corr(implied_covariance(params))
                assert np.max(np.abs(implied_covariance(std) - R)) < 1e-9
                assert np.max(np.abs(np.diag(implied_covariance(std)) - 1.0)) < 1e-12

    def test_failure_rule_on_complete_zarx(self):
        # bench --reps 2 --p-list 30 --avg-degree 29 --shapes er,sfi
        # --methods zarx-std,tetrad-std --seed 3: cell 0 is er/zarx-std and
        # fails in both replications, cell 2 is sfi/zarx-std and passes.
        for rep, expected in ((0, 4.4e-14), (1, 1.8e-13)):
            params = _bench_model(3, 0, rep, "er")
            assert abs(_omega_std(params).min() / expected - 1.0) < 0.02
            with pytest.raises(SingularMatrixError):
                standardize(params)
            with pytest.raises(SingularParentBlockError):
                refit_standardize(params)
        for rep in (0, 1):
            params = _bench_model(3, 2, rep, "sfi")
            assert _omega_std(params).min() >= 2.6e-10
            assert np.all(standardize(params).omega >= 2.6e-10)

    def test_rescaling_passes_where_the_refit_failed(self):
        # bench --reps 6 --p-list 25 --avg-degree 24 --shapes er,sfi,sfo
        # --methods zarx-std,tetrad-std --seed 4, cell 2 (sfi/zarx-std),
        # replication 1: a parent block's condition number exceeds 1e12, but
        # every standardized error variance is at least 4.4e-11.
        params = _bench_model(4, 2, 1, "sfi", p=25, avg_degree=24)
        with pytest.raises(SingularParentBlockError):
            refit_standardize(params)
        std = standardize(params)
        assert std.omega.min() >= 4.4e-11
        assert np.max(np.abs(np.diag(implied_covariance(std)) - 1.0)) < 1e-9

    @pytest.mark.parametrize("coefs", [
        # A 3-chain: the implied variances overflow to inf.
        {(1, 2): 1e200, (2, 3): 1e200},
        # A complete 4-vertex DAG with one negative coefficient: the last
        # implied variance is NaN.
        {(1, 2): 1e200, (1, 3): 1e200, (1, 4): 1e200, (2, 3): 1e200,
         (2, 4): 1e200, (3, 4): -1e200},
    ])
    def test_overflowing_model_is_numerical_error(self, coefs):
        p = max(b for _, b in coefs)
        B = np.zeros((p, p))
        for (a, b), c in coefs.items():
            B[b - 1, a - 1] = c
        params = SemParameters(Dag(p, frozenset(coefs)), B, np.ones(p))
        # implied_covariance overflows to inf, and inf * 0 then gives NaN.
        with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
            with pytest.raises(SingularMatrixError):
                standardize(params)
