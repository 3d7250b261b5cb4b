from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dagonion import sem
from dagonion.cli import _apply_shape, _rng
from util import (
    GRAPH_KINDS,
    assert_same_bytes,
    dense_implied_covariance,
    edge_loop_tetrad_params,
    edge_loop_zarx_params,
    kind_graph,
    method_params,
    parent_list_cov_to_dag,
    product_cov_to_corr,
    refit_standardize,
    traced_peak,
)

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

    def test_support_check_on_random_graphs(self):
        # A stray nonzero off the edges is rejected, wherever it sits and
        # whatever the edge coefficients; a stray -0.0 is zero.
        rng = np.random.default_rng(16)
        for _ in range(30):
            g, _ = shuffle_labels(er_dag(12, 4, rng), rng)
            B = tetrad_params(g, rng).B
            off = B == 0.0  # the non-edges
            B[rng.random(B.shape) < 0.1] = 0.0
            i, j = rng.choice(np.argwhere(off))
            B[i, j] = -0.0
            assert SemParameters(g, B, np.ones(12)).B.tobytes() == B.tobytes()
            B[i, j] = rng.choice([1e-300, -3.0])
            with pytest.raises(ValueError):
                SemParameters(g, B, np.ones(12))

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


class TestEdgeLoopOracle:
    """The batched coefficient draws equal one draw per edge in lexicographic
    order and leave the generator in the same state."""

    @staticmethod
    def _check(g, seed):
        for fast_fn, slow_fn in ((zarx_params, edge_loop_zarx_params),
                                 (tetrad_params, edge_loop_tetrad_params)):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = fast_fn(g, fast), slow_fn(g, slow)
            assert np.array_equal(got.B, want.B)
            assert np.array_equal(got.omega, want.omega)
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("p", [1, 2, 5, 30, 100])
    def test_empty_and_complete_graphs(self, p):
        self._check(Dag(p, frozenset()), p)
        complete = er_dag(p, p - 1, np.random.default_rng(p))
        self._check(shuffle_labels(complete, np.random.default_rng(p))[0], p + 1)
        self._check(complete, p + 2)

    @settings(max_examples=60)
    @given(
        p=st.integers(1, 40),
        frac=st.floats(0.0, 1.0),
        shape=st.sampled_from(["er", "sfi", "sfo", "sf-both", "shuffled"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_oracle(self, p, frac, shape, seed):
        rng = np.random.default_rng(seed)
        g = er_dag(p, frac * (p - 1), rng)
        if shape == "shuffled":
            g, _ = shuffle_labels(g, rng)
        else:
            g, _ = _apply_shape(g, shape, rng)
        self._check(g, seed)


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

    def test_memory_budget(self):
        # At most three p x p arrays at once.
        rng = np.random.default_rng(12)
        p = 1000
        params = zarx_params(sfi_rewire(er_dag(p, 4, rng), rng), rng)
        assert traced_peak(implied_covariance, params) < 3.5 * 8 * p * p


def _numerical_outcome(f, *args):
    """``f(*args)``, or the message of the NumericalError it raised."""
    try:
        return f(*args)
    except NumericalError as exc:
        return str(exc)


class TestDenseOracle:
    """``implied_covariance``, and with it ``cov_to_corr`` and
    ``standardize``, give the bytes of the path that kept every p x p
    temporary."""

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_same_bytes(self, kind, monkeypatch):
        rng = np.random.default_rng(GRAPH_KINDS.index(kind))
        for p, method, shuffle in product((1, 2, 17, 120, 300), ("dao", "zarx", "tetrad"),
                                          (False, True)):
            g = kind_graph(kind, p, rng)
            if shuffle:
                g, _ = shuffle_labels(g, rng)
            params = method_params(method, g, rng)
            sigma = implied_covariance(params)
            want = dense_implied_covariance(params)
            assert_same_bytes((sigma, want), (cov_to_corr(sigma), product_cov_to_corr(want)))
            assert sigma.flags.c_contiguous
            # Dense zarx and tetrad models are too ill-conditioned to standardize.
            std = _numerical_outcome(standardize, params)
            with monkeypatch.context() as m:
                m.setattr(sem, "implied_covariance", dense_implied_covariance)
                want_std = _numerical_outcome(standardize, params)
            if isinstance(want_std, str):
                assert std == want_std
            else:
                assert_same_bytes((std.B, want_std.B), (std.omega, want_std.omega))


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


SIGMA_KINDS = ("dao", "zarx", "tetrad", "zarx-corr", "low-rank", "indefinite")


def _sigma(kind: str, g: Dag, rng: np.random.Generator) -> np.ndarray:
    """A p x p matrix for ``cov_to_dag``: a model's implied covariance or
    correlation, or a low-rank or indefinite one whose parent blocks fail."""
    p = g.p
    if kind == "dao":
        return dao_sample(g, rng)[0]
    if kind in ("zarx", "zarx-corr", "tetrad"):
        sigma = implied_covariance((tetrad_params if kind == "tetrad" else zarx_params)(g, rng))
        return cov_to_corr(sigma) if kind == "zarx-corr" else sigma
    if kind == "low-rank":
        A = rng.standard_normal((p, max(1, p // 3)))
        return A @ A.T + np.diag(rng.random(p) < 0.5)  # some diagonal lifted
    S = rng.uniform(-0.9, 0.9, (p, p))
    S = (S + S.T) / 2.0
    np.fill_diagonal(S, 1.0)
    return S


class TestParentListOracle:
    """cov_to_dag over the sorted edge slices equals the loop over a dict of
    parent lists, byte for byte, and fails with the same exception."""

    @staticmethod
    def _check(g, sigma):
        """None when both succeed, else the shared failure message."""
        try:
            want = parent_list_cov_to_dag(g, sigma)
        except SingularParentBlockError as exc:
            with pytest.raises(SingularParentBlockError) as info:
                cov_to_dag(g, sigma)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
            return str(exc)
        got = cov_to_dag(g, sigma)
        assert got.B.tobytes() == want.B.tobytes()
        assert got.omega.tobytes() == want.omega.tobytes()
        return None

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(GRAPH_KINDS),
        p=st.integers(1, 40),
        shuffle=st.booleans(),
        sigma_kind=st.sampled_from(SIGMA_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_oracle(self, kind, p, shuffle, sigma_kind, seed):
        rng = np.random.default_rng(seed)
        g = kind_graph(kind, p, rng)
        if shuffle:
            g, _ = shuffle_labels(g, rng)
        self._check(g, _sigma(sigma_kind, g, rng))

    def test_both_outcomes_and_every_failure_message(self):
        rng = np.random.default_rng(21)
        outcomes = set()
        for sigma_kind, kind, p in product(SIGMA_KINDS, GRAPH_KINDS, (1, 5, 30)):
            g = kind_graph(kind, p, rng)
            outcomes.add(self._check(g, _sigma(sigma_kind, g, rng)))
        assert None in outcomes
        failures = {message.split(" is ")[-1] for message in outcomes - {None}}
        assert failures == {"numerically singular", "not positive definite", "not positive"}


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
