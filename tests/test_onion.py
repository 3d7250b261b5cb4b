import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dagonion import (
    CholeskyFailure,
    Dag,
    cov_to_dag,
    dao_sample,
    er_dag,
    implied_covariance,
    sample_mpii,
    sfi_rewire,
    sfo_rewire,
    shuffle_labels,
    source_first_order,
)
from util import (
    GRAPH_KINDS,
    assert_same_bytes,
    full_block_dao_sample,
    kind_graph,
    list_dao_sample,
    parents,
    partial_corr,
    solve_triangular_dao_sample,
)


class TestSampleMpii:
    def test_zero_dimension_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        w = sample_mpii(0, 1.0, rng)
        assert w.shape == (0,)
        assert rng.bit_generator.state == before

    def test_invalid_arguments(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_mpii(1, -0.5, rng)
        with pytest.raises(ValueError):
            sample_mpii(-1, 1.0, rng)

    def test_inside_unit_ball_with_exact_padding(self):
        # The draw has exactly k entries: no zero padding.
        rng = np.random.default_rng(2)
        for _ in range(500):
            k = int(rng.integers(1, 6))
            w = sample_mpii(k, float(rng.uniform(-0.4, 3.0)), rng)
            assert w.shape == (k,)
            assert w @ w < 1.0

    def test_k1_half_gamma_is_uniform(self):
        rng = np.random.default_rng(3)
        draws = np.array([sample_mpii(1, 0.5, rng)[0] for _ in range(4000)])
        ks = stats.kstest(draws, stats.uniform(loc=-1, scale=2).cdf)
        assert ks.pvalue > 0.01


def _check_valid_draw(g, R, params, tol=1e-10):
    p = g.p
    assert np.array_equal(R, R.T)
    assert np.array_equal(np.diag(R), np.ones(p))
    assert np.linalg.eigvalsh(R)[0] > 0
    off = R[~np.eye(p, dtype=bool)]
    assert np.all(np.abs(off) < 1.0)
    assert np.all(params.omega > 0) and np.all(params.omega <= 1.0)
    mask = np.zeros((p, p), dtype=bool)
    for a, b in g.edges:
        mask[b - 1, a - 1] = True
    assert np.all(params.B[~mask] == 0.0)
    A = np.linalg.inv(np.eye(p) - params.B)
    recon = (A * params.omega) @ A.T
    assert np.max(np.abs(recon - R)) < tol


class TestDaoSample:
    def test_empty_graph_identity(self):
        R, params = dao_sample(Dag(4, frozenset()), np.random.default_rng(0))
        assert np.array_equal(R, np.eye(4))
        assert np.array_equal(params.B, np.zeros((4, 4)))
        assert np.array_equal(params.omega, np.ones(4))

    def test_valid_draws_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = er_dag(12, 4, rng)
            R, params = dao_sample(g, rng)
            _check_valid_draw(g, R, params)

    def test_relabeled_graph_maps_back(self):
        rng = np.random.default_rng(6)
        base = er_dag(10, 3, rng)
        g, _ = shuffle_labels(base, rng)
        assert source_first_order(g) != tuple(range(1, 11))  # actually shuffled
        R, params = dao_sample(g, rng)
        _check_valid_draw(g, R, params)

    def test_markov_partial_correlations(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = er_dag(7, 2.5, rng)
            if rng.random() < 0.5:
                g = sfi_rewire(g, rng)
            R, _ = dao_sample(g, rng)
            order = source_first_order(g)
            for pos, v in enumerate(order):
                pa = set(parents(g, v))
                for u in order[:pos]:
                    if u in pa:
                        continue
                    rho = partial_corr(R, v - 1, u - 1, [w - 1 for w in pa])
                    assert abs(rho) < 1e-8

    def test_deterministic_given_seed(self):
        g = er_dag(9, 3, np.random.default_rng(8))
        R1, p1 = dao_sample(g, np.random.default_rng(99))
        R2, p2 = dao_sample(g, np.random.default_rng(99))
        assert np.array_equal(R1, R2)
        assert np.array_equal(p1.B, p2.B)
        assert np.array_equal(p1.omega, p2.omega)

    def test_single_edge_marginal_is_uniform(self):
        g = Dag(2, frozenset({(1, 2)}))
        rng = np.random.default_rng(9)
        draws = np.array([dao_sample(g, rng)[0][0, 1] for _ in range(4000)])
        ks = stats.kstest(draws, stats.uniform(loc=-1, scale=2).cdf)
        assert ks.pvalue > 0.01

    def test_rewired_graphs_still_valid(self):
        rng = np.random.default_rng(10)
        for rewire in (sfi_rewire, sfo_rewire):
            g = rewire(er_dag(10, 3, rng), rng)
            R, params = dao_sample(g, rng)
            _check_valid_draw(g, R, params)

    def test_failed_parent_factorization_raises(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(CholeskyFailure):
            dao_sample(Dag(3, frozenset({(1, 3), (2, 3)})), np.random.default_rng(11))

    def test_one_parent_skips_factorization(self, monkeypatch):
        # The parent block [[1.0]] has root 1.0, so z = w without a factorization.
        def fail(_):
            raise AssertionError("cholesky called for a one-parent block")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        R, params = dao_sample(Dag(3, frozenset({(1, 2), (2, 3)})), np.random.default_rng(11))
        assert params.B[1, 0] == R[0, 1] and 0.0 < params.omega[2] <= 1.0


class TestFullBlockOracle:
    """The parent-block sampler reproduces the full-block sampler's draw and
    consumes the same random numbers."""

    @pytest.mark.parametrize("kind", ["er", "sfi", "sfo", "shuffled", "empty", "complete"])
    def test_matches_oracle_and_rng_state(self, kind):
        rng = np.random.default_rng(12)
        for p in (2, 3, 7, 15, 30, 60):
            g = kind_graph(kind, p, rng)
            seed = int(rng.integers(2**32))
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            R, params = dao_sample(g, fast)
            R_o, params_o = full_block_dao_sample(g, slow)
            assert fast.bit_generator.state == slow.bit_generator.state
            assert np.max(np.abs(R - R_o)) <= 1e-11
            assert np.max(np.abs(params.B - params_o.B)) <= 1e-11
            assert np.max(np.abs(params.omega - params_o.omega)) <= 1e-11


class TestSolveTriangularOracle:
    """Calling dtrtrs directly gives the same doubles as solve_triangular."""

    @pytest.mark.parametrize("kind", ["er", "sfi", "sfo", "shuffled", "dense", "complete"])
    def test_equal_bit_for_bit(self, kind):
        rng = np.random.default_rng(13)
        for p in (1, 2, 20, 45, 100):
            g = kind_graph(kind, p, rng)
            seed = int(rng.integers(2**32))
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            R, params = dao_sample(g, fast)
            R_o, params_o = solve_triangular_dao_sample(g, slow)
            assert fast.bit_generator.state == slow.bit_generator.state
            assert np.array_equal(R, R_o)
            assert np.array_equal(params.B, params_o.B)
            assert np.array_equal(params.omega, params_o.omega)


class TestListOracle:
    """The sampler over sorted edge slices gives the per-vertex list
    sampler's R, B and omega byte for byte and draws the same numbers."""

    def _check(self, g, seed):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        R, params = dao_sample(g, fast)
        R_o, params_o = list_dao_sample(g, slow)
        assert_same_bytes((R, R_o), (params.B, params_o.B), (params.omega, params_o.omega))
        assert fast.bit_generator.state == slow.bit_generator.state

    @settings(max_examples=120)
    @given(
        kind=st.sampled_from(GRAPH_KINDS),
        p=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_and_draws(self, kind, p, seed):
        self._check(kind_graph(kind, p, np.random.default_rng(seed)), seed + 1)

    @pytest.mark.parametrize("kind", ["sfi", "dense"])
    def test_large_graphs(self, kind):
        rng = np.random.default_rng(14)
        self._check(kind_graph(kind, 150, rng), 15)


class TestDaoProperties:
    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["shuffled", "empty", "dense", "complete"]),
        p=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariants(self, kind, p, seed):
        rng = np.random.default_rng(seed)
        g = kind_graph(kind, p, rng)
        R, params = dao_sample(g, rng)
        assert np.array_equal(np.diag(R), np.ones(p))
        assert np.linalg.eigvalsh(R)[0] > 0
        assert np.max(np.abs(R - implied_covariance(params))) <= 1e-9
        back = cov_to_dag(g, R)
        assert np.max(np.abs(back.B - params.B)) <= 1e-9
        assert np.max(np.abs(back.omega - params.omega)) <= 1e-9


class TestDaoLaw:
    """The law of dao_sample beyond the small graphs of criteria 01-03, over
    pooled draws at fixed seeds, with criterion 05's p-value floor."""

    def test_error_variances_follow_their_beta_laws(self):
        # A vertex at walk position i (from 0) with k >= 1 parents has
        # 1 - omega = w . w ~ Beta(k/2, (p - i)/2 + 1/2), independently over
        # vertices and draws, so its beta CDF values are iid uniform.
        rng = np.random.default_rng(801)
        p, u = 50, []
        for _ in range(200):
            g = sfi_rewire(er_dag(p, 10, rng), rng)
            _, params = dao_sample(g, rng)
            ends = np.array(sorted(g.edges)) - 1
            k = np.bincount(ends[:, 1], minlength=p)
            position = np.empty(p)
            position[np.array(source_first_order(g)) - 1] = np.arange(p)
            has = k > 0
            u.append(stats.beta.cdf(1.0 - params.omega[has], k[has] / 2.0,
                                    (p - position[has]) / 2.0 + 0.5))
        u = np.concatenate(u)
        assert len(u) > 5000
        assert stats.kstest(u, "uniform").pvalue > 0.001

    def test_complete_graph_correlations_follow_the_onion_marginal(self):
        # On the complete graph DaO is the onion method: (r + 1)/2 ~
        # Beta(p/2, p/2) for every pair; first, last and mixed pairs here.
        p = 10
        g = Dag(p, [(a, b) for a in range(1, p + 1) for b in range(a + 1, p + 1)])
        rng = np.random.default_rng(802)
        draws = np.array([dao_sample(g, rng)[0] for _ in range(3000)])
        for a, b in ((1, 2), (9, 10), (1, 10)):
            x = (draws[:, a - 1, b - 1] + 1.0) / 2.0
            assert stats.kstest(x, stats.beta(p / 2, p / 2).cdf).pvalue > 0.001, (a, b)
