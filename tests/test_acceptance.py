"""End-to-end acceptance checks for the toolkit.

Each test prints one diagnostic line (visible on failure, and summarized by
the hook in conftest.py) and asserts the documented tolerance. Monte Carlo
checks run on fixed seeds.
"""

import json
import time
from itertools import combinations

import numpy as np
from scipy import stats

from dagonion import (
    Dag,
    Pdag,
    compare_graphs,
    cov_to_corr,
    cov_to_dag,
    dao_sample,
    er_dag,
    implied_covariance,
    population_r2,
    precision_recall,
    sfi_rewire,
    sfo_rewire,
    shuffle_labels,
    simulate,
    sortability_rank_corr,
    source_first_order,
    standardize,
    tetrad_params,
    var_sort_regress,
    zarx_params,
)
from dagonion.cli import main as cli_main
from util import brute_pair_counts, enumerate_dags, enumerate_pdags, parents, partial_corr


def test_criterion_01_single_edge_correlation_uniform_on_interval():
    g = Dag(2, frozenset({(1, 2)}))
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    draws = np.empty(10_000)
    for k in range(draws.size):
        R, _ = dao_sample(g, rng)
        draws[k] = R[0, 1]
    elapsed = time.perf_counter() - start
    res = stats.kstest(draws, stats.uniform(loc=-1.0, scale=2.0).cdf)
    print(f"criterion 01: KS p={res.pvalue:.4f} elapsed={elapsed:.2f}s")
    assert res.pvalue > 0.01
    assert elapsed < 5.0


def _positive_definite_triples(n_target: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection oracle: uniform triples from the cube kept when the 3x3
    correlation matrix they fill is positive definite."""
    kept = []
    total = 0
    while total < n_target:
        r = rng.uniform(-1.0, 1.0, size=(40_000, 3))
        det = 1.0 + 2.0 * r[:, 0] * r[:, 1] * r[:, 2] - np.sum(r * r, axis=1)
        acc = r[det > 0.0]
        kept.append(acc)
        total += len(acc)
    return np.concatenate(kept)[:n_target]


def test_criterion_02_complete_graph_matches_rejection_oracle():
    g = Dag(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    rng = np.random.default_rng(300)
    start = time.perf_counter()
    draws = np.empty((10_000, 3))
    for k in range(draws.shape[0]):
        R, _ = dao_sample(g, rng)
        draws[k] = (R[0, 1], R[0, 2], R[1, 2])
    oracle = _positive_definite_triples(20_000, np.random.default_rng(7300))
    pvals = [stats.ks_2samp(draws[:, j], oracle[:, j]).pvalue for j in range(3)]
    elapsed = time.perf_counter() - start
    print(f"criterion 02: KS p={['%.4f' % v for v in pvals]} elapsed={elapsed:.2f}s")
    assert min(pvals) > 0.01
    assert elapsed < 30.0


def test_criterion_03_partial_correlation_with_nonparent_predecessors_vanishes():
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(200):
        p = int(rng.integers(2, 9))
        g = er_dag(p, float(rng.uniform(0.5, p - 1)), rng)
        if k % 4 == 1:
            g = sfi_rewire(g, rng)
        elif k % 4 == 2:
            g = sfo_rewire(g, rng)
        if k % 3 == 0:
            g, _ = shuffle_labels(g, rng)
        R, _ = dao_sample(g, rng)
        order = source_first_order(g)
        for pos, v in enumerate(order):
            pa = set(parents(g, v))
            given = [w - 1 for w in pa]
            for u in order[:pos]:
                if u in pa:
                    continue
                worst = max(worst, abs(partial_corr(R, v - 1, u - 1, given)))
    print(f"criterion 03: worst partial correlation {worst:.3e}")
    assert worst < 1e-8


def test_criterion_04_reconstruction_and_round_trips_are_exact():
    rng = np.random.default_rng(404)
    worst_recon = worst_round = worst_idem = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 13))
        g = er_dag(p, float(rng.uniform(0.5, min(6.0, p - 1))), rng)
        R, params = dao_sample(g, rng)
        worst_recon = max(worst_recon, float(np.max(np.abs(implied_covariance(params) - R))))
        for maker in (zarx_params, tetrad_params):
            pr = maker(g, rng)
            back = cov_to_dag(g, implied_covariance(pr))
            worst_round = max(
                worst_round,
                float(np.max(np.abs(back.B - pr.B))),
                float(np.max(np.abs(back.omega - pr.omega))),
            )
            s1 = standardize(pr)
            s2 = standardize(s1)
            worst_idem = max(
                worst_idem,
                float(np.max(np.abs(s2.B - s1.B))),
                float(np.max(np.abs(s2.omega - s1.omega))),
            )
    print(
        "criterion 04: recon %.2e, round trip %.2e, idempotence %.2e"
        % (worst_recon, worst_round, worst_idem)
    )
    assert worst_recon < 1e-10
    assert worst_round < 1e-10
    assert worst_idem < 1e-10


def test_criterion_05_two_edge_graph_frequencies_fit_two_to_one_ratio():
    rng = np.random.default_rng(505)
    n = 100_000
    counts = {}
    for _ in range(n):
        g = er_dag(3, 4.0 / 3.0, rng)
        g, _ = shuffle_labels(g, rng)
        counts[g.edges] = counts.get(g.edges, 0) + 1

    categories = []
    weights = []
    for pa, pb in combinations([(1, 2), (1, 3), (2, 3)], 2):
        for e1 in (pa, pa[::-1]):
            for e2 in (pb, pb[::-1]):
                edges = frozenset({e1, e2})
                heads = [b for _, b in edges]
                tails = [a for a, _ in edges]
                hub = len(set(heads)) == 1 or len(set(tails)) == 1
                categories.append(edges)
                weights.append(2.0 if hub else 1.0)
    assert len(categories) == 12 and sum(weights) == 18.0

    observed = np.array([counts.get(c, 0) for c in categories])
    assert observed.sum() == n
    expected = n * np.array(weights) / 18.0
    res = stats.chisquare(observed, f_exp=expected)
    print(f"criterion 05: chi2 p={res.pvalue:.4f} observed={observed.tolist()}")
    assert res.pvalue > 0.001


def _in_degrees(g: Dag) -> list[int]:
    deg = [0] * g.p
    for _, b in g.edges:
        deg[b - 1] += 1
    return deg


def _out_degrees(g: Dag) -> list[int]:
    deg = [0] * g.p
    for a, _ in g.edges:
        deg[a - 1] += 1
    return deg


def test_criterion_06_rewiring_preserves_one_side_and_concentrates_the_other():
    rng = np.random.default_rng(606)
    for _ in range(100):
        p = int(rng.integers(2, 30))
        g = er_dag(p, float(rng.uniform(0.5, min(8.0, p - 1))), rng)
        assert sorted(_out_degrees(g)) == sorted(_out_degrees(sfi_rewire(g, rng)))
        assert sorted(_in_degrees(g)) == sorted(_in_degrees(sfo_rewire(g, rng)))

    er_in, er_out, sfi_in, sfo_out = [], [], [], []
    for _ in range(100):
        g = er_dag(100, 10.0, rng)
        er_in.append(max(_in_degrees(g)))
        er_out.append(max(_out_degrees(g)))
        sfi_in.append(max(_in_degrees(sfi_rewire(g, rng))))
        sfo_out.append(max(_out_degrees(sfo_rewire(g, rng))))
    print(
        "criterion 06: mean max in-degree %.1f -> %.1f, mean max out-degree %.1f -> %.1f"
        % (np.mean(er_in), np.mean(sfi_in), np.mean(er_out), np.mean(sfo_out))
    )
    assert np.mean(sfi_in) > np.mean(er_in)
    assert np.mean(sfo_out) > np.mean(er_out)


def _rank_corr_grid(p: int, reps: int, rng: np.random.Generator) -> dict:
    shapes = ("er", "sfi", "sfo")
    methods = ("zarx", "tetrad", "dao")
    sums = {(s, m): 0.0 for s in shapes for m in methods}
    for _ in range(reps):
        base = er_dag(p, 10.0, rng)
        for s in shapes:
            if s == "er":
                g = base
            elif s == "sfi":
                g = sfi_rewire(base, rng)
            else:
                g = sfo_rewire(base, rng)
            idx = np.empty(p, dtype=np.intp)
            for pos, v in enumerate(source_first_order(g), start=1):
                idx[v - 1] = pos
            for m in methods:
                if m == "dao":
                    R, _ = dao_sample(g, rng)
                else:
                    maker = zarx_params if m == "zarx" else tetrad_params
                    R = cov_to_corr(implied_covariance(maker(g, rng)))
                r2 = population_r2(R)
                sums[s, m] += sortability_rank_corr(r2, idx, largest_first=True)
    return {k: v / reps for k, v in sums.items()}


def test_criterion_07_r2_sortability_grid_reproduces_reference_values():
    rng = np.random.default_rng(707)
    start = time.perf_counter()

    grid20 = _rank_corr_grid(20, 100, rng)
    anchors = {
        ("er", "zarx"): -0.859,
        ("er", "tetrad"): -0.500,
        ("er", "dao"): -0.264,
        ("sfo", "dao"): 0.033,
    }
    lines = [f"  p=20 {k}: {v:+.3f}" for k, v in sorted(grid20.items())]
    for key, target in anchors.items():
        assert abs(grid20[key] - target) < 0.15, (key, grid20[key], target)
    for s in ("er", "sfi"):
        assert abs(grid20[s, "zarx"]) > abs(grid20[s, "tetrad"]) > abs(grid20[s, "dao"]), s

    grid100 = _rank_corr_grid(100, 30, rng)
    lines += [f"  p=100 {k}: {v:+.3f}" for k, v in sorted(grid100.items())]
    for key in (
        ("er", "zarx"), ("er", "tetrad"), ("er", "dao"),
        ("sfi", "zarx"), ("sfi", "tetrad"), ("sfo", "zarx"),
    ):
        assert grid100[key] < 0.0, (key, grid100[key])
    for s in ("er", "sfi"):
        assert abs(grid100[s, "zarx"]) > abs(grid100[s, "tetrad"]) > abs(grid100[s, "dao"]), s

    elapsed = time.perf_counter() - start
    print("criterion 07: elapsed %.1fs\n%s" % (elapsed, "\n".join(lines)))
    assert elapsed < 600.0


def test_criterion_08_standardization_pushes_most_coefficients_below_threshold():
    rng = np.random.default_rng(808)
    fractions = {}
    for design in ("zarx", "tetrad", "dao"):
        below = total = 0
        for _ in range(20):
            g = er_dag(100, 10.0, rng)
            if design == "dao":
                _, params = dao_sample(g, rng)
            else:
                maker = zarx_params if design == "zarx" else tetrad_params
                params = standardize(maker(g, rng))
            for a, b in g.edges:
                total += 1
                below += abs(params.B[b - 1, a - 1]) < 0.3
        fractions[design] = below / total
    print(f"criterion 08: fraction |beta| < 0.3 per design: {fractions}")
    for design, frac in fractions.items():
        assert frac > 0.5, design


def test_criterion_09_graph_comparison_agrees_with_exhaustive_oracle():
    truth = Dag(3, frozenset({(1, 2), (1, 3)}))
    est = Pdag(3, frozenset({(1, 2), (3, 1)}), frozenset({(2, 3)}))
    c = compare_graphs(truth, est)
    assert (c.adjacency.tp, c.adjacency.fp, c.adjacency.fn, c.adjacency.tn) == (2, 1, 0, 0)
    assert (c.orientation.tp, c.orientation.fp, c.orientation.fn, c.orientation.tn) == (1, 1, 1, 1)

    checked = 0
    for t in enumerate_dags(3):
        for e in enumerate_pdags(3):
            got = compare_graphs(t, e)
            adj, ori = brute_pair_counts(t, e)
            assert (got.adjacency.tp, got.adjacency.fp, got.adjacency.fn, got.adjacency.tn) == (
                adj["tp"], adj["fp"], adj["fn"], adj["tn"],
            )
            assert (
                got.orientation.tp, got.orientation.fp, got.orientation.fn, got.orientation.tn,
            ) == (ori["tp"], ori["fp"], ori["fn"], ori["tn"])
            checked += 1
    print(f"criterion 09: worked example plus {checked} exhaustive pairs")
    assert checked == 25 * 64


def test_criterion_10_variance_sorting_recall_gap_between_designs():
    rng = np.random.default_rng(1010)
    zarx_recall, dao_recall = [], []
    for _ in range(20):
        g = er_dag(20, 10.0, rng)
        for design, sink in (("zarx", zarx_recall), ("dao", dao_recall)):
            if design == "zarx":
                params = zarx_params(g, rng)
            else:
                params = dao_sample(g, rng)[1]
            d = simulate(params, "gaussian", 1000, rng)
            pr = precision_recall(compare_graphs(g, var_sort_regress(d)))
            sink.append(pr.adjacency_recall)
    res = stats.mannwhitneyu(zarx_recall, dao_recall, alternative="greater")
    print(
        "criterion 10: mean recall %.3f vs %.3f, one-sided p=%.2e"
        % (np.mean(zarx_recall), np.mean(dao_recall), res.pvalue)
    )
    assert res.pvalue < 0.05


def test_criterion_11_cli_reruns_are_byte_identical(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    def twice(name, make_argv, outputs):
        blobs = []
        for tag in ("a", "b"):
            d = tmp_path / name / tag
            d.mkdir(parents=True)
            run(*make_argv(d))
            blobs.append([(d / o).read_bytes() for o in outputs])
        assert blobs[0] == blobs[1], name

    shared = tmp_path / "shared"
    shared.mkdir()
    graph = shared / "g.json"
    model = shared / "m.json"
    data = shared / "d.csv"
    est = shared / "est.json"
    run("gen-dag", "--p", 10, "--avg-degree", 3, "--seed", 5, "--out", graph)
    run("gen-model", "--graph", graph, "--method", "zarx", "--seed", 6, "--out", model)
    run("simulate", "--model", model, "--n", 60, "--seed", 7, "--out", data)
    est.write_text(json.dumps({"p": 10, "directed": [[1, 2]], "undirected": [[3, 4]]}))

    twice("gen-dag-er",
          lambda d: ("gen-dag", "--p", 12, "--avg-degree", 4, "--seed", 11,
                     "--out", d / "g.json"),
          ["g.json"])
    twice("gen-dag-sf-both",
          lambda d: ("gen-dag", "--p", 12, "--avg-degree", 4, "--shape", "sf-both",
                     "--shuffle", "--seed", 12, "--out", d / "g.json"),
          ["g.json"])
    twice("gen-model-dao",
          lambda d: ("gen-model", "--graph", graph, "--method", "dao", "--seed", 13,
                     "--out", d / "m.json"),
          ["m.json"])
    twice("gen-model-zarx-std",
          lambda d: ("gen-model", "--graph", graph, "--method", "zarx", "--standardize",
                     "--seed", 14, "--out", d / "m.json"),
          ["m.json"])
    twice("simulate-gaussian",
          lambda d: ("simulate", "--model", model, "--n", 50, "--seed", 15,
                     "--out", d / "x.csv"),
          ["x.csv", "x.meta.json"])
    twice("simulate-exponential",
          lambda d: ("simulate", "--model", model, "--n", 50, "--error", "exponential",
                     "--standardize-data", "--seed", 16, "--out", d / "x.csv"),
          ["x.csv", "x.meta.json"])
    twice("eval",
          lambda d: ("eval", "--true-graph", graph, "--est-graph", est, "--data", data,
                     "--out", d / "report.json"),
          ["report.json"])
    twice("bench",
          lambda d: ("bench", "--reps", 2, "--p-list", "6", "--avg-degree", 2,
                     "--shapes", "er,sfo", "--methods", "dao,tetrad-std",
                     "--sample-sizes", "80", "--seed", 17, "--out", d / "r.csv"),
          ["r.csv"])

    replay_dir = tmp_path / "replay"
    replay_dir.mkdir()
    out = replay_dir / "g.json"
    manifest = replay_dir / "manifest.json"
    run("gen-dag", "--p", 9, "--avg-degree", 2, "--seed", 18,
        "--out", out, "--manifest", manifest)
    first = out.read_bytes()
    for _ in range(2):
        run("replay", "--manifest", manifest)
        assert out.read_bytes() == first
    print("criterion 11: all commands byte-identical across reruns")
