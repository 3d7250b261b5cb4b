import json

import numpy as np
import pytest

from dagonion import RankDeficientDataError, __version__, sample_r2
from dagonion import cli
from dagonion.cli import main
from dagonion.fileio import read_dataset, read_json
from util import corrcoef_sample_r2, lstsq_sample_r2


def run(*argv):
    return main([str(a) for a in argv])


def gen_graph(tmp_path, name="g.json", p=8, deg=3, shape="er", seed=1, shuffle=False):
    path = tmp_path / name
    argv = ["gen-dag", "--p", p, "--avg-degree", deg, "--shape", shape,
            "--seed", seed, "--out", path]
    if shuffle:
        argv.append("--shuffle")
    assert run(*argv) == 0
    return path


class TestGenDag:
    def test_writes_expected_edge_count(self, tmp_path):
        path = gen_graph(tmp_path, p=100, deg=10)
        raw = read_json(path)
        assert raw["p"] == 100
        assert len(raw["edges"]) == 500
        assert raw["seed"] == 1
        assert raw["version"] == __version__
        assert raw["order"] == list(range(1, 101))

    def test_deterministic(self, tmp_path):
        a = gen_graph(tmp_path, "a.json", shape="sf-both", seed=9, shuffle=True)
        b = gen_graph(tmp_path, "b.json", shape="sf-both", seed=9, shuffle=True)
        assert a.read_bytes() == b.read_bytes()

    def test_sfi_preserves_out_degrees_of_er_stage(self, tmp_path):
        er = read_json(gen_graph(tmp_path, "er.json", seed=4, shape="er"))
        sfi = read_json(gen_graph(tmp_path, "sfi.json", seed=4, shape="sfi"))

        def out_degrees(raw):
            deg = [0] * raw["p"]
            for a, _ in raw["edges"]:
                deg[a - 1] += 1
            return sorted(deg)

        assert out_degrees(er) == out_degrees(sfi)

    def test_shuffled_order_recorded(self, tmp_path):
        raw = read_json(gen_graph(tmp_path, seed=12, shuffle=True))
        assert sorted(raw["order"]) == list(range(1, 9))
        assert raw["shuffled"] is True


class TestGenModel:
    def test_dao_on_empty_graph_identity(self, tmp_path):
        graph = gen_graph(tmp_path, p=4, deg=0)
        model = tmp_path / "m.json"
        assert run("gen-model", "--graph", graph, "--method", "dao",
                   "--seed", 2, "--out", model) == 0
        raw = read_json(model)
        assert np.array_equal(raw["R"], np.eye(4))
        assert np.array_equal(raw["B"], np.zeros((4, 4)))
        assert raw["omega"] == [1.0] * 4
        assert raw["method"] == "dao"

    def test_standardized_zarx_unit_variances(self, tmp_path):
        graph = gen_graph(tmp_path)
        model = tmp_path / "m.json"
        assert run("gen-model", "--graph", graph, "--method", "zarx",
                   "--standardize", "--seed", 3, "--out", model) == 0
        raw = read_json(model)
        assert raw["method"] == "zarx-std"
        B = np.array(raw["B"])
        omega = np.array(raw["omega"])
        A = np.linalg.inv(np.eye(len(omega)) - B)
        diag = np.diag((A * omega) @ A.T)
        assert np.max(np.abs(diag - 1.0)) < 1e-10

    def test_dao_ignores_standardize_flag(self, tmp_path):
        graph = gen_graph(tmp_path)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run("gen-model", "--graph", graph, "--method", "dao",
                   "--seed", 5, "--out", m1) == 0
        assert run("gen-model", "--graph", graph, "--method", "dao",
                   "--standardize", "--seed", 5, "--out", m2) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_graph_is_io_error(self, tmp_path):
        assert run("gen-model", "--graph", tmp_path / "nope.json",
                   "--method", "dao", "--seed", 1, "--out", tmp_path / "m.json") == 4

    @pytest.mark.parametrize(
        "raw", ['{"p": true, "edges": []}', '{"p": 3, "edges": [[true, 2], [2, 3]]}']
    )
    def test_boolean_integers_are_schema_errors(self, tmp_path, raw):
        graph = tmp_path / "g.json"
        graph.write_text(raw)
        assert run("gen-model", "--graph", graph, "--method", "dao",
                   "--seed", 1, "--out", tmp_path / "m.json") == 4
        assert not (tmp_path / "m.json").exists()


class TestSimulate:
    def _model(self, tmp_path, method="zarx"):
        graph = gen_graph(tmp_path)
        model = tmp_path / "m.json"
        assert run("gen-model", "--graph", graph, "--method", method,
                   "--seed", 2, "--out", model) == 0
        return model

    def test_writes_csv_and_sidecar(self, tmp_path):
        model = self._model(tmp_path)
        out = tmp_path / "data.csv"
        assert run("simulate", "--model", model, "--n", 40,
                   "--seed", 3, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 41
        meta = read_json(tmp_path / "data.meta.json")
        assert meta["n"] == 40 and meta["seed"] == 3
        assert meta["error"] == "gaussian"

    def test_zero_samples_usage_error(self, tmp_path):
        model = self._model(tmp_path)
        assert run("simulate", "--model", model, "--n", 0,
                   "--seed", 3, "--out", tmp_path / "x.csv") == 2

    def test_deterministic(self, tmp_path):
        model = self._model(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--model", model, "--n", 25,
                       "--error", "exponential", "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_error_kinds_share_meta_except_error_fields(self, tmp_path):
        model = self._model(tmp_path)
        assert run("simulate", "--model", model, "--n", 10, "--error", "gaussian",
                   "--seed", 8, "--out", tmp_path / "g.csv") == 0
        assert run("simulate", "--model", model, "--n", 10, "--error", "exponential",
                   "--seed", 8, "--out", tmp_path / "e.csv") == 0
        mg = read_json(tmp_path / "g.meta.json")
        me = read_json(tmp_path / "e.meta.json")
        for m in (mg, me):
            m.pop("error")
            m.pop("error_centering")
        assert mg == me

    @pytest.mark.parametrize(
        "key, value", [("omega", float("nan")), ("B", float("inf")), ("R", float("nan"))]
    )
    def test_non_finite_model_is_schema_error(self, tmp_path, capsys, key, value):
        model = self._model(tmp_path)
        raw = read_json(model)
        if key == "omega":
            raw["omega"][0] = value
        else:
            # An entry at an edge of B, so only its value is wrong.
            i, j = np.argwhere(np.array(raw["B"]) != 0)[0]
            raw[key][i][j] = value
        model.write_text(json.dumps(raw))
        out = tmp_path / "x.csv"
        assert run("simulate", "--model", model, "--n", 10,
                   "--seed", 3, "--out", out) == 4
        assert "error[io]" in capsys.readouterr().err
        assert not out.exists()

    def test_standardize_data_flag(self, tmp_path):
        model = self._model(tmp_path)
        out = tmp_path / "s.csv"
        assert run("simulate", "--model", model, "--n", 50, "--standardize-data",
                   "--seed", 9, "--out", out) == 0
        from dagonion.fileio import read_dataset

        d = read_dataset(out)
        assert np.allclose(d.values.var(axis=0, ddof=1), 1.0, atol=1e-9)
        assert d.meta["standardized"] is True


class TestEval:
    def test_perfect_estimate(self, tmp_path, capsys):
        graph = gen_graph(tmp_path)
        raw = read_json(graph)
        est = tmp_path / "est.json"
        est.write_text(json.dumps({"p": raw["p"], "directed": raw["edges"], "undirected": []}))
        assert run("eval", "--true-graph", graph, "--est-graph", est) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["adjacency"]["precision"] == 1.0
        assert report["adjacency"]["recall"] == 1.0
        assert report["orientation"]["precision"] == 1.0
        assert report["orientation"]["recall"] == 1.0

    def test_empty_estimate_convention(self, tmp_path, capsys):
        graph = gen_graph(tmp_path)
        est = tmp_path / "est.json"
        est.write_text(json.dumps({"p": 8, "directed": [], "undirected": []}))
        assert run("eval", "--true-graph", graph, "--est-graph", est) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["adjacency"]["recall"] == 0.0
        assert report["adjacency"]["precision"] == 1.0

    def test_worked_example_via_files(self, tmp_path, capsys):
        truth = tmp_path / "t.json"
        truth.write_text(json.dumps({"p": 3, "edges": [[1, 2], [1, 3]]}))
        est = tmp_path / "e.json"
        est.write_text(json.dumps({"p": 3, "directed": [[1, 2], [3, 1]],
                                   "undirected": [[2, 3]]}))
        assert run("eval", "--true-graph", truth, "--est-graph", est) == 0
        report = json.loads(capsys.readouterr().out)
        adj = report["adjacency"]
        ori = report["orientation"]
        assert (adj["tp"], adj["fp"], adj["fn"], adj["tn"]) == (2, 1, 0, 0)
        assert (ori["tp"], ori["fp"], ori["fn"], ori["tn"]) == (1, 1, 1, 1)

    def test_sortability_with_data(self, tmp_path):
        graph = gen_graph(tmp_path)
        model = tmp_path / "m.json"
        assert run("gen-model", "--graph", graph, "--method", "zarx",
                   "--seed", 2, "--out", model) == 0
        data = tmp_path / "d.csv"
        assert run("simulate", "--model", model, "--n", 500,
                   "--seed", 3, "--out", data) == 0
        out = tmp_path / "report.json"
        assert run("eval", "--true-graph", graph, "--data", data,
                   "--order-from", "file", "--out", out) == 0
        report = read_json(out)
        assert -1.0 <= report["var_rank_corr"] <= 1.0
        assert -1.0 <= report["r2_rank_corr"] <= 1.0

    def test_requires_some_input(self, tmp_path):
        graph = gen_graph(tmp_path)
        assert run("eval", "--true-graph", graph) == 2

    def test_order_from_file_without_order(self, tmp_path):
        truth = tmp_path / "t.json"
        truth.write_text(json.dumps({"p": 2, "edges": [[1, 2]]}))
        data = tmp_path / "d.csv"
        data.write_text("X1,X2\n" + "\n".join(f"{i}.0,{i + 0.5}" for i in range(9)) + "\n")
        assert run("eval", "--true-graph", truth, "--data", data,
                   "--order-from", "file") == 4

    def test_numerical_error_exit(self, tmp_path):
        # Too few rows for the R^2 diagnostic: numerical failure, exit 3.
        graph = gen_graph(tmp_path, p=6, deg=2)
        model = tmp_path / "m.json"
        assert run("gen-model", "--graph", graph, "--method", "zarx",
                   "--seed", 2, "--out", model) == 0
        data = tmp_path / "d.csv"
        assert run("simulate", "--model", model, "--n", 4,
                   "--seed", 3, "--out", data) == 0
        assert run("eval", "--true-graph", graph, "--data", data) == 3

    def test_ill_conditioned_full_rank_data(self, tmp_path):
        # Complete zarx graph at n = p + 1: cond(X) is about 1e10. The sample
        # correlation matrix's Cholesky factorization fails on these data;
        # the QR factor of the data gives the least-squares R^2.
        graph = gen_graph(tmp_path, p=40, deg=39)
        model, data = tmp_path / "m.json", tmp_path / "d.csv"
        assert run("gen-model", "--graph", graph, "--method", "zarx",
                   "--seed", 2, "--out", model) == 0
        assert run("simulate", "--model", model, "--n", 41,
                   "--seed", 2, "--out", data) == 0
        d = read_dataset(data)
        with pytest.raises(RankDeficientDataError):
            corrcoef_sample_r2(d)
        assert np.max(np.abs(sample_r2(d) - lstsq_sample_r2(d))) < 1e-9
        out = tmp_path / "report.json"
        assert run("eval", "--true-graph", graph, "--data", data, "--out", out) == 0
        assert -1.0 <= read_json(out)["r2_rank_corr"] <= 1.0


class TestBench:
    def test_grid_shape_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bench", "--reps", 2, "--p-list", "5,6", "--avg-degree", 2,
                "--shapes", "er,sfi", "--methods", "dao,zarx-std",
                "--sample-sizes", "120", "--seed", 10]
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # header + p x shape x method cells
        header = lines[0].split(",")
        assert "r2_pop_mean" in header and "varsr_adj_recall_mean" in header

    def test_failures_counted_not_fatal(self, tmp_path):
        # Standardizing a complete zarx graph at p = 30 hits a numerically
        # singular parent block in every replication.
        out = tmp_path / "r.csv"
        assert run("bench", "--reps", 2, "--p-list", 30, "--avg-degree", 29,
                   "--shapes", "er", "--methods", "zarx-std", "--sample-sizes", 200,
                   "--seed", 3, "--out", out) == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["failures"] == "2"
        assert row["r2_pop_mean"] == "nan"

    def test_ill_conditioned_data_are_not_failures(self, tmp_path):
        # Two of the zarx replications at n = 41 have full-rank data with
        # cond(X) near 1e10, which failed while sample R^2 came from the
        # correlation matrix. The n = 60 zarx failures come from the model's
        # implied correlation matrix and remain.
        out = tmp_path / "r.csv"
        assert run("bench", "--reps", 3, "--p-list", 40, "--avg-degree", 39,
                   "--shapes", "er", "--methods", "dao,zarx,tetrad",
                   "--sample-sizes", "41,60", "--seed", 9, "--out", out) == 0
        lines = out.read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        failures = {(r["method"], r["n"]): r["failures"] for r in rows}
        assert failures == {
            ("dao", "41"): "0", ("dao", "60"): "0",
            ("zarx", "41"): "0", ("zarx", "60"): "3",
            ("tetrad", "41"): "0", ("tetrad", "60"): "0",
        }

    def test_one_data_factorization_per_replication(self, tmp_path, monkeypatch):
        factored = []
        tall_qr = []
        data_factor, qr = cli._data_factor, np.linalg.qr

        def counting_data_factor(d):
            factored.append(d)
            return data_factor(d)

        def counting_qr(a, *args, **kwargs):
            if a.shape[0] > a.shape[1]:
                tall_qr.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(cli, "_data_factor", counting_data_factor)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        out = tmp_path / "r.csv"
        assert run("bench", "--reps", 3, "--p-list", "5,8", "--avg-degree", 2,
                   "--shapes", "er,sfo", "--methods", "dao,zarx,tetrad-std",
                   "--sample-sizes", "60,200", "--seed", 4, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert all(line.split(",")[5] == "0" for line in lines[1:])  # no failures
        reps = 3 * 2 * 2 * 3 * 2
        assert len(factored) == reps
        assert len(tall_qr) == reps
        # The factor is not kept on the dataset.
        for d in factored:
            assert set(vars(d)) == {"values", "names", "meta"}
            assert not any(isinstance(v, np.ndarray) for v in d.meta.values())

    @pytest.mark.parametrize("bad", [
        ("--p-list", 5, "--avg-degree", 9),
        ("--p-list", "5,30", "--sample-sizes", 20),
        ("--reps", 0),
        ("--threshold", -0.5),
        ("--threshold", "nan"),
    ])
    def test_invalid_grid_is_usage_error(self, tmp_path, capsys, bad):
        out = tmp_path / "x.csv"
        assert run("bench", "--reps", 1, "--p-list", 5, "--avg-degree", 2,
                   "--sample-sizes", 100, "--seed", 1, "--out", out, *bad) == 2
        assert "error[usage]" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_unknown_method(self, tmp_path):
        assert run("bench", "--reps", 1, "--p-list", 5, "--avg-degree", 2,
                   "--methods", "pc", "--seed", 1, "--out", tmp_path / "x.csv") == 2


class TestManifestReplay:
    def test_replay_verifies(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        manifest = tmp_path / "m.json"
        assert run("gen-dag", "--p", 6, "--avg-degree", 2, "--seed", 4,
                   "--out", graph, "--manifest", manifest) == 0
        rec = read_json(manifest)
        assert rec["command"] == "gen-dag" and rec["seed"] == 4
        assert "--manifest" not in rec["argv"]
        assert run("replay", "--manifest", manifest) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_replay_detects_tampered_record(self, tmp_path):
        graph = tmp_path / "g.json"
        manifest = tmp_path / "m.json"
        assert run("gen-dag", "--p", 6, "--avg-degree", 2, "--seed", 4,
                   "--out", graph, "--manifest", manifest) == 0
        rec = read_json(manifest)
        rec["outputs"][str(graph)] = "0" * 64
        manifest.write_text(json.dumps(rec))
        assert run("replay", "--manifest", manifest) == 4


    @pytest.mark.parametrize("flag", ["--manif", "--manifes"])
    def test_abbreviated_option_is_usage_error(self, tmp_path, flag):
        graph = tmp_path / "g.json"
        manifest = tmp_path / "m.json"
        assert run("gen-dag", "--p", 6, "--avg-degree", 2, "--seed", 4,
                   "--out", graph, flag, manifest) == 2
        assert not graph.exists() and not manifest.exists()

    def test_no_option_abbreviations(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("bench", "--reps", 1, "--p", 5, "--avg-degree", 2,
                   "--sample-sizes", 100, "--seed", 1, "--out", out) == 2
        assert run("gen-dag", "--p", 6, "--avg-deg", 2, "--seed", 4,
                   "--out", tmp_path / "g.json") == 2
        assert not out.exists()

    @pytest.mark.parametrize("abbreviated", [False, True])
    def test_tampered_manifest_fails_replay_twice(self, tmp_path, abbreviated):
        # A manifest recorded through an abbreviated --manifest kept the flag
        # in its argv, so replaying it used to rewrite the manifest with the
        # fresh hashes: the first replay failed and the second passed.
        graph = tmp_path / "g.json"
        manifest = tmp_path / "m.json"
        assert run("gen-dag", "--p", 6, "--avg-degree", 2, "--seed", 4,
                   "--out", graph, "--manifest", manifest) == 0
        rec = read_json(manifest)
        rec["outputs"][str(graph)] = "0" * 64
        if abbreviated:
            rec["argv"] += ["--manif", str(manifest)]
        manifest.write_text(json.dumps(rec))
        tampered = manifest.read_bytes()
        for _ in range(2):
            assert run("replay", "--manifest", manifest) == 4
            assert manifest.read_bytes() == tampered


class TestEnvAndMisc:
    def test_out_dir_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DAGONION_OUT_DIR", str(tmp_path))
        assert run("gen-dag", "--p", 4, "--avg-degree", 1, "--seed", 1,
                   "--out", "sub/g.json") == 0
        assert (tmp_path / "sub" / "g.json").exists()

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command_usage(self):
        assert run("frobnicate") == 2
