import json

import numpy as np
import pytest

from dagonion import Dag, Pdag, SchemaError, dao_sample, er_dag, simulate, zarx_params
from dagonion.fileio import (
    atomic_write_text,
    graph_from_dict,
    graph_to_dict,
    meta_path,
    model_from_dict,
    model_to_dict,
    pdag_from_dict,
    pdag_to_dict,
    read_dataset,
    read_json,
    sha256_bytes,
    write_dataset,
    write_json,
)


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"


class TestGraphFormat:
    def test_round_trip_with_order(self, tmp_path):
        g = Dag(4, frozenset({(2, 1), (3, 4), (2, 4)}))
        path = tmp_path / "g.json"
        write_json(path, graph_to_dict(g, (2, 3, 1, 4), seed=7))
        raw = read_json(path)
        assert raw["edges"] == sorted(raw["edges"])
        back, order = graph_from_dict(raw)
        assert back == g
        assert order == (2, 3, 1, 4)
        assert raw["seed"] == 7

    def test_missing_keys(self):
        with pytest.raises(SchemaError):
            graph_from_dict({"p": 3})

    def test_bad_edge_entries(self):
        with pytest.raises(SchemaError):
            graph_from_dict({"p": 3, "edges": [[1, "2"]]})
        with pytest.raises(SchemaError):
            graph_from_dict({"p": 3, "edges": [[1, 2, 3]]})

    def test_cyclic_edges(self):
        with pytest.raises(SchemaError):
            graph_from_dict({"p": 2, "edges": [[1, 2], [2, 1]]})

    def test_bad_order(self):
        with pytest.raises(SchemaError):
            graph_from_dict({"p": 2, "edges": [], "order": [1, 1]})
        with pytest.raises(SchemaError):
            graph_from_dict({"p": 2, "edges": [], "order": [1, "x"]})

    @pytest.mark.parametrize(
        "raw",
        [
            {"p": True, "edges": []},
            {"p": 3, "edges": [[True, 2], [2, 3]]},
            {"p": 3, "edges": [[1, 2], [2, 3]], "order": [True, 2, 3]},
        ],
    )
    def test_booleans_are_not_integers(self, raw):
        with pytest.raises(SchemaError):
            graph_from_dict(raw)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            read_json(path)


class TestModelFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = er_dag(6, 2, rng)
        R, params = dao_sample(g, rng)
        path = tmp_path / "m.json"
        write_json(path, model_to_dict(params, R, "dao", 3, (1, 2, 3, 4, 5, 6)))
        rec = model_from_dict(read_json(path))
        assert rec.method == "dao"
        assert rec.seed == 3
        assert rec.order == (1, 2, 3, 4, 5, 6)
        assert np.array_equal(rec.R, R)
        assert np.array_equal(rec.params.B, params.B)
        assert np.array_equal(rec.params.omega, params.omega)
        assert rec.params.g.edges == g.edges

    def test_full_precision_floats(self, tmp_path):
        g = Dag(2, frozenset({(1, 2)}))
        rng = np.random.default_rng(1)
        R, params = dao_sample(g, rng)
        path = tmp_path / "m.json"
        write_json(path, model_to_dict(params, R, "dao", 0, None))
        rec = model_from_dict(read_json(path))
        assert rec.R[0, 1] == R[0, 1]  # bit-exact round trip

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            model_from_dict({"p": 2, "B": [[0, 0], [0, 0]], "omega": [1, 1]})

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            model_from_dict(
                {"p": 2, "B": [[0, 0]], "omega": [1, 1], "R": [[1, 0], [0, 1]], "method": "dao"}
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"p": True, "B": [[0]], "omega": [1], "R": [[1]], "order": [1]},
            {"order": [True, 2]},
            {"seed": True},
        ],
    )
    def test_booleans_are_not_integers(self, bad):
        raw = {"p": 2, "B": [[0, 0], [0, 0]], "omega": [1, 1],
               "R": [[1, 0], [0, 1]], "method": "dao", "seed": 1, "order": [1, 2]}
        model_from_dict(raw)
        with pytest.raises(SchemaError):
            model_from_dict({**raw, **bad})


    @pytest.mark.parametrize(
        "bad",
        [
            {"omega": [1.0, float("nan")]},
            {"omega": [float("inf"), 1.0]},
            {"B": [[0, 0], [float("inf"), 0]]},
            {"B": [[0, 0], [float("nan"), 0]]},
            {"R": [[1, float("nan")], [0, 1]]},
            {"R": [[1, 0], [0, float("-inf")]]},
        ],
    )
    def test_non_finite_entries(self, bad, tmp_path):
        raw = {"p": 2, "B": [[0, 0], [0.5, 0]], "omega": [1, 1],
               "R": [[1, 0], [0, 1]], "method": "zarx"}
        model_from_dict(raw)
        # json writes and reads NaN and Infinity.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**raw, **bad}))
        with pytest.raises(SchemaError):
            model_from_dict(read_json(path))


class TestPdagFormat:
    def test_round_trip(self):
        est = Pdag(4, frozenset({(2, 1)}), frozenset({(3, 4)}))
        back = pdag_from_dict(pdag_to_dict(est))
        assert back == est

    def test_invalid_overlap(self):
        with pytest.raises(SchemaError):
            pdag_from_dict({"p": 3, "directed": [[1, 2]], "undirected": [[1, 2]]})

    def test_booleans_are_not_integers(self):
        with pytest.raises(SchemaError):
            pdag_from_dict({"p": True, "directed": []})
        with pytest.raises(SchemaError):
            pdag_from_dict({"p": 3, "directed": [[1, 2]], "undirected": [[False, 3]]})


class TestDatasetFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        g = er_dag(4, 2, rng)
        d = simulate(zarx_params(g, rng), "gaussian", 50, rng)
        d.meta["seed"] = 11
        path = tmp_path / "data.csv"
        write_dataset(path, d)
        text = path.read_bytes().decode()
        assert "\r" not in text
        assert text.splitlines()[0] == "X1,X2,X3,X4"
        back = read_dataset(path)
        assert np.array_equal(back.values, d.values)
        assert back.names == d.names
        assert back.meta["seed"] == 11

    def test_sidecar_path(self):
        assert meta_path("out/data.csv").name == "data.meta.json"
        assert meta_path("data").name == "data.meta.json"

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_single_column(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("only\n1.5\n2.5\n")
        d = read_dataset(path)
        assert d.values.shape == (2, 1)
        assert d.names == ("only",)


def test_sha256_stable():
    assert sha256_bytes(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_json_bytes_deterministic(tmp_path):
    payload = {"b": 1.5, "a": [1, 2]}
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    write_json(p1, payload)
    write_json(p2, json.loads(p1.read_text()))
    assert p1.read_bytes() == p2.read_bytes()
