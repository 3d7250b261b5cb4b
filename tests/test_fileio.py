import errno
import json
import multiprocessing as mp
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dagonion import (
    Dag,
    Dataset,
    Pdag,
    SchemaError,
    dao_sample,
    er_dag,
    sfi_rewire,
    shuffle_labels,
    simulate,
    zarx_params,
)
from dagonion import cli, fileio, workers
from dagonion.fileio import (
    atomic_write_text,
    dumps_json,
    graph_from_dict,
    graph_to_dict,
    meta_path,
    model_from_dict,
    model_to_dict,
    pdag_from_dict,
    pdag_to_dict,
    read_dataset,
    read_json,
    sha256_file,
    write_dataset,
    write_json,
)
from util import loop_int_pairs, loop_write_dataset, sha256_bytes, traced_peak


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

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_new_file_gets_the_umask_mode(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "out.txt", "x")
            open(tmp_path / "plain.txt", "w").close()
        finally:
            os.umask(old)
        for name in ("out.txt", "plain.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "new \udc80")  # a lone surrogate cannot be encoded
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


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

    def test_edges_written_in_sorted_order(self):
        rng = np.random.default_rng(3)
        for p, degree in ((1, 0), (12, 11), (40, 6), (200, 20)):
            g = er_dag(p, degree, rng)
            for h in (g, sfi_rewire(g, rng)):
                h, _ = shuffle_labels(h, rng)
                edges = graph_to_dict(h)["edges"].tolist()
                assert edges == [list(e) for e in sorted(h.edges)]
                assert all(type(x) is int for e in edges for x in e)

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


# JSON lists of edge pairs, and whether the pair rule accepts them.
_PAIR_LISTS = [
    ([], True),
    ([[1, 2], [3, 1]], True),
    ([[2**70, 1]], True),  # Dag rejects the label
    ([None], False),
    ([[1, 2], None], False),
    ([[1, 2], [1, True], None], False),
    ([[True, 2]], False),
    ([[1.0, 2]], False),
    ([[1, 2, 3]], False),
    ([[1]], False),
    (["ab"], False),
    ([[[1], 2]], False),
    ([[1, None]], False),
    ([[1, 2], [1.5, 2]], False),
    ([["1", 2]], False),
    ([[1, 2], {"1": 2}], False),
    ("x", False),
    (None, False),
    ([[1, 2], [2, 1]], True),  # a cycle, and one pair in both directions
    ([[2, 1], [1, 2], [1, 2]], True),  # a repeat
    ([[1, 1]], True),
    ([[0, 2]], True),
    ([[-(2**63), 2]], True),
]


def _dag_or_message(edges) -> object:
    try:
        return Dag(3, edges)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("raw,accepted", _PAIR_LISTS, ids=lambda x: repr(x)[:24])
def test_int_pairs_match_loop_oracle(raw, accepted):
    # Dag checks the pairs of a JSON list itself: it names the loop's first
    # bad item in the loop's words, or gives what the loop's tuples give.
    # The readers check only that the field is a list.
    try:
        want = loop_int_pairs(raw, "g.json")
    except SchemaError as exc:
        assert not accepted
        if not isinstance(raw, list):
            with pytest.raises(SchemaError, match=f"^{re.escape(str(exc))}$"):
                graph_from_dict({"p": 3, "edges": raw}, "g.json")
        else:
            assert _dag_or_message(raw) == str(exc).removeprefix("g.json: ")
    else:
        assert accepted
        got, want = _dag_or_message(raw), _dag_or_message(want)
        assert got == want
        if isinstance(want, Dag):
            assert got._ends.tobytes() == want._ends.tobytes()


def _loop_read(build, raw) -> object:
    """What a reader gave when it built ``build`` from ``loop_int_pairs``:
    the object, or the SchemaError message."""
    try:
        return build(loop_int_pairs(raw, "g.json"))
    except SchemaError as exc:
        return str(exc)
    except ValueError as exc:
        return f"g.json: {exc}"


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("raw,accepted", _PAIR_LISTS, ids=lambda x: repr(x)[:24])
def test_pair_readers_match_loop_oracle(raw, accepted, p):
    # Each reader gives the graph built from the loop's tuples, kept arrays
    # alike, or the same message.
    readers = [
        (lambda: graph_from_dict({"p": p, "edges": raw}, "g.json")[0],
         lambda e: Dag(p, e), ("_ends",)),
        (lambda: pdag_from_dict({"p": p, "directed": raw}, "g.json"),
         lambda e: Pdag(p, e), ("_directed_codes", "_undirected_codes")),
        (lambda: pdag_from_dict({"p": p, "undirected": raw}, "g.json"),
         lambda e: Pdag(p, (), e), ("_directed_codes", "_undirected_codes")),
    ]
    for read, build, kept in readers:
        want = _loop_read(build, raw)
        try:
            got = read()
        except SchemaError as exc:
            got = str(exc)
        assert got == want
        if not isinstance(want, str):
            assert all(getattr(got, k).tobytes() == getattr(want, k).tobytes() for k in kept)


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

    @pytest.mark.parametrize("values, names, message", [
        (np.ones((2, 1)), ("",), "give an empty header line"),
        (np.empty((3, 0)), (), "^dataset must contain at least one column$"),
    ], ids=["one-empty-name", "no-columns"])
    def test_empty_header_refused_before_any_file(self, tmp_path, values, names, message):
        # read_dataset reads an empty header line as an empty file; Dataset
        # itself refuses zero columns.
        with pytest.raises(ValueError, match=message):
            write_dataset(tmp_path / "d.csv", Dataset(values, names))
        assert list(tmp_path.iterdir()) == []

    def test_empty_name_among_several_round_trips(self, tmp_path):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), ("", "b"))
        write_dataset(tmp_path / "d.csv", d)
        back = read_dataset(tmp_path / "d.csv")
        assert back.names == d.names and np.array_equal(back.values, d.values)

    def test_names_with_inner_spaces_and_quotes_round_trip(self, tmp_path):
        d = Dataset(np.array([[1.0, 2.0, 3.0]]), ("a b", '"q"', "x;y"))
        write_dataset(tmp_path / "d.csv", d)
        assert read_dataset(tmp_path / "d.csv").names == d.names

    @pytest.mark.parametrize(
        "names,message",
        [
            (("a,b", "c"), "column 1 name 'a,b' has a comma"),
            (("a", "b\nc"), r"column 2 name 'b\\nc' has a comma, a line break"),
            (("a\rb", "c"), r"column 1 name 'a\\rb' has a comma, a line break"),
            ((" a", "b"), "column 1 name ' a' has .* outer whitespace"),
            (("a", "b "), "column 2 name 'b ' has .* outer whitespace"),
            (("a", "\tb"), r"column 2 name '\\tb' has .* outer whitespace"),
            (("a", 2), "column 2 name 2 is not a string"),
        ],
        ids=["comma", "newline", "carriage-return", "leading-space", "trailing-space",
             "leading-tab", "not-a-string"],
    )
    def test_unreadable_names_refused_before_any_file(self, tmp_path, names, message):
        # read_dataset splits the header on commas and strips it, so these
        # names would not come back.
        d = Dataset(np.array([[1.0, 2.0]]), names)
        with pytest.raises(ValueError, match=message):
            write_dataset(tmp_path / "d.csv", d)
        assert list(tmp_path.iterdir()) == []


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


def test_sha256_file_over_several_blocks(tmp_path):
    data = np.random.default_rng(0).bytes(2 * (1 << 20) + 123)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    assert sha256_file(path) == sha256_bytes(data)


# Floats whose shortest round-trip text is easy to get wrong.
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 1e16, 0.1)


def _dataset(values: np.ndarray) -> Dataset:
    p = values.shape[1]
    return Dataset(values, tuple(f"X{j}" for j in range(1, p + 1)), {"seed": 1})


def _assert_oracle_bytes(tmp_path, d: Dataset) -> None:
    write_dataset(tmp_path / "fast.csv", d)
    loop_write_dataset(tmp_path / "loop.csv", d)
    assert mp.active_children() == []
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    assert (tmp_path / "fast.meta.json").read_bytes() == (tmp_path / "loop.meta.json").read_bytes()


class TestDatasetWriter:
    # The cutoff is lowered so that small datasets take the chunked,
    # parallel path too; the fixtures are the same for every example.
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
            elements=st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(_EDGE_FLOATS),
            ),
        )
    )
    def test_bytes_match_loop_oracle(self, tmp_path, monkeypatch, values):
        monkeypatch.setattr(fileio, "_PARALLEL_MIN_VALUES", 20)
        monkeypatch.setattr(fileio, "_CHUNK_VALUES", 7)
        monkeypatch.setattr(workers, "worker_count", lambda n_tasks: min(2, n_tasks))
        _assert_oracle_bytes(tmp_path, _dataset(values))

    def test_edge_values_at_one_row_and_one_column(self, tmp_path):
        for shape in ((1, len(_EDGE_FLOATS)), (len(_EDGE_FLOATS), 1)):
            _assert_oracle_bytes(tmp_path, _dataset(np.reshape(_EDGE_FLOATS, shape)))

    @pytest.mark.parametrize("count", [1, 2])
    def test_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch, count):
        # Above the real cutoff: 700 x 200 values in chunks of 163 rows.
        monkeypatch.setattr(workers, "worker_count", lambda n_tasks: count)
        rng = np.random.default_rng(4)
        values = rng.standard_normal((700, 200)) * np.exp(rng.uniform(-30, 30, 200))
        assert values.size >= fileio._PARALLEL_MIN_VALUES
        _assert_oracle_bytes(tmp_path, _dataset(values))

    def test_failed_write_leaves_no_file_and_no_process(self, tmp_path, monkeypatch):
        class DiskFullOnThirdWrite:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(text)

            def writelines(self, parts):
                for part in parts:
                    self.write(part)

        monkeypatch.setattr(fileio, "open", lambda *a, **k: DiskFullOnThirdWrite(open(*a, **k)),
                            raising=False)
        monkeypatch.setattr(fileio, "_PARALLEL_MIN_VALUES", 1)
        monkeypatch.setattr(fileio, "_CHUNK_VALUES", 10)
        monkeypatch.setattr(workers, "worker_count", lambda n_tasks: 2)
        d = _dataset(np.random.default_rng(5).standard_normal((100, 10)))
        with pytest.raises(OSError, match="No space left"):
            write_dataset(tmp_path / "d.csv", d)
        assert mp.active_children() == []
        assert list(tmp_path.iterdir()) == []


_SPECIAL_FLOATS = _EDGE_FLOATS + (float("nan"), float("inf"), float("-inf"))


def _arrays():
    """Empty to 12 x 5 float, int and bool arrays of one or two dimensions."""
    shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12).filter(
        lambda shape: shape[1:] <= (5,)
    )
    floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
    return st.one_of(
        hnp.arrays(st.sampled_from([np.float64, np.float32]), shapes, elements=floats),
        hnp.arrays(st.sampled_from([np.int64, np.int32, np.uint64, np.bool_]), shapes),
    )


def _json_trees():
    numbers = st.one_of(st.integers(), st.floats(), st.sampled_from(_EDGE_FLOATS))
    texts = st.one_of(st.text(max_size=8), st.sampled_from([", ", "], [", "[[1, 2], [3]]", "\n"]))
    scalars = st.one_of(st.none(), st.booleans(), numbers, texts, _arrays())
    return st.recursive(
        scalars,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(numbers, max_size=5),
            st.lists(st.lists(numbers, max_size=4), max_size=4),
            st.lists(st.lists(st.one_of(numbers, st.booleans()), min_size=1, max_size=3),
                     min_size=1, max_size=3),
            st.dictionaries(texts, kids, max_size=4),
            st.dictionaries(st.integers(), kids, min_size=1, max_size=3),
            st.dictionaries(st.one_of(texts, st.integers()), kids, max_size=3),
        ),
        max_leaves=20,
    )


def _assert_json_dumps_bytes(path, obj) -> None:
    text = json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"
    assert dumps_json(obj) == text
    write_json(path, obj)
    assert path.read_bytes() == text.encode()


class TestJsonWriter:
    # Arrays are written in row blocks of about _BLOCK_VALUES values; it is
    # lowered so that small arrays span one or several blocks, with row
    # counts on both sides of a block's.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_json_trees())
    @example({"a": [{1: [1.5, {"b": None}]}], "c": {"d": {2: {"e": [[1, 2]]}}}})
    @example({"B": np.reshape(_SPECIAL_FLOATS, (-1, 1)), 1: [np.arange(6).reshape(2, 3)]})
    def test_matches_json_dumps(self, tmp_path, monkeypatch, obj):
        monkeypatch.setattr(fileio, "_BLOCK_VALUES", 5)
        _assert_json_dumps_bytes(tmp_path / "x.json", obj)

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (1 << 15,), ((1 << 15) + 1,),
                                       (9, 1 << 12), (3, (1 << 15) + 1)], ids=str)
    def test_arrays_across_real_blocks(self, tmp_path, shape):
        rng = np.random.default_rng(len(shape))
        values = rng.standard_normal(shape) * np.exp(rng.uniform(-300, 300, shape))
        values.flat[:len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS[:values.size]
        ints = rng.integers(-(1 << 63), (1 << 63) - 1, shape, endpoint=True)
        _assert_json_dumps_bytes(tmp_path / "x.json", {"R": values, "i": [ints]})

    def test_model_file_memory_budget(self, tmp_path):
        # The matrices are laid out block by block: writing a model file
        # builds no nested list of them and no whole-file text.
        rng = np.random.default_rng(7)
        R, params = dao_sample(er_dag(600, 10, rng), rng)
        peak = traced_peak(
            lambda: write_json(tmp_path / "m.json", model_to_dict(params, R, "dao", 7, None))
        )
        assert peak < 2 * (params.B.nbytes + R.nbytes)

    def test_pipeline_files_match_json_dumps(self, tmp_path):
        rng = np.random.default_rng(6)
        g, order = shuffle_labels(sfi_rewire(er_dag(30, 8, rng), rng), rng)
        R, params = dao_sample(g, rng)
        d = simulate(params, "exponential", 50, rng)
        est = Pdag(4, frozenset({(2, 1)}), frozenset({(3, 4)}))
        objs = [
            graph_to_dict(g, order, seed=6, shuffled=True, applied=["er", "sfi"]),
            model_to_dict(params, R, "dao", 6, order, graph_sha256="ab" * 32),
            pdag_to_dict(est),
            pdag_to_dict(Pdag(3, frozenset(), frozenset())),
            {**d.meta, "names": list(d.names), "order": list(order)},
        ]
        graph_path = tmp_path / "g.json"
        write_json(graph_path, objs[0])
        manifest = tmp_path / "m.json"
        assert cli.main(["gen-model", "--graph", str(graph_path), "--method", "zarx",
                         "--seed", "1", "--out", str(tmp_path / "model.json"),
                         "--manifest", str(manifest)]) == 0
        objs += [read_json(manifest), read_json(tmp_path / "model.json")]
        for obj in objs:
            assert dumps_json(obj) == json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"
