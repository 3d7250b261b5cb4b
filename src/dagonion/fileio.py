"""File formats and atomic writes.

All JSON layouts used by the command-line tools live here:

- graph:  {"p": int, "edges": [[parent, child], ...], "order": [...]}
  with 1-indexed vertices and edges sorted lexicographically;
- model:  {"p", "order", "B" (row-major), "omega", "R" (row-major),
  "method", "seed"};
- pdag:   {"p", "directed": [[a, b], ...], "undirected": [[a, b], ...]};
- dataset: CSV with a header row, shortest round-trip decimal floats and LF
  line endings, plus a ``<stem>.meta.json`` sidecar.

Writers go through a write-temp-then-rename step so a crash never leaves a
half-written file, and serialization is deterministic byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .graph import Dag, Pdag, _is_integer
from .sem import SemParameters
from .simdata import Dataset
from .workers import ordered_map

__all__ = [
    "atomic_write_text",
    "write_json",
    "read_json",
    "sha256_file",
    "graph_to_dict",
    "graph_from_dict",
    "model_to_dict",
    "model_from_dict",
    "ModelRecord",
    "pdag_to_dict",
    "pdag_from_dict",
    "write_dataset",
    "read_dataset",
    "meta_path",
]


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string parts written in
    turn, to ``path`` via a new temporary file and rename; ``path`` gets the
    mode of a new file from ``open(path, "w")``: 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_NUMBER = (int, float)  # exact types: bool is a subclass of int


def _is_number_list(v) -> bool:
    return type(v) is list and len(v) > 0 and all(type(x) in _NUMBER for x in v)


def _json_value(v, indent: str) -> str:
    """``v`` as ``json.dumps(v, indent=2)`` lays it out at nesting ``indent``.

    Lists of numbers and lists of lists of numbers, the bulk of graph and
    model files, go through the C encoder's compact form, re-indented by
    replacing its separators: number tokens contain neither ``, `` nor
    ``], [``. Dicts with only str keys and other lists are walked. Every
    other value goes through ``json.dumps(indent=2)``, among them dicts with
    an int key, which ``json.dumps`` quotes only when it encodes the dict.
    """
    inner = indent + "  "
    if type(v) is dict and v and all(type(k) is str for k in v):
        items = (f"{inner}{json.dumps(k)}: {_json_value(x, inner)}" for k, x in v.items())
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if _is_number_list(v):
        body = json.dumps(v)[1:-1].replace(", ", ",\n" + inner)
        return "[\n" + inner + body + "\n" + indent + "]"
    if type(v) is list and v:
        if all(_is_number_list(x) for x in v):
            row = inner + "  "
            body = (
                json.dumps(v)[2:-2]
                .replace("], [", f"\n{inner}],\n{inner}[\n{row}")
                .replace(", ", ",\n" + row)
            )
            return f"[\n{inner}[\n{row}{body}\n{inner}]\n{indent}]"
        return "[\n" + ",\n".join(inner + _json_value(x, inner) for x in v) + "\n" + indent + "]"
    return json.dumps(v, indent=2).replace("\n", "\n" + indent)


def dumps_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` plus a final newline, byte for byte."""
    return _json_value(obj, "") + "\n"


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, dumps_json(obj))


def read_json(path: str | Path):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def _order_from_dict(d: dict, p: int, where: str) -> tuple[int, ...] | None:
    """The optional ``"order"`` field: None, or a permutation of 1..p."""
    raw = d.get("order")
    if raw is None:
        return None
    _require(
        isinstance(raw, list)
        and all(_is_integer(v) for v in raw)
        and sorted(raw) == list(range(1, p + 1)),
        where,
        '"order" must be a permutation of 1..p',
    )
    return tuple(raw)


def graph_to_dict(g: Dag, order: tuple[int, ...] | None = None, **extra) -> dict:
    d: dict = {"p": g.p, "edges": g._ends.tolist()}
    if order is not None:
        d["order"] = list(order)
    d.update(extra)
    return d


def graph_from_dict(d: dict, where: str = "graph") -> tuple[Dag, tuple[int, ...] | None]:
    _require(isinstance(d, dict), where, "expected a JSON object")
    _require("p" in d and "edges" in d, where, 'missing "p" or "edges"')
    p = d["p"]
    _require(_is_integer(p) and p >= 1, where, f'bad "p": {p!r}')
    _require(isinstance(d["edges"], list), where, "expected a list of pairs")
    order = _order_from_dict(d, p, where)
    try:
        g = Dag(p, d["edges"])  # checks each pair
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    return g, order


@dataclass(frozen=True)
class ModelRecord:
    """A parsed model file: parameters, correlation matrix, provenance."""

    params: SemParameters
    R: np.ndarray
    method: str
    seed: int | None
    order: tuple[int, ...] | None


def model_to_dict(
    params: SemParameters,
    R: np.ndarray,
    method: str,
    seed: int | None,
    order: tuple[int, ...] | None,
    **extra,
) -> dict:
    return {
        "p": params.g.p,
        "order": list(order) if order is not None else list(range(1, params.g.p + 1)),
        "B": np.asarray(params.B, dtype=float).tolist(),
        "omega": np.asarray(params.omega, dtype=float).tolist(),
        "R": np.asarray(R, dtype=float).tolist(),
        "method": method,
        "seed": seed,
        **extra,
    }


def model_from_dict(d: dict, where: str = "model") -> ModelRecord:
    _require(isinstance(d, dict), where, "expected a JSON object")
    for key in ("p", "B", "omega", "R", "method"):
        _require(key in d, where, f'missing "{key}"')
    p = d["p"]
    _require(_is_integer(p) and p >= 1, where, f'bad "p": {p!r}')
    try:
        B = np.asarray(d["B"], dtype=float)
        omega = np.asarray(d["omega"], dtype=float)
        R = np.asarray(d["R"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: non-numeric matrix entries ({exc})") from exc
    _require(B.shape == (p, p), where, f'"B" must be {p}x{p}')
    _require(omega.shape == (p,), where, f'"omega" must have length {p}')
    _require(R.shape == (p, p), where, f'"R" must be {p}x{p}')
    # json reads NaN and Infinity; B and omega are checked by SemParameters.
    _require(np.all(np.isfinite(R)), where, '"R" entries must be finite')
    i, j = np.nonzero(B)
    try:
        g = Dag(p, np.column_stack((j, i))[i != j] + 1)
        params = SemParameters(g, B, omega)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    order = _order_from_dict(d, p, where)
    seed = d.get("seed")
    _require(
        seed is None or _is_integer(seed), where, f'bad "seed": {seed!r}'
    )
    method = d["method"]
    _require(isinstance(method, str), where, f'bad "method": {method!r}')
    return ModelRecord(params=params, R=R, method=method, seed=seed, order=order)


def pdag_to_dict(est, **extra) -> dict:
    return {
        "p": est.p,
        "directed": [list(e) for e in sorted(est.directed)],
        "undirected": [list(e) for e in sorted(est.undirected)],
        **extra,
    }


def pdag_from_dict(d: dict, where: str = "pdag") -> Pdag:
    _require(isinstance(d, dict), where, "expected a JSON object")
    _require("p" in d, where, 'missing "p"')
    p = d["p"]
    _require(_is_integer(p) and p >= 1, where, f'bad "p": {p!r}')
    directed, undirected = d.get("directed", []), d.get("undirected", [])
    _require(isinstance(directed, list) and isinstance(undirected, list), where,
             "expected a list of pairs")
    try:  # Pdag checks each pair
        return Pdag(p, directed, undirected)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def meta_path(csv_path: str | Path) -> Path:
    """Sidecar metadata path for a dataset CSV: <stem>.meta.json."""
    return Path(csv_path).with_suffix(".meta.json")


# Datasets of at least _PARALLEL_MIN_VALUES values are formatted in chunks
# of about _CHUNK_VALUES values, by worker processes where there is more
# than one CPU; smaller ones are one chunk, as forking would cost more than
# it saves.
_PARALLEL_MIN_VALUES = 1 << 17
_CHUNK_VALUES = 1 << 15


def _csv_rows(block: np.ndarray) -> str:
    """The CSV lines of ``block``'s rows: shortest round-trip floats."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _require_csv_names(names: tuple) -> None:
    """Raise ValueError for column names that ``read_dataset`` would not
    read back: it splits the header line on commas and strips it, and an
    empty header line reads as an empty file."""
    for j, name in enumerate(names, 1):
        if not isinstance(name, str):
            raise ValueError(f"column {j} name {name!r} is not a string")
        if "," in name or "\r" in name or "\n" in name or name != name.strip():
            raise ValueError(
                f"column {j} name {name!r} has a comma, a line break or outer whitespace"
            )
    if not ",".join(names):
        raise ValueError(f"column names {names!r} give an empty header line")


def write_dataset(path: str | Path, d: Dataset) -> None:
    """Write the CSV and its metadata sidecar. Each chunk of rows is written
    as it is formatted, so a large dataset's CSV text is never held whole.
    Raises ValueError, before any file is made, for column names that
    ``read_dataset`` would not read back."""
    _require_csv_names(d.names)
    values = d.values
    rows = d.n if values.size < _PARALLEL_MIN_VALUES else max(1, _CHUNK_VALUES // d.p)
    chunks = [values[i:i + rows] for i in range(0, d.n, rows)]
    with ordered_map(_csv_rows, chunks) as parts:
        atomic_write_text(path, chain([",".join(d.names) + "\n"], parts))
    meta = dict(d.meta)
    meta["names"] = list(d.names)
    write_json(meta_path(path), meta)


def read_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV (and its sidecar, when present)."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header:
            raise SchemaError(f"{path}: empty file")
        names = tuple(header.split(","))
        start = fh.tell()
        while (line := fh.readline()) and not line.strip():
            pass
        if not line:  # numpy would warn and return no rows
            raise SchemaError(f"{path}: no data rows")
        fh.seek(start)
        try:
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SchemaError(f"{path}: bad CSV ({exc})") from exc
    if values.size == 0 or values.shape[1] != len(names):
        raise SchemaError(f"{path}: row width does not match header")
    meta = {}
    side = meta_path(path)
    if side.exists():
        raw = read_json(side)
        if isinstance(raw, dict):
            meta = raw
            meta.pop("names", None)
    try:
        return Dataset(values, names, meta)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
