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
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .graph import Dag
from .sem import SemParameters
from .simdata import Dataset

__all__ = [
    "atomic_write_text",
    "write_json",
    "read_json",
    "sha256_bytes",
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


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temporary file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, dumps_json(obj))


def read_json(path: str | Path):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_pairs(raw, where: str) -> list[tuple[int, int]]:
    pairs = []
    _require(isinstance(raw, list), where, "expected a list of pairs")
    for item in raw:
        _require(
            isinstance(item, list) and len(item) == 2, where, f"bad pair {item!r}"
        )
        a, b = item
        _require(
            _is_int(a) and _is_int(b),
            where,
            f"pair entries must be integers, got {item!r}",
        )
        pairs.append((a, b))
    return pairs


def _order_from_dict(d: dict, p: int, where: str) -> tuple[int, ...] | None:
    """The optional ``"order"`` field: None, or a permutation of 1..p."""
    raw = d.get("order")
    if raw is None:
        return None
    _require(
        isinstance(raw, list)
        and all(_is_int(v) for v in raw)
        and sorted(raw) == list(range(1, p + 1)),
        where,
        '"order" must be a permutation of 1..p',
    )
    return tuple(raw)


def graph_to_dict(g: Dag, order: tuple[int, ...] | None = None, **extra) -> dict:
    d: dict = {"p": g.p, "edges": [list(e) for e in g.sorted_edges()]}
    if order is not None:
        d["order"] = list(order)
    d.update(extra)
    return d


def graph_from_dict(d: dict, where: str = "graph") -> tuple[Dag, tuple[int, ...] | None]:
    _require(isinstance(d, dict), where, "expected a JSON object")
    _require("p" in d and "edges" in d, where, 'missing "p" or "edges"')
    p = d["p"]
    _require(_is_int(p) and p >= 1, where, f'bad "p": {p!r}')
    edges = _int_pairs(d["edges"], where)
    order = _order_from_dict(d, p, where)
    try:
        g = Dag(p, frozenset(edges))
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
    d: dict = {
        "p": params.g.p,
        "order": list(order) if order is not None else list(range(1, params.g.p + 1)),
        "B": np.asarray(params.B, dtype=float).tolist(),
        "omega": np.asarray(params.omega, dtype=float).tolist(),
        "R": np.asarray(R, dtype=float).tolist(),
        "method": method,
        "seed": seed,
    }
    d.update(extra)
    return d


def model_from_dict(d: dict, where: str = "model") -> ModelRecord:
    _require(isinstance(d, dict), where, "expected a JSON object")
    for key in ("p", "B", "omega", "R", "method"):
        _require(key in d, where, f'missing "{key}"')
    p = d["p"]
    _require(_is_int(p) and p >= 1, where, f'bad "p": {p!r}')
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
    edges = frozenset(
        (j + 1, i + 1) for i, j in zip(*np.nonzero(B)) if i != j
    )
    try:
        g = Dag(p, edges)
        params = SemParameters(g, B, omega)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    order = _order_from_dict(d, p, where)
    seed = d.get("seed")
    _require(
        seed is None or _is_int(seed), where, f'bad "seed": {seed!r}'
    )
    method = d["method"]
    _require(isinstance(method, str), where, f'bad "method": {method!r}')
    return ModelRecord(params=params, R=R, method=method, seed=seed, order=order)


def pdag_to_dict(est, **extra) -> dict:
    d: dict = {
        "p": est.p,
        "directed": [list(e) for e in sorted(est.directed)],
        "undirected": [list(e) for e in sorted(est.undirected)],
    }
    d.update(extra)
    return d


def pdag_from_dict(d: dict, where: str = "pdag"):
    from .metrics import Pdag

    _require(isinstance(d, dict), where, "expected a JSON object")
    _require("p" in d, where, 'missing "p"')
    p = d["p"]
    _require(_is_int(p) and p >= 1, where, f'bad "p": {p!r}')
    directed = _int_pairs(d.get("directed", []), where)
    undirected = _int_pairs(d.get("undirected", []), where)
    try:
        return Pdag(p, frozenset(directed), frozenset(undirected))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def meta_path(csv_path: str | Path) -> Path:
    """Sidecar metadata path for a dataset CSV: <stem>.meta.json."""
    return Path(csv_path).with_suffix(".meta.json")


def write_dataset(path: str | Path, d: Dataset) -> None:
    """Write the CSV and its metadata sidecar."""
    lines = [",".join(d.names)]
    for row in d.values:
        lines.append(",".join(repr(float(x)) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
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
