"""Command-line front end: generate, parameterize, simulate, learn, evaluate.

Subcommands
-----------
gen-dag    sample a random DAG (er, sfi, sfo, sf-both) and write a graph file
gen-model  parameterize a graph (dao, zarx, tetrad; optional standardization)
simulate   draw finite samples from a model into a CSV plus metadata sidecar
eval       score an estimated graph and/or data against a true graph
bench      run a replication grid and write a results table
replay     re-run a recorded command and verify its outputs byte for byte

Every command takes an integer --seed where randomness is involved, embeds
the seed and tool version in its outputs, and writes files atomically.
Relative --out paths are resolved against $DAGONION_OUT_DIR when that is
set. A --manifest records the working directory and that variable, and
replay re-runs the command with both and checks its outputs. Exit codes: 0
success, 2 usage, 3 numerical failure (including data that overflow in
simulate), 4 I/O or file format problems, among them a malformed manifest
given to replay.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, astuple
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import DEFAULT_THRESHOLD, _require_threshold, _sort_regress_from_factor
from .errors import NumericalError, SchemaError
from .fileio import (
    atomic_write_text,
    dumps_json,
    graph_from_dict,
    graph_to_dict,
    meta_path,
    model_from_dict,
    model_to_dict,
    pdag_from_dict,
    read_dataset,
    read_json,
    sha256_file,
    write_dataset,
    write_json,
)
from .graph import Dag, er_dag, sfi_rewire, sfo_rewire, shuffle_labels, source_first_order
from .metrics import (
    _data_factor,
    _sample_r2_from_factor,
    compare_graphs,
    population_r2,
    precision_recall,
    sample_r2,
    sortability_rank_corr,
    varsortability_scores,
)
from .onion import dao_sample
from .sem import cov_to_corr, implied_covariance, standardize, tetrad_params, zarx_params
from .simdata import ERROR_KINDS, simulate, standardize_data
from .workers import ordered_map

SHAPES = ("er", "sfi", "sfo", "sf-both")
METHODS = ("dao", "zarx", "tetrad")
BENCH_METHODS = ("dao", "zarx", "tetrad", "zarx-std", "tetrad-std")
_OUT_DIR_VAR = "DAGONION_OUT_DIR"


def _resolve_out(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get(_OUT_DIR_VAR)
        if base:
            p = Path(base) / p
    return p


def _set_out_dir(value: str | None) -> None:
    if value is None:
        os.environ.pop(_OUT_DIR_VAR, None)
    else:
        os.environ[_OUT_DIR_VAR] = value


def _rng(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _load_graph(path: str):
    return graph_from_dict(read_json(path), where=str(path))


def _apply_shape(g: Dag, shape: str, rng: np.random.Generator) -> tuple[Dag, list[str]]:
    applied = ["er"]
    if shape in ("sfi", "sf-both"):
        g = sfi_rewire(g, rng)
        applied.append("sfi")
    if shape in ("sfo", "sf-both"):
        g = sfo_rewire(g, rng)
        applied.append("sfo")
    return g, applied


def cmd_gen_dag(args) -> list[Path]:
    rng = _rng(args.seed)
    g = er_dag(args.p, args.avg_degree, rng)
    g, applied = _apply_shape(g, args.shape, rng)
    order = tuple(range(1, args.p + 1))
    if args.shuffle:
        g, order = shuffle_labels(g, rng)
    out = _resolve_out(args.out)
    write_json(
        out,
        graph_to_dict(
            g,
            order,
            seed=args.seed,
            shape=args.shape,
            avg_degree=args.avg_degree,
            shuffled=bool(args.shuffle),
            applied=applied,
            version=__version__,
        ),
    )
    return [out]


def make_model(g: Dag, method: str, rng: np.random.Generator):
    """Parameterize ``g`` by a ``BENCH_METHODS`` name; returns ``(R, params)``.

    ``R`` is the model's implied correlation matrix. A ``-std`` suffix
    rescales a zarx or tetrad model to unit implied variances.
    """
    if method == "dao":
        return dao_sample(g, rng)
    params = zarx_params(g, rng) if method.startswith("zarx") else tetrad_params(g, rng)
    if method.endswith("-std"):
        params = standardize(params)
    return cov_to_corr(implied_covariance(params)), params


def cmd_gen_model(args) -> list[Path]:
    g, order = _load_graph(args.graph)
    # dao models already have unit variances, so --standardize leaves them be.
    label = args.method
    if args.standardize and label != "dao":
        label += "-std"
    R, params = make_model(g, label, _rng(args.seed))
    out = _resolve_out(args.out)
    write_json(
        out,
        model_to_dict(
            params,
            R,
            label,
            args.seed,
            order,
            graph_sha256=sha256_file(args.graph),
            version=__version__,
        ),
    )
    return [out]


def cmd_simulate(args) -> list[Path]:
    rec = model_from_dict(read_json(args.model), where=str(args.model))
    rng = _rng(args.seed)
    d = simulate(rec.params, args.error, args.n, rng)
    if args.standardize_data:
        d = standardize_data(d)
    d.meta.update(
        seed=args.seed,
        method=rec.method,
        model_sha256=sha256_file(args.model),
        order=list(rec.order) if rec.order else list(range(1, rec.params.g.p + 1)),
        version=__version__,
    )
    out = _resolve_out(args.out)
    write_dataset(out, d)
    return [out, meta_path(out)]


def _causal_index(order: tuple[int, ...]) -> np.ndarray:
    """Per-vertex position (1-based) given the order's vertex sequence."""
    return np.argsort(order) + 1


def cmd_eval(args) -> list[Path]:
    truth, file_order = _load_graph(args.true_graph)
    if not args.est_graph and not args.data:
        raise ValueError("nothing to evaluate: pass --est-graph and/or --data")
    report: dict = {"version": __version__, "true_graph": str(args.true_graph)}
    if args.est_graph:
        est = pdag_from_dict(read_json(args.est_graph), where=str(args.est_graph))
        counts = compare_graphs(truth, est)
        pr = precision_recall(counts)
        for block in ("adjacency", "orientation"):
            report[block] = {
                **asdict(getattr(counts, block)),
                "precision": getattr(pr, f"{block}_precision"),
                "recall": getattr(pr, f"{block}_recall"),
            }
    report["r2_rank_corr"] = None
    report["var_rank_corr"] = None
    if args.data:
        data = read_dataset(args.data)
        if data.p != truth.p:
            raise ValueError(
                f"data has {data.p} columns but the true graph has {truth.p} vertices"
            )
        if args.order_from == "file":
            if file_order is None:
                raise SchemaError(
                    f'{args.true_graph}: no "order" field; use --order-from graph'
                )
            order = file_order
        else:
            order = source_first_order(truth)
        idx = _causal_index(order)
        for key, scores in (("r2", sample_r2), ("var", varsortability_scores)):
            rho = sortability_rank_corr(scores(data), idx, largest_first=True)
            report[f"{key}_rank_corr"] = rho
    if args.out:
        out = _resolve_out(args.out)
        write_json(out, report)
        return [out]
    sys.stdout.write(dumps_json(report))
    return []


# Per-replication statistics, in the order _bench_rep collects them; each
# learner's four follow PrecisionRecall's field order.
_BENCH_KEYS = (
    "r2_pop",
    "r2_sample",
    "var_sample",
    *(
        f"{learner}_{m}"
        for learner in ("varsr", "r2sr")
        for m in ("adj_precision", "adj_recall", "ori_precision", "ori_recall")
    ),
)
_BENCH_COLUMNS = (
    "p", "shape", "method", "n", "reps", "failures",
    *(f"{key}_{agg}" for key in _BENCH_KEYS for agg in ("mean", "sd")),
    "master_seed", "version",
)


def _bench_rep(task: tuple) -> list[float] | None:
    """One replication of one grid cell; ``task`` holds the cell parameters,
    the master seed, the cell index and the replication number. Returns the
    ``_BENCH_KEYS`` statistics, or None after a numerical failure."""
    p, shape, method, n, avg_degree, threshold, error_kind, seed, cell_idx, rep = task
    rng = _rng(seed, spawn_key=(cell_idx, rep))
    try:
        g, _ = _apply_shape(er_dag(p, avg_degree, rng), shape, rng)
        R, params = make_model(g, method, rng)
        idx = _causal_index(source_first_order(g))
        rep_vals = [sortability_rank_corr(population_r2(R), idx, largest_first=True)]
        data = simulate(params, error_kind, n, rng)
        factor = _data_factor(data)  # serves sample R^2 and both learners
        r2, var = _sample_r2_from_factor(factor, n), varsortability_scores(data)
        for scores in (r2, var):
            rep_vals.append(sortability_rank_corr(scores, idx, largest_first=True))
        for scores in (var, r2):
            est = _sort_regress_from_factor(data, factor, scores, threshold)
            pr = precision_recall(compare_graphs(g, est))
            rep_vals.extend(astuple(pr))
    except NumericalError:
        return None
    return rep_vals


def _bench_row(results: list[list[float] | None]) -> list:
    """A cell's ``failures`` count and the mean and SD of each statistic over
    its replications that did not fail, in replication order."""
    samples = [r for r in results if r is not None]
    row: list = [len(results) - len(samples)]
    for j in range(len(_BENCH_KEYS)):
        vals = [sample[j] for sample in samples]
        row.append(float(np.mean(vals)) if vals else float("nan"))
        row.append(float(np.std(vals, ddof=1)) if len(vals) > 1 else float("nan"))
    return row


def _run_reps(tasks: list[tuple]) -> list[list[float] | None]:
    """``_bench_rep`` over ``tasks``, results in task order. Each replication
    has its own random stream, so the results do not depend on which process
    runs it, or when."""
    import scipy.linalg  # loaded once here, not again in every forked worker

    # Largest n * p^2 first (stable), so that a grid does not end with one
    # worker on a large cell while the others wait.
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][3] * tasks[i][0] ** 2)
    results: list = [None] * len(tasks)
    # Chunks of 1, 2, 4 and 9 replications measured within noise of each
    # other on a 36-replication grid; on a 300-replication grid 1 was slowest.
    with ordered_map(_bench_rep, [tasks[i] for i in order], chunksize=2) as done:
        for i, result in zip(order, done):
            results[i] = result
    return results


def _parse_list(text: str, kind, what: str) -> list:
    try:
        items = [kind(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r}: {exc}") from None
    if not items:
        raise ValueError(f"empty {what} list")
    return items


def cmd_bench(args) -> list[Path]:
    p_list = _parse_list(args.p_list, int, "vertex-count")
    n_list = _parse_list(args.sample_sizes, int, "sample-size")
    shapes = _parse_list(args.shapes, str, "shape")
    methods = _parse_list(args.methods, str, "method")
    for s in shapes:
        if s not in SHAPES:
            raise ValueError(f"unknown shape {s!r}; choose from {SHAPES}")
    for m in methods:
        if m not in BENCH_METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {BENCH_METHODS}")
    if args.reps < 1:
        raise ValueError(f"need at least one replication, got --reps {args.reps}")
    _require_threshold(args.threshold)
    if min(p_list) < 1:
        raise ValueError(f"every vertex count must be at least 1, got {min(p_list)}")
    if not 0 <= args.avg_degree <= min(p_list) - 1:
        raise ValueError(
            f"average degree {args.avg_degree} must lie in [0, p-1] for every p in {p_list}"
        )
    if min(n_list) <= max(p_list):
        raise ValueError(
            f"every sample size must exceed every vertex count, got n={min(n_list)} "
            f"with p={max(p_list)}"
        )
    cells = list(product(p_list, shapes, methods, n_list))  # n varies fastest
    # cell_idx keys each cell's random streams, rep each replication's.
    tasks = [
        (p, shape, method, n, args.avg_degree, args.threshold, args.error, args.seed,
         cell_idx, rep)
        for cell_idx, (p, shape, method, n) in enumerate(cells)
        for rep in range(args.reps)
    ]
    results = _run_reps(tasks)
    lines = [",".join(_BENCH_COLUMNS)]
    for cell_idx, (p, shape, method, n) in enumerate(cells):
        row = _bench_row(results[cell_idx * args.reps:(cell_idx + 1) * args.reps])
        row = [p, shape, method, n, args.reps, *row, args.seed, __version__]
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    out = _resolve_out(args.out)
    atomic_write_text(out, "\n".join(lines) + "\n")
    failed = results.count(None)
    if failed:
        sys.stderr.write(f"bench: {failed} of {len(tasks)} replications failed numerically\n")
    return [out]


def cmd_replay(args) -> list[Path]:
    manifest = read_json(args.manifest)
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    # A replay of replay would recurse.
    if not (isinstance(argv, list) and argv and all(isinstance(t, str) for t in argv)
            and argv[0] != "replay"):
        raise SchemaError(f'{args.manifest}: missing or bad "argv": {argv!r}')
    recorded = manifest.get("outputs", {})  # JSON object keys are always strings
    if not (isinstance(recorded, dict) and all(isinstance(v, str) for v in recorded.values())):
        raise SchemaError(f'{args.manifest}: bad "outputs": {recorded!r}')
    # Relative paths in argv and outputs mean what they meant where the
    # command ran and with its $DAGONION_OUT_DIR; a manifest without "cwd"
    # or "out_dir" replays in the current directory or environment.
    here, caller_out_dir = os.getcwd(), os.environ.get(_OUT_DIR_VAR)
    cwd = manifest.get("cwd", here)
    if not isinstance(cwd, str):
        raise SchemaError(f'{args.manifest}: bad "cwd": {cwd!r}')
    out_dir = manifest.get("out_dir", caller_out_dir)
    if not (out_dir is None or isinstance(out_dir, str)):
        raise SchemaError(f'{args.manifest}: bad "out_dir": {out_dir!r}')
    os.chdir(cwd)
    try:
        _set_out_dir(out_dir)
        rc = main(argv)
        if rc != 0:
            raise SchemaError(f"replayed command failed with exit code {rc}")
        for path, digest in recorded.items():
            actual = sha256_file(path)
            if actual != digest:
                raise SchemaError(
                    f"replay mismatch for {path}: recorded {digest[:12]}, got {actual[:12]}"
                )
    finally:
        os.chdir(here)
        _set_out_dir(caller_out_dir)
    sys.stdout.write(f"replay ok: {len(recorded)} output(s) verified\n")
    return []


def build_parser() -> argparse.ArgumentParser:
    # Exact option names only: an abbreviated --manifest escapes _strip_manifest.
    new_parser = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = new_parser(
        prog="dagonion",
        description="Random DAGs, uniform Markov correlation matrices, SEM data, and graph metrics.",
    )
    parser.add_argument("--version", action="version", version=f"dagonion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new_parser)

    common = new_parser(add_help=False)
    common.add_argument(
        "--manifest",
        metavar="PATH",
        help="record the command and output hashes to this JSON file",
    )

    gd = sub.add_parser("gen-dag", parents=[common], help="sample a random DAG")
    gd.add_argument("--p", type=int, required=True, help="vertex count")
    gd.add_argument("--avg-degree", type=float, required=True, help="average total degree")
    gd.add_argument("--shape", choices=SHAPES, default="er")
    gd.add_argument("--shuffle", action="store_true", help="relabel vertices uniformly at random")
    gd.add_argument("--seed", type=int, required=True)
    gd.add_argument("--out", required=True, help="graph JSON path")
    gd.set_defaults(func=cmd_gen_dag)

    gm = sub.add_parser("gen-model", parents=[common], help="parameterize a graph")
    gm.add_argument("--graph", required=True, help="graph JSON path")
    gm.add_argument("--method", choices=METHODS, required=True)
    gm.add_argument(
        "--standardize",
        action="store_true",
        help="rescale zarx/tetrad to unit implied variances (dao already is)",
    )
    gm.add_argument("--seed", type=int, required=True)
    gm.add_argument("--out", required=True, help="model JSON path")
    gm.set_defaults(func=cmd_gen_model)

    sim = sub.add_parser("simulate", parents=[common], help="draw samples from a model")
    sim.add_argument("--model", required=True, help="model JSON path")
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument("--error", choices=ERROR_KINDS, default="gaussian")
    sim.add_argument("--standardize-data", action="store_true")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="dataset CSV path")
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("eval", parents=[common], help="score an estimate against the truth")
    ev.add_argument("--true-graph", required=True)
    ev.add_argument("--est-graph", help="estimated graph JSON (directed + undirected)")
    ev.add_argument("--data", help="dataset CSV for sortability diagnostics")
    ev.add_argument(
        "--order-from",
        choices=("graph", "file"),
        default="graph",
        help='causal order: recompute from the graph, or read the file\'s "order"',
    )
    ev.add_argument("--out", help="report JSON path (default: stdout)")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", parents=[common], help="run a replication grid")
    bench.add_argument("--reps", type=int, required=True)
    bench.add_argument("--p-list", required=True, help="comma-separated vertex counts")
    bench.add_argument("--avg-degree", type=float, required=True)
    bench.add_argument("--shapes", default="er,sfi,sfo")
    bench.add_argument("--methods", default="dao,zarx,tetrad")
    bench.add_argument("--sample-sizes", default="1000")
    bench.add_argument("--error", choices=ERROR_KINDS, default="gaussian")
    bench.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--out", required=True, help="results CSV path")
    bench.set_defaults(func=cmd_bench)

    rp = sub.add_parser("replay", help="re-run a recorded command and verify outputs")
    rp.add_argument("--manifest", required=True)
    rp.set_defaults(func=cmd_replay)

    return parser


def _strip_manifest(argv: list[str]) -> list[str]:
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--manifest":
            next(tokens, None)  # and its value
        elif not tok.startswith("--manifest="):
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        outputs = args.func(args)
    except NumericalError as exc:
        return _fail("numerical", exc, 3)
    except (SchemaError, OSError) as exc:
        return _fail("io", exc, 4)
    except ValueError as exc:
        return _fail("usage", exc, 2)
    manifest_path = getattr(args, "manifest", None)
    if manifest_path and args.command != "replay":
        record = {
            "version": __version__,
            "command": args.command,
            "seed": getattr(args, "seed", None),
            "argv": _strip_manifest(list(argv)),
            "cwd": os.getcwd(),
            "out_dir": os.environ.get(_OUT_DIR_VAR),
            "outputs": {str(p): sha256_file(p) for p in outputs},
        }
        write_json(_resolve_out(manifest_path), record)
    return 0


def _fail(kind: str, exc: BaseException, code: int) -> int:
    msg = str(exc).replace("\n", " ")
    sys.stderr.write(f"error[{kind}]: {msg}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
