"""The three benchmark workloads: inputs, timed blocks and output checks.

A workload runs in *blocks*. A block is one program invocation that yields
``units`` units of work (replications, datasets or pipelines). Only the
program's own calls are inside the timed window (``Clock.timed``); building
the seeded estimate, reading outputs back and checking them are outside it.

Every check here is independent of the code under test where that is
possible: ``grid-paper`` compares with a table recorded at the commit that
defined the benchmark, and the graph-comparison counts follow from how the
benchmark perturbed the true graph, not from ``compare_graphs``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dagonion
from dagonion import cli

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "grid-paper.json"

# Absolute tolerance for float columns of the grid-paper results table. The
# columns are means and SDs of rank correlations and precision/recall over
# two replications; reordering float arithmetic moves them by ~1e-15, while
# any changed edge decision moves a precision or recall by more than 1e-3.
GRID_FLOAT_TOL = 1e-9
# Tolerances for the dao-p800 correlation-matrix checks.
R_SYMMETRY_TOL = 1e-12
R_DIAG_TOL = 1e-12
R_IMPLIED_TOL = 1e-9

GRID_INT_COLS = ("p", "n", "reps", "failures", "master_seed")
GRID_STR_COLS = ("shape", "method")

SIZES = {
    "full": {
        "grid-paper": dict(
            p_list="20,100", avg_degree=10, shapes="er,sfi,sfo",
            methods="dao,zarx,tetrad-std", n=1000, reps=2, pool=24,
        ),
        "dao-p800": dict(p=800, avg_degree=4, n=1000),
        "cli-files": dict(p=400, avg_degree=200, n=2000),
    },
    "tiny": {
        "grid-paper": dict(
            p_list="6,10", avg_degree=2, shapes="er,sfi,sfo",
            methods="dao,zarx,tetrad-std", n=60, reps=2, pool=6,
        ),
        "dao-p800": dict(p=30, avg_degree=4, n=100),
        "cli-files": dict(p=20, avg_degree=10, n=100),
    },
}


class Clock:
    """Accumulates the time spent inside ``timed`` sections of a block.

    With a tracer, spans are recorded only inside ``timed``, so the
    benchmark's own calls (estimate building, checks) are never traced.
    """

    def __init__(self, tracer=None) -> None:
        self.elapsed = 0.0
        self.tracer = tracer

    @contextlib.contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False


@dataclass
class BlockResult:
    units: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def fail(self, msg: str, units: int | None = None) -> None:
        self.problems.append(msg)
        self.failed = min(self.units, self.failed + (self.units if units is None else units))


# ---------------------------------------------------------------------------
# Seeded estimated graph with known comparison counts


def perturbed_estimate(p: int, edges, rng: np.random.Generator):
    """Perturb the true edge set so every row of the comparison table is hit.

    A tenth of the true edges each is reversed, dropped and made undirected,
    the rest kept; as many non-adjacent pairs as a tenth of the edges are
    added as directed edges, and as many again as undirected ones. Returns
    ``(directed, undirected, expected)`` where ``expected`` holds the
    adjacency and orientation counts implied by the construction.
    """
    edges = sorted(edges)
    m = len(edges)
    n_pairs = p * (p - 1) // 2
    k = min(m // 10, (n_pairs - m - 1) // 2)
    if k < 1 or m - 3 * k < 1:
        raise ValueError(f"graph with p={p}, m={m} is too small to hit every comparison row")
    idx = rng.permutation(m)
    reversed_ = [edges[i] for i in idx[:k]]
    dropped = [edges[i] for i in idx[k : 2 * k]]
    und_true = [edges[i] for i in idx[2 * k : 3 * k]]
    kept = [edges[i] for i in idx[3 * k :]]
    adjacent = {(min(a, b), max(a, b)) for a, b in edges}
    added: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(added) < 2 * k:
        a, b = (int(x) for x in rng.integers(1, p + 1, size=2))
        pair = (min(a, b), max(a, b))
        if a == b or pair in adjacent or pair in seen:
            continue
        seen.add(pair)
        added.append((a, b))
    add_dir, add_und = added[:k], added[k:]
    directed = kept + [(b, a) for a, b in reversed_] + add_dir
    undirected = und_true + add_und
    expected = {
        "adjacency": {
            "tp": len(kept) + len(reversed_) + len(und_true),
            "fp": len(add_dir) + len(add_und),
            "fn": len(dropped),
            "tn": n_pairs - m - len(add_dir) - len(add_und),
        },
        "orientation": {
            "tp": len(kept),
            "fp": len(reversed_) + len(add_dir),
            "fn": len(reversed_) + len(und_true) + len(dropped),
            "tn": len(kept),
        },
    }
    return directed, undirected, expected


def counts_dict(c) -> dict:
    return {
        "adjacency": {k: getattr(c.adjacency, k) for k in ("tp", "fp", "fn", "tn")},
        "orientation": {k: getattr(c.orientation, k) for k in ("tp", "fp", "fn", "tn")},
    }


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``dagonion`` in-process; returns the exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# grid-paper


def grid_argv(cfg: dict, seed: int, out: Path) -> list[str]:
    return [
        "bench", "--reps", str(cfg["reps"]), "--p-list", cfg["p_list"],
        "--avg-degree", str(cfg["avg_degree"]), "--shapes", cfg["shapes"],
        "--methods", cfg["methods"], "--sample-sizes", str(cfg["n"]),
        "--error", "gaussian", "--seed", str(seed), "--out", str(out),
    ]


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_grid_table(text: str, reference: dict, reps: int, n_cells: int) -> BlockResult:
    """Compare a ``bench`` results table with its recorded reference.

    Integer and string columns must match exactly, float columns within
    ``GRID_FLOAT_TOL`` (NaN only where the reference has NaN). A row whose
    ``failures`` is not 0 counts all its replications as failed, whatever
    the exit code was: ``bench`` exits 0 even when replications fail.
    """
    res = BlockResult(units=reps * n_cells)
    header, rows = parse_table(text)
    if header != reference["header"]:
        res.fail("results header differs from the reference")
        return res
    if len(rows) != len(reference["rows"]):
        res.fail(f"{len(rows)} result rows, reference has {len(reference['rows'])}")
        return res
    col = {name: j for j, name in enumerate(header)}
    for r, (row, ref) in enumerate(zip(rows, reference["rows"])):
        bad = []
        if int(row[col["failures"]]) != 0:
            bad.append(f"failures={row[col['failures']]}")
        for name in GRID_INT_COLS + GRID_STR_COLS:
            if row[col[name]] != ref[col[name]]:
                bad.append(f"{name}={row[col[name]]!r} != {ref[col[name]]!r}")
        if row[col["version"]] != dagonion.__version__:
            bad.append(f"version={row[col['version']]!r}")
        for name, j in col.items():
            if name in GRID_INT_COLS + GRID_STR_COLS + ("version",):
                continue
            a, b = float(row[j]), float(ref[j])
            if math.isnan(b) != math.isnan(a) or (not math.isnan(b) and abs(a - b) > GRID_FLOAT_TOL):
                bad.append(f"{name}={a!r} != {b!r}")
        if bad:
            res.fail(f"row {r}: " + "; ".join(bad[:3]), units=reps)
    return res


class GridPaper:
    """``dagonion bench`` over the paper's grid, in-process via ``cli.main``."""

    unit = "replication"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.cfg = SIZES[size]["grid-paper"]
        self.out = workdir / "results.csv"
        pool = json.loads(REFERENCE.read_text())[size]
        self.reference = {int(s): {"header": pool["header"], "rows": rows} for s, rows in pool["tables"].items()}
        if sorted(self.reference) != list(range(self.cfg["pool"])):
            raise ValueError(f"reference pool for size {size!r} is incomplete")
        # The workload seed picks the order in which recorded bench seeds run.
        self.order = [int(s) for s in np.random.default_rng(seed).permutation(self.cfg["pool"])]
        self.n_cells = (
            len(self.cfg["p_list"].split(","))
            * len(self.cfg["shapes"].split(","))
            * len(self.cfg["methods"].split(","))
        )
        self.units_per_block = self.cfg["reps"] * self.n_cells

    def block(self, i: int, clock: Clock) -> BlockResult:
        bench_seed = self.order[i % len(self.order)]
        with clock.timed():
            rc, _ = _cli(grid_argv(self.cfg, bench_seed, self.out))
        if rc != 0:
            res = BlockResult(units=self.units_per_block)
            res.fail(f"bench exited with code {rc}")
            return res
        text = self.out.read_text()
        res = check_grid_table(text, self.reference[bench_seed], self.cfg["reps"], self.n_cells)
        res.digest = hashlib.sha256(text.encode()).hexdigest()
        return res


# ---------------------------------------------------------------------------
# dao-p800


class DaoP800:
    """The library pipeline at p = 800: graph, onion sampler, data, scoring."""

    unit = "dataset"
    units_per_block = 1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.cfg = SIZES[size]["dao-p800"]
        self.seed = seed

    def block(self, i: int, clock: Clock) -> BlockResult:
        cfg = self.cfg
        p = cfg["p"]
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(i, 0)))
        est_rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(i, 1)))
        d = dagonion
        with clock.timed():
            g = d.sfi_rewire(d.er_dag(p, cfg["avg_degree"], rng), rng)
            R, params = d.dao_sample(g, rng)
            data = d.simulate(params, "gaussian", cfg["n"], rng)
            idx = np.empty(p, dtype=np.intp)
            idx[np.asarray(d.source_first_order(g)) - 1] = np.arange(1, p + 1)
            r2 = d.sample_r2(data)
            var = d.varsortability_scores(data)
            rho_r2 = d.sortability_rank_corr(r2, idx, largest_first=True)
            rho_var = d.sortability_rank_corr(var, idx, largest_first=True)
        directed, undirected, expected = perturbed_estimate(p, g.edges, est_rng)
        est = d.Pdag(p, frozenset(directed), frozenset(undirected))
        with clock.timed():
            counts = d.compare_graphs(g, est)

        res = BlockResult(units=1)
        m = round(cfg["avg_degree"] * p / 2)
        if g.num_edges != m or any(a >= b for a, b in g.edges):
            res.fail(f"graph has {g.num_edges} edges (want {m}) or breaks label order")
        if params.g is not g:
            res.fail("params are not over the sampled graph")
        if R.shape != (p, p) or np.max(np.abs(R - R.T)) > R_SYMMETRY_TOL:
            res.fail("R is not symmetric")
        if np.max(np.abs(np.diag(R) - 1.0)) > R_DIAG_TOL:
            res.fail("R does not have a unit diagonal")
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError:
            res.fail("R fails a Cholesky factorization")
        gap = float(np.max(np.abs(R - d.implied_covariance(params))))
        if not gap <= R_IMPLIED_TOL:
            res.fail(f"max|R - implied_covariance| = {gap:.3g}")
        if not (np.all(params.omega > 0) and np.all(params.omega <= 1)):
            res.fail("omega leaves (0, 1]")
        if data.values.shape != (cfg["n"], p):
            res.fail(f"data shape {data.values.shape}")
        if not (np.all((r2 >= 0) & (r2 < 1)) and np.all(var > 0)):
            res.fail("sortability scores out of range")
        if not all(math.isfinite(r) and -1 <= r <= 1 for r in (rho_r2, rho_var)):
            res.fail("rank correlation out of range")
        if counts_dict(counts) != expected:
            res.fail(f"compare_graphs gave {counts_dict(counts)}, expected {expected}")
        h = hashlib.sha256()
        for arr in (R, params.B, params.omega, data.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps([rho_r2, rho_var, counts_dict(counts)]).encode())
        res.digest = h.hexdigest()
        return res


# ---------------------------------------------------------------------------
# cli-files


class CliFiles:
    """The file pipeline through ``cli.main`` on a dense shuffled graph."""

    unit = "pipeline"
    units_per_block = 1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.cfg = SIZES[size]["cli-files"]
        self.seed = seed
        self.paths = {
            k: workdir / name
            for k, name in (
                ("graph", "graph.json"),
                ("model", "model.json"),
                ("data", "data.csv"),
                ("meta", "data.meta.json"),
                ("manifest", "manifest.json"),
                ("est", "est.json"),
                ("report", "report.json"),
            )
        }

    def block(self, i: int, clock: Clock) -> BlockResult:
        cfg, f = self.cfg, self.paths
        s_dag, s_model, s_sim = (
            int(x) for x in np.random.SeedSequence(self.seed, spawn_key=(i, 0)).generate_state(3)
        )
        est_rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(i, 1)))
        res = BlockResult(units=1)
        codes = []
        with clock.timed():
            codes.append(_cli(["gen-dag", "--p", cfg["p"], "--avg-degree", cfg["avg_degree"],
                               "--shuffle", "--seed", s_dag, "--out", f["graph"]])[0])
            codes.append(_cli(["gen-model", "--graph", f["graph"], "--method", "dao",
                               "--seed", s_model, "--out", f["model"]])[0])
            codes.append(_cli(["simulate", "--model", f["model"], "--n", cfg["n"],
                               "--error", "exponential", "--seed", s_sim, "--out", f["data"],
                               "--manifest", f["manifest"]])[0])
        if any(codes):
            res.fail(f"exit codes {codes}")
            return res
        graph = json.loads(f["graph"].read_text())
        directed, undirected, expected = perturbed_estimate(graph["p"], [tuple(e) for e in graph["edges"]], est_rng)
        f["est"].write_text(json.dumps({"p": graph["p"], "directed": directed, "undirected": undirected}))
        with clock.timed():
            codes.append(_cli(["eval", "--true-graph", f["graph"], "--est-graph", f["est"],
                               "--data", f["data"], "--out", f["report"]])[0])
            rc, replay_out = _cli(["replay", "--manifest", f["manifest"]])
            codes.append(rc)
        if any(codes):
            res.fail(f"exit codes {codes}")
            return res
        m = round(cfg["avg_degree"] * cfg["p"] / 2)
        if graph["p"] != cfg["p"] or len(graph["edges"]) != m or graph.get("shuffled") is not True:
            res.fail(f"graph file has p={graph['p']}, {len(graph['edges'])} edges (want {m}), shuffled={graph.get('shuffled')}")
        if replay_out.strip() != "replay ok: 2 output(s) verified":
            res.fail(f"replay reported {replay_out.strip()!r}")
        report = json.loads(f["report"].read_text())
        got = {k: {c: report[k][c] for c in ("tp", "fp", "fn", "tn")} for k in ("adjacency", "orientation")}
        if got != expected:
            res.fail(f"eval counts {got}, expected {expected}")
        for key in ("r2_rank_corr", "var_rank_corr"):
            v = report.get(key)
            if not (isinstance(v, float) and -1 <= v <= 1):
                res.fail(f"{key} = {v!r}")
        h = hashlib.sha256()
        for k in ("graph", "model", "data", "meta"):
            h.update(f[k].read_bytes())
        del report["true_graph"]  # a path, which differs between work directories
        h.update(json.dumps(report, sort_keys=True).encode())
        res.digest = h.hexdigest()
        return res


WORKLOADS = {"grid-paper": GridPaper, "dao-p800": DaoP800, "cli-files": CliFiles}
