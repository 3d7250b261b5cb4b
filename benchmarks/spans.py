"""Outside-in span tracing of the dagonion layers.

The tracer wraps public functions from this directory, so nothing under
``src/`` changes. The CLI and ``baselines`` bind imported names directly
(``dagonion.cli.dao_sample``, ``dagonion.baselines.sample_r2``, ...), so a
function is replaced at every ``dagonion`` module attribute that holds it,
not only where it is defined.

Spans are kept in memory as tuples and written out once, after the run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# The 30 traced public functions, by layer (module of definition).
TRACED = {
    "graph": ("er_dag", "sfi_rewire", "sfo_rewire", "shuffle_labels"),
    "onion": ("dao_sample",),
    "sem": (
        "standardize",
        "cov_to_dag",
        "zarx_params",
        "tetrad_params",
        "implied_covariance",
        "cov_to_corr",
    ),
    "simdata": ("simulate",),
    "metrics": (
        "sample_r2",
        "population_r2",
        "varsortability_scores",
        "sortability_rank_corr",
        "compare_graphs",
    ),
    "baselines": ("var_sort_regress", "r2_sort_regress"),
    "fileio": ("write_dataset", "write_json", "read_dataset", "read_json", "sha256_file"),
    "cli": (
        "cmd_bench",
        "cmd_gen_dag",
        "cmd_gen_model",
        "cmd_simulate",
        "cmd_eval",
        "cmd_replay",
    ),
}

# Functions whose first argument is a path; the span records its size.
BYTES_OF_PATH_ARG = ("fileio.write_dataset", "fileio.read_dataset", "fileio.write_json")


def per_layer_metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in (f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns):
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.errors", "count")]
    specs += [(f"{name}.bytes", "bytes") for name in BYTES_OF_PATH_ARG]
    specs.append(("trace.overhead_frac", "frac"))
    return specs


class Tracer:
    """Records one span per call of a traced function while ``active``.

    A span is ``(id, name, start, end, parent_id, unit_id, error, nbytes)``.
    ``install`` patches every binding, ``uninstall`` restores them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.unit_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "dagonion" or k.startswith("dagonion.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"dagonion.{mod_name}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        sized = name in BYTES_OF_PATH_ARG

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; filled in on exit
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                nbytes = 0
                if sized and error is None:
                    nbytes = os.path.getsize(args[0] if args else kwargs["path"])
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.unit_id, error, nbytes)

        return wrapper

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def layer_metrics(self, n_blocks: int) -> dict[str, float]:
        """calls, self_s, errors (and bytes) per function, averaged per block."""
        acc: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            name = s[1]
            acc[f"{name}.calls"] += 1
            acc[f"{name}.self_s"] += own
            acc[f"{name}.errors"] += s[6] is not None
            if name in BYTES_OF_PATH_ARG:
                acc[f"{name}.bytes"] += s[7]
        return {
            name: acc[name] / n_blocks
            for name, _ in per_layer_metric_specs()
            if name != "trace.overhead_frac"
        }

    def layer_shares(self, wall_s: float) -> dict[str, float]:
        """Share of ``wall_s`` (the traced blocks' timed wall time) per layer.

        ``untraced`` is the rest: code between the traced functions.
        """
        by_layer: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            by_layer[s[1].split(".")[0]] += own
        by_layer["untraced"] = wall_s - sum(by_layer.values())
        return {k: v / wall_s for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}

    def write(self, path, stamp: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": stamp}) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        dict(zip(("id", "name", "start", "end", "parent", "unit", "error", "bytes"), s))
                    )
                    + "\n"
                )
