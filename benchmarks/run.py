"""dagonion benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload grid-paper --seed 1 --seconds 28 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``grid-paper``: ``dagonion bench`` over the paper's grid through ``cli.main``;
- ``dao-p800``: the library pipeline at p = 800 (onion sampler dominated);
- ``cli-files``: gen-dag, gen-model, simulate, eval and replay on files.

Blocks of work run until ``--seconds`` of program time have been measured.
Every block's outputs are checked outside the timed window. With
``--trace 0`` the last stdout line reports ``throughput_per_s`` (median
over blocks), ``setup_s`` (median over fresh processes) and
``peak_rss_mb``; with ``--trace 1`` it reports the per-layer metrics, from
blocks that each run once untraced and once traced. Earlier stdout lines
carry the environment stamp, ``fail_frac`` and the output digests.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid-paper", "dao-p800", "cli-files")
SETUP_SAMPLES = 3

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Pin BLAS and OpenMP pools to one thread; call before importing numpy.

    The set-up probes inherit this environment. On the 2-CPU machine the
    benchmark was defined on, two BLAS threads were no faster. Relative
    output paths must not be redirected, so ``DAGONION_OUT_DIR`` is dropped.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DAGONION_OUT_DIR", None)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="program time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test only")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import dagonion from this checkout's ``src/``; exit 2 if it is absent."""
    if not (SRC / "dagonion" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program at {SRC / 'dagonion'}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dagonion

    if Path(dagonion.__file__).resolve().parent != (SRC / "dagonion").resolve():
        sys.stderr.write(f"benchmark: imported dagonion from {dagonion.__file__}, not {SRC}\n")
        sys.exit(2)
    return dagonion


def work_dir(args) -> Path:
    return ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import dagonion and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(proc.returncode or 1)
    return times


def env_stamp(dagonion) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "dagonion": dagonion.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_blocks(wl, args, tracer=None):
    """Run blocks until ``args.seconds`` of program time; returns per-block records.

    With a tracer, each block runs untraced and traced on the same inputs,
    alternating which goes first so that warm-up favours neither.
    """
    from workloads import BlockResult, Clock

    records = []
    total = 0.0
    i = 0
    while i == 0 or total < args.seconds:
        passes = [None] if tracer is None else [None, tracer][:: 1 if i % 2 == 0 else -1]
        for t in passes:
            clock = Clock(t)
            if t is not None:
                t.unit_id = i
            gc.collect()  # the previous block's garbage is not this block's cost
            try:
                res = wl.block(i, clock)
            except Exception as exc:  # a raising block is a failed block, not a crash
                res = BlockResult(units=wl.units_per_block)
                res.fail(f"{type(exc).__name__}: {exc}")
            records.append({"block": i, "traced": t is not None, "seconds": clock.elapsed, "res": res})
            total += clock.elapsed
        i += 1
    return records


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.setup_probe:
        import_program()
        from workloads import WORKLOADS

        wd = work_dir(args)
        WORKLOADS[args.workload](args.seed, args.size, wd)
        return 0

    dagonion = import_program()
    setup = measure_setup(args) if args.trace == 0 else []
    from spans import Tracer, per_layer_metric_specs
    from workloads import WORKLOADS

    stamp = env_stamp(dagonion)
    wd = work_dir(args)
    wd.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, wd)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            records = run_blocks(wl, args, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    # Same inputs must give the same outputs, traced or not.
    by_block: dict[int, set[str]] = {}
    for r in records:
        by_block.setdefault(r["block"], set()).add(r["res"].digest)
    for r in records:
        if r["traced"] and len(by_block[r["block"]]) > 1:
            r["res"].fail("traced outputs differ from untraced ones")
    attempted = sum(r["res"].units for r in records)
    failed = sum(r["res"].failed for r in records)
    for r in records:
        for msg in r["res"].problems:
            sys.stderr.write(f"check failed, block {r['block']}: {msg}\n")

    all_digests = hashlib.sha256("".join(r["res"].digest for r in records).encode()).hexdigest()
    print("# env " + json.dumps(stamp))
    print("# digests " + json.dumps({"block0": records[0]["res"].digest, "all": all_digests}))
    print(f"# fail_frac {failed / attempted!r} frac ({failed} of {attempted} {wl.unit}s failed)")

    if args.trace:
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        traced_s = sum(r["seconds"] for r in traced)
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_frac"] = traced_s / sum(r["seconds"] for r in plain) - 1.0
        units = dict(per_layer_metric_specs())
        shares = tracer.layer_shares(traced_s)
        print("# layer_shares " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
        trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, stamp)
        print(f"# spans {trace_path.relative_to(ROOT)}")
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        # Only blocks whose outputs passed every check count as work done.
        ok = [r["seconds"] for r in records if not r["res"].failed]
        out = {
            "throughput_per_s": {"value": wl.units_per_block / statistics.median(ok) if ok else 0.0, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        print("# block_seconds " + json.dumps([r["seconds"] for r in records]))
        print("# setup_samples_s " + json.dumps(setup))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
