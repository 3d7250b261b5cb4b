"""Record the grid-paper reference tables that the benchmark checks against.

Runs ``dagonion bench`` once per recorded bench seed and size and writes
``reference/grid-paper.json``. Re-record only when a change is meant to
alter the results table, and say so with the change:

    python3 benchmarks/record_reference.py            # both sizes
    python3 benchmarks/record_reference.py --size tiny

The full pool takes about 8 s per seed on one core.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run

run.pin_environment()
run.import_program()
from workloads import REFERENCE, SIZES, _cli, grid_argv, parse_table  # noqa: E402


def record(size: str) -> dict:
    cfg = SIZES[size]["grid-paper"]
    tables = {}
    header = None
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        out = Path(tmp) / "results.csv"
        for seed in range(cfg["pool"]):
            rc, _ = _cli(grid_argv(cfg, seed, out))
            if rc != 0:
                sys.exit(f"bench seed {seed} exited with code {rc}")
            header, rows = parse_table(out.read_text())
            bad = [r for r in rows if r[header.index("failures")] != "0"]
            if bad:
                sys.exit(f"bench seed {seed} has failed replications: {bad[0][:6]}")
            tables[str(seed)] = rows
            print(f"{size} seed {seed}: {len(rows)} rows", flush=True)
    return {"header": header, "tables": tables}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=sorted(SIZES), action="append")
    sizes = ap.parse_args().size or sorted(SIZES)
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for size in sizes:
        data[size] = record(size)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
