"""The benchmark's span tracer wraps dagonion functions by name."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _traced_table() -> dict[str, tuple[str, ...]]:
    """``TRACED`` of benchmarks/spans.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_function_of_its_module():
    traced = _traced_table()
    assert traced
    missing = [
        f"{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"dagonion.{mod}"), fn, None))
    ]
    assert missing == []
