"""The benchmark's tracer patches names in the program's modules; each must
exist, or a traced benchmark run stops at its first span."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _, _ in tracing.SPANS
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
