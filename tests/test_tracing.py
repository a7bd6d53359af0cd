"""The benchmark tracer wraps module attributes of neuspec by name; a
refactor that moves or deletes one of them would break every traced run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attribute, _ in spans.TARGETS:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute}"
