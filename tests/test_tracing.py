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



def test_sigma_evals_count_every_omega(monkeypatch):
    """`mps.sigma_evals` counts calls of the module global mps_sigma; each
    omega must still go through it once, so the count tracks real work."""
    from scipy.special import jnp_zeros

    from neuspec import mps
    from neuspec.geometry import Disk

    calls = []
    sigma = mps.mps_sigma

    def counted(*args):
        calls.append(args)
        return sigma(*args)

    monkeypatch.setattr(mps, "mps_sigma", counted)
    disk = Disk((0.0, 0.0), 1.0)
    mps.mps_scan(disk, (1.5, 2.5), 10, n_grid=100)
    assert len(calls) == 101
    calls.clear()
    # the mps-sweep window on the disk: 26 coarse grid values (every 4th of
    # 101), 3 filled in next to the lower end, 6 round the coarse minimum at
    # grid index 92, and 5 parabolic steps at the one minimum
    j11 = float(jnp_zeros(1, 1)[0])
    mps.mps_find(disk, "polyharm_neumann", (0.5 * j11, 1.05 * j11), 20)
    assert len(calls) == 40
