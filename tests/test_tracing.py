"""The benchmark tracer wraps module attributes of neuspec by name; a
refactor that moves or deletes one of them would break every traced run."""

import importlib
import time

from conftest import benchmark_spans


def test_trace_targets_resolve():
    spans = benchmark_spans()
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
    # grid index 92, and 7 parabolic steps at the one minimum
    j11 = float(jnp_zeros(1, 1)[0])
    mps.mps_find(disk, "polyharm_neumann", (0.5 * j11, 1.05 * j11), 20)
    assert len(calls) == 42


def test_traced_verify_fills_every_layer(monkeypatch, tmp_path):
    """A traced verify of ellipse-1.5 at its default list reads work in each
    layer, so a refactor of the study's call paths cannot empty one."""
    from neuspec import cli, fem, quadrature, trial

    spans = benchmark_spans()
    for module, attribute, _ in spans.TARGETS:
        # monkeypatch puts back every attribute the tracer replaces
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attribute, getattr(module, attribute))
    for cache in (quadrature.cached_mesh, fem._study, trial.trial_quotient):
        cache.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    code = cli.main(["verify", "--domain", "ellipse-1.5", "--out", str(tmp_path / "r.json")])
    wall_s = time.perf_counter() - start
    assert code == 0
    metrics = spans.layer_metrics(tracer.spans, wall_s, quadrature.cached_mesh.cache_info().hits)
    assert metrics["meshing.meshes"][0] == 1
    assert metrics["fem.assemblies"][0] == 3
    assert metrics["fem.ndof"][0] == 12379
    assert metrics["mps.sigma_evals"][0] > 0
    assert metrics["trial.certify_s"][0] > 0
