"""Spans for the traced run, and their reduction to per-layer metrics.

A traced round replaces, before its timed part, the module attributes of
neuspec that callers look up at call time with wrappers that record one
span per call: name, start, end, parent and, for some layers, one number
taken from the result.  Spans stay in memory and are written out when the
round ends.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _eig_residual(res) -> float:
    # the solver's own gate: residual / max(1, mu) <= 1e-9 with mu the
    # pencil value, here recovered as value**(1/2m)
    q = 2 * res.power
    return max(float(r) / max(1.0, abs(float(v)) ** (1.0 / q))
               for r, v in zip(res.residuals, res.values))


# (module, attribute) of every wrapped call site, and what the span keeps
# of the result.  The same function can be bound in several modules; each
# binding a caller uses is wrapped, and the span is named after the
# function, so all bindings land in one layer.
TARGETS = (
    ("neuspec.cli", "convergence_study", None),
    ("neuspec.cli", "mps_find", None),
    ("neuspec.cli", "certify_upper_bound", None),
    ("neuspec.fem", "eig_polyharmonic_neumann", _eig_residual),
    ("neuspec.fem", "assemble", lambda op: op.dimension),
    ("neuspec.quadrature", "triangulate", lambda mesh: len(mesh.triangles)),
    ("neuspec.meshing", "boundary_polyline", None),
    ("neuspec.meshing", "point_in_polygon", None),
    ("neuspec.geometry", "point_in_polygon", None),
    ("neuspec.trial", "point_in_polygon", None),
    ("neuspec.trial", "find_center", None),
    ("neuspec.trial", "trial_quotient", None),
    ("neuspec.mps", "mps_find", None),
    ("neuspec.mps", "mps_sigma", None),
)

# span name -> layer whose self time it counts towards
LAYER = {
    "fem.convergence_study": "fem.extrapolate_s",
    "fem.eig_polyharmonic_neumann": "fem.eigensolve_s",
    "fem.assemble": "fem.assemble_s",
    "meshing.triangulate": "meshing.triangulate_s",
    "geometry.boundary_polyline": "geometry.polyline_s",
    "geometry.point_in_polygon": "geometry.point_in_polygon_s",
    "trial.certify_upper_bound": "trial.certify_s",
    "trial.find_center": "trial.find_center_s",
    "trial.trial_quotient": "trial.quotient_s",
    "mps.mps_find": "mps.find_s",
    "mps.mps_sigma": "mps.find_s",
}
SELF_TIMES = tuple(dict.fromkeys(LAYER.values()))


class Tracer:
    """Records spans as [name, start, end, parent index or -1, value]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, measure=None):
        name = f"{fn.__module__.removeprefix('neuspec.')}.{fn.__name__}"
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if measure is not None:
                span[4] = measure(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, measure in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), measure))


def layer_metrics(spans: list, wall_s: float, cache_hits: int) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}.

    A span's self time is its duration less that of its direct children;
    the self times of all layers plus cli.other_s add up to wall_s.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(SELF_TIMES, 0.0)
    count = defaultdict(int)
    values = defaultdict(list)
    durations = defaultdict(float)
    for i, (name, start, end, _parent, value) in enumerate(spans):
        self_s[LAYER[name]] += end - start - child_time[i]
        count[name] += 1
        durations[name] += end - start
        if value is not None:
            values[name].append(value)

    ndof = sum(values["fem.assemble"])
    eig_s = self_s["fem.eigensolve_s"]
    sigma_evals = count["mps.mps_sigma"]
    out = {name: (t, "s") for name, t in self_s.items()}
    out.update({
        "fem.solves": (count["fem.eig_polyharmonic_neumann"], "count"),
        "fem.ndof": (ndof, "count"),
        "fem.ndof_per_s": (ndof / eig_s if eig_s > 0 else 0.0, "dof/s"),
        "fem.max_residual": (max(values["fem.eig_polyharmonic_neumann"], default=0.0), "1"),
        "fem.assemblies": (count["fem.assemble"], "count"),
        "meshing.meshes": (count["meshing.triangulate"], "count"),
        "meshing.triangles": (sum(values["meshing.triangulate"]), "count"),
        "quadrature.mesh_cache_hits": (cache_hits, "count"),
        "mps.sigma_evals": (sigma_evals, "count"),
        "mps.sigma_ms": (1e3 * durations["mps.mps_sigma"] / sigma_evals
                         if sigma_evals else 0.0, "ms"),
        "cli.other_s": (wall_s - sum(self_s.values()), "s"),
    })
    return out
