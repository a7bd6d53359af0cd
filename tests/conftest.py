import importlib.util
import math
import os
import re
import sys

# one BLAS and OpenMP thread, as the benchmark runs: more threads make the
# suite slower on a small host and change the last bits of some eigenvalues.
# Set before numpy is first imported; subprocess tests inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# the checkout's package first, for this process and for the subprocess
# tests, so the suite runs from a clean checkout without PYTHONPATH=src
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from neuspec import fem  # noqa: E402
from neuspec.corpus import CORPUS, corpus_domain  # noqa: E402
from neuspec.geometry import Polygon, parse_domain  # noqa: E402
from neuspec.meshing import triangle_jacobians  # noqa: E402
from neuspec.quadrature import cached_mesh, triangle_rule  # noqa: E402

# the corpus names by whether the domain's boundary is smooth, in corpus order
SMOOTH = tuple(name for name in CORPUS if corpus_domain(name).is_smooth)
NONSMOOTH = tuple(name for name in CORPUS if not corpus_domain(name).is_smooth)


def benchmark_spans():
    """benchmark/spans.py, the tracer's targets, loaded read-only as a
    module of its own."""
    path = os.path.join(os.path.dirname(_SRC), "benchmark", "spans.py")
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def moved_polygon(poly, shift=(0.0, 0.0), angle=0.0, about=(0.0, 0.0)):
    """The polygon translated by shift, then rotated by angle about a point,
    vertex by vertex."""
    c, s = math.cos(angle), math.sin(angle)
    out = []
    for x, y in poly.vertices:
        px, py = x + shift[0] - about[0], y + shift[1] - about[1]
        out.append((about[0] + c * px - s * py, about[1] + s * px + c * py))
    return Polygon(tuple(out))


def dilated(name, k):
    """The corpus domain `name` dilated by 2^k about the origin: every number
    of its spec times 2^k, which is exact in binary."""
    kind, _, body = CORPUS[name].partition(":")
    return parse_domain(f"{kind}:" + re.sub(r"[^,;]+", lambda t: repr(math.ldexp(float(t[0]), k)),
                                            body))


def splitting_quotients(mesh, vectors, q):
    """v^T K_q v for each column v, with K_q = A (M^-1 A)^(q-1) the mixed
    operator of even order q on the mesh, through its symmetric splitting
    ||(M^-1 A)^(q/2) v||_M^2.  It applies K_q itself, so comparing it with
    mu^q checks the discrete squaring independently of the reported values.
    The solves with M use a sparse LU factor of this function's own."""
    from scipy.sparse.linalg import splu

    op = fem.assemble(mesh)
    mass_lu = splu(op.M.tocsc())
    w = vectors
    for _ in range(q // 2):
        w = mass_lu.solve(np.asarray(op.A @ w))
    return np.einsum("ij,ij->j", w, op.M @ w)


def mesh_quadrature(mesh):
    """Global nodes (N, 2) and weights (N,) of the composite triangle rule
    on a mesh; the weights include element areas, so they sum to its area."""
    ref_pts, ref_w = triangle_rule()
    v, t = mesh.vertices, mesh.triangles
    p0 = v[t[:, 0]]
    e1 = v[t[:, 1]] - p0
    e2 = v[t[:, 2]] - p0
    # affine map per element: x = p0 + xi*e1 + eta*e2
    pts = (
        p0[:, None, :]
        + ref_pts[None, :, 0, None] * e1[:, None, :]
        + ref_pts[None, :, 1, None] * e2[:, None, :]
    )
    w = triangle_jacobians(v, t)[:, None] * ref_w[None, :]
    return pts.reshape(-1, 2), w.ravel()


def _mesh_integral(mesh, f):
    """Composite-rule integral of a vectorized field over a mesh."""
    pts, w = mesh_quadrature(mesh)
    return float(np.sum(f(pts) * w))


@pytest.fixture
def richardson_integral():
    """Integral over a domain with one Richardson step over meshes at h and h/2.

    Polygonizing a curved boundary leaves an O(h^2) error, which the step
    removes.  The refinement ratio comes from the achieved boundary-edge
    counts, since rounding the edge count distorts the nominal h ratio.
    """
    def integrate(d, f, h):
        coarse, fine = cached_mesh(d, h), cached_mesh(d, 0.5 * h)
        ratio = (np.sum(fine._edges.boundary) / np.sum(coarse._edges.boundary)) ** 2
        assert ratio > 1.0
        val_c, val_f = _mesh_integral(coarse, f), _mesh_integral(fine, f)
        return val_f + (val_f - val_c) / (ratio - 1.0)

    return integrate
