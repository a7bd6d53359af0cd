import numpy as np
import pytest

from neuspec.quadrature import cached_mesh, mesh_quadrature


def _mesh_integral(mesh, f, degree):
    """Composite-rule integral of a vectorized field over a mesh."""
    pts, w = mesh_quadrature(mesh, degree)
    return float(np.sum(f(pts) * w))


@pytest.fixture
def richardson_integral():
    """Integral over a domain with one Richardson step over meshes at h and h/2.

    Polygonizing a curved boundary leaves an O(h^2) error, which the step
    removes.  The refinement ratio comes from the achieved boundary-vertex
    counts, since rounding the vertex count distorts the nominal h ratio.
    """
    def integrate(d, f, degree, h):
        coarse, fine = cached_mesh(d, h), cached_mesh(d, 0.5 * h)
        ratio = (np.sum(fine.boundary_flags) / np.sum(coarse.boundary_flags)) ** 2
        assert ratio > 1.0
        val_c, val_f = _mesh_integral(coarse, f, degree), _mesh_integral(fine, f, degree)
        return val_f + (val_f - val_c) / (ratio - 1.0)

    return integrate
