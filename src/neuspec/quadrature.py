"""Composite quadrature over triangulated domains.

Two symmetric triangle rules serve every degree up to 7: a 6-point rule
of degree 4 and a 13-point rule of degree 7 (the pair doubles as an error
estimator).  Points are given on the reference triangle (0,0), (1,0),
(0,1); weights sum to its area 1/2.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import Domain
from .meshing import Mesh, triangle_jacobians, triangulate

__all__ = ["triangle_rule", "mesh_quadrature"]

MAX_DEGREE = 7


def _orbit1(a):
    """Symmetric orbit (a, b, b) in area coordinates, b = (1-a)/2 -> (xi, eta)."""
    b = 0.5 * (1.0 - a)
    return [(b, b), (a, b), (b, a)]


def _orbit2(a, b):
    """Six-point orbit of area coordinates (a, b, 1-a-b)."""
    c = 1.0 - a - b
    return [(b, c), (c, b), (a, c), (c, a), (a, b), (b, a)]


@lru_cache(maxsize=16)
def triangle_rule(degree: int):
    """(points, weights) exact for polynomials of total degree <= degree."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"quadrature degree must be in 1..{MAX_DEGREE}")
    if degree <= 4:
        pts = np.array(_orbit1(0.108103018168070) + _orbit1(0.816847572980459))
        w = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
    else:
        pts = np.array(
            [[1 / 3, 1 / 3]]
            + _orbit1(0.479308067841923)
            + _orbit1(0.869739794195568)
            + _orbit2(0.638444188569809, 0.312865496004875)
        )
        w = np.array(
            [-0.149570044467670]
            + [0.175615257433204] * 3
            + [0.053347235608839] * 3
            + [0.077113760890257] * 6
        )
    return pts, 0.5 * w


def mesh_quadrature(mesh: Mesh, degree: int):
    """Global quadrature nodes and weights for a composite rule on a mesh.

    Returns (points (N, 2), weights (N,)); weights include element areas,
    so sum(weights) equals the mesh area.
    """
    ref_pts, ref_w = triangle_rule(degree)
    v = mesh.vertices
    t = mesh.triangles
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


@lru_cache(maxsize=64)
def cached_mesh(d: Domain, h: float) -> Mesh:
    """Deterministic memoized triangulation (domains are immutable)."""
    return triangulate(d, h)
