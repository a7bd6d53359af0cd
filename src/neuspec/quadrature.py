"""Triangle quadrature and the memoized lattice meshes the FEM assembles on.

One symmetric 6-point rule, exact to total degree 4, on the reference
triangle (0,0), (1,0), (0,1); its weights sum to the area 1/2.  A
convergence study (neuspec.fem) takes its lattice meshes from cached_mesh
and refines them itself.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import Domain
from .meshing import Mesh, triangulate

__all__ = ["triangle_rule", "cached_mesh"]


def _orbit1(a):
    """Symmetric orbit (a, b, b) in area coordinates, b = (1-a)/2 -> (xi, eta)."""
    b = 0.5 * (1.0 - a)
    return [(b, b), (a, b), (b, a)]


@lru_cache(maxsize=1)
def triangle_rule():
    """(points, weights) exact for polynomials of total degree <= 4."""
    pts = np.array(_orbit1(0.108103018168070) + _orbit1(0.816847572980459))
    w = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
    return pts, 0.5 * w


@lru_cache(maxsize=64)
def cached_mesh(d: Domain, h: float) -> Mesh:
    """Deterministic memoized triangulation (domains are immutable)."""
    return triangulate(d, h)
