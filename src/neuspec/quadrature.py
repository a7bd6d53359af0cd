"""Triangle quadrature and the memoized meshes the FEM assembles on.

One symmetric 6-point rule, exact to total degree 4, on the reference
triangle (0,0), (1,0), (0,1); its weights sum to the area 1/2.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import Domain
from .meshing import Mesh, refine, triangulate

__all__ = ["triangle_rule", "study_mesh"]


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


@lru_cache(maxsize=16)
def _refined_mesh(d: Domain, h: float, levels: int) -> Mesh:
    """The lattice mesh at h refined `levels` times, memoized."""
    coarse = cached_mesh(d, h) if levels == 1 else _refined_mesh(d, h, levels - 1)
    return refine(coarse, d)


def study_mesh(d: Domain, h_list, k: int) -> Mesh:
    """The mesh of a convergence study over h_list at position k.

    Along a run of halving steps, h_(j-1) == 2 h_j, each mesh is the red
    refinement of the one before; every other mesh is the lattice mesh at
    its h.  The mesh thus depends on h_list alone, and equal runs share
    one memoized mesh object.
    """
    hs = [float(h) for h in h_list[:k + 1]]
    j = k
    while j > 0 and hs[j - 1] == 2.0 * hs[j]:
        j -= 1
    return cached_mesh(d, hs[k]) if j == k else _refined_mesh(d, hs[j], k - j)
