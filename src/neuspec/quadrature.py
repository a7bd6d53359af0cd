"""Composite quadrature over triangulated domains.

Symmetric triangle rules of degree 2, 4, and 7 are embedded (the degree
pairs double as error estimators); degrees 8 through 10 fall back to a
collapsed-coordinate Gauss product rule.  Points are given on the
reference triangle (0,0), (1,0), (0,1); weights sum to its area 1/2.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import Domain
from .meshing import Mesh, triangle_jacobians, triangulate

__all__ = ["triangle_rule", "mesh_quadrature", "integrate", "integrate_mesh"]

MAX_DEGREE = 10


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
    if degree <= 2:
        pts = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
        w = np.full(3, 1 / 3)
    elif degree <= 4:
        pts = np.array(_orbit1(0.108103018168070) + _orbit1(0.816847572980459))
        w = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
    elif degree <= 7:
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
    else:
        return _collapsed_rule(degree)
    return pts, 0.5 * w


def _collapsed_rule(degree: int):
    """Gauss product rule under the map (u, v) -> (u(1-v), uv), Jacobian u."""
    nu = (degree + 2 + 1) // 2
    nv = (degree + 1 + 1) // 2
    xu, wu = np.polynomial.legendre.leggauss(nu)
    xv, wv = np.polynomial.legendre.leggauss(nv)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    pts = np.column_stack([(U * (1.0 - V)).ravel(), (U * V).ravel()])
    w = (WU * WV * U).ravel()
    return pts, w


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


def integrate_mesh(mesh: Mesh, f, degree: int = 7) -> float:
    """Integrate a vectorized scalar field over an existing mesh.

    The reduction is numpy's pairwise summation over a fixed node
    ordering, so results do not depend on threading.
    """
    pts, w = mesh_quadrature(mesh, degree)
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != w.shape:
        raise ValueError("field must return one value per quadrature point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("field returned non-finite values at quadrature points")
    return float(np.sum(vals * w))


@lru_cache(maxsize=64)
def cached_mesh(d: Domain, h: float) -> Mesh:
    """Deterministic memoized triangulation (domains are immutable)."""
    return triangulate(d, h)


def integrate(d: Domain, f, degree: int = 7, h: float = 0.05, extrapolate: bool = False) -> float:
    """Integrate f over the domain with a composite triangle rule.

    The per-triangle rule is exact to `degree`; the geometric error from
    polygonizing a curved boundary is O(h^2).  With ``extrapolate=True``
    one Richardson step over meshes at h and h/2 removes the leading
    term, using the achieved boundary-vertex counts as the refinement
    ratio (nominal h ratios are distorted by rounding the vertex count).
    """
    mesh_c = cached_mesh(d, h)
    val_c = integrate_mesh(mesh_c, f, degree)
    if not extrapolate:
        return val_c
    mesh_f = cached_mesh(d, 0.5 * h)
    val_f = integrate_mesh(mesh_f, f, degree)
    nb_c = int(np.sum(mesh_c.boundary_flags))
    nb_f = int(np.sum(mesh_f.boundary_flags))
    if nb_f <= nb_c:
        return val_f
    ratio = (nb_f / nb_c) ** 2
    return val_f + (val_f - val_c) / (ratio - 1.0)
