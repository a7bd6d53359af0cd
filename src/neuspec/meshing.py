"""Triangulation of polygonized planar domains, and its uniform refinement.

The mesher seeds a hexagonal lattice inside the domain, clear of the
boundary polyline, takes the Delaunay triangulation of boundary plus
lattice points, keeps the triangles whose centroid lies inside the
domain, and relaxes interior vertices with a few passes of neighbor
averaging (re-running Delaunay after each pass).  Deterministic for
fixed inputs.  refine halves a mesh's h by splitting every triangle
into four, with new boundary vertices on the exact boundary.  Every mesh
they make carries its domain; the boundary edges on smooth curved pieces,
with their quadratic nodes on the curve, through which the FEM maps those
triangles, are worked out from it when first read.  What the boundary is
comes from one place, the mesh's edge table (Mesh._edges).

Containment is the domain's own test.  The curved shapes are convex, so
the polyline bounds the convex hull of the mesh points and the region
the test admits beyond it is a sliver under each boundary segment: the
lattice keeps no point there, and no Delaunay centroid falls there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay

from .geometry import Domain, GeometryError, _near_distance, boundary_polyline
# not called here: the benchmark's tracer wraps neuspec.meshing.point_in_polygon
from .geometry import point_in_polygon  # noqa: F401

__all__ = ["Mesh", "triangulate", "refine", "maps_boundary", "save_mesh", "load_mesh",
           "MeshQualityError"]

MIN_ANGLE_DEG = 20.0
MIN_AREA_FACTOR = 1e-3
SMOOTHING_PASSES = 3


_Edges = namedtuple("_Edges", "conn count keys ids ends boundary")
_CurvedEdges = namedtuple("_CurvedEdges", "edges nodes")


class MeshQualityError(RuntimeError):
    """Mesh refinement failed to reach the quality contract."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangle mesh with positively oriented elements.

    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    h : target edge length the mesh was built for
    boundary_params : (nv,) float array; the boundary parameter s in
        [0, 1) of Domain.boundary_at at each boundary vertex, NaN at the
        others
    domain : the Domain the mesh was built for

    These are all a mesh holds.  The rest is worked out from them when
    first read, and kept: the edge table Mesh._edges, whose edges of a
    single triangle are the boundary, and from it Mesh._boundary_nodes and
    Mesh.curved_edges.  vertices and triangles describe the polygonized
    domain.  A refined mesh keeps no link to the mesh it was split from;
    the convergence study that refines it (neuspec.fem) holds both.

    Meshes are immutable and compare and hash by identity: their fields
    are arrays, which give no single truth value to compare by.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    h: float
    boundary_params: np.ndarray
    domain: Domain = field(repr=False)

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.boundary_params):
            arr.setflags(write=False)

    @cached_property
    def _edges(self) -> _Edges:
        """The edge table, numbered by first appearance, made once: conn,
        the (nt, 3) ids of each triangle's edges 01, 12, 20; count; keys,
        the sorted i * nv + j of the edges' vertex pairs i < j, with the
        edge ids at them; ends, each edge's vertices as its first triangle
        runs them; and boundary, True on the edges of one triangle.  The
        boundary, refine and the FEM read them; arrays read-only."""
        ends = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        pairs = np.sort(ends, axis=1)
        # one integer key per vertex pair: a 1-D unique is far faster than a row-wise one
        keys = pairs[:, 0].astype(np.int64) * len(self.vertices) + pairs[:, 1]
        keys, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                                 return_counts=True)
        order = np.argsort(first)
        rank = np.empty(len(first), dtype=int)
        rank[order] = np.arange(len(first))
        conn = rank[inverse.reshape(-1)].reshape(-1, 3)
        ends, boundary = ends[first[order]], counts[order] == 1
        # copied once the temporaries are freed, so that what the mesh keeps
        # does not pin the heap above them (that raised the peak RSS of a
        # verify run by up to 5 MB)
        del pairs, first, inverse, counts, order
        keys, rank, ends, boundary = keys.copy(), rank.copy(), ends.copy(), boundary.copy()
        for arr in (conn, keys, rank, ends, boundary):
            arr.setflags(write=False)
        return _Edges(conn, len(keys), keys, rank, ends, boundary)

    @cached_property
    def _boundary_nodes(self):
        """(s, points) of each boundary edge of Mesh._edges, in its order: the
        parameter midway between its ends' and the domain's point there,
        refine's child vertex and a curved edge's P2 node.  Read-only."""
        table = self._edges
        s = _midway(*self.boundary_params[table.ends[table.boundary]].T)
        points = self.domain.boundary_at(s)[0]
        for arr in (s, points):
            arr.setflags(write=False)
        return s, points

    @cached_property
    def curved_edges(self) -> _CurvedEdges | None:
        """The boundary edges on a smooth curved piece of the domain (not
        straight, no corners), in the order of Mesh._edges: edges, (k, 2)
        ints (triangle, e) for the edge from the triangle's vertex e to
        vertex e + 1 mod 3, and nodes, their P2 nodes from
        Mesh._boundary_nodes, through which the FEM maps their triangles.
        Read-only; None when there are none (polygons, cornered
        superellipses).  An edge lies in the piece holding its midway
        parameter: every piece starts at a polyline vertex.
        """
        if not maps_boundary(self.domain):
            return None
        smooth = np.array([_smooth_curve(piece) for piece in self.domain.pieces()])
        table, (s, points) = self._edges, self._boundary_nodes
        on_smooth = smooth[np.minimum((len(smooth) * s).astype(int), len(smooth) - 1)]
        tri, edge = np.nonzero(table.boundary[table.conn])
        order = np.argsort(table.conn[tri, edge])
        record = _CurvedEdges(np.column_stack([tri, edge])[order[on_smooth]], points[on_smooth])
        for arr in record:
            arr.setflags(write=False)
        return record


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
    rows = np.arange(nrows + 1)
    # odd rows shifted by half a step
    xs = (lo[0] + np.where(rows % 2, 0.5 * h, 0.0))[:, None] + h * np.arange(ncols)
    pts = np.column_stack([xs.ravel(), np.repeat(lo[1] + rows * row_h, ncols)])
    pts = pts[d.contains(pts)]
    if len(pts) == 0:
        return pts.reshape(0, 2)
    return pts[_near_distance(pts, poly, 0.65 * h) >= 0.65 * h]


def _delaunay_inside(points: np.ndarray, d: Domain, n_boundary: int, h: float) -> np.ndarray:
    """Delaunay triangles with their centroid inside d, counterclockwise.

    A triangle of three polyline vertices (the first n_boundary points)
    with |J| below 1e-9 h^2 is dropped too: on a straight or nearly
    straight stretch such slivers have their centroid on the boundary, which
    passes the tolerance of d.contains.
    """
    simplices = Delaunay(points).simplices
    tris = simplices[d.contains(points[simplices].mean(axis=1))]
    jac = triangle_jacobians(points, tris)
    sliver = np.all(tris < n_boundary, axis=1) & (np.abs(jac) < 1e-9 * h * h)
    tris, jac = tris[~sliver], jac[~sliver]
    # enforce counterclockwise orientation
    flip = jac < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _smooth_interior(points: np.ndarray, tris: np.ndarray, n_boundary: int) -> np.ndarray:
    """One neighbor-averaging pass over interior vertices."""
    nv = len(points)
    # edges 01, 12, 20 both ways, so each vertex sums its neighbors in that order
    dst = tris[:, [0, 1, 1, 2, 2, 0]].T.ravel()
    src = tris[:, [1, 0, 2, 1, 0, 2]].T.ravel()
    cnt = np.bincount(dst, minlength=nv)
    acc = np.column_stack([np.bincount(dst, points[src, k], nv) for k in (0, 1)])
    out = points.copy()
    ok = (np.arange(nv) >= n_boundary) & (cnt > 0)
    out[ok] = acc[ok] / cnt[ok, None]
    return out


def triangulate(d: Domain, h: float) -> Mesh:
    """Conforming triangulation of the polygonized domain at edge length h.

    Raises MeshQualityError when smoothing cannot reach the minimum angle
    and area bounds (reporting the worst triangle).
    """
    if not (h > 0 and math.isfinite(h)):
        raise GeometryError("mesh size must be positive")
    poly, poly_params = boundary_polyline(d, h)
    n_boundary = len(poly)
    # slightly denser interior lattice keeps post-smoothing edges near h
    seeds = _hex_lattice(d, poly, 0.95 * h)
    points = np.vstack([poly, seeds]) if len(seeds) else poly.copy()

    tris = _delaunay_inside(points, d, n_boundary, h)
    extra_budget = 6
    for it in range(SMOOTHING_PASSES + extra_budget):
        points = _smooth_interior(points, tris, n_boundary)
        tris = _delaunay_inside(points, d, n_boundary, h)
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

    params = np.full(len(points), np.nan)
    params[:n_boundary] = poly_params
    used = np.unique(tris)
    if len(used) != len(points):
        # drop unused lattice points (possible on very coarse meshes)
        remap = -np.ones(len(points), dtype=int)
        remap[used] = np.arange(len(used))
        points = points[used]
        params = params[used]
        tris = remap[tris]
    return Mesh(vertices=np.ascontiguousarray(points), triangles=np.ascontiguousarray(tris),
                h=float(h), boundary_params=params, domain=d)


def _midway(ta, tb):
    """The boundary parameter halfway from ta to tb the short way round, modulo 1."""
    step = (tb - ta + 0.5) % 1.0 - 0.5
    return (ta + 0.5 * step) % 1.0


def _smooth_curve(piece) -> bool:
    """Whether a boundary piece is curved and smooth throughout."""
    return not (piece.straight or piece.corners)


def maps_boundary(d: Domain) -> bool:
    """Whether meshes of d get curved edges: d has a smooth curved piece."""
    return any(map(_smooth_curve, d.pieces()))


def refine(mesh: Mesh) -> Mesh:
    """Red refinement of a mesh: every triangle splits into four, h halves.

    The new vertices are the edge midpoints, numbered after the old
    vertices in Mesh._edges' order.  The children are ordered by
    centroid, y then x: the minimum-degree ordering of the FEM's LU
    factor depends on the dof numbering, and with each parent's four
    children kept together the factor at h = 0.02 took 3 to 13 times as
    long for about the same fill.
    The midpoint of a boundary edge is put on the mesh's domain, at the
    mean of its end vertices' boundary parameters modulo 1 (its
    Mesh._boundary_nodes).  Raises MeshQualityError naming h when a child
    misses the quality bounds of triangulate (its area bound also keeps
    every Jacobian positive).
    """
    h = 0.5 * mesh.h
    nv = len(mesh.vertices)
    tris = mesh.triangles
    conn, ends, on_boundary = mesh._edges.conn, mesh._edges.ends, mesh._edges.boundary
    mids = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
    params = np.full(len(ends), np.nan)
    params[on_boundary], mids[on_boundary] = mesh._boundary_nodes
    params = np.concatenate([mesh.boundary_params, params])

    e01, e12, e20 = (nv + conn).T
    v0, v1, v2 = tris.T
    children = np.stack([v0, e01, e20, e01, v1, e12, e20, e12, v2, e01, e12, e20],
                        axis=1).reshape(-1, 3)
    points = np.vstack([mesh.vertices, mids])
    centroids = points[children].mean(axis=1)
    children = children[np.lexsort((centroids[:, 0], centroids[:, 1]))]
    if not _quality_ok(points, children, h):
        raise MeshQualityError(
            f"refinement to h={h:g} missed the quality bounds: min angle "
            f"{_triangle_angles(points, children).min():.2f} deg, min area "
            f"{0.5 * triangle_jacobians(points, children).min():.3g}")
    return Mesh(vertices=points, triangles=children, h=h, boundary_params=params,
                domain=mesh.domain)


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
    """Write `mesh v1` text format; optional per-vertex value column.

    A vertex's flag is 1 where it ends a boundary edge of Mesh._edges."""
    flags = np.zeros(len(mesh.vertices), dtype=int)
    flags[mesh._edges.ends[mesh._edges.boundary]] = 1
    with open(path, "w") as fh:
        fh.write(f"mesh v1 {len(mesh.vertices)} {len(mesh.triangles)}\n")
        for i, (x, y) in enumerate(mesh.vertices):
            line = f"{x:.17g} {y:.17g} {flags[i]}"
            if vertex_values is not None:
                line += f" {vertex_values[i]:.17g}"
            fh.write(line + "\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def load_mesh(path):
    """Read the `mesh v1` text format as plot data.

    Returns (vertices, triangles, vertex_values): (nv, 2) floats, (nt, 3)
    ints, and the per-vertex column or None when the file carries none.
    The flag column must parse but is not returned.  A mesh file is input
    from outside the program: a malformed header or line, a coordinate or
    value that is not finite, or a triangle index outside 0..nv-1 raises
    ValueError naming the header or the line, as does a file with nothing
    to draw.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[:2] != ["mesh", "v1"] or not all(map(str.isdigit, header[2:])):
            raise ValueError(f"unrecognized mesh header: {' '.join(header)!r}")
        nv, nt = int(header[2]), int(header[3])
        table, width = np.empty((nv, 4)), None
        for i in range(nv):
            parts = fh.readline().split()
            width = width or len(parts)
            try:
                int(parts[2])  # the flag must parse, though the plot does not read it
                table[i, :len(parts)] = [float(v) for v in parts]
                ok = len(parts) == width and np.isfinite(table[i, :width]).all()
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"vertex line {i + 2}: want finite 'x y flag' or 'x y flag "
                                 f"value', the same on every line, got {' '.join(parts)!r}")
        if not nv or not np.ptp(table[:, :2], axis=0).any():  # the plot scales by the span
            raise ValueError("mesh file has nothing to draw: " + ("every vertex at one point"
                                                                  if nv else "no vertices"))
        tris = np.empty((nt, 3), dtype=int)
        for i in range(nt):
            parts = fh.readline().split()
            try:
                tris[i] = [int(v) for v in parts]
                ok = 0 <= tris[i].min() and tris[i].max() < nv
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(f"triangle line {nv + i + 2}: want three vertex indices "
                                 f"in 0..{nv - 1}, got {' '.join(parts)!r}")
    return table[:, :2].copy(), tris, table[:, 3].copy() if width == 4 else None
