"""Planar domain shapes: validation, boundary polylines, and metrics.

Shapes are immutable dataclasses whose boundary is a tuple of smooth
pieces, each an exact parameterization: one periodic piece for a smooth
closed curve, arcs and segments for a stadium, one segment per polygon
edge.  Every shape is discretized by a polyline whose vertices lie
exactly on the analytic boundary, at known boundary parameters; on
curved pieces it adapts to the curvature.  Meshing works on that
polygonized domain, and the FEM maps the triangles on smooth curved
pieces back onto the curve through Domain.boundary_at.  The trial
certificate integrates over the exact domain from Domain.boundary_rule,
Gauss panels on every piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gamma as _gamma

__all__ = [
    "Domain",
    "Disk",
    "Ellipse",
    "Stadium",
    "Polygon",
    "Superellipse",
    "parse_domain",
    "domain_spec_string",
    "boundary_polyline",
    "point_in_polygon",
    "gauss_legendre",
    "GeometryError",
]

_DENSE = 8192  # samples per curved piece for arclength/curvature bookkeeping
# Gauss panels of a whole closed curve in Domain.boundary_rule before it is
# cut and graded; at 4 the certificate of superellipse:1,1,40 reads an
# error estimate of 2.7e-5 Q, above its cap
_CLOSED_PANELS = 8


class GeometryError(ValueError):
    """Invalid shape description or infeasible discretization request."""


def _positive(*values) -> bool:
    return all(0 < v < math.inf for v in values)


@dataclass(frozen=True)
class _Piece:
    """One smooth piece of a boundary: at(t) gives the (n, 2) points and
    derivatives of a map t in [0, 1] -> R^2.  A periodic piece is the whole
    closed curve, smooth across t = 0; a straight piece is a segment.
    `panels` is the number of equal stretches of t that Domain.boundary_rule
    starts from, and `corners` lists the t in (0, 1) where a periodic piece
    is not smooth after all."""

    at: object
    periodic: bool = False
    straight: bool = False
    panels: int = 1
    corners: tuple = ()


def _arc(center, rx, ry, start, sweep, periodic=False) -> _Piece:
    """center + (rx cos a, ry sin a) for a from start through sweep; a
    periodic arc starts from _CLOSED_PANELS panels."""
    cx, cy = center

    def at(t):
        ang = start + sweep * t
        c, s = np.cos(ang), np.sin(ang)
        return (np.column_stack([cx + rx * c, cy + ry * s]),
                np.column_stack([-(sweep * rx) * s, (sweep * ry) * c]))

    return _Piece(at, periodic=periodic, panels=_CLOSED_PANELS if periodic else 1)


def _segment(a, b) -> _Piece:
    a = np.asarray(a, dtype=float)
    edge = np.asarray(b, dtype=float) - a

    def at(t):
        return a[None, :] + t[:, None] * edge[None, :], np.tile(edge, (len(t), 1))

    return _Piece(at, straight=True)


# samples of a piece in the search for its crossings with a circle, and
# the Newton steps that refine each one
_CROSSING_SAMPLES = 32
_CROSSING_STEPS = 4
# |f| / (radius (radius + |x0|)) below which _crossings reads a sample as
# on the circle: the rounding of b - x0 grows with |x0|
_CROSSING_ROUNDING = 1e-12


def _crossings(piece: _Piece, x0, radius: float) -> np.ndarray:
    """Sorted t in (0, 1) where the piece crosses the circle |x - x0| = radius.

    Sign changes of f(t) = |b(t) - x0|^2 - radius^2 on _CROSSING_SAMPLES
    intervals, each refined from its secant point by Newton steps kept in
    its bracket.  Samples with |f| <= _CROSSING_ROUNDING radius
    (radius + |x0|) count as 0, and one is a crossing only where its
    neighbours have opposite signs: a disk's piece about its own center,
    all rounding noise in f, has none, wherever the disk lies.
    Two crossings in one interval (a near tangency, where the piece barely
    enters the circle) go unseen.
    """
    x0 = np.asarray(x0, dtype=float)

    def f(t):
        b, db = piece.at(t)
        dx = b - x0[None, :]
        return (np.einsum("ij,ij->i", dx, dx) - radius * radius,
                2.0 * np.einsum("ij,ij->i", dx, db))

    grid = np.linspace(0.0, 1.0, _CROSSING_SAMPLES + 1)
    vals = f(grid)[0]
    vals[np.abs(vals) <= _CROSSING_ROUNDING * radius * (radius + math.hypot(*x0))] = 0.0
    i = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    lo, hi = grid[i], grid[i + 1]
    t = lo + (hi - lo) * vals[i] / (vals[i] - vals[i + 1])
    for _ in range(_CROSSING_STEPS):
        ft, dft = f(t)
        t = np.clip(t - np.divide(ft, dft, out=np.zeros_like(ft), where=dft != 0.0), lo, hi)
    on = (vals[1:-1] == 0.0) & (vals[:-2] * vals[2:] < 0.0)
    return np.sort(np.concatenate([t, grid[1:-1][on]]))


# longest Gauss panel of Domain.boundary_rule, in units of its distance from
# the center x0 of the rule, where the integrands of a fan about x0 are
# singular: a panel of length L at distance h from x0 puts the singularity
# at 2h/L of its half-length off the panel, and the n-point rule converges
# like (1 + sqrt(2))^(-2n) at this ratio
_PANEL_REACH = 2.0
# rounds of halving, which bound the grading where x0 lies on the boundary
_PANEL_HALVINGS = 30
# points per panel of the polyline that measures its length and distance
_PANEL_SAMPLES = 5


def _graded_panels(piece: _Piece, x0, cuts: np.ndarray) -> np.ndarray:
    """The panel ends `cuts`, with panels halved until each is at most
    _PANEL_REACH times as long as its distance from x0.

    Length and distance are those of the polyline through _PANEL_SAMPLES
    points of the panel, exact on a segment.
    """
    x0 = np.asarray(x0, dtype=float)
    frac = np.linspace(0.0, 1.0, _PANEL_SAMPLES)
    for _ in range(_PANEL_HALVINGS):
        lo, hi = cuts[:-1], cuts[1:]
        t = lo[:, None] + (hi - lo)[:, None] * frac
        b = piece.at(t.ravel())[0].reshape(*t.shape, 2) - x0
        a, chord = b[:, :-1], np.diff(b, axis=1)
        length = np.hypot(chord[..., 0], chord[..., 1])
        # distance from x0 (the origin here) to each chord
        along = np.clip(-np.einsum("pck,pck->pc", a, chord)
                        / np.maximum(length * length, 1e-300), 0.0, 1.0)
        near = a + along[..., None] * chord
        dist = np.hypot(near[..., 0], near[..., 1]).min(axis=1)
        long = length.sum(axis=1) > _PANEL_REACH * dist
        if not long.any():
            break
        cuts = np.sort(np.concatenate([cuts, 0.5 * (lo[long] + hi[long])]))
    return cuts


@dataclass(frozen=True)
class Domain:
    """Base type for planar domains; use the concrete shapes below.

    Concrete shapes implement pieces(), the boundary as a tuple of _Piece
    traversed once counterclockwise, each starting where the one before
    ends; and contains(points), area() and centroid().
    """

    @property
    def is_smooth(self) -> bool:
        """Whether the boundary has a curved piece: False on a polygon."""
        return not all(piece.straight for piece in self.pieces())

    def equal_area_radius(self) -> float:
        """Radius of the disk with the domain's area."""
        return math.sqrt(self.area() / math.pi)

    def boundary_at(self, s):
        """Points b(s) and derivatives b'(s), (n, 2) each, at s in [0, 1).

        Piece i of k covers [i/k, (i+1)/k), so b runs once counterclockwise
        round the boundary; on one piece s is the piece's own parameter.
        """
        pieces = self.pieces()
        k = len(pieces)
        u = k * np.asarray(s, dtype=float)
        which = np.minimum(u.astype(int), k - 1)
        b = np.empty((len(u), 2))
        db = np.empty((len(u), 2))
        for i, piece in enumerate(pieces):
            on = which == i
            b[on], db[on] = piece.at(u[on] - i)
        return b, k * db

    def boundary_rule(self, n: int, x0, radius: float):
        """(b, db, w): boundary points b(t), tangents b'(t) and weights in t.

        sum_i w_i f(b_i, db_i) approximates the sum over the pieces of
        int_0^1 f(b(t), b'(t)) dt in each piece's own t, once
        counterclockwise round the boundary.  Every piece takes n-point
        Gauss panels: its `panels` equal stretches, cut at its corners and
        where it crosses the circle |x - x0| = radius (where f may lose
        smoothness), then graded toward x0 (_graded_panels).  Between the
        cuts f is analytic, so each panel converges geometrically.
        """
        nodes, weights = gauss_legendre(n)
        parts = []
        for piece in self.pieces():
            cuts = np.unique(np.concatenate([
                np.linspace(0.0, 1.0, piece.panels + 1), piece.corners,
                _crossings(piece, x0, radius)]))
            cuts = _graded_panels(piece, x0, cuts)
            t = (cuts[:-1, None] + np.diff(cuts)[:, None] * nodes).ravel()
            w = (np.diff(cuts)[:, None] * weights).ravel()
            parts.append((*piece.at(t), w))
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def boundary_frame(self, s):
        """Boundary points and outward unit normals at parameter values s."""
        b, db = self.boundary_at(s)
        speed = np.hypot(db[:, 0], db[:, 1])
        return b, np.column_stack([db[:, 1] / speed, -db[:, 0] / speed])


@dataclass(frozen=True)
class Disk(Domain):
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if not (_positive(self.radius) and all(map(math.isfinite, self.center))):
            raise GeometryError("disk needs a finite center cx,cy and a positive, finite R")

    def pieces(self):
        return (_arc(self.center, self.radius, self.radius, 0.0, 2.0 * np.pi, periodic=True),)

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        return dx * dx + dy * dy <= self.radius * self.radius * (1 + 1e-14)

    def area(self):
        return math.pi * self.radius**2

    def centroid(self):
        return np.array(self.center)


@dataclass(frozen=True)
class Ellipse(Domain):
    a: float
    b: float

    def __post_init__(self):
        if not _positive(self.a, self.b):
            raise GeometryError("ellipse semi-axes a,b must be positive and finite")

    def pieces(self):
        return (_arc((0.0, 0.0), self.a, self.b, 0.0, 2.0 * np.pi, periodic=True),)

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        q = (pts[:, 0] / self.a) ** 2 + (pts[:, 1] / self.b) ** 2
        return q <= 1 + 1e-14

    def area(self):
        return math.pi * self.a * self.b

    def centroid(self):
        return np.zeros(2)


@dataclass(frozen=True)
class Stadium(Domain):
    """Rectangle [-L, L] x [-R, R] capped by half-disks of radius R."""

    halflength: float
    radius: float

    def __post_init__(self):
        if not _positive(self.halflength, self.radius):
            raise GeometryError("stadium dimensions L,R must be positive and finite")

    def pieces(self):
        """Right cap from (L, -R), top edge, left cap, bottom edge: the
        curvature jumps at the four junctions."""
        L, R = self.halflength, self.radius
        return (_arc((L, 0.0), R, R, -0.5 * np.pi, np.pi), _segment((L, R), (-L, R)),
                _arc((-L, 0.0), R, R, 0.5 * np.pi, np.pi), _segment((-L, -R), (L, -R)))

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        L, R = self.halflength, self.radius
        ax = np.abs(pts[:, 0])
        inside_rect = (ax <= L) & (np.abs(pts[:, 1]) <= R * (1 + 1e-14))
        dx = ax - L
        inside_cap = (dx > 0) & (dx * dx + pts[:, 1] ** 2 <= R * R * (1 + 1e-14))
        return inside_rect | inside_cap

    def area(self):
        return math.pi * self.radius**2 + 4.0 * self.halflength * self.radius

    def centroid(self):
        return np.zeros(2)


@dataclass(frozen=True)
class Superellipse(Domain):
    """|x/a|^p + |y/b|^p <= 1 with exponent p >= 2 (smooth boundary).

    Parameterized in polar form r(theta) so the boundary speed stays
    bounded at the axis crossings (the familiar signed-power
    parameterization is singular there).
    """

    a: float
    b: float
    p: float

    def __post_init__(self):
        if not _positive(self.a, self.b):
            raise GeometryError("superellipse semi-axes a,b must be positive and finite")
        if not 2 <= self.p < math.inf:
            raise GeometryError("superellipse exponent p must be finite and >= 2")

    def pieces(self):
        """One periodic piece that starts from ceil(p/8) times
        _CLOSED_PANELS panels.

        The corners the curve rounds off have an angular width of about
        1/p, and the Gauss panels' geometric convergence slows in
        proportion.  Where p is not an even integer, |cos|^p is not smooth
        at the axes; the axes are then corners of the piece, and the
        panels between them converge like n^-(2p+2).
        """
        corners = () if self.p % 2 == 0 else (0.25, 0.5, 0.75)
        return (_Piece(self._at, periodic=True, panels=_CLOSED_PANELS * math.ceil(self.p / 8),
                       corners=corners),)

    def _at(self, t):
        ang = 2.0 * np.pi * np.asarray(t)
        c, s = np.cos(ang), np.sin(ang)
        r = (np.abs(c / self.a) ** self.p + np.abs(s / self.b) ** self.p) ** (-1.0 / self.p)
        w = r ** (-self.p)
        dw = self.p * c * s * (
            np.abs(s) ** (self.p - 2.0) / self.b**self.p
            - np.abs(c) ** (self.p - 2.0) / self.a**self.p
        )
        dr = -(1.0 / self.p) * w ** (-1.0 / self.p - 1.0) * dw
        dx = dr * c - r * s
        dy = dr * s + r * c
        return (np.column_stack([r * c, r * s]),
                np.column_stack([2.0 * np.pi * dx, 2.0 * np.pi * dy]))

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        q = np.abs(pts[:, 0] / self.a) ** self.p + np.abs(pts[:, 1] / self.b) ** self.p
        return q <= 1 + 1e-12

    def area(self):
        p = self.p
        return float(4.0 * self.a * self.b * _gamma(1 + 1 / p) ** 2 / _gamma(1 + 2 / p))

    def centroid(self):
        return np.zeros(2)


@dataclass(frozen=True)
class Polygon(Domain):
    """Simple polygon, stored with counterclockwise vertex order."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        arr = np.asarray(verts)
        if not np.isfinite(arr).all():
            raise GeometryError("polygon vertices must be finite")
        area2 = _signed_area2(arr)
        # relative to the coordinates' size, so the test does not change
        # under dilation
        if abs(area2) < 1e-14 * np.abs(arr).max() ** 2:
            raise GeometryError("polygon is degenerate")
        if area2 < 0:
            verts = verts[::-1]
            arr = arr[::-1]
        if _self_intersects(arr):
            raise GeometryError("polygon boundary self-intersects")
        object.__setattr__(self, "vertices", verts)

    @property
    def vertex_array(self):
        return np.asarray(self.vertices)

    def pieces(self):
        v = self.vertex_array
        return tuple(map(_segment, v, np.roll(v, -1, axis=0)))

    def contains(self, pts):
        return point_in_polygon(np.atleast_2d(pts), self.vertex_array)

    def area(self):
        return 0.5 * _signed_area2(self.vertex_array)

    def centroid(self):
        v = self.vertex_array
        w = np.roll(v, -1, axis=0)
        cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        cx = np.sum((v[:, 0] + w[:, 0]) * cross) / (3.0 * np.sum(cross))
        cy = np.sum((v[:, 1] + w[:, 1]) * cross) / (3.0 * np.sum(cross))
        return np.array([cx, cy])


def _signed_area2(v: np.ndarray) -> float:
    w = np.roll(v, -1, axis=0)
    return float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def _self_intersects(v: np.ndarray) -> bool:
    k = len(v)
    segs = [(v[i], v[(i + 1) % k]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                continue  # shared endpoint
            if _segments_cross(*segs[i], *segs[j]):
                return True
    return False


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def point_in_polygon(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Crossing-number containment test (boundary counts inside).

    Loops over the edges, vectorized over the points, so its memory is
    O(points) however many vertices the polygon has.
    """
    x = pts[:, 0]
    y = pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    ends = np.roll(verts, -1, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for (x1, y1), (x2, y2) in zip(verts.tolist(), ends.tolist()):
            straddle = (y1 <= y) != (y2 <= y)
            inside ^= straddle & (x < x1 + (y - y1) * (x2 - x1) / (y2 - y1))
    # points essentially on the boundary count as inside
    outside = np.nonzero(~inside)[0]
    if len(outside):
        tol = 1e-12 * np.abs(verts).max()
        inside[outside] |= _near_distance(pts[outside], verts, tol) <= tol
    return inside


def _near_distance(pts: np.ndarray, verts: np.ndarray, limit: float) -> np.ndarray:
    """distance_to_segments where it may be at most `limit`, inf elsewhere.

    Every point of a segment lies within half its length of an endpoint,
    so the distance to the polyline is at least the distance to the
    nearest vertex minus half the longest segment.  Points whose bound
    clears `limit` by more than a rounding slack get inf without the
    dense computation, so any test `d <= limit` or `d >= limit` on the
    result agrees with the same test on distance_to_segments.
    """
    longest = np.hypot(*(np.roll(verts, -1, axis=0) - verts).T).max()
    slack = 1e-9 * (limit + longest + np.abs(verts).max())
    near = cKDTree(verts).query(pts)[0] - 0.5 * longest <= limit + slack
    out = np.full(len(pts), np.inf)
    out[near] = distance_to_segments(pts[near], verts)
    return out


def distance_to_segments(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Distance from each point to the closed polyline through verts."""
    a = verts
    b = np.roll(verts, -1, axis=0)
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    out = np.full(len(pts), np.inf)
    for start in range(0, len(pts), 2048):
        p = pts[start : start + 2048]
        ap = p[:, None, :] - a[None, :, :]
        tt = np.clip(np.einsum("pse,se->ps", ap, ab) / denom[None, :], 0.0, 1.0)
        closest = a[None, :, :] + tt[:, :, None] * ab[None, :, :]
        d = np.min(np.linalg.norm(p[:, None, :] - closest, axis=2), axis=1)
        out[start : start + 2048] = d
    return out


# ---------------------------------------------------------------------------
# Boundary polylines
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _dense_samples(d: Domain):
    """Per piece: the length of a straight one, and (arclen, ds, kappa), the
    arclength/curvature bookkeeping at _DENSE samples, of a curved one."""
    t = (np.arange(_DENSE) + 0.5) / _DENSE
    out = []
    for piece in d.pieces():
        if piece.straight:
            edge = piece.at(np.zeros(1))[1][0]
            out.append(float(np.hypot(edge[0], edge[1])))
            continue
        _, db = piece.at(t)
        dx, dy = db[:, 0], db[:, 1]
        ds = np.hypot(dx, dy) / _DENSE
        arclen = np.concatenate([[0.0], np.cumsum(ds)])
        theta = np.unwrap(np.arctan2(dy, dx))
        # centered curvature estimate d(theta)/ds, round the closed curve
        # on a periodic piece and one-sided at the ends of any other
        dtheta = np.empty_like(theta)
        dtheta[1:-1] = theta[2:] - theta[:-2]
        if piece.periodic:
            dtheta[0] = theta[1] - (theta[-1] - 2 * np.pi)
            dtheta[-1] = (theta[0] + 2 * np.pi) - theta[-2]
        else:
            dtheta[0] = 2.0 * (theta[1] - theta[0])
            dtheta[-1] = 2.0 * (theta[-1] - theta[-2])
        out.append((arclen, ds, np.abs(dtheta) / (2.0 * ds)))
    return tuple(out)


def boundary_polyline(d: Domain, h_b: float):
    """Closed counterclockwise polyline with vertices on the analytic boundary.

    Returns (vertices, params): the (n, 2) vertices and the boundary
    parameter s in [0, 1) of Domain.boundary_at at each.  Every piece
    starts at a vertex.
    A straight piece gets round(length / h_b) equal segments; a curved one
    gets segments of about h_b, shorter where the curvature is high.  All
    lie within [h_b/2, 2 h_b].  The closing edge is implicit (the last
    vertex connects back to the first).
    """
    if not (h_b > 0 and math.isfinite(h_b)):
        raise GeometryError("boundary spacing must be positive")
    pieces = d.pieces()
    samples = _dense_samples(d)
    perimeter = sum(x if piece.straight else x[0][-1] for piece, x in zip(pieces, samples))
    if d.is_smooth and h_b > perimeter / 8.0:
        raise GeometryError(
            f"boundary spacing {h_b:g} too large for perimeter {perimeter:g}"
        )
    kappa_ref = 2.0 * np.pi / perimeter
    grid = np.arange(_DENSE + 1) / _DENSE
    ts = []
    for piece, x in zip(pieces, samples):
        if piece.straight:
            if x < 0.5 * h_b:
                raise GeometryError(
                    f"boundary spacing {h_b:g} too large for a straight edge of "
                    f"length {x:g}"
                )
            k = max(1, round(x / h_b))
            t = np.arange(k) / k
        else:
            _, ds, kappa = x
            target = h_b * np.sqrt(kappa_ref / np.maximum(kappa, 1e-12 * kappa_ref))
            target = np.clip(target, 0.55 * h_b, 1.9 * h_b)
            units = np.concatenate([[0.0], np.cumsum(ds / target)])
            if piece.periodic:
                # even count: centrally symmetric shapes (t -> t + 1/2) then
                # produce exactly symmetric vertex sets, so odd moments
                # cancel identically
                k = max(8, 2 * int(round(0.5 * units[-1])))
            else:
                k = max(1, int(round(units[-1])))
            # parameter values at equal unit increments; vertices exactly on the curve
            u_targets = units[-1] * np.arange(k) / k
            t = np.interp(u_targets, units, grid) % 1.0
        ts.append(t)
    # the vertices are d.boundary_at(params) bit for bit
    params = np.concatenate([(i + t) / len(pieces) for i, t in enumerate(ts)])
    return d.boundary_at(params)[0], params


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------

# each shape and its spec's parameters: its dataclass fields in order, flattened
_SHAPES = {
    "disk": (Disk, "cx,cy,R"),
    "ellipse": (Ellipse, "a,b"),
    "stadium": (Stadium, "L,R"),
    "superellipse": (Superellipse, "a,b,p"),
}


def _numbers(parts, shape: str, names: str) -> list:
    """The floats of `parts`, one per name in the comma list `names`."""
    want = names.count(",") + 1
    if len(parts) != want:
        raise GeometryError(f"{shape} needs {want} parameters {names}, got {len(parts)}")
    try:
        return [float(v) for v in parts]
    except ValueError:
        raise GeometryError(f"{shape} parameters {names} must be numbers, "
                            f"got {','.join(parts)!r}") from None


def parse_domain(text: str) -> Domain:
    """Parse domain spec strings.

    Formats: ``disk:cx,cy,R``, ``ellipse:a,b``, ``stadium:L,R``,
    ``superellipse:a,b,p``, ``polygon:@file`` (one ``x y`` pair per line)
    or ``polygon:x1,y1;x2,y2;...``.
    """
    if ":" not in text:
        raise GeometryError(f"domain spec needs 'shape:params', got {text!r}")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if kind == "polygon":
        if body.startswith("@"):
            with open(body[1:]) as fh:
                pairs = [ln.replace(",", " ").split() for ln in map(str.strip, fh)
                         if ln and not ln.startswith("#")]
        else:
            pairs = [pair.split(",") for pair in body.split(";") if pair.strip()]
        return Polygon(tuple(_numbers(pair, "polygon vertex", "x,y") for pair in pairs))
    if kind not in _SHAPES:
        raise GeometryError(f"unknown shape kind {kind!r}")
    shape, names = _SHAPES[kind]
    params = _numbers(body.split(","), kind, names)
    if kind == "disk":
        return Disk(tuple(params[:2]), params[2])
    return shape(*params)


def _num(x) -> str:
    """Shortest round-trip form of a float, without a trailing '.0'."""
    return repr(float(x)).removesuffix(".0")


def domain_spec_string(d: Domain) -> str:
    """Canonical spec string for a domain (inverse of :func:`parse_domain`):
    its _SHAPES kind and its dataclass fields in order, the disk's center
    flattened."""
    if isinstance(d, Polygon):
        return "polygon:" + ";".join(f"{_num(x)},{_num(y)}" for x, y in d.vertices)
    kind = {shape: kind for kind, (shape, _) in _SHAPES.items()}.get(type(d))
    if kind is None:
        raise GeometryError(f"cannot serialize {type(d).__name__}")
    return f"{kind}:" + ",".join(map(_num, np.hstack([getattr(d, f.name) for f in fields(d)])))
