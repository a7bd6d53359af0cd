"""Planar domain shapes: validation, boundary polylines, and metrics.

Shapes are immutable dataclasses carrying exact parameterizations of
their boundary.  Curved boundaries are discretized by curvature-adaptive
polylines whose vertices lie exactly on the analytic curve, and meshing
and the FEM work on that polygonized domain; the trial certificate
integrates over the exact one from each shape's boundary_rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, cKDTree
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

_DENSE = 8192  # samples for arclength/curvature bookkeeping on curved shapes
# nodes of the periodic trapezoid rule per node of a Gauss panel, at equal
# resolution n in Domain.boundary_rule
_PERIODIC_NODES = 8


class GeometryError(ValueError):
    """Invalid shape description or infeasible discretization request."""


def _positive(*values) -> bool:
    return all(0 < v < math.inf for v in values)


@dataclass(frozen=True)
class Domain:
    """Base type for planar domains; use the concrete shapes below."""

    @property
    def is_smooth(self) -> bool:
        return True

    # Concrete shapes implement: _param(t), _param_deriv(t) for t in [0,1)
    # traversing the boundary once counterclockwise, contains(points),
    # area(), centroid(), and diameter().

    def equal_area_radius(self) -> float:
        """Radius of the disk with the domain's area."""
        return math.sqrt(self.area() / math.pi)

    def hull(self) -> np.ndarray:
        """Counterclockwise vertices of the convex hull of 512 boundary points."""
        pts = np.column_stack(self._param(np.arange(512) / 512.0))
        return pts[ConvexHull(pts).vertices]

    def boundary_rule(self, n: int):
        """(b, db, w): boundary points b(t), tangents b'(t) and weights in t.

        sum_i w_i f(b_i, db_i) approximates int_0^1 f(b(t), b'(t)) dt once
        counterclockwise round the boundary.  A smooth closed curve takes
        the periodic trapezoid rule on _PERIODIC_NODES * n nodes, which
        converges geometrically there; a boundary made of pieces takes one
        n-point Gauss panel per piece instead.
        """
        return self._periodic_rule(_PERIODIC_NODES * n)

    def _periodic_rule(self, m: int):
        return self._rule_at(np.arange(m) / m, np.full(m, 1.0 / m))

    def _rule_at(self, t, w):
        b = np.column_stack(self._param(t))
        db = np.column_stack(self._param_deriv(t))
        return b, db, w

    def boundary_frame(self, t):
        """Boundary points and outward unit normals at parameter values t."""
        x, y = self._param(t)
        dx, dy = self._param_deriv(t)
        speed = np.hypot(dx, dy)
        return np.column_stack([x, y]), np.column_stack([dy / speed, -dx / speed])


@dataclass(frozen=True)
class Disk(Domain):
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if not (_positive(self.radius) and all(map(math.isfinite, self.center))):
            raise GeometryError("disk needs a finite center cx,cy and a positive, finite R")

    def _param(self, t):
        ang = 2.0 * np.pi * np.asarray(t)
        return self.center[0] + self.radius * np.cos(ang), self.center[1] + self.radius * np.sin(ang)

    def _param_deriv(self, t):
        ang = 2.0 * np.pi * np.asarray(t)
        w = 2.0 * np.pi * self.radius
        return -w * np.sin(ang), w * np.cos(ang)

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        return dx * dx + dy * dy <= self.radius * self.radius * (1 + 1e-14)

    def area(self):
        return math.pi * self.radius**2

    def centroid(self):
        return np.array(self.center)

    def diameter(self):
        return 2.0 * self.radius


@dataclass(frozen=True)
class Ellipse(Domain):
    a: float
    b: float

    def __post_init__(self):
        if not _positive(self.a, self.b):
            raise GeometryError("ellipse semi-axes a,b must be positive and finite")

    def _param(self, t):
        ang = 2.0 * np.pi * np.asarray(t)
        return self.a * np.cos(ang), self.b * np.sin(ang)

    def _param_deriv(self, t):
        ang = 2.0 * np.pi * np.asarray(t)
        return -2.0 * np.pi * self.a * np.sin(ang), 2.0 * np.pi * self.b * np.cos(ang)

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        q = (pts[:, 0] / self.a) ** 2 + (pts[:, 1] / self.b) ** 2
        return q <= 1 + 1e-14

    def area(self):
        return math.pi * self.a * self.b

    def centroid(self):
        return np.zeros(2)

    def diameter(self):
        return 2.0 * max(self.a, self.b)


@dataclass(frozen=True)
class Stadium(Domain):
    """Rectangle [-L, L] x [-R, R] capped by half-disks of radius R."""

    halflength: float
    radius: float

    def __post_init__(self):
        if not _positive(self.halflength, self.radius):
            raise GeometryError("stadium dimensions L,R must be positive and finite")

    def _pieces(self):
        L, R = self.halflength, self.radius
        arc = math.pi * R
        straight = 2.0 * L
        total = 2 * arc + 2 * straight
        return L, R, arc, straight, total

    def boundary_rule(self, n: int):
        """One n-point Gauss panel per cap and per straight: the curvature
        jumps at the four junctions, where a uniform rule in t loses its
        geometric convergence."""
        _, _, arc, straight, total = self._pieces()
        breaks = np.cumsum([0.0, arc, straight, arc, straight]) / total
        x, w = gauss_legendre(n)
        width = np.diff(breaks)
        t = (breaks[:-1, None] + width[:, None] * x[None, :]).ravel()
        return self._rule_at(t, (width[:, None] * w[None, :]).ravel())

    def _param(self, t):
        L, R, arc, straight, total = self._pieces()
        s = (np.asarray(t, dtype=float) % 1.0) * total
        x = np.empty_like(s)
        y = np.empty_like(s)
        # right cap: angle -pi/2 -> pi/2 about (L, 0)
        m = s < arc
        ang = -0.5 * np.pi + s[m] / R
        x[m] = L + R * np.cos(ang)
        y[m] = R * np.sin(ang)
        # top edge: (L, R) -> (-L, R)
        m2 = (s >= arc) & (s < arc + straight)
        x[m2] = L - (s[m2] - arc)
        y[m2] = R
        # left cap: angle pi/2 -> 3pi/2 about (-L, 0)
        m3 = (s >= arc + straight) & (s < 2 * arc + straight)
        ang = 0.5 * np.pi + (s[m3] - arc - straight) / R
        x[m3] = -L + R * np.cos(ang)
        y[m3] = R * np.sin(ang)
        # bottom edge: (-L, -R) -> (L, -R)
        m4 = s >= 2 * arc + straight
        x[m4] = -L + (s[m4] - 2 * arc - straight)
        y[m4] = -R
        return x, y

    def _param_deriv(self, t):
        L, R, arc, straight, total = self._pieces()
        s = (np.asarray(t, dtype=float) % 1.0) * total
        dx = np.empty_like(s)
        dy = np.empty_like(s)
        m = s < arc
        ang = -0.5 * np.pi + s[m] / R
        dx[m] = -np.sin(ang)
        dy[m] = np.cos(ang)
        m2 = (s >= arc) & (s < arc + straight)
        dx[m2] = -1.0
        dy[m2] = 0.0
        m3 = (s >= arc + straight) & (s < 2 * arc + straight)
        ang = 0.5 * np.pi + (s[m3] - arc - straight) / R
        dx[m3] = -np.sin(ang)
        dy[m3] = np.cos(ang)
        m4 = s >= 2 * arc + straight
        dx[m4] = 1.0
        dy[m4] = 0.0
        return dx * total, dy * total

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

    def diameter(self):
        return 2.0 * (self.halflength + self.radius)


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

    def boundary_rule(self, n: int):
        """The periodic trapezoid rule on ceil(p/8) times the base nodes.

        The corners the curve rounds off have an angular width of about
        1/p, and the rule's geometric convergence slows in proportion.
        Where p is not an even integer, |cos|^p is not smooth at the axes
        and the convergence is only algebraic, of order about p + 1.
        """
        return self._periodic_rule(_PERIODIC_NODES * n * math.ceil(self.p / 8))

    def _polar(self, ang):
        c, s = np.cos(ang), np.sin(ang)
        w = np.abs(c / self.a) ** self.p + np.abs(s / self.b) ** self.p
        return c, s, w ** (-1.0 / self.p)

    def _param(self, t):
        ang = 2.0 * np.pi * np.asarray(t)
        c, s, r = self._polar(ang)
        return r * c, r * s

    def _param_deriv(self, t):
        ang = 2.0 * np.pi * np.asarray(t)
        c, s, r = self._polar(ang)
        w = r ** (-self.p)
        dw = self.p * c * s * (
            np.abs(s) ** (self.p - 2.0) / self.b**self.p
            - np.abs(c) ** (self.p - 2.0) / self.a**self.p
        )
        dr = -(1.0 / self.p) * w ** (-1.0 / self.p - 1.0) * dw
        dx = dr * c - r * s
        dy = dr * s + r * c
        return 2.0 * np.pi * dx, 2.0 * np.pi * dy

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        q = np.abs(pts[:, 0] / self.a) ** self.p + np.abs(pts[:, 1] / self.b) ** self.p
        return q <= 1 + 1e-12

    def area(self):
        p = self.p
        return 4.0 * self.a * self.b * _gamma(1 + 1 / p) ** 2 / _gamma(1 + 2 / p)

    def centroid(self):
        return np.zeros(2)

    def diameter(self):
        return 2.0 * max(self.a, self.b)


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
    def is_smooth(self) -> bool:
        return False

    @property
    def vertex_array(self):
        return np.asarray(self.vertices)

    def boundary_rule(self, n: int):
        """One n-point Gauss panel per edge, t running 0..1 along each edge."""
        a = self.vertex_array
        edge = np.roll(a, -1, axis=0) - a
        x, w = gauss_legendre(n)
        b = (a[:, None, :] + x[None, :, None] * edge[:, None, :]).reshape(-1, 2)
        db = np.repeat(edge, n, axis=0)
        return b, db, np.tile(w, len(a))

    def contains(self, pts):
        return point_in_polygon(np.atleast_2d(pts), self.vertex_array)

    def area(self):
        return 0.5 * _signed_area2(self.vertex_array)

    def hull(self):
        v = self.vertex_array
        return v[ConvexHull(v).vertices]

    def centroid(self):
        v = self.vertex_array
        w = np.roll(v, -1, axis=0)
        cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        cx = np.sum((v[:, 0] + w[:, 0]) * cross) / (3.0 * np.sum(cross))
        cy = np.sum((v[:, 1] + w[:, 1]) * cross) / (3.0 * np.sum(cross))
        return np.array([cx, cy])

    def diameter(self):
        v = self.vertex_array
        lo = v.min(axis=0)
        hi = v.max(axis=0)
        return float(np.hypot(*(hi - lo)))


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
        tol = 1e-12 * max(np.abs(verts).max(), 1.0)
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
    """Dense arclength/curvature bookkeeping along a smooth boundary."""
    t = (np.arange(_DENSE) + 0.5) / _DENSE
    x, y = d._param(t)
    dx, dy = d._param_deriv(t)
    speed = np.hypot(dx, dy)
    ds = speed / _DENSE
    arclen = np.concatenate([[0.0], np.cumsum(ds)])
    theta = np.unwrap(np.arctan2(dy, dx))
    # centered curvature estimate d(theta)/ds on the closed curve
    dtheta = np.empty_like(theta)
    dtheta[1:-1] = theta[2:] - theta[:-2]
    dtheta[0] = theta[1] - (theta[-1] - 2 * np.pi)
    dtheta[-1] = (theta[0] + 2 * np.pi) - theta[-2]
    kappa = np.abs(dtheta) / (2.0 * ds)
    return t, arclen, ds, kappa


def boundary_polyline(d: Domain, h_b: float):
    """Closed counterclockwise polyline with vertices on the analytic boundary.

    Returns (vertices, params): the (n, 2) vertices and, on a curved shape,
    the curve parameter t in [0, 1) of each (None on a polygon, whose
    vertices need none).  Segment lengths stay within [h_b/2, 2 h_b]; on
    curved boundaries the spacing is reduced where curvature is high.  The
    closing edge is implicit (the last vertex connects back to the first).
    """
    if not (h_b > 0 and math.isfinite(h_b)):
        raise GeometryError("boundary spacing must be positive")

    if isinstance(d, Polygon):
        verts = d.vertex_array
        out = []
        for i in range(len(verts)):
            a = verts[i]
            b = verts[(i + 1) % len(verts)]
            length = float(np.hypot(*(b - a)))
            if length < 0.5 * h_b:
                raise GeometryError(
                    f"boundary spacing {h_b:g} too large for polygon edge of "
                    f"length {length:g}"
                )
            k = max(1, round(length / h_b))
            frac = np.arange(k) / k
            out.append(a[None, :] + frac[:, None] * (b - a)[None, :])
        return np.vstack(out), None

    t, arclen, ds, kappa = _dense_samples(d)
    perimeter = arclen[-1]
    if h_b > perimeter / 8.0:
        raise GeometryError(
            f"boundary spacing {h_b:g} too large for perimeter {perimeter:g}"
        )
    kappa_ref = 2.0 * np.pi / perimeter
    target = h_b * np.sqrt(kappa_ref / np.maximum(kappa, 1e-12))
    target = np.clip(target, 0.55 * h_b, 1.9 * h_b)
    units = np.concatenate([[0.0], np.cumsum(ds / target)])
    # even count: centrally symmetric shapes (t -> t + 1/2) then produce
    # exactly symmetric vertex sets, so odd moments cancel identically
    n_seg = max(8, 2 * int(round(0.5 * units[-1])))
    # parameter values at equal unit increments; vertices exactly on the curve
    u_targets = units[-1] * np.arange(n_seg) / n_seg
    grid = np.arange(_DENSE + 1) / _DENSE
    t_hits = np.interp(u_targets, units, grid) % 1.0
    x, y = d._param(t_hits)
    return np.column_stack([x, y]), t_hits


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------

# each shape and the parameters its spec takes, in order
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
    """Canonical spec string for a domain (inverse of :func:`parse_domain`)."""
    if isinstance(d, Disk):
        return f"disk:{_num(d.center[0])},{_num(d.center[1])},{_num(d.radius)}"
    if isinstance(d, Ellipse):
        return f"ellipse:{_num(d.a)},{_num(d.b)}"
    if isinstance(d, Stadium):
        return f"stadium:{_num(d.halflength)},{_num(d.radius)}"
    if isinstance(d, Superellipse):
        return f"superellipse:{_num(d.a)},{_num(d.b)},{_num(d.p)}"
    if isinstance(d, Polygon):
        return "polygon:" + ";".join(f"{_num(x)},{_num(y)}" for x, y in d.vertices)
    raise GeometryError(f"cannot serialize {type(d).__name__}")
