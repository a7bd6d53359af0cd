"""Planar domain shapes: validation, boundary polylines, and metrics.

Shapes are immutable dataclasses carrying exact parameterizations of
their boundary.  Curved boundaries are discretized by curvature-adaptive
polylines whose vertices lie exactly on the analytic curve; everything
downstream (meshing, quadrature) works on the polygonized domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma

__all__ = [
    "Domain",
    "Disk",
    "Ellipse",
    "Stadium",
    "Polygon",
    "Superellipse",
    "DomainMetrics",
    "make_domain",
    "parse_domain",
    "domain_spec_string",
    "boundary_polyline",
    "domain_metrics",
    "convex_hull",
    "point_in_polygon",
    "GeometryError",
]

_DENSE = 8192  # samples for arclength/curvature bookkeeping on curved shapes


class GeometryError(ValueError):
    """Invalid shape description or infeasible discretization request."""


@dataclass(frozen=True)
class Domain:
    """Base type for planar domains; use the concrete shapes below."""

    @property
    def is_smooth(self) -> bool:
        return True

    # Concrete shapes implement: _param(t), _param_deriv(t) for t in [0,1)
    # traversing the boundary once counterclockwise, contains(points),
    # area(), centroid(), and diameter().

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
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise GeometryError("disk radius must be positive")

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

    def translated(self, vec):
        return Disk((self.center[0] + vec[0], self.center[1] + vec[1]), self.radius)

    def rotated(self, angle, about=(0.0, 0.0)):
        c, s = math.cos(angle), math.sin(angle)
        px = self.center[0] - about[0]
        py = self.center[1] - about[1]
        return Disk((about[0] + c * px - s * py, about[1] + s * px + c * py), self.radius)


@dataclass(frozen=True)
class Ellipse(Domain):
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise GeometryError("ellipse semi-axes must be positive")

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
        if not (self.halflength > 0 and self.radius > 0):
            raise GeometryError("stadium dimensions must be positive")

    def _pieces(self):
        L, R = self.halflength, self.radius
        arc = math.pi * R
        straight = 2.0 * L
        total = 2 * arc + 2 * straight
        return L, R, arc, straight, total

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
        if not (self.a > 0 and self.b > 0):
            raise GeometryError("superellipse semi-axes must be positive")
        if not self.p >= 2:
            raise GeometryError("superellipse exponent must be >= 2")

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
        area2 = _signed_area2(arr)
        if abs(area2) < 1e-14:
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

    def diameter(self):
        v = self.vertex_array
        lo = v.min(axis=0)
        hi = v.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def translated(self, vec):
        return Polygon(tuple((x + vec[0], y + vec[1]) for x, y in self.vertices))

    def rotated(self, angle, about=(0.0, 0.0)):
        c, s = math.cos(angle), math.sin(angle)
        out = []
        for x, y in self.vertices:
            px, py = x - about[0], y - about[1]
            out.append((about[0] + c * px - s * py, about[1] + s * px + c * py))
        return Polygon(tuple(out))


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
        d = distance_to_segments(pts[outside], verts)
        scale = max(np.abs(verts).max(), 1.0)
        inside[outside] |= d <= 1e-12 * scale
    return inside


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


def boundary_polyline(d: Domain, h_b: float) -> np.ndarray:
    """Closed counterclockwise polyline with vertices on the analytic boundary.

    Segment lengths stay within [h_b/2, 2 h_b]; on curved boundaries the
    spacing is reduced where curvature is high.  The closing edge is
    implicit (the last vertex connects back to the first).
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
        return np.vstack(out)

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
    t_hits = np.interp(u_targets, units, grid)
    x, y = d._param(t_hits % 1.0)
    return np.column_stack([x, y])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainMetrics:
    area: float
    centroid: tuple
    hull: tuple
    equal_volume_radius: float


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull (counterclockwise, collinear points dropped).

    Lexicographic presorting fixes tie order, so the result is deterministic.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1])


def domain_metrics(d: Domain) -> DomainMetrics:
    """Area, centroid, convex hull, and equal-volume radius of a domain.

    Area and centroid use closed forms for every supported shape; the hull
    is computed from a fine boundary polyline (the exact vertex set for
    polygons).
    """
    area = d.area()
    centroid = d.centroid()
    if isinstance(d, Polygon):
        hull = convex_hull(d.vertex_array)
    else:
        t = np.arange(512) / 512.0
        x, y = d._param(t)
        hull = convex_hull(np.column_stack([x, y]))
    return DomainMetrics(
        area=float(area),
        centroid=(float(centroid[0]), float(centroid[1])),
        hull=tuple(map(tuple, hull)),
        equal_volume_radius=math.sqrt(area / math.pi),
    )


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------

_SHAPES = {
    "disk": Disk,
    "ellipse": Ellipse,
    "stadium": Stadium,
    "polygon": Polygon,
    "superellipse": Superellipse,
}


def make_domain(kind: str, *params) -> Domain:
    """Validated domain from a shape name and its positional parameters."""
    kind = kind.lower()
    if kind == "disk":
        cx, cy, r = params
        return Disk((cx, cy), r)
    if kind == "ellipse":
        return Ellipse(*params)
    if kind == "stadium":
        return Stadium(*params)
    if kind == "superellipse":
        return Superellipse(*params)
    if kind == "polygon":
        (verts,) = params
        return Polygon(tuple(map(tuple, verts)))
    raise GeometryError(f"unknown shape kind {kind!r}")


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
    if kind not in _SHAPES:
        raise GeometryError(f"unknown shape kind {kind!r}")
    if kind == "polygon":
        if body.startswith("@"):
            verts = []
            with open(body[1:]) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    sx, sy = line.replace(",", " ").split()
                    verts.append((float(sx), float(sy)))
        else:
            verts = [
                tuple(float(v) for v in pair.split(","))
                for pair in body.split(";")
                if pair.strip()
            ]
        return Polygon(tuple(verts))
    try:
        params = [float(v) for v in body.split(",")]
    except ValueError as exc:
        raise GeometryError(f"bad numeric parameters in {text!r}") from exc
    return make_domain(kind, *params)


def domain_spec_string(d: Domain) -> str:
    """Canonical spec string for a domain (inverse of :func:`parse_domain`)."""
    if isinstance(d, Disk):
        return f"disk:{d.center[0]:g},{d.center[1]:g},{d.radius:g}"
    if isinstance(d, Ellipse):
        return f"ellipse:{d.a:g},{d.b:g}"
    if isinstance(d, Stadium):
        return f"stadium:{d.halflength:g},{d.radius:g}"
    if isinstance(d, Superellipse):
        return f"superellipse:{d.a:g},{d.b:g},{d.p:g}"
    if isinstance(d, Polygon):
        return "polygon:" + ";".join(f"{x:g},{y:g}" for x, y in d.vertices)
    raise GeometryError(f"cannot serialize {type(d).__name__}")
