import math

import numpy as np
import pytest

from neuspec import geometry as geo


class TestConstruction:
    def test_disk_valid(self):
        d = geo.make_domain("disk", 0.0, 0.0, 1.0)
        assert isinstance(d, geo.Disk)

    def test_ellipse_area(self):
        d = geo.make_domain("ellipse", 1.5, 2.0 / 3.0)
        assert d.area() == pytest.approx(math.pi, rel=1e-15)

    def test_crossing_polygon_rejected(self):
        with pytest.raises(geo.GeometryError):
            geo.Polygon(((0, 0), (1, 1), (1, 0), (0, 1)))  # bowtie

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(geo.GeometryError):
            geo.Disk((0, 0), -1.0)
        with pytest.raises(geo.GeometryError):
            geo.Ellipse(1.0, 0.0)
        with pytest.raises(geo.GeometryError):
            geo.Superellipse(1.0, 1.0, 0.5)

    def test_polygon_orientation_normalized(self):
        cw = geo.Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))
        assert cw.area() > 0

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(geo.GeometryError):
            geo.Polygon(((0, 0), (1, 0), (2, 0)))


class TestParsing:
    def test_roundtrip_specs(self):
        for spec in (
            "disk:0,0,1",
            "ellipse:1.5,0.6667",
            "stadium:0.5,0.6",
            "superellipse:1,1,4",
            "polygon:0,0;2,0;0.4,1.1",
        ):
            d = geo.parse_domain(spec)
            again = geo.parse_domain(geo.domain_spec_string(d))
            assert type(again) is type(d)

    def test_polygon_from_file(self, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("0 0\n1 0\n1 1\n0 1\n")
        d = geo.parse_domain(f"polygon:@{path}")
        assert d.area() == pytest.approx(1.0)

    def test_bad_specs(self):
        with pytest.raises(geo.GeometryError):
            geo.parse_domain("circle:1")
        with pytest.raises(geo.GeometryError):
            geo.parse_domain("disk:a,b,c")
        with pytest.raises(geo.GeometryError):
            geo.parse_domain("just-a-name")


class TestBoundaryPolyline:
    def test_disk_segments(self):
        d = geo.Disk((0, 0), 1.0)
        pl = geo.boundary_polyline(d, 0.1)
        assert 60 <= len(pl) <= 66
        radii = np.hypot(pl[:, 0], pl[:, 1])
        assert np.abs(radii - 1.0).max() < 1e-14

    def test_segment_length_bounds(self):
        for d in (
            geo.Disk((0, 0), 1.0),
            geo.Ellipse(2.0, 0.5),
            geo.Stadium(0.5, 0.6),
            geo.Superellipse(1.0, 1.0, 4.0),
            geo.Polygon(((0, 0), (2, 0), (0.4, 1.1))),
        ):
            pl = geo.boundary_polyline(d, 0.1)
            seg = np.linalg.norm(np.roll(pl, -1, axis=0) - pl, axis=1)
            assert seg.min() >= 0.05 - 1e-12
            assert seg.max() <= 0.2 + 1e-12

    def test_curvature_adaptive_on_ellipse(self):
        pl = geo.boundary_polyline(geo.Ellipse(2.0, 0.5), 0.1)
        seg = np.linalg.norm(np.roll(pl, -1, axis=0) - pl, axis=1)
        assert seg.max() / seg.min() <= 4.0
        # shortest segments cluster at the high-curvature ends (|x| ~ a)
        mids = 0.5 * (pl + np.roll(pl, -1, axis=0))
        near_ends = np.abs(mids[:, 0]) > 1.5
        assert seg[near_ends].mean() < seg[~near_ends].mean()

    def test_polygon_vertices_preserved(self):
        tri = geo.Polygon(((0, 0), (2, 0), (0.4, 1.1)))
        pl = geo.boundary_polyline(tri, 0.13)
        for v in tri.vertices:
            assert np.min(np.hypot(pl[:, 0] - v[0], pl[:, 1] - v[1])) < 1e-14

    def test_spacing_too_large(self):
        with pytest.raises(geo.GeometryError):
            geo.boundary_polyline(geo.Disk((0, 0), 1.0), 2.0)
        with pytest.raises(geo.GeometryError):
            geo.boundary_polyline(geo.Polygon(((0, 0), (1, 0), (0.5, 0.4))), 1.5)


class TestMetrics:
    def test_equal_volume_radius(self):
        m = geo.domain_metrics(geo.Ellipse(1.5, 2.0 / 3.0))
        assert m.equal_volume_radius == pytest.approx(1.0, rel=1e-12)
        assert math.pi * m.equal_volume_radius**2 == pytest.approx(m.area, rel=1e-12)

    def test_square_radius(self):
        sq = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        m = geo.domain_metrics(sq)
        assert m.equal_volume_radius == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert m.equal_volume_radius == pytest.approx(0.564190, abs=1e-6)

    def test_stadium_closed_form(self):
        m = geo.domain_metrics(geo.Stadium(0.5, 0.6))
        expect = math.pi * 0.36 + 2 * 0.5 * 1.2
        assert m.area == pytest.approx(expect, rel=1e-14)
        assert m.equal_volume_radius == pytest.approx(math.sqrt(expect / math.pi), rel=1e-14)

    def test_superellipse_area_vs_quadrature(self):
        from neuspec.quadrature import integrate

        d = geo.Superellipse(1.2, 0.8, 3.0)
        area_quad = integrate(d, lambda p: np.ones(len(p)), degree=4, h=0.04, extrapolate=True)
        assert d.area() == pytest.approx(area_quad, rel=1e-5)

    def test_centroid_inside_hull(self):
        for d in (
            geo.Polygon(((0, 0), (2, 0), (0.4, 1.1))),
            geo.Stadium(0.5, 0.6),
            geo.Ellipse(1.5, 2 / 3),
        ):
            m = geo.domain_metrics(d)
            hull = np.asarray(m.hull)
            assert geo.point_in_polygon(np.array([m.centroid]), hull)[0]

    def test_rigid_motion_transforms(self):
        tri = geo.Polygon(((0, 0), (2, 0), (0.4, 1.1)))
        m0 = geo.domain_metrics(tri)
        moved = tri.translated((3.0, -1.5)).rotated(0.9, about=(1.0, 1.0))
        m1 = geo.domain_metrics(moved)
        assert m1.area == pytest.approx(m0.area, rel=1e-14)
        c, s = math.cos(0.9), math.sin(0.9)
        px, py = m0.centroid[0] + 3.0 - 1.0, m0.centroid[1] - 1.5 - 1.0
        expect = (1.0 + c * px - s * py, 1.0 + s * px + c * py)
        assert m1.centroid[0] == pytest.approx(expect[0], abs=1e-12)
        assert m1.centroid[1] == pytest.approx(expect[1], abs=1e-12)

    def test_disk_translation(self):
        d = geo.Disk((0, 0), 0.7).translated((2.0, 3.0))
        m = geo.domain_metrics(d)
        assert m.centroid == (2.0, 3.0)
        assert m.area == pytest.approx(math.pi * 0.49, rel=1e-15)


class TestConvexHull:
    def test_collinear_dropped(self):
        pts = np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2], [1, 1]])
        hull = geo.convex_hull(pts)
        assert len(hull) == 4
        assert {tuple(p) for p in hull} == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 2))
        h1 = geo.convex_hull(pts)
        h2 = geo.convex_hull(pts)
        assert np.array_equal(h1, h2)


def point_in_polygon_broadcast(pts, verts):
    """Crossing-number test on (points x vertices) arrays, boundary inside."""
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = verts[:, 0][None, :], verts[:, 1][None, :]
    x2, y2 = np.roll(verts[:, 0], -1)[None, :], np.roll(verts[:, 1], -1)[None, :]
    straddle = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    inside = np.sum(straddle & (x < xs), axis=1) % 2 == 1
    outside = np.nonzero(~inside)[0]
    if len(outside):
        d = geo.distance_to_segments(pts[outside], verts)
        inside[outside] |= d <= 1e-12 * max(np.abs(verts).max(), 1.0)
    return inside


class TestContainment:
    @pytest.mark.parametrize("spec", [
        "polygon:0,0;2,0;0.4,1.1",
        "polygon:0,0;1,0;1,1;0,1",
        "polygon:0,0;2,0;2,1;1,1;1,2;0,2",
    ])
    def test_point_in_polygon_matches_broadcast_form(self, spec):
        verts = geo.parse_domain(spec).vertex_array
        rng = np.random.default_rng(17)
        lo, hi = verts.min(axis=0) - 0.3, verts.max(axis=0) + 0.3
        scattered = lo + (hi - lo) * rng.random((3000, 2))
        # rows through the vertices hit the straddle test's ties
        level = np.column_stack([lo[0] + (hi[0] - lo[0]) * rng.random(len(verts) * 20),
                                 np.repeat(verts[:, 1], 20)])
        frac = np.linspace(0.0, 1.0, 9)[None, :, None]
        edge = np.roll(verts, -1, axis=0) - verts
        boundary = (verts[:, None, :] + frac * edge[:, None, :]).reshape(-1, 2)
        pts = np.vstack([scattered, level, boundary])
        got = geo.point_in_polygon(pts, verts)
        assert np.array_equal(got, point_in_polygon_broadcast(pts, verts))
        assert got[-len(boundary):].all()
        assert got.any() and not got.all()

    def test_basic_shapes(self):
        inside = np.array([[0.2, 0.1]])
        outside = np.array([[2.5, 0.0]])
        for d in (
            geo.Disk((0, 0), 1.0),
            geo.Ellipse(1.5, 2 / 3),
            geo.Stadium(0.5, 0.6),
            geo.Superellipse(1, 1, 4),
        ):
            assert d.contains(inside)[0]
            assert not d.contains(outside)[0]

    def test_polygon_boundary_counts_inside(self):
        sq = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert sq.contains(np.array([[0.5, 0.0]]))[0]
        assert sq.contains(np.array([[0.5, 0.5]]))[0]
        assert not sq.contains(np.array([[1.5, 0.5]]))[0]
