import math
import re

import numpy as np
import pytest
from conftest import moved_polygon

from neuspec import geometry as geo
from neuspec.corpus import CORPUS, corpus_domain


class TestConstruction:
    def test_disk_valid(self):
        d = geo.parse_domain("disk:0,0,1")
        assert isinstance(d, geo.Disk)

    def test_ellipse_area(self):
        d = geo.Ellipse(1.5, 2.0 / 3.0)
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

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_collinear_polygon_rejected_at_any_scale(self, scale):
        with pytest.raises(geo.GeometryError, match="degenerate"):
            geo.Polygon(((0, 0), (0.3 * scale, 0.1 * scale), (0.6 * scale, 0.2 * scale)))

    def test_tiny_polygon_accepted(self):
        d = geo.parse_domain("polygon:0,0;1e-9,0;1e-9,1e-9;0,1e-9")
        assert d.area() == pytest.approx(1e-18, rel=1e-12)


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
            assert again == d
        for name, spec in CORPUS.items():
            assert geo.domain_spec_string(corpus_domain(name)) == spec
        # the canonical form: the shape's fields in order, each the shortest
        # round-trip float without a trailing '.0'
        for spec, canonical in (
            ("disk:3,-2,0.5", "disk:3,-2,0.5"),
            ("disk:1e6,0,1", "disk:1000000,0,1"),
            ("superellipse:1.3,0.8,2.5", "superellipse:1.3,0.8,2.5"),
            ("stadium:0.01,1.0", "stadium:0.01,1"),
            ("ellipse:1e-300,5e300", "ellipse:1e-300,5e+300"),
            ("polygon:0,0;2,0;2,1;1,1;1,2;0,2", "polygon:0,0;2,0;2,1;1,1;1,2;0,2"),
        ):
            assert geo.domain_spec_string(geo.parse_domain(spec)) == canonical
        with pytest.raises(geo.GeometryError, match="cannot serialize Domain"):
            geo.domain_spec_string(geo.Domain())

    def test_polygon_from_file(self, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("0 0\n1 0\n1 1\n0 1\n")
        d = geo.parse_domain(f"polygon:@{path}")
        assert d.area() == pytest.approx(1.0)

    def test_bad_specs(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 0\n1\n")
        for spec, message in (
            ("circle:1", "unknown shape"),
            ("disk:a,b,c", "disk parameters cx,cy,R"),
            ("just-a-name", "shape:params"),
            ("disk:1,2", "disk needs 3 parameters cx,cy,R, got 2"),
            ("ellipse:1,2,3", "ellipse needs 2 parameters a,b, got 3"),
            ("ellipse:inf,1", "ellipse semi-axes a,b"),
            ("stadium:0.5,inf", "stadium dimensions L,R"),
            ("superellipse:1,1,inf", "superellipse exponent p"),
            ("disk:0,nan,1", "disk needs a finite center"),
            ("polygon:0,0;1,0;1", "polygon vertex needs 2 parameters x,y"),
            ("polygon:0,0;1,0;x,1", "polygon vertex parameters x,y"),
            ("polygon:0,0;1,0;inf,1", "polygon vertices must be finite"),
            (f"polygon:@{path}", "polygon vertex needs 2 parameters x,y"),
        ):
            with pytest.raises(geo.GeometryError, match=re.escape(message)):
                geo.parse_domain(spec)


class TestBoundaryPolyline:
    def test_disk_segments(self):
        d = geo.Disk((0, 0), 1.0)
        pl, _ = geo.boundary_polyline(d, 0.1)
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
            pl, _ = geo.boundary_polyline(d, 0.1)
            seg = np.linalg.norm(np.roll(pl, -1, axis=0) - pl, axis=1)
            assert seg.min() >= 0.05 - 1e-12
            assert seg.max() <= 0.2 + 1e-12

    def test_curvature_adaptive_on_ellipse(self):
        pl, _ = geo.boundary_polyline(geo.Ellipse(2.0, 0.5), 0.1)
        seg = np.linalg.norm(np.roll(pl, -1, axis=0) - pl, axis=1)
        assert seg.max() / seg.min() <= 4.0
        # shortest segments cluster at the high-curvature ends (|x| ~ a)
        mids = 0.5 * (pl + np.roll(pl, -1, axis=0))
        near_ends = np.abs(mids[:, 0]) > 1.5
        assert seg[near_ends].mean() < seg[~near_ends].mean()

    def test_polygon_vertices_preserved(self):
        # every piece starts at a vertex: the polygon's corners, and the
        # stadium's junctions of caps and straights
        tri = geo.Polygon(((0, 0), (2, 0), (0.4, 1.1)))
        stadium = geo.Stadium(0.5, 0.6)
        for d, corners in ((tri, tri.vertices),
                           (stadium, [(x, y) for x in (-0.5, 0.5) for y in (-0.6, 0.6)])):
            pl, _ = geo.boundary_polyline(d, 0.13)
            for v in corners:
                assert np.min(np.hypot(pl[:, 0] - v[0], pl[:, 1] - v[1])) < 1e-14

    @pytest.mark.parametrize("spec", ["disk:0,0,{R}", "ellipse:{a},{b}"])
    def test_vertex_count_is_scale_free(self, spec):
        # the curvature floor scales with the shape, so a dilated shape at
        # a dilated spacing gets the same polyline
        def count(R):
            d = geo.parse_domain(spec.format(R=R, a=1.5 * R, b=R / 1.5))
            return len(geo.boundary_polyline(d, 0.08 * R)[0])

        assert count(1e6) == count(1e12) == count(1e13) == count(1.0)

    def test_spacing_too_large(self):
        with pytest.raises(geo.GeometryError):
            geo.boundary_polyline(geo.Disk((0, 0), 1.0), 2.0)
        with pytest.raises(geo.GeometryError):
            geo.boundary_polyline(geo.Polygon(((0, 0), (1, 0), (0.5, 0.4))), 1.5)


class TestMetrics:
    def test_equal_volume_radius(self):
        d = geo.Ellipse(1.5, 2.0 / 3.0)
        assert d.equal_area_radius() == pytest.approx(1.0, rel=1e-12)
        assert math.pi * d.equal_area_radius() ** 2 == pytest.approx(d.area(), rel=1e-12)

    def test_square_radius(self):
        sq = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert sq.equal_area_radius() == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert sq.equal_area_radius() == pytest.approx(0.564190, abs=1e-6)

    def test_stadium_closed_form(self):
        d = geo.Stadium(0.5, 0.6)
        expect = math.pi * 0.36 + 2 * 0.5 * 1.2
        assert d.area() == pytest.approx(expect, rel=1e-14)
        assert d.equal_area_radius() == pytest.approx(math.sqrt(expect / math.pi), rel=1e-14)

    def test_superellipse_area_vs_quadrature(self, richardson_integral):
        d = geo.Superellipse(1.2, 0.8, 3.0)
        area_quad = richardson_integral(d, lambda p: np.ones(len(p)), h=0.04)
        assert d.area() == pytest.approx(area_quad, rel=1e-5)

    def test_centroid_inside_hull(self):
        # each shape is convex, its own hull
        for d in (
            geo.Polygon(((0, 0), (2, 0), (0.4, 1.1))),
            geo.Stadium(0.5, 0.6),
            geo.Ellipse(1.5, 2 / 3),
        ):
            assert d.contains(d.centroid()[None, :])[0]

    def test_rigid_motion_transforms(self):
        tri = geo.Polygon(((0, 0), (2, 0), (0.4, 1.1)))
        moved = moved_polygon(tri, shift=(3.0, -1.5), angle=0.9, about=(1.0, 1.0))
        assert moved.area() == pytest.approx(tri.area(), rel=1e-14)
        c, s = math.cos(0.9), math.sin(0.9)
        c0, c1 = tri.centroid(), moved.centroid()
        px, py = c0[0] + 3.0 - 1.0, c0[1] - 1.5 - 1.0
        expect = (1.0 + c * px - s * py, 1.0 + s * px + c * py)
        assert c1[0] == pytest.approx(expect[0], abs=1e-12)
        assert c1[1] == pytest.approx(expect[1], abs=1e-12)

    def test_disk_translation(self):
        d = geo.Disk((2.0, 3.0), 0.7)
        assert tuple(d.centroid()) == (2.0, 3.0)
        assert d.area() == pytest.approx(math.pi * 0.49, rel=1e-15)


class TestPieces:
    @pytest.mark.parametrize("spec", [
        "disk:0.3,-0.7,0.8",
        "ellipse:1.5,0.6666666666666666",
        "stadium:0.5,0.6",
        "superellipse:1.3,0.8,2.5",
        "polygon:0,0;2,0;0.4,1.1",
        "polygon:0,0;2,0;2,1;1,1;1,2;0,2",
    ])
    def test_pieces_join(self, spec):
        d = geo.parse_domain(spec)
        pieces = d.pieces()
        scale = np.ptp(d.boundary_at(np.arange(512) / 512.0)[0], axis=0).max()
        for piece, after in zip(pieces, pieces[1:] + pieces[:1]):
            end = piece.at(np.array([1.0]))[0]
            start = after.at(np.array([0.0]))[0]
            assert np.abs(end - start).max() <= 1e-15 * scale
        assert all(p.periodic for p in pieces) == (len(pieces) == 1)


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
        "polygon:1000,1000;1002,1000;1000.4,1001.1",
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
        # just off the edges, either side of the 1e-12 * scale tolerance
        tol = 1e-12 * max(np.abs(verts).max(), 1.0)
        normal = np.column_stack([edge[:, 1], -edge[:, 0]]) / np.hypot(*edge.T)[:, None]
        near = np.vstack([verts + 0.5 * edge + k * tol * normal
                          for k in (0.5, 0.9, 1.1, 2.0, 1e3)])
        pts = np.vstack([scattered, level, near, boundary])
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
