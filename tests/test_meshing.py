import math

import numpy as np
import pytest

from neuspec import geometry as geo
from neuspec import meshing as msh


def check_mesh_contract(mesh, h):
    """Every mesh must satisfy the structural quality invariants."""
    v, t = mesh.vertices, mesh.triangles
    areas = mesh.areas
    assert np.all(areas > 0), "orientation"
    assert areas.min() >= msh.MIN_AREA_FACTOR * h * h
    assert mesh.min_angle_deg() >= msh.MIN_ANGLE_DEG
    # conforming: each edge appears in at most two triangles, with
    # opposite orientations when shared
    seen = {}
    for tri in t:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (tri[a], tri[b])
            assert key not in seen, "duplicated directed edge"
            seen[key] = True
    for i, j in list(seen):
        assert seen.get((j, i), True)
    # interior edge lengths within a factor 2 of h
    bflag = mesh.boundary_flags
    for tri in t[: min(len(t), 400)]:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            if bflag[tri[a]] and bflag[tri[b]]:
                continue
            ln = float(np.hypot(*(v[tri[a]] - v[tri[b]])))
            assert 0.5 * h <= ln <= 2.0 * h


class TestTriangulate:
    def test_disk_reference_mesh(self):
        mesh = msh.triangulate(geo.Disk((0, 0), 1.0), 0.05)
        assert 2800 <= len(mesh.triangles) <= 6500
        assert abs(mesh.area - math.pi) < 2.6e-3  # O(h^2) polygonization
        check_mesh_contract(mesh, 0.05)

    def test_square_exact_area(self):
        sq = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        mesh = msh.triangulate(sq, 0.1)
        assert abs(mesh.area - 1.0) < 1e-12
        check_mesh_contract(mesh, 0.1)

    def test_nonconvex_polygon_drops_notch(self):
        # the L-shape's notch lies inside the convex hull of the mesh points,
        # so its Delaunay triangles must be dropped by the containment test
        ell = geo.parse_domain("polygon:0,0;2,0;2,1;1,1;1,2;0,2")
        mesh = msh.triangulate(ell, 0.1)
        assert abs(mesh.area - 3.0) < 1e-12
        check_mesh_contract(mesh, 0.1)

    def test_quality_across_shapes(self):
        for d in (
            geo.Ellipse(1.5, 2 / 3),
            geo.Stadium(0.5, 0.6),
            geo.Polygon(((0, 0), (2, 0), (0.4, 1.1))),
        ):
            mesh = msh.triangulate(d, 0.08)
            check_mesh_contract(mesh, 0.08)

    def test_boundary_vertices_on_polyline(self):
        d = geo.Disk((0, 0), 1.0)
        mesh = msh.triangulate(d, 0.1)
        b = mesh.vertices[mesh.boundary_flags]
        assert np.abs(np.hypot(b[:, 0], b[:, 1]) - 1.0).max() < 1e-14

    def test_deterministic(self):
        d = geo.Ellipse(1.2, 0.9)
        m1 = msh.triangulate(d, 0.1)
        m2 = msh.triangulate(d, 0.1)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)

    def test_immutable(self):
        mesh = msh.triangulate(geo.Disk((0, 0), 1.0), 0.2)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 99.0

    def test_bad_h(self):
        with pytest.raises(geo.GeometryError):
            msh.triangulate(geo.Disk((0, 0), 1.0), -0.1)


LATTICE_SPECS = [
    "disk:0,0,1",
    "ellipse:1.0954451150103321,0.9128709291752769",
    "ellipse:1.224744871391589,0.816496580927726",
    "ellipse:1.4142135623730951,0.7071067811865476",
    "stadium:0.5,0.6",
    "polygon:0,0;1,0;1,1;0,1",
    "polygon:0,0;2,0;0.4,1.1",
    "polygon:0,0;2,0;2,1;1,1;1,2;0,2",
    "ellipse:8,0.125",
    "superellipse:1,1,40",
]


class TestLatticeFilter:
    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_matches_dense_distance_filter(self, spec, monkeypatch):
        # the dense form keeps pts[distance_to_segments(pts, poly) >= 0.65 * h]
        d = geo.parse_domain(spec)
        for h in (0.16, 0.12, 0.08, 0.04, 0.02):
            poly = geo.boundary_polyline(d, h)
            got = msh._hex_lattice(d, poly, 0.95 * h)
            with monkeypatch.context() as patch:
                patch.setattr(msh, "_near_distance",
                              lambda pts, verts, limit: geo.distance_to_segments(pts, verts))
                want = msh._hex_lattice(d, poly, 0.95 * h)
            assert len(got) and np.array_equal(got, want), h


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        mesh = msh.triangulate(geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.2)
        path = tmp_path / "mesh.txt"
        msh.save_mesh(mesh, path)
        header = path.read_text().splitlines()[0].split()
        assert header[:2] == ["mesh", "v1"]
        assert int(header[2]) == len(mesh.vertices)
        back, values = msh.load_mesh(path)
        assert values is None
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.allclose(back.vertices, mesh.vertices, rtol=0, atol=0)
        assert np.array_equal(back.boundary_flags, mesh.boundary_flags)

    def test_roundtrip_with_values(self, tmp_path):
        mesh = msh.triangulate(geo.Disk((0, 0), 1.0), 0.3)
        vals = np.linspace(-1, 1, len(mesh.vertices))
        path = tmp_path / "field.txt"
        msh.save_mesh(mesh, path, vertex_values=vals)
        back, values = msh.load_mesh(path)
        assert values is not None
        assert np.allclose(values, vals, rtol=0, atol=0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("mesh v2 1 0\n0 0 1\n")
        with pytest.raises(ValueError):
            msh.load_mesh(path)
