import math

import numpy as np
import pytest
from conftest import SMOOTH

from neuspec import geometry as geo
from neuspec import meshing as msh
from neuspec.corpus import CORPUS, corpus_domain


def mesh_area(mesh):
    return float(np.sum(0.5 * msh.triangle_jacobians(mesh.vertices, mesh.triangles)))


def boundary_vertices(mesh):
    """The vertices that end a boundary edge of the mesh's edge table."""
    flags = np.zeros(len(mesh.vertices), dtype=bool)
    flags[mesh._edges.ends[mesh._edges.boundary]] = True
    return flags


def check_mesh_contract(mesh, h):
    """Every mesh must satisfy the structural quality invariants."""
    v, t = mesh.vertices, mesh.triangles
    areas = 0.5 * msh.triangle_jacobians(v, t)
    assert np.all(areas > 0), "orientation"
    assert areas.min() >= msh.MIN_AREA_FACTOR * h * h
    assert msh._triangle_angles(v, t).min() >= msh.MIN_ANGLE_DEG
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
    bflag = ~np.isnan(mesh.boundary_params)
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
        assert abs(mesh_area(mesh) - math.pi) < 2.6e-3  # O(h^2) polygonization
        check_mesh_contract(mesh, 0.05)

    def test_square_exact_area(self):
        sq = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        mesh = msh.triangulate(sq, 0.1)
        assert abs(mesh_area(mesh) - 1.0) < 1e-12
        check_mesh_contract(mesh, 0.1)

    def test_nonconvex_polygon_drops_notch(self):
        # the L-shape's notch lies inside the convex hull of the mesh points,
        # so its Delaunay triangles must be dropped by the containment test
        ell = geo.parse_domain("polygon:0,0;2,0;2,1;1,1;1,2;0,2")
        mesh = msh.triangulate(ell, 0.1)
        assert abs(mesh_area(mesh) - 3.0) < 1e-12
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
        b = mesh.vertices[boundary_vertices(mesh)]
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
            poly, _ = geo.boundary_polyline(d, h)
            got = msh._hex_lattice(d, poly, 0.95 * h)
            with monkeypatch.context() as patch:
                patch.setattr(msh, "_near_distance",
                              lambda pts, verts, limit: geo.distance_to_segments(pts, verts))
                want = msh._hex_lattice(d, poly, 0.95 * h)
            assert len(got) and np.array_equal(got, want), h


def regular_polygon(n):
    """Spec of the regular n-gon of circumradius 1 centered at the origin."""
    return "polygon:" + ";".join(
        f"{math.cos(2 * math.pi * k / n)!r},{math.sin(2 * math.pi * k / n)!r}" for k in range(n))


# lattice meshes that Delaunay slivers of collinear polyline vertices once
# failed with MeshQualityError
SLIVER_CASES = ([("16-gon", regular_polygon(16), h) for h in (0.16, 0.12, 0.08, 0.04, 0.02)]
                + [("superellipse-40", "superellipse:1,1,40", h) for h in (0.12, 0.08, 0.02)]
                + [("32-gon", regular_polygon(32), 0.08), ("64-gon", regular_polygon(64), 0.04)])


class TestSlivers:
    @pytest.mark.parametrize("name,spec,h", SLIVER_CASES,
                             ids=[f"{name}-{h}" for name, _, h in SLIVER_CASES])
    def test_straight_stretches_mesh_conforming(self, name, spec, h):
        mesh = msh.triangulate(geo.parse_domain(spec), h)
        check_mesh_contract(mesh, h)
        # the boundary is closed: every edge of one triangle joins two
        # boundary vertices, and each boundary vertex ends two such edges
        pairs = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        edges, count = np.unique(pairs, axis=0, return_counts=True)
        one_sided = edges[count == 1]
        polyline = ~np.isnan(mesh.boundary_params)
        assert np.all(polyline[one_sided])
        ends = np.bincount(one_sided.ravel(), minlength=len(mesh.vertices))
        assert np.array_equal(ends, 2 * polyline)
        # the edge table's boundary is the same set of edges
        table = np.sort(mesh._edges.ends[mesh._edges.boundary], axis=1)
        assert np.array_equal(table[np.lexsort(table.T[::-1])], one_sided)


def curve_residual(d, pts):
    """Relative distance of points from a disk's, an ellipse's or a stadium's
    boundary curve."""
    if isinstance(d, geo.Disk):
        r = np.hypot(pts[:, 0] - d.center[0], pts[:, 1] - d.center[1])
        return np.abs(r / d.radius - 1.0)
    if isinstance(d, geo.Stadium):
        L, R = d.halflength, d.radius
        x, y = np.abs(pts[:, 0]), np.abs(pts[:, 1])
        r = np.where(x <= L, y, np.hypot(np.maximum(x - L, 0.0), y))
        return np.abs(r / R - 1.0)
    return np.abs((pts[:, 0] / d.a) ** 2 + (pts[:, 1] / d.b) ** 2 - 1.0)


class TestRefine:
    @pytest.mark.parametrize("name", ["disk", "ellipse-1.2", "ellipse-1.5", "ellipse-2.0",
                                      "stadium", "square", "triangle"])
    def test_halving_run(self, name):
        d = corpus_domain(name)
        mesh = msh.triangulate(d, 0.08)
        for h in (0.04, 0.02):
            fine = msh.refine(mesh)
            assert fine.h == h
            assert len(fine.triangles) == 4 * len(mesh.triangles)
            assert msh._quality_ok(fine.vertices, fine.triangles, h)
            assert np.array_equal(fine.vertices[:len(mesh.vertices)], mesh.vertices)
            new = np.arange(len(fine.vertices)) >= len(mesh.vertices)
            new_boundary = fine.vertices[new & boundary_vertices(fine)]
            assert len(new_boundary) == np.sum(boundary_vertices(mesh))
            if isinstance(d, (geo.Disk, geo.Ellipse, geo.Stadium)):
                assert curve_residual(d, new_boundary).max() <= 1e-14
            if isinstance(d, geo.Polygon):
                # the midpoints come from the edges' boundary parameters
                assert geo.distance_to_segments(new_boundary, d.vertex_array).max() <= 1e-15
                assert mesh_area(fine) == pytest.approx(d.area(), rel=1e-14)
            mesh = fine

    def test_conforming(self):
        d = corpus_domain("ellipse-1.5")
        fine = msh.refine(msh.triangulate(d, 0.16))
        check_mesh_contract(fine, 0.08)

    def test_boundary_parameters_follow_the_curve(self):
        for name in ("ellipse-2.0", "stadium", "triangle"):
            d = corpus_domain(name)
            fine = msh.refine(msh.triangulate(d, 0.08))
            s, flags = fine.boundary_params, boundary_vertices(fine)
            assert np.array_equal(np.isnan(s), ~flags)
            b, _ = d.boundary_at(s[flags])
            assert np.array_equal(b, fine.vertices[flags]), name

    @pytest.mark.parametrize("name", SMOOTH)
    def test_curved_edge_children_sit_at_the_edge_nodes(self, name):
        # the child vertex refine puts on each curved edge is that edge's
        # P2 node, bit for bit, so the mapped parent element and its
        # children share the curve there, whether the curved edges were
        # read before the refinement or not
        d = corpus_domain(name)
        for read_first in (True, False):
            mesh = msh.triangulate(d, 0.16)
            if read_first:
                assert mesh.curved_edges is not None
            fine = msh.refine(mesh)
            tri, edge = mesh.curved_edges.edges.T
            child = len(mesh.vertices) + mesh._edges.conn[tri, edge]
            assert np.array_equal(fine.vertices[child], mesh.curved_edges.nodes), read_first

    def test_curved_edges_are_made_when_read(self):
        # triangulate and refine build no record of the curved edges; the
        # first read makes it, read-only, and the mesh keeps it
        mesh = msh.triangulate(corpus_domain("ellipse-1.5"), 0.16)
        fine = msh.refine(mesh)
        assert "curved_edges" not in mesh.__dict__
        assert "curved_edges" not in fine.__dict__
        record = fine.curved_edges
        assert fine.curved_edges is record
        for arr in record:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            record.nodes[0, 0] = 0.0
        assert msh.triangulate(corpus_domain("square"), 0.2).curved_edges is None

    def test_quality_failure_names_h(self, monkeypatch):
        d = corpus_domain("disk")
        mesh = msh.triangulate(d, 0.16)
        monkeypatch.setattr(msh, "MIN_ANGLE_DEG", 89.0)
        with pytest.raises(msh.MeshQualityError, match="h=0.08"):
            msh.refine(mesh)


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        mesh = msh.triangulate(geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.2)
        path = tmp_path / "mesh.txt"
        msh.save_mesh(mesh, path)
        header = path.read_text().splitlines()[0].split()
        assert header[:2] == ["mesh", "v1"]
        assert int(header[2]) == len(mesh.vertices)
        vertices, triangles, values = msh.load_mesh(path)
        assert values is None
        assert vertices.tobytes() == mesh.vertices.tobytes()
        assert np.array_equal(triangles, mesh.triangles)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_flags_are_the_polyline_vertices(self, name, tmp_path):
        # the flag column, read off the edge table, marks exactly the
        # vertices with a boundary parameter: the polyline's and the ones
        # refine put on the boundary
        d = corpus_domain(name)
        mesh = msh.triangulate(d, 0.16)
        for k, m in enumerate((mesh, msh.refine(mesh))):
            path = tmp_path / f"{k}.txt"
            msh.save_mesh(m, path)
            lines = path.read_text().splitlines()[1:1 + len(m.vertices)]
            flags = "".join(line.split()[2] for line in lines)
            want = "".join("0" if np.isnan(s) else "1" for s in m.boundary_params)
            assert flags == want, k

    def test_roundtrip_with_values(self, tmp_path):
        mesh = msh.triangulate(geo.Disk((0, 0), 1.0), 0.3)
        vals = np.linspace(-1, 1, len(mesh.vertices))
        path = tmp_path / "field.txt"
        msh.save_mesh(mesh, path, vertex_values=vals)
        vertices, _, values = msh.load_mesh(path)
        assert vertices.tobytes() == mesh.vertices.tobytes()
        assert values.tobytes() == vals.tobytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "mesh.txt"
        for header in ("mesh v2 1 0", "mesh v1 -1 0", "mesh v1 1 x"):
            path.write_text(f"{header}\n0 0 1\n")
            with pytest.raises(ValueError, match="unrecognized mesh header"):
                msh.load_mesh(path)

    @pytest.mark.parametrize("lines, named", [
        (["0 0 1", "1 0 1", "0 1 1", "0 1 -1"], "triangle line 5"),
        (["0 0 1", "1 0 1", "0 1 1", "0 1 7"], "triangle line 5"),
        (["0 0 1 0.5", "nan 0 1 0.2", "0 1 1 0.1", "0 1 2"], "vertex line 3"),
        (["0 0 1 0.5", "1 0 1 inf", "0 1 1 0.1", "0 1 2"], "vertex line 3"),
        (["0 0 1", "1 0 1 0.2", "0 1 1 0.1", "0 1 2"], "vertex line 3"),
        (["0 0 1 0.5", "0 0 1 0.2", "0 0 1 0.1", "0 1 2"], "every vertex at one point"),
    ], ids=["negative-index", "index-past-end", "nan-coordinate", "inf-value", "mixed-columns",
            "zero-span"])
    def test_bad_lines_are_named(self, lines, named, tmp_path):
        # a mesh file is input from outside the program: an index -1 would
        # wrap to the last vertex, and a NaN would reach the plot
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(["mesh v1 3 1"] + lines) + "\n")
        with pytest.raises(ValueError, match=named):
            msh.load_mesh(path)
