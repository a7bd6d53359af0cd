import json
import math

import numpy as np
import pytest

from neuspec import fem
from neuspec import geometry as geo
from neuspec.ball import Ball, upsilon1_poly_ball
from neuspec.corpus import corpus_domain
from neuspec.meshing import Mesh, load_mesh, save_mesh
from neuspec.quadrature import cached_mesh


def single_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    flags = np.array([True, True, True])
    return Mesh(vertices=verts, triangles=tris, boundary_flags=flags, h=1.0)


def edge_numbering_reference(mesh):
    """Edge numbering by a dict of sorted vertex pairs, in first-seen order."""
    edges = {}
    conn = np.empty((len(mesh.triangles), 3), dtype=int)
    for i, tri in enumerate(mesh.triangles):
        for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            conn[i, e] = edges.setdefault(key, len(edges))
    return conn, len(edges)


@pytest.fixture(scope="module")
def square():
    return geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))


@pytest.fixture(scope="module")
def square_mesh(square):
    return cached_mesh(square, 0.1)


class TestAssembly:
    def test_reference_triangle_mass(self):
        op = fem.assemble(single_triangle_mesh(), order=1)
        area = 0.5
        expect = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.allclose(op.M.toarray(), expect, rtol=1e-14, atol=1e-16)

    def test_reference_triangle_stiffness(self):
        op = fem.assemble(single_triangle_mesh(), order=1)
        expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(op.A.toarray(), expect, rtol=1e-14, atol=1e-15)

    def test_stiffness_kills_constants(self, square_mesh):
        for order in (1, 2):
            op = fem.assemble(square_mesh, order)
            resid = op.A @ np.ones(op.dimension)
            assert np.abs(resid).max() < 1e-14 * np.abs(op.A.data).max() * 10

    def test_mass_rows_sum_to_area(self, square_mesh):
        for order in (1, 2):
            op = fem.assemble(square_mesh, order)
            total = float((op.M @ np.ones(op.dimension)).sum())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, square_mesh):
        rng = np.random.default_rng(5)
        for order in (1, 2):
            op = fem.assemble(square_mesh, order)
            for _ in range(4):
                u = rng.standard_normal(op.dimension)
                v = rng.standard_normal(op.dimension)
                for mat in (op.A, op.M):
                    left = float(u @ (mat @ v))
                    right = float(v @ (mat @ u))
                    scale = max(abs(left), abs(right), 1e-300)
                    assert abs(left - right) <= 1e-13 * scale

    def test_p2_has_edge_dofs(self, square_mesh):
        op1 = fem.assemble(square_mesh, 1)
        op2 = fem.assemble(square_mesh, 2)
        assert op2.dimension > op1.dimension
        assert op1.dimension == len(square_mesh.vertices)

    def test_edge_numbering_matches_reference(self):
        mesh = cached_mesh(corpus_domain("ellipse-1.5"), 0.08)
        conn, n_edges = fem._edge_numbering(mesh)
        ref_conn, ref_n = edge_numbering_reference(mesh)
        assert n_edges == ref_n
        assert conn.dtype == ref_conn.dtype
        assert np.array_equal(conn, ref_conn)

    def test_bad_order(self, square_mesh):
        with pytest.raises(ValueError):
            fem.assemble(square_mesh, 3)


class TestLaplacianEigs:
    def test_square_mu1(self, square_mesh):
        res = fem.eig_neumann_laplacian(square_mesh, 2, order=2)
        assert res.values[0] == pytest.approx(math.pi**2, rel=1e-2)
        assert np.all(res.residuals <= fem.RESIDUAL_TOL * np.maximum(1.0, res.values))

    def test_disk_multiplicity_pair(self):
        mesh = cached_mesh(geo.Disk((0, 0), 1.0), 0.05)
        res = fem.eig_neumann_laplacian(mesh, 2, order=2)
        gap = abs(res.values[1] - res.values[0]) / res.values[0]
        assert gap < 1e-2

    def test_values_positive_and_sorted(self, square_mesh):
        res = fem.eig_neumann_laplacian(square_mesh, 3, order=1)
        assert np.all(res.values > 0)
        assert np.all(np.diff(res.values) >= 0)

    def test_vectors_m_orthonormal_and_deflated(self, square_mesh):
        op = fem.assemble(square_mesh, 2)
        res = fem.eig_neumann_laplacian(square_mesh, 2, order=2)
        gram = res.vectors.T @ (op.M @ res.vectors)
        assert np.allclose(gram, np.eye(2), atol=1e-9)
        const_overlap = np.ones(op.dimension) @ (op.M @ res.vectors)
        assert np.abs(const_overlap).max() < 1e-9

    def test_constant_mode_rayleigh_quotient(self, square_mesh):
        op = fem.assemble(square_mesh, 2)
        c = np.ones(op.dimension)
        rq = float(c @ (op.A @ c)) / float(c @ (op.M @ c))
        assert abs(rq) < 1e-12

    def test_serial_reproducibility(self, square_mesh):
        r1 = fem.eig_neumann_laplacian(square_mesh, 2, order=2)
        r2 = fem.eig_neumann_laplacian(square_mesh, 2, order=2)
        assert np.array_equal(r1.values, r2.values)
        assert np.array_equal(r1.vectors, r2.vectors)


class TestPolyharmonicEigs:
    def test_square_biharmonic(self, square_mesh):
        res = fem.eig_polyharmonic_neumann(square_mesh, 1, 1, order=2)
        assert res.values[0] == pytest.approx(math.pi**4, rel=2e-2)
        assert res.power == 1

    def test_discrete_squaring(self):
        mesh = cached_mesh(geo.Ellipse(1.5, 2 / 3), 0.07)
        lap = fem.eig_neumann_laplacian(mesh, 2, order=2)
        bih = fem.eig_polyharmonic_neumann(mesh, 2, 1, order=2)
        for i in range(2):
            assert bih.splitting_quotients[i] == pytest.approx(lap.values[i] ** 2, rel=1e-9)

    def test_power_identity_m2(self, square_mesh):
        lap = fem.eig_neumann_laplacian(square_mesh, 1, order=2)
        quad = fem.eig_polyharmonic_neumann(square_mesh, 1, 2, order=2)
        assert quad.splitting_quotients[0] == pytest.approx(lap.values[0] ** 4, rel=1e-8)

    def test_m_bounds(self, square_mesh):
        with pytest.raises(ValueError):
            fem.eig_polyharmonic_neumann(square_mesh, 1, 0)
        with pytest.raises(ValueError):
            fem.eig_polyharmonic_neumann(square_mesh, 1, 5)

    def test_high_powers_converge_on_disk(self):
        disk = geo.Disk((0, 0), 1.0)
        for m in (3, 4):
            study = fem.convergence_study(disk, m, (0.16, 0.12, 0.08))
            exact = upsilon1_poly_ball(Ball(2, 1.0), m)
            assert study.monotone, m
            assert abs(study.extrapolated - exact) <= study.error_bar, m

    def test_json_export(self, square_mesh):
        res = fem.eig_polyharmonic_neumann(square_mesh, 1, 1, order=2)
        payload = json.loads(res.to_json(order=2))
        assert payload["m"] == 1
        assert payload["order"] == 2
        assert len(payload["values"]) == len(payload["residuals"]) == 1


class TestConvergence:
    def test_square_laplacian_extrapolation(self, square):
        study = fem.convergence_study(square, 0, (0.2, 0.1, 0.05), order=2)
        assert study.monotone
        assert study.extrapolated == pytest.approx(math.pi**2, rel=5e-4)

    def test_disk_p1_order_two(self):
        study = fem.convergence_study(geo.Disk((0, 0), 1.0), 0, (0.12, 0.06, 0.03), order=1)
        assert study.observed_order == pytest.approx(2.0, abs=0.3)

    def test_error_bar_definition(self, square):
        study = fem.convergence_study(square, 0, (0.2, 0.1, 0.05), order=2)
        assert study.error_bar == abs(study.extrapolated - study.values[-1])

    def test_error_bar_is_honest(self, square):
        # the bar reported alongside the extrapolated value must cover the
        # true remaining error (analytic limit known here)
        study = fem.convergence_study(square, 0, (0.2, 0.1, 0.05), order=2)
        assert abs(study.extrapolated - math.pi**2) <= study.error_bar
        # and the change between the two finest meshes sits within the
        # coarser run's implied uncertainty
        assert abs(study.values[-1] - study.values[-2]) <= abs(
            study.extrapolated - study.values[-2]
        ) * (1 + 1e-12)

    def test_nongeometric_h_list_extrapolation(self):
        study = fem.convergence_study(geo.Disk((0, 0), 1.0), 1, (0.16, 0.12, 0.08))
        exact = upsilon1_poly_ball(Ball(2, 1.0), 1)
        assert abs(study.extrapolated - exact) < abs(study.values[-1] - exact)

    def test_input_validation(self, square):
        with pytest.raises(ValueError):
            fem.convergence_study(square, 0, (0.1, 0.05))
        with pytest.raises(ValueError):
            fem.convergence_study(square, 0, (0.05, 0.1, 0.2))

    def test_workers_match_serial(self, square):
        serial = fem.convergence_study(square, 0, (0.2, 0.1, 0.05), order=1)
        threaded = fem.convergence_study(square, 0, (0.2, 0.1, 0.05), order=1, workers=3)
        assert serial.values == threaded.values

    def test_rotated_domain_within_error_bars(self, square):
        rotated = square.rotated(0.6, about=(0.3, 0.3))
        s0 = fem.convergence_study(square, 0, (0.2, 0.1, 0.05), order=2)
        s1 = fem.convergence_study(rotated, 0, (0.2, 0.1, 0.05), order=2)
        tol = s0.error_bar + s1.error_bar + 1e-6 * s0.extrapolated
        assert abs(s0.extrapolated - s1.extrapolated) <= tol


class TestEigenfunctionDump:
    def test_vertex_field_roundtrip(self, square, tmp_path):
        mesh = cached_mesh(square, 0.1)
        res = fem.eig_neumann_laplacian(mesh, 1, order=2)
        nv = len(mesh.vertices)
        path = tmp_path / "mode.txt"
        save_mesh(mesh, path, vertex_values=res.vectors[:nv, 0])
        back, values = load_mesh(path)
        assert values is not None and len(values) == nv
