import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import dilated, moved_polygon, splitting_quotients

from neuspec import cli, fem
from neuspec import geometry as geo
from neuspec import meshing as msh
from neuspec import quadrature
from neuspec.ball import Ball, mu1_ball, upsilon1_poly_ball
from neuspec.corpus import CORPUS, corpus_domain
from neuspec.meshing import Mesh, load_mesh, save_mesh
from neuspec.quadrature import cached_mesh


def single_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return Mesh(vertices=verts, triangles=tris, h=1.0, boundary_params=np.array([0, 1 / 3, 2 / 3]),
                domain=geo.Polygon(tuple(map(tuple, verts))))


def refined_mesh(d, h):
    """The red refinement of d's memoized lattice mesh at h: the second mesh
    of a study's halving run from h."""
    return msh.refine(cached_mesh(d, h))


def halving_family(d, h_list):
    """The meshes of a study over a halving list: the lattice mesh at its
    first h, then each refinement of the one before."""
    meshes = [cached_mesh(d, h_list[0])]
    for _ in h_list[1:]:
        meshes.append(msh.refine(meshes[-1]))
    return meshes


def study_solves(monkeypatch, d, h_list):
    """The study of d over h_list, run afresh past its memo, and per solve,
    coarse to fine: (mesh, the parent mesh its two-grid solve started
    from or None, pencil values, vectors, residuals)."""
    solve, solves = fem._pencil_solve, []

    def recorded(mesh, count, coarse=None):
        mus, vectors, residuals, lu = solve(mesh, count, coarse)
        solves.append((mesh, coarse[0] if coarse else None, mus, vectors, residuals))
        return mus, vectors, residuals, lu

    monkeypatch.setattr(fem, "_pencil_solve", recorded)
    return fem._study.__wrapped__(d, tuple(h_list)), solves


def edge_numbering_reference(mesh):
    """Edge numbering by a dict of sorted vertex pairs, in first-seen order:
    conn, the edge count, each edge's ends as first seen, and whether one
    triangle alone has it."""
    edges, ends, counts = {}, [], []
    conn = np.empty((len(mesh.triangles), 3), dtype=int)
    for i, tri in enumerate(mesh.triangles):
        for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            conn[i, e] = edges.setdefault(key, len(edges))
            if conn[i, e] == len(ends):
                ends.append((tri[a], tri[b]))
                counts.append(0)
            counts[conn[i, e]] += 1
    return conn, len(edges), np.array(ends), np.array(counts) == 1


def two_pass_reference(mesh, shift):
    """M, A and the factor input A + shift M as each COO-to-CSR pass of its
    own and sparse sums build them; the shifted matrix goes to CSC last."""
    me, ke, dofs, ndof, _ = fem._p2_matrices(mesh)
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    m_mat = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    a_mat = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    m_mat = 0.5 * (m_mat + m_mat.T)
    a_mat = 0.5 * (a_mat + a_mat.T)
    return m_mat.tocsr(), a_mat.tocsr(), (a_mat + shift * m_mat).tocsc()


@pytest.fixture(scope="module")
def square():
    return geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))


@pytest.fixture(scope="module")
def square_mesh(square):
    return cached_mesh(square, 0.1)


class TestAssembly:
    # P2 closed forms on the triangle (0,0), (1,0), (0,1); the dofs are
    # the vertices, then the midpoints of edges 01, 12, 20
    def test_reference_triangle_mass(self):
        op = fem.assemble(single_triangle_mesh())
        expect = 0.5 / 180.0 * np.array([
            [6, -1, -1, 0, -4, 0],
            [-1, 6, -1, 0, 0, -4],
            [-1, -1, 6, -4, 0, 0],
            [0, 0, -4, 32, 16, 16],
            [-4, 0, 0, 16, 32, 16],
            [0, -4, 0, 16, 16, 32],
        ])
        assert np.abs(op.M.toarray() - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_reference_triangle_stiffness(self):
        op = fem.assemble(single_triangle_mesh())
        expect = np.array([
            [6, 1, 1, -4, 0, -4],
            [1, 3, 0, -4, 0, 0],
            [1, 0, 3, 0, 0, -4],
            [-4, -4, 0, 16, -8, 0],
            [0, 0, 0, -8, 16, -8],
            [-4, 0, -4, 0, -8, 16],
        ]) / 6.0
        assert np.abs(op.A.toarray() - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_stiffness_kills_constants(self, square_mesh):
        op = fem.assemble(square_mesh)
        resid = op.A @ np.ones(op.dimension)
        assert np.abs(resid).max() < 1e-14 * np.abs(op.A.data).max() * 10

    def test_mass_rows_sum_to_area(self, square_mesh):
        op = fem.assemble(square_mesh)
        total = float((op.M @ np.ones(op.dimension)).sum())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, square_mesh):
        rng = np.random.default_rng(5)
        op = fem.assemble(square_mesh)
        for _ in range(4):
            u = rng.standard_normal(op.dimension)
            v = rng.standard_normal(op.dimension)
            for mat in (op.A, op.M):
                left = float(u @ (mat @ v))
                right = float(v @ (mat @ u))
                scale = max(abs(left), abs(right), 1e-300)
                assert abs(left - right) <= 1e-13 * scale

    def test_p2_has_edge_dofs(self, square_mesh):
        op = fem.assemble(square_mesh)
        n_edges = square_mesh._edges.count
        assert op.dimension == len(square_mesh.vertices) + n_edges

    @pytest.mark.parametrize("make_mesh", [
        single_triangle_mesh,
        lambda: cached_mesh(geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.1),
        lambda: refined_mesh(corpus_domain("ellipse-1.5"), 0.08),
    ], ids=["reference-triangle", "square-lattice", "ellipse-refined"])
    def test_one_pass_matches_two_passes(self, make_mesh):
        # the first two have stiffness entries that cancel to exactly 0
        mesh = make_mesh()
        op = fem.assemble(mesh)
        for got, want in zip((op.M, op.A, op.shifted), two_pass_reference(mesh, op.shift)):
            assert got.format == want.format
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        for mat in (op.A, op.M):
            assert (mat != mat.T).nnz == 0

    def test_assembly_peak_memory(self):
        # two COO passes and sparse-sum symmetrization peaked at 5.1 times
        # the bytes of the M and A they returned
        mesh = cached_mesh(corpus_domain("ellipse-1.5"), 0.08)
        tracemalloc.start()
        try:
            op = fem.assemble(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(mat, name).nbytes
                   for mat in (op.A, op.M) for name in ("data", "indices", "indptr"))
        assert op.dimension == 2505
        assert peak <= 3.5 * kept

    def test_edge_numbering_matches_reference(self):
        mesh = cached_mesh(corpus_domain("ellipse-1.5"), 0.08)
        conn, n_edges = mesh._edges.conn, mesh._edges.count
        ref_conn, ref_n, ref_ends, ref_boundary = edge_numbering_reference(mesh)
        assert n_edges == ref_n
        assert conn.dtype == ref_conn.dtype
        assert np.array_equal(conn, ref_conn)
        assert np.array_equal(mesh._edges.ends, ref_ends)
        assert np.array_equal(mesh._edges.boundary, ref_boundary)

    def test_edge_numbering_is_made_once_per_mesh(self, square):
        coarse = msh.triangulate(square, 0.2)
        conn = coarse._edges.conn
        msh.refine(coarse)
        fem.assemble(coarse)
        assert coarse._edges.conn is conn
        assert not conn.flags.writeable

    def test_inverted_triangle_is_refused(self):
        tri = single_triangle_mesh()
        flipped = dataclasses.replace(tri, triangles=tri.triangles[:, [0, 2, 1]])
        with pytest.raises(ValueError, match="degenerate or inverted triangle"):
            fem.assemble(flipped)


def laplacian_pairs(mesh, count):
    """The `count` smallest nonzero Neumann pencil values of one mesh, with
    their vectors and residuals, by one Lanczos solve."""
    mus, vectors, residuals, _ = fem._pencil_solve(mesh, count)
    return mus[:count], vectors[:, :count], residuals[:count]


class TestLaplacianEigs:
    def test_square_mu1(self, square_mesh):
        mus, _, residuals = laplacian_pairs(square_mesh, 2)
        assert mus[0] == pytest.approx(math.pi**2, rel=1e-2)
        assert np.all(residuals <= fem.RESIDUAL_TOL * mus)

    def test_disk_multiplicity_pair(self):
        mesh = cached_mesh(geo.Disk((0, 0), 1.0), 0.05)
        mus = fem._pencil_solve(mesh, 2)[0][:2]
        gap = abs(mus[1] - mus[0]) / mus[0]
        assert gap < 1e-2

    def test_values_positive_and_sorted(self, square_mesh):
        mus = fem._pencil_solve(square_mesh, 3)[0][:3]
        assert np.all(mus > 0)
        assert np.all(np.diff(mus) >= 0)

    def test_vectors_m_orthonormal_and_deflated(self, square_mesh):
        op = fem.assemble(square_mesh)
        _, vectors, _ = laplacian_pairs(square_mesh, 2)
        gram = vectors.T @ (op.M @ vectors)
        assert np.allclose(gram, np.eye(2), atol=1e-9)
        const_overlap = np.ones(op.dimension) @ (op.M @ vectors)
        assert np.abs(const_overlap).max() < 1e-9

    def test_constant_mode_rayleigh_quotient(self, square_mesh):
        op = fem.assemble(square_mesh)
        c = np.ones(op.dimension)
        rq = float(c @ (op.A @ c)) / float(c @ (op.M @ c))
        assert abs(rq) < 1e-12

    def test_serial_reproducibility(self, square_mesh):
        mus1, vectors1, _ = laplacian_pairs(square_mesh, 2)
        mus2, vectors2, _ = laplacian_pairs(square_mesh, 2)
        assert vectors2 is not vectors1
        assert np.array_equal(mus1, mus2)
        assert np.array_equal(vectors1, vectors2)


def residual_norms(name, monkeypatch):
    """The solver's residuals, _residual_bounds of r = A v - mu M v, and
    the exact ||r||_{M^-1} through a sparse LU of M, for the pairs of a
    corpus domain's lattice mesh at 0.16 and its refinements at 0.08 and
    0.04, as a study solves them (the finest by LOBPCG)."""
    from scipy.sparse.linalg import splu

    _, solves = study_solves(monkeypatch, corpus_domain(name), (0.16, 0.08, 0.04))
    assert [parent is None for _, parent, *_ in solves] == [True, True, False]
    reported, bounds, exact = [], [], []
    for mesh, _, mus, vecs, residuals in solves:
        op = fem.assemble(mesh)
        r = op.A @ vecs - (op.M @ vecs) * mus
        reported.append(residuals)
        bounds.append(fem._residual_bounds(op, r))
        exact.append(np.sqrt(np.einsum("ij,ij->j", r, splu(op.M.tocsc()).solve(r))))
    return np.concatenate(reported), np.concatenate(bounds), np.concatenate(exact)


class TestResidualBound:
    @pytest.mark.parametrize("name", CORPUS)
    def test_bound_brackets_the_exact_norm(self, name, monkeypatch):
        reported, bounds, exact = residual_norms(name, monkeypatch)
        assert np.array_equal(reported, bounds)
        assert np.all(exact <= bounds), (exact, bounds)
        assert np.all(bounds <= 2.3 * exact), (exact, bounds)

    def test_bound_is_attained_on_one_element(self):
        # on one triangle M = |J| R, and r = D^1/2 y with y the least
        # eigenvector of D^-1/2 M D^-1/2 meets the bound with equality
        op = fem.assemble(single_triangle_mesh())
        mass = op.M
        scale = np.sqrt(mass.diagonal())
        y = np.linalg.eigh(mass.toarray() / np.outer(scale, scale))[1][:, :1]
        r = scale[:, None] * y
        exact = np.sqrt(r[:, 0] @ np.linalg.solve(mass.toarray(), r[:, 0]))
        assert fem._residual_bounds(op, r)[0] == pytest.approx(exact, rel=1e-12)

    def test_doubled_constant_is_caught(self, monkeypatch):
        assemble = fem.assemble

        def doubled(mesh):
            op = assemble(mesh)
            return dataclasses.replace(op, c0=2.0 * op.c0)

        monkeypatch.setattr(fem, "assemble", doubled)
        _, bounds, exact = residual_norms("ellipse-1.5", monkeypatch)
        assert np.any(bounds < exact)


class TestMappedElements:
    def test_straight_nodes_give_the_affine_element(self, square_mesh):
        # mapped through its edge midpoints, every triangle is affine again
        tris, verts = square_mesh.triangles, square_mesh.vertices
        nt = len(tris)
        edges = np.column_stack([np.repeat(np.arange(nt), 3), np.tile(np.arange(3), nt)])
        nodes = 0.5 * (verts[tris] + verts[tris[:, [1, 2, 0]]]).reshape(-1, 2)
        mapped, me, ke = fem._mapped_matrices(square_mesh, edges, nodes)
        assert np.array_equal(mapped, np.arange(nt))
        for got, want in zip((me, ke), fem._p2_matrices(square_mesh)[:2]):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k", [0, 1])
    def test_gate_constant_bounds_the_mass(self, k):
        # the disk at h = 0.16 and its refinement: M >= c0 diag(M) for the
        # c0 the residual gate uses, which its mapped elements lower
        from scipy.sparse.linalg import eigsh

        d = corpus_domain("disk")
        mesh = cached_mesh(d, 0.16) if k == 0 else refined_mesh(d, 0.16)
        op = fem.assemble(mesh)
        c0 = op.c0
        assert c0 < fem._mass_jacobi_min()
        scale = sp.diags(1.0 / np.sqrt(op.M.diagonal()))
        least = eigsh((scale @ op.M @ scale).tocsc(), k=1, sigma=0.0,
                      return_eigenvectors=False)[0]
        assert least >= c0

    def test_mass_measures_the_curved_area(self):
        d = corpus_domain("disk")
        for k, mesh in enumerate((cached_mesh(d, 0.16), refined_mesh(d, 0.16))):
            total = float(fem.assemble(mesh).M.sum())
            straight = float(np.sum(0.5 * msh.triangle_jacobians(mesh.vertices, mesh.triangles)))
            assert abs(total - d.area()) <= 1e-3 * abs(straight - d.area()), k

    def test_only_the_curved_edges_are_mapped(self):
        # the disk's mesh at h = 0.16 against the same arrays as a mesh of
        # its polyline, which has no smooth curved piece: the triangles off
        # the curved edges get the affine matrices bit for bit
        d = corpus_domain("disk")
        mesh = cached_mesh(d, 0.16)
        polygon = geo.Polygon(tuple(map(tuple, geo.boundary_polyline(d, 0.16)[0])))
        flat = dataclasses.replace(mesh, domain=polygon)
        assert flat.curved_edges is None
        op = fem.assemble(flat)
        assert op.c0 == fem._mass_jacobi_min()
        area = float(np.sum(0.5 * msh.triangle_jacobians(mesh.vertices, mesh.triangles)))
        assert float(op.M.sum()) == pytest.approx(area, rel=1e-13)
        ke = fem._p2_matrices(mesh)[1]
        affine = fem._p2_matrices(flat)[1]
        straight = np.ones(len(mesh.triangles), dtype=bool)
        straight[mesh.curved_edges.edges[:, 0]] = False
        assert np.array_equal(affine[straight], ke[straight])
        assert not np.allclose(affine[~straight], ke[~straight])

    def test_folded_map_is_refused(self):
        # the node of edge 01 pulled past the opposite vertex
        with pytest.raises(ValueError, match="curved element"):
            fem._mapped_matrices(single_triangle_mesh(), np.array([[0, 0]]),
                                 np.array([[0.5, 1.2]]))


class TestMassSolve:
    def test_one_factor_per_mesh(self, square, monkeypatch):
        factor, calls = fem._factor, []

        def counting_factor(mat):
            calls.append(mat.shape)
            return factor(mat)

        monkeypatch.setattr(fem, "_factor", counting_factor)
        mesh = msh.triangulate(square, 0.1)  # a new mesh object misses the memo
        fem._pencil_solve(mesh, 1)
        assert len(calls) == 1


def p2_nodes(mesh):
    """Coordinates of a mesh's P2 dofs: the vertices, then the straight
    edge midpoints in Mesh._edges' order."""
    return np.vstack([mesh.vertices, mesh.vertices[mesh._edges.ends].mean(axis=1)])


def refined_pair(name, h):
    """A lattice mesh of a corpus domain at h and its refinement, both new
    objects, so that no memoized solve serves them."""
    d = corpus_domain(name)
    coarse = msh.triangulate(d, h)
    return coarse, msh.refine(coarse)


def two_grid_solve(coarse, fine, count=1):
    """fine's pairs by LOBPCG on coarse's factor, from coarse's vectors,
    as a study solves its finest mesh."""
    mus, vectors, _, lu = fem._pencil_solve(coarse, count)
    return fem._pencil_solve(fine, count, (coarse, lu, mus, vectors))


class TestTransfer:
    def test_quadratics_carry_over_exactly(self, square):
        coarse = msh.triangulate(square, 0.2)
        fine = msh.refine(coarse)
        transfer = fem._transfer(coarse, fine)

        def quadratic(p):
            x, y = p[:, 0], p[:, 1]
            return 1.0 + 2.0 * x - 3.0 * y + x * x - 2.0 * x * y + 0.5 * y * y

        got = transfer @ quadratic(p2_nodes(coarse))
        assert np.abs(got - quadratic(p2_nodes(fine))).max() <= 1e-14

    def test_rows_sum_to_one_and_parent_dofs_are_the_identity(self):
        coarse, fine = refined_pair("ellipse-1.5", 0.16)
        transfer = fem._transfer(coarse, fine)
        n_coarse, n_fine = len(p2_nodes(coarse)), len(p2_nodes(fine))
        assert transfer.shape == (n_fine, n_coarse)
        assert np.all(transfer @ np.ones(n_coarse) == 1.0)
        block = transfer[:n_coarse].tocoo()
        assert np.array_equal(block.row, np.arange(n_coarse))
        assert np.array_equal(block.col, np.arange(n_coarse))
        assert np.all(block.data == 1.0)


class TestTwoGrid:
    def test_finest_mesh_is_never_factored(self, monkeypatch):
        d = corpus_domain("ellipse-1.5")
        h_list = (0.16, 0.08, 0.04)
        for cache in (quadrature.cached_mesh, fem._study):
            cache.cache_clear()
        factor, assemble = fem._factor, fem.assemble
        assembled, factored, alive, most_alive = [], [], [0], [0]

        class TrackedFactor:
            def __init__(self, mat):
                self.lu = factor(mat)
                alive[0] += 1

            def solve(self, rhs):
                return self.lu.solve(rhs)

            def __del__(self):
                alive[0] -= 1

        def counting_factor(mat):
            gc.collect()
            most_alive[0] = max(most_alive[0], alive[0] + 1)
            factored.append(mat.shape[0])
            return TrackedFactor(mat)

        def counting_assemble(mesh):
            op = assemble(mesh)
            assembled.append((mesh, op.dimension))
            return op

        monkeypatch.setattr(fem, "_factor", counting_factor)
        monkeypatch.setattr(fem, "assemble", counting_assemble)
        study = fem.convergence_study(d, h_list)
        meshes = [mesh for mesh, _ in assembled]
        assert meshes[0] is cached_mesh(d, 0.16) and study.mesh is meshes[2]
        for coarse, fine in zip(meshes, meshes[1:]):  # nested: each refines the last
            assert fine.h == 0.5 * coarse.h
            assert np.array_equal(fine.vertices[:len(coarse.vertices)], coarse.vertices)
            assert len(fine.triangles) == 4 * len(coarse.triangles)
        ndofs = [ndof for _, ndof in assembled]
        assert factored == ndofs[:2]
        gc.collect()
        assert most_alive[0] == 1 and alive[0] == 0
        assert study.monotone
        # a lattice mesh solved next drops the factor of the one before
        for _ in range(2):
            fem._pencil_solve(msh.triangulate(d, 0.16), 1)
        assert most_alive[0] == 1

    @pytest.mark.parametrize("name, h_list", [("ellipse-1.5", (0.16, 0.08, 0.04)),
                                              ("square", (0.16, 0.08, 0.04, 0.02))])
    def test_lobpcg_runs_once_on_the_finest_mesh(self, name, h_list, monkeypatch):
        d = corpus_domain(name)
        for cache in (quadrature.cached_mesh, fem._study):
            cache.cache_clear()
        factor, lanczos, two_grid = fem._factor, fem._lanczos_vectors, fem._two_grid_vectors
        paths, factored, alive, most_alive = [], [], [0], [0]

        class TrackedFactor:
            def __init__(self, mat):
                self.lu = factor(mat)
                alive[0] += 1

            def solve(self, rhs):
                return self.lu.solve(rhs)

            def __del__(self):
                alive[0] -= 1

        def counting_factor(mat):
            gc.collect()
            most_alive[0] = max(most_alive[0], alive[0] + 1)
            factored.append(mat.shape[0])
            return TrackedFactor(mat)

        def counting_lanczos(op, *args):
            paths.append(("lanczos", op.dimension))
            return lanczos(op, *args)

        def counting_two_grid(op, *args):
            paths.append(("lobpcg", op.dimension))
            return two_grid(op, *args)

        monkeypatch.setattr(fem, "_factor", counting_factor)
        monkeypatch.setattr(fem, "_lanczos_vectors", counting_lanczos)
        monkeypatch.setattr(fem, "_two_grid_vectors", counting_two_grid)
        fem.convergence_study(d, h_list)
        ndofs = [n for _, n in paths]
        assert ndofs == sorted(set(ndofs))
        assert paths == [("lanczos", n) for n in ndofs[:-1]] + [("lobpcg", ndofs[-1])]
        assert factored == ndofs[:-1]
        gc.collect()
        assert most_alive[0] == 1 and alive[0] == 0

    def test_double_value_on_the_disk(self):
        coarse, fine = refined_pair("disk", 0.08)
        mus = two_grid_solve(coarse, fine)[0]
        op = fem.assemble(fine)
        lu = fem._factor(op.shifted)
        lanczos = fem._checked_pairs(op, fem._lanczos_vectors(op, lu, 2, "test"), "test")[0]
        assert np.abs(mus - lanczos).max() <= 1e-12 * lanczos[0]
        assert mus[1] - mus[0] <= 1e-8 * mus[0]

    @pytest.mark.parametrize("name", ["disk", "ellipse-1.5"])
    @pytest.mark.parametrize("columns", [[1, 2], [1, 1], [2, 1]],
                             ids=["second-and-third", "second-twice", "third-and-second"])
    def test_spoiled_start_never_passes_as_another_mode(self, name, columns, monkeypatch):
        coarse, fine = refined_pair(name, 0.08)
        want = two_grid_solve(coarse, fine)[0][0]
        # the parent's modes 2 and 3 hold none of mode 1
        parent_vectors = fem._pencil_solve(coarse, 2)[1]
        two_grid = fem._two_grid_vectors

        def spoiled(op, lu, transfer, start, where):
            return two_grid(op, lu, transfer, parent_vectors[:, columns], where)

        monkeypatch.setattr(fem, "_two_grid_vectors", spoiled)
        ndof = len(p2_nodes(fine))
        try:
            got = two_grid_solve(coarse, fine)[0][0]
        except fem.SolverError as exc:
            assert f"h=0.04, ndof={ndof}" in str(exc)
        else:
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", ["disk", "ellipse-1.5"])
    def test_converged_wrong_modes_are_refused(self, name, monkeypatch):
        # exact pencil modes 2 and 3 of the fine mesh pass the residual
        # gate; only the comparison with the parent's values can refuse them
        coarse, fine = refined_pair(name, 0.08)
        op = fem.assemble(fine)
        modes = fem._lanczos_vectors(op, fem._factor(op.shifted), 3, "test")
        monkeypatch.setattr(fem, "_two_grid_vectors", lambda *args: modes[:, 1:])
        ndof = op.dimension
        with pytest.raises(fem.SolverError, match=f"lost a mode.*h=0.04, ndof={ndof}"):
            two_grid_solve(coarse, fine)

    def test_lobpcg_warning_stays_off_stderr(self, monkeypatch, capsys, recwarn, tmp_path):
        # one iteration cannot meet the gate; lobpcg's warning that it
        # stopped short must not surface, and the gate must fail the run
        monkeypatch.setattr(fem, "_LOBPCG_MAXITER", 1)
        fem._study.cache_clear()  # a kept study would skip the solve
        code = cli.main(["verify", "--domain", "ellipse-1.5", "--h-list", "0.16,0.08,0.04",
                         "--no-mps", "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("verify failed during fem convergence study: eigensolver "
                              "residuals")
        assert "h=0.04" in err and "Warning" not in err
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


SCALES = (20, -20, 30, -30)


class TestScaleFree:
    @pytest.mark.parametrize("name", CORPUS)
    def test_shift_follows_the_domain_size(self, name):
        # every corpus R lies in (1/2, 1], so the corpus keeps the shift 1
        for k in (0,) + SCALES:
            op = fem.assemble(cached_mesh(dilated(name, k), math.ldexp(0.16, k)))
            assert op.shift == math.ldexp(1.0, -2 * k), k

    @pytest.mark.parametrize("h_list", [(0.16, 0.08, 0.04), (0.16, 0.12, 0.08)],
                             ids=["halving", "lattice"])
    @pytest.mark.parametrize("name", ["disk", "ellipse-1.5", "stadium", "square", "triangle"])
    def test_mesh_values_are_scale_free(self, name, h_list):
        # dilating by 2^k, the list too, scales each mesh up to rounding and
        # mu by 4^-k; the halving list solves its finest mesh by two-grid
        # LOBPCG, the other list every mesh by Lanczos
        want = np.array(fem.convergence_study(corpus_domain(name), h_list).values)
        for k in SCALES:
            sizes = tuple(math.ldexp(h, k) for h in h_list)
            study = fem.convergence_study(dilated(name, k), sizes)
            assert np.abs(np.ldexp(study.values, 2 * k) / want - 1.0).max() <= 1e-12, k

    def test_gate_is_relative_on_a_large_disk(self):
        # the two-grid start block of a refined mesh, the parent's modes 2
        # and 3 carried over as in the spoiled-start tests, is no pair of the
        # fine mesh.  On the 2^30 disk its residuals are far below an
        # absolute 1e-9, and only a gate relative to mu refuses it
        k = 30
        coarse = msh.triangulate(dilated("disk", k), math.ldexp(0.08, k))
        fine = msh.refine(coarse)
        start = fem._transfer(coarse, fine) @ fem._pencil_solve(coarse, 2)[1][:, 1:]
        with pytest.raises(fem.SolverError, match="above tolerance"):
            fem._checked_pairs(fem.assemble(fine), start, "test")


class TestSmoother:
    @pytest.mark.parametrize("name", CORPUS)
    def test_jacobi_weight_damps_the_stiffest_modes(self, name):
        # a damped-Jacobi sweep scales a mode of D^-1 (A + M) with value
        # lambda by 1 - omega lambda; omega lambda_max <= 1.8 keeps the
        # stiffest modes shrinking by a factor of at least 0.8
        from scipy.sparse.linalg import eigsh

        d = corpus_domain(name)
        for h_list in ((0.16, 0.08, 0.04), (0.08, 0.04, 0.02)):
            for k, mesh in enumerate(halving_family(d, h_list)):
                shifted = fem.assemble(mesh).shifted
                scale = sp.diags(1.0 / np.sqrt(shifted.diagonal()))
                v0 = np.random.default_rng(3).standard_normal(shifted.shape[0])
                lam_max = eigsh(scale @ shifted @ scale, k=1, which="LA", v0=v0, tol=1e-8,
                                return_eigenvectors=False)[0]
                assert fem._JACOBI_WEIGHT * lam_max <= 1.8, (h_list[k], lam_max)


class TestPolyharmonicEigs:
    def test_square_biharmonic(self, square_mesh):
        res = fem.eig_polyharmonic_neumann(square_mesh, 1, 1)
        assert res.values[0] == pytest.approx(math.pi**4, rel=2e-2)
        assert res.power == 1

    def test_discrete_squaring(self):
        mesh = cached_mesh(geo.Ellipse(1.5, 2 / 3), 0.07)
        lap = fem._pencil_solve(mesh, 2)[0][:2]
        bih = fem.eig_polyharmonic_neumann(mesh, 2, 1)
        quotients = splitting_quotients(mesh, bih.vectors, 2)
        for i in range(2):
            assert quotients[i] == pytest.approx(lap[i] ** 2, rel=1e-9)

    def test_power_identity_m2(self, square_mesh):
        lap = fem._pencil_solve(square_mesh, 1)[0][:1]
        quad = fem.eig_polyharmonic_neumann(square_mesh, 1, 2)
        quotient = splitting_quotients(square_mesh, quad.vectors, 4)[0]
        assert quotient == pytest.approx(lap[0] ** 4, rel=1e-8)

    def test_m_bounds(self, square_mesh):
        with pytest.raises(ValueError):
            fem.eig_polyharmonic_neumann(square_mesh, 1, 0)
        with pytest.raises(ValueError):
            fem.eig_polyharmonic_neumann(square_mesh, 1, 9)

    def test_high_powers_converge_on_disk(self):
        study = fem.convergence_study(geo.Disk((0, 0), 1.0), (0.16, 0.12, 0.08))
        assert study.monotone
        for m in (3, 4):
            _, ups, bar = cli._raised(study, m)
            assert abs(ups - upsilon1_poly_ball(Ball(2, 1.0), m)) <= bar, m


class TestConvergence:
    def test_square_laplacian_extrapolation(self, square):
        study = fem.convergence_study(square, (0.2, 0.1, 0.05))
        assert study.monotone
        assert study.extrapolated == pytest.approx(math.pi**2, rel=5e-4)

    def test_mapped_p2_order_four(self):
        # straight boundary edges capped P2 at h^2 on curved domains; the
        # mapped ones give back h^4 at both lists verify uses
        for name in ("disk", "ellipse-1.5"):
            for h_list in (fem.MAPPED_H_LIST, fem.DEFAULT_H_LIST):
                study = fem.convergence_study(corpus_domain(name), h_list)
                assert study.observed_order >= 3.5, (name, h_list, study.observed_order)

    def test_error_bar_definition(self, square):
        study = fem.convergence_study(square, (0.2, 0.1, 0.05))
        assert study.error_bar == abs(study.extrapolated - study.values[-1])

    def test_error_bar_is_honest(self, square):
        # the bar reported alongside the extrapolated value must cover the
        # true remaining error (analytic limit known here)
        study = fem.convergence_study(square, (0.2, 0.1, 0.05))
        assert abs(study.extrapolated - math.pi**2) <= study.error_bar
        # and the change between the two finest meshes sits within the
        # coarser run's implied uncertainty
        assert abs(study.values[-1] - study.values[-2]) <= abs(
            study.extrapolated - study.values[-2]
        ) * (1 + 1e-12)

    def test_nongeometric_h_list_extrapolation(self):
        study = fem.convergence_study(geo.Disk((0, 0), 1.0), (0.16, 0.12, 0.08))
        exact = mu1_ball(Ball(2, 1.0))
        assert abs(study.extrapolated - exact) < abs(study.values[-1] - exact)

    def test_input_validation(self, square):
        with pytest.raises(ValueError):
            fem.convergence_study(square, (0.1, 0.05))
        with pytest.raises(ValueError):
            fem.convergence_study(square, (0.05, 0.1, 0.2))

    def test_rotated_domain_within_error_bars(self, square):
        rotated = moved_polygon(square, angle=0.6, about=(0.3, 0.3))
        s0 = fem.convergence_study(square, (0.2, 0.1, 0.05))
        s1 = fem.convergence_study(rotated, (0.2, 0.1, 0.05))
        tol = s0.error_bar + s1.error_bar + 1e-6 * s0.extrapolated
        assert abs(s0.extrapolated - s1.extrapolated) <= tol


def study_of_values(monkeypatch, d, values):
    """The study of d run afresh past its memo, with the pencil solve of
    each mesh returning the set value: values maps h to mu_h."""
    def set_value(mesh, count, coarse=None):
        return np.array([values[mesh.h]]), np.zeros((len(mesh.vertices), 1)), None, None

    monkeypatch.setattr(fem, "_pencil_solve", set_value)
    return fem._study.__wrapped__(d, tuple(values))


class TestRichardsonRule:
    H_LIST = (0.4, 0.3, 0.2)

    @pytest.mark.parametrize("order", [0.8, 1.7, 4.0])
    def test_extrapolates_with_the_observed_order(self, square, order, monkeypatch):
        study = study_of_values(monkeypatch, square, {h: 3.0 + h**order for h in self.H_LIST})
        assert study.monotone
        assert study.observed_order == pytest.approx(order, abs=1e-9)
        assert study.extrapolated == pytest.approx(3.0, abs=1e-12)
        assert study.error_bar == abs(study.extrapolated - study.values[-1])

    @pytest.mark.parametrize("order", [0.3, -0.35])
    def test_low_order_withholds_extrapolation(self, square, order, monkeypatch):
        # a study outside the asymptotic range reports the finest value with
        # the last increment as its bar, whatever its order
        study = study_of_values(monkeypatch, square, {h: 3.0 + h**order for h in self.H_LIST})
        assert study.monotone
        assert study.observed_order == pytest.approx(order, abs=1e-9)
        assert study.extrapolated is None
        assert study.best == study.values[-1]
        assert study.error_bar == abs(study.values[-1] - study.values[-2])

    def test_non_monotone_withholds_extrapolation(self, square, monkeypatch):
        study = study_of_values(monkeypatch, square, dict(zip(self.H_LIST, (3.0, 2.9, 2.95))))
        assert not study.monotone
        assert study.observed_order is None and study.extrapolated is None
        assert study.error_bar == abs(2.95 - 2.9)

    def test_order_comes_from_the_finest_triple(self, square, monkeypatch):
        # the coarse triple alone would observe order 1, the finest order 2
        h_list = (0.4, 0.3, 0.2, 0.15)
        fine = [3.0 + h**2 for h in h_list[1:]]
        coarse = fine[0] + (0.4 - 0.3) / (0.3 - 0.2) * (fine[0] - fine[1])
        study = study_of_values(monkeypatch, square, dict(zip(h_list, [coarse, *fine])))
        assert fem._triple_order(h_list[:3], (coarse - fine[0]) / (fine[0] - fine[1])) == (
            pytest.approx(1.0, abs=1e-9))
        diffs = np.diff(study.values)
        assert study.observed_order == fem._triple_order(h_list[1:], diffs[-2] / diffs[-1])
        assert study.observed_order == pytest.approx(2.0, abs=1e-9)
        assert study.extrapolated == pytest.approx(3.0, abs=1e-12)


class TestStudyMeshes:
    def test_halving_list_triangulates_once(self, monkeypatch):
        calls = []

        def counting_triangulate(d, h):
            calls.append(h)
            return msh.triangulate(d, h)

        monkeypatch.setattr(quadrature, "triangulate", counting_triangulate)
        d = geo.Ellipse(1.3, 1.0 / 1.3)  # meshed by no other test, so not cached
        study = fem.convergence_study(d, (0.16, 0.08, 0.04))
        assert calls == [0.16]
        assert study.monotone
        fine = study.mesh
        assert fine.h == 0.04
        assert len(fine.triangles) == 16 * len(cached_mesh(d, 0.16).triangles)

    def test_non_halving_list_uses_lattice_meshes(self, monkeypatch):
        d = corpus_domain("disk")
        h_list = (0.16, 0.12, 0.08)
        study, solves = study_solves(monkeypatch, d, h_list)
        for (mesh, parent, *_), h in zip(solves, h_list):
            assert mesh is cached_mesh(d, h) and parent is None
        assert study.mesh is cached_mesh(d, 0.08)

    def test_refinement_starts_at_each_halving_run(self, monkeypatch):
        d = corpus_domain("square")
        h_list = (0.2, 0.15, 0.075, 0.05)
        _, solves = study_solves(monkeypatch, d, h_list)
        meshes = [mesh for mesh, *_ in solves]
        assert meshes[0] is cached_mesh(d, 0.2)
        assert meshes[1] is cached_mesh(d, 0.15)
        refined = meshes[2]
        assert refined.h == 0.075
        assert np.array_equal(refined.vertices[:len(meshes[1].vertices)], meshes[1].vertices)
        assert len(refined.triangles) == 4 * len(cached_mesh(d, 0.15).triangles)
        assert meshes[3] is cached_mesh(d, 0.05)
        # two-grid LOBPCG on the finest mesh of the run alone
        assert [parent for _, parent, *_ in solves] == [None, None, meshes[1], None]

    def test_two_halving_runs_take_two_grid_each(self, monkeypatch):
        d = corpus_domain("square")
        h_list = (0.2, 0.1, 0.07, 0.035)
        study, solves = study_solves(monkeypatch, d, h_list)
        meshes = [mesh for mesh, *_ in solves]
        assert meshes[0] is cached_mesh(d, 0.2) and meshes[2] is cached_mesh(d, 0.07)
        assert [mesh.h for mesh in meshes] == list(h_list)
        assert [parent for _, parent, *_ in solves] == [None, meshes[0], None, meshes[2]]
        assert study.mesh is meshes[3] and study.monotone

    def test_gram_stiffness_matches_quadrature(self):
        mesh = cached_mesh(corpus_domain("ellipse-1.5"), 0.08)
        n_vals, dndl, w = fem._p2_reference()
        gradl, jac = fem._barycentric_gradients(mesh)
        gradn = np.einsum("qij,tjk->qtik", dndl, gradl)
        want = np.einsum("q,qtik,qtjk,t->tij", w, gradn, gradn, jac)
        got = fem._p2_matrices(mesh)[1]
        # the triangles with a curved edge are mapped (TestMappedElements)
        affine = np.ones(len(mesh.triangles), dtype=bool)
        affine[mesh.curved_edges.edges[:, 0]] = False
        assert 0 < np.sum(~affine) < np.sum(affine)
        assert np.abs(got - want)[affine].max() <= 1e-14 * np.abs(want).max()


class TestEigenfunctionDump:
    def test_vertex_field_roundtrip(self, square, tmp_path):
        mesh = cached_mesh(square, 0.1)
        vectors = fem._pencil_solve(mesh, 1)[1]
        nv = len(mesh.vertices)
        path = tmp_path / "mode.txt"
        save_mesh(mesh, path, vertex_values=vectors[:nv, 0])
        vertices, triangles, values = load_mesh(path)
        assert vertices.tobytes() == mesh.vertices.tobytes()
        assert np.array_equal(triangles, mesh.triangles)
        assert values.tobytes() == vectors[:nv, 0].tobytes()
