"""Finite-element Neumann eigenvalues of Delta and Delta^(2m) on planar domains.

Continuous quadratic (P2) Lagrange elements give a mass/stiffness pair
(M, A); both Neumann-type boundary conditions of the even-order problems
are natural, so no constraints are imposed.  A triangle with an edge on a
smooth curved piece of the boundary is isoparametric: its quadratic map
runs through that edge's node on the curve (Mesh.curved_edges), which
restores the h^4 convergence of P2 eigenvalues that straight boundary
edges cap at h^2 (Lenoir, SIAM J. Numer. Anal. 23 (1986) 562-580).
Every other triangle is affine.  The order-2m operator is
realized mixed as K_q = A (M^{-1} A)^(q-1) with q = 2m, so its discrete
eigenpairs are exactly the q-th powers of the (A, M) pencil's with the
same vectors, and the reported value is mu^q.  The continuous problem
squares the same way: du/dn = 0 belongs to the form domain, on which the
form is diagonal in the Neumann Laplacian's eigenbasis, so Upsilon_k =
mu_k^q (README); acceptance criterion 8 guards the discrete squaring,
and the particular-solutions cross-check (`neuspec.mps`) checks mu
itself.

M, A and A + s M, s = OperatorPair.shift, share one sparsity pattern,
built in one pass.  A convergence study solves the pencil alone, once per
domain and h list, and so serves every q; with no list given it picks
verify's default.  It builds its meshes first: the lattice mesh at each
h, except along a run of halving steps, where each mesh is the red
refinement of the one before.  Then it walks them coarse to fine: each is
solved by shift-invert Lanczos (ARPACK mode 3, through scipy's eigsh) at
sigma = -s on a sparse LU factor of A + s M, except the finest mesh of a
halving run, which nothing finer refines.  That one is solved by LOBPCG,
started from its parent's vectors and preconditioned by a two-grid cycle
whose coarse level is the parent's LU factor; at most one factor is alive
at a time.  Each pair's residual in the M^{-1} norm is bounded without a
solve with M: every element mass matrix is >= c0 times its diagonal, so
M >= c0 diag(M) (Wathen 1987).  c0 is the least eigenvalue of the
diagonally scaled mass of the affine elements, which are |J| times one
reference matrix, and of each mapped element, whichever is least.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .ball import MAX_POWER
from .geometry import Domain, GeometryError
from .meshing import Mesh, MeshQualityError, maps_boundary, refine, triangle_jacobians
from .quadrature import cached_mesh, triangle_rule

__all__ = [
    "OperatorPair",
    "EigResult",
    "ConvergenceStudy",
    "assemble",
    "convergence_study",
    "SolverError",
    "DEFAULT_H_LIST",
    "MAPPED_H_LIST",
]

# a convergence study's mesh sizes when none are given: MAPPED_H_LIST on
# shapes whose meshes map curved edges (meshing.maps_boundary), where P2
# converges like h^4, if the mesher builds its meshes; else DEFAULT_H_LIST
DEFAULT_H_LIST = (0.08, 0.04, 0.02)
MAPPED_H_LIST = (0.16, 0.08, 0.04)
RESIDUAL_TOL = 1e-9
_SEED = 20240


class SolverError(RuntimeError):
    """The eigensolver did not converge or missed the residual gate."""


@dataclass(frozen=True)
class OperatorPair:
    """Assembled P2 mass and stiffness operators of one mesh, the positive
    definite A + shift M that the eigensolvers factor and smooth with, shift
    the power of two with shift R^2 in (1/4, 1] (R the domain's equal-area
    radius), and the c0 of _residual_bounds: the least diagonally scaled
    eigenvalue of the element masses, _mass_jacobi_min() or a mapped one's."""

    M: sp.csr_matrix
    A: sp.csr_matrix
    shifted: sp.csc_matrix
    shift: float
    dimension: int
    c0: float


@dataclass(frozen=True)
class EigResult:
    """Eigenvalue estimates with vectors and operator residual norms.

    values are ascending; vectors are M-orthonormal and M-orthogonal to
    the constant mode; residuals are upper bounds on ||A v - mu M v|| in
    the M^{-1} norm at the pencil value mu (see _checked_pairs), where
    value = mu^(2m).  power records m.  vectors and residuals are
    read-only.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    power: int


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _barycentric_gradients(mesh: Mesh):
    """Gradients of the barycentric coordinates (nt, 3, 2) and the Jacobians.
    Raises ValueError where a Jacobian is not positive."""
    v = mesh.vertices
    t = mesh.triangles
    jac = triangle_jacobians(v, t)
    if np.any(jac <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    g1 = np.stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]], axis=1) / jac[:, None]
    g2 = np.stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]], axis=1) / jac[:, None]
    g3 = np.stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]], axis=1) / jac[:, None]
    return np.stack([g1, g2, g3], axis=1), jac


def _p2_reference():
    pts, w = triangle_rule()
    xi, eta = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)  # (nq, 3)
    n_vals = np.concatenate(
        [
            lam * (2.0 * lam - 1.0),
            4.0 * lam[:, [0, 1, 2]] * lam[:, [1, 2, 0]],
        ],
        axis=1,
    )  # (nq, 6): vertices then midpoints (01, 12, 20)
    # dN/dlambda (nq, 6, 3)
    nq = len(w)
    dndl = np.zeros((nq, 6, 3))
    for k in range(3):
        dndl[:, k, k] = 4.0 * lam[:, k] - 1.0
    for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        dndl[:, 3 + e, a] = 4.0 * lam[:, b]
        dndl[:, 3 + e, b] = 4.0 * lam[:, a]
    return n_vals, dndl, w


def _reference_mass():
    """The P2 element mass matrix of a triangle divided by its |J|."""
    n_vals, _, w = _p2_reference()
    return np.einsum("q,qi,qj->ij", w, n_vals, n_vals)


def _jacobi_min(masses) -> float:
    """The least eigenvalue of the element masses (n, 6, 6), each scaled by
    its diagonal, diag(Me)^-1/2 Me diag(Me)^-1/2."""
    scale = 1.0 / np.sqrt(np.einsum("nii->ni", masses))
    return float(np.linalg.eigvalsh(scale[:, :, None] * masses * scale[:, None, :]).min())


@lru_cache(maxsize=1)
def _mass_jacobi_min() -> float:
    """c0 of the residual bound on affine elements, about 0.392: the least
    eigenvalue of the reference mass R scaled by its diagonal.

    An affine element's mass is |J| R, so it is >= c0 times its own
    diagonal.  A mapped element's mass is not a multiple of R, and its own
    value lies lower (0.3904 to 0.3920 on the smooth corpus at the default
    h list); _p2_matrices takes the least of them all as OperatorPair.c0, so
    that summing over the elements gives M >= c0 diag(M).
    """
    return _jacobi_min(_reference_mass()[None])


def _p2_matrices(mesh: Mesh):
    """Element masses and stiffnesses (nt, 6, 6), each triangle's dofs, the
    dof count and the c0 of OperatorPair.  The triangles of
    mesh.curved_edges take _mapped_matrices; every other one is affine."""
    # the mesh's records first: both are kept with the mesh, and made after
    # the element arrays they split the freed heap that the COO arrays
    # reuse.  At 0.08, 0.04, 0.02 that raised a verify run's peak RSS from
    # 88 to 89-90 MB on the square and the triangle, and from 116 to 123-124
    # MB on ellipse-1.5
    conn_e, n_edges = mesh._edges.conn, mesh._edges.count
    curved = mesh.curved_edges
    _, dndl, w = _p2_reference()
    gradl, jac = _barycentric_gradients(mesh)

    me = _reference_mass()[None, :, :] * jac[:, None, None]
    # on an affine triangle ke_ij = sum_ab G_ab S_abij: G is the Gram matrix
    # of the barycentric gradients times |J|, S a fixed reference tensor
    gram = np.einsum("tak,tbk,t->tab", gradl, gradl, jac)
    ref_stiff = np.einsum("q,qia,qjb->abij", w, dndl, dndl)
    ke = (gram.reshape(-1, 9) @ ref_stiff.reshape(9, 36)).reshape(-1, 6, 6)
    c0 = _mass_jacobi_min()
    if curved is not None:
        mapped, me[mapped], ke[mapped] = _mapped_matrices(mesh, *curved)
        c0 = min(c0, _jacobi_min(me[mapped]))

    nv = len(mesh.vertices)
    dofs = np.concatenate([mesh.triangles, nv + conn_e], axis=1)  # (nt, 6)
    return me, ke, dofs, nv + n_edges, c0


def _mapped_matrices(mesh: Mesh, edges, nodes):
    """The triangles of the edges and nodes of Mesh.curved_edges, and their
    isoparametric P2 mass and stiffness matrices.

    The map x(xi) = sum_j X_j N_j(xi) runs through the element's six
    nodes X_j: its vertices, the curve node of each curved edge and the
    midpoint of each straight one.  Both matrices take the 6-point rule
    with the map's Jacobian J at each point: mass sum_q w_q |J| N_i N_j,
    stiffness sum_q w_q |J| (J^-T grad N_i) . (J^-T grad N_j).  Raises
    ValueError where |J| is not positive at a point of the rule.
    """
    tri, edge = edges.T
    curved = np.unique(tri)
    corners = mesh.vertices[mesh.triangles[curved]]
    x = np.concatenate([corners, 0.5 * (corners + corners[:, [1, 2, 0]])], axis=1)
    x[np.searchsorted(curved, tri), 3 + edge] = nodes
    n_vals, dndl, w = _p2_reference()
    dndxi = dndl[:, :, 1:] - dndl[:, :, :1]  # (nq, 6, 2): d/dxi, d/deta
    jac = np.einsum("tjk,qjl->tqkl", x, dndxi)  # dx_k / dxi_l
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if np.any(det <= 0.0):
        raise ValueError("a curved element's map is degenerate or inverted")
    inv_t = np.stack([np.stack([jac[..., 1, 1], -jac[..., 1, 0]], axis=-1),
                      np.stack([-jac[..., 0, 1], jac[..., 0, 0]], axis=-1)],
                     axis=-2) / det[..., None, None]  # J^-T
    grad = np.einsum("tqkl,qil->tqik", inv_t, dndxi)
    wdet = w * det
    me = np.einsum("tq,qi,qj->tij", wdet, n_vals, n_vals)
    ke = np.einsum("tq,tqik,tqjk->tij", wdet, grad, grad)
    return curved, me, ke


def assemble(mesh: Mesh) -> OperatorPair:
    """P2 mass and stiffness; the dofs are the vertices, then the edge nodes.

    M and A come out of one COO-to-CSR pass, as the real and imaginary
    parts of one complex array: scipy orders the entries of a row by their
    column indices alone, so each sums its duplicates in the order a real
    pass of its own would.  Both are then symmetrized exactly on that one
    pattern, as 0.5 (S + S[perm]) with perm the (j, i) slot of each (i, j)
    slot, which removes assembly-order roundoff, and A + shift M is formed
    there too.  An entry that comes out exactly 0 is dropped, as a sparse
    sum drops it, so a matrix with one gets its own pattern.
    """
    me, ke, dofs, ndof, c0 = _p2_matrices(mesh)
    shift = math.ldexp(1.0, -2 * math.ceil(math.log2(mesh.domain.equal_area_radius())))
    both = np.empty(me.shape, dtype=complex)
    both.real, both.imag = me, ke
    del me, ke  # each del in assemble lowers its peak memory
    # scipy's index type below 2**31 dofs, so the COO matrix takes these
    # arrays without a copy
    dofs = dofs.astype(np.int32)
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    summed = sp.coo_matrix((both.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    del both, rows, cols
    # the buffers hold every COO entry; the pattern keeps only its slots
    indptr, indices = summed.indptr, summed.indices.copy()
    # read as CSC the pattern is its own transpose, so the CSR of that
    # carries at slot (j, i) the id of slot (i, j)
    slots = np.arange(len(indices), dtype=indices.dtype)
    perm = sp.csc_matrix((slots, indices, indptr), shape=(ndof, ndof)).tocsr().data
    del slots

    def symmetrized(part):
        return 0.5 * (part + part[perm])

    m_data, a_data = symmetrized(summed.data.real), symmetrized(summed.data.imag)
    del summed, perm

    def on_pattern(data, fmt):
        mat = fmt((data, indices, indptr), shape=(ndof, ndof))
        if not data.all():
            mat = mat.copy()  # eliminate_zeros rewrites the pattern in place
            mat.eliminate_zeros()
        return mat

    # the shifted pattern and values are exactly symmetric, so its CSR
    # arrays are its CSC arrays
    return OperatorPair(M=on_pattern(m_data, sp.csr_matrix),
                        A=on_pattern(a_data, sp.csr_matrix),
                        shifted=on_pattern(a_data + shift * m_data, sp.csc_matrix),
                        shift=shift, dimension=ndof, c0=c0)


# ---------------------------------------------------------------------------
# The pencil eigensolver
# ---------------------------------------------------------------------------

def _factor(mat):
    """Sparse LU of a symmetric positive definite CSC matrix.

    Minimum-degree ordering on the symmetric pattern with diagonal pivots
    keeps the factor symmetric in structure: on a 40k-dof P2 mesh it has
    half COLAMD's fill and factors in half the time.
    """
    from scipy.sparse.linalg import splu

    return splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _column_dots(u, w):
    return np.einsum("ij,ij->j", u, w)


# LOBPCG on a refined mesh: its residual tolerance (at 1e-10 the gate's
# residual on ellipse-1.5 at h = 0.02 read 1.1e-8, above RESIDUAL_TOL) and
# an iteration cap far above the 11 to 19 iterations the corpus takes
_LOBPCG_TOL = 1e-12
_LOBPCG_MAXITER = 100
# the two-grid preconditioner: damped-Jacobi weight, and sweeps on each side
# of the coarse correction
_JACOBI_WEIGHT = 0.7
_JACOBI_SWEEPS = 2
# a refined mesh's k-th value above its parent's by more than this fraction
# means LOBPCG lost a mode: refinement lowered every corpus value, by at
# most 4.4e-3 relative from h = 0.16 on, while a lost mode leaves the last
# value at the next distinct one, far higher
_INDEX_SLACK = 1e-3


def _lanczos_vectors(op: OperatorPair, lu, n_modes: int, where: str):
    """The n_modes lowest nonconstant pencil vectors, unnormalized.

    One shift-invert Lanczos run at sigma = -op.shift on the LU factor of
    A - sigma M = A + op.shift M, which is positive definite although A is
    singular, returns the constant mode and the n_modes modes above it.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = op.dimension
    # a fixed start vector: ARPACK's default one is drawn from internal state
    v0 = np.random.Generator(np.random.PCG64(_SEED)).standard_normal(n)
    try:
        mus, vecs = eigsh(
            op.A, k=n_modes + 1, M=op.M, sigma=-op.shift, v0=v0,
            OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
        )
    except ArpackNoConvergence as exc:
        raise SolverError(f"shift-invert Lanczos did not converge ({where})") from exc
    return vecs[:, np.argsort(mus)[1:]]  # the constant mode leads


def _transfer(parent: Mesh, mesh: Mesh) -> sp.csr_matrix:
    """P2 prolongation P from parent to mesh, its red refinement.

    Row i holds the parent's P2 basis functions at the child's dof i.  The
    child's vertices are the parent's dofs in the same numbering, so their
    rows are the identity.  A child edge midpoint sits at fixed reference
    barycentrics: a quarter of the way along a parent edge (3/8 at the near
    end, 3/4 at the edge's midpoint, -1/8 at the far end), or halfway
    between two midpoints of a parent triangle (1/2 at each, 1/4 at the
    third midpoint, -1/8 at the two vertices their edges do not share).
    These are the weights of an affine parent element.  A mapped parent
    element (Mesh.curved_edges) keeps them too: its curve node is the
    child's vertex there, so that row is exact, but its basis functions
    take other values at the child's edge nodes inside it.  A
    preconditioner and a start block can afford that.
    """
    nv = len(parent.vertices)
    conn, n_edges = parent._edges.conn, parent._edges.count
    a, b = parent._edges.ends.T
    mid = nv + np.arange(n_edges)
    v, m = parent.triangles, nv + conn
    # (ends of the child edge, parent dofs, basis values at its midpoint);
    # parent edge k joins vertices k and k + 1, so edges k and k + 1 share one
    blocks = [((a, mid), (a, mid, b), (0.375, 0.75, -0.125)),
              ((b, mid), (b, mid, a), (0.375, 0.75, -0.125))]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        blocks.append(((m[:, i], m[:, j]), (m[:, i], m[:, j], m[:, k], v[:, i], v[:, k]),
                       (0.5, 0.5, 0.25, -0.125, -0.125)))

    # the child's edge ids, looked up by their vertex pairs in its sorted table
    n_child = len(mesh.vertices)
    child = mesh._edges
    parent_dofs = np.arange(nv + n_edges)
    rows, cols, vals = [parent_dofs], [parent_dofs], [np.ones(nv + n_edges)]
    for (p, q), dofs, weights in blocks:
        key = np.minimum(p, q).astype(np.int64) * n_child + np.maximum(p, q)
        row = n_child + child.ids[np.searchsorted(child.keys, key)]
        for dof, weight in zip(dofs, weights):
            rows.append(row)
            cols.append(dof)
            vals.append(np.full(len(row), weight))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_child + child.count, nv + n_edges))


def _two_grid_vectors(op: OperatorPair, coarse_lu, transfer, start, where: str):
    """Pencil vectors by LOBPCG from the block transfer @ start.

    The constants are LOBPCG's constraint.  The preconditioner is one
    symmetric two-grid cycle on A + s M, s = op.shift: _JACOBI_SWEEPS
    damped-Jacobi sweeps, the coarse correction transfer (coarse A + s M)^-1
    transfer^T through the parent's LU factor, and as many sweeps again.  It
    stops at _LOBPCG_TOL sqrt(s), as its 2-norm residuals scale like sqrt(s).
    lobpcg's warning when it stops short is silenced: the gate judges.
    """
    from scipy.sparse.linalg import lobpcg

    shifted = op.shifted.T  # exactly symmetric: the CSR view of its arrays
    weight = (_JACOBI_WEIGHT / shifted.diagonal())[:, None]
    restrict = transfer.T.tocsr()

    def smooth(z, r, sweeps):
        for _ in range(sweeps):
            z += weight * (r - shifted @ z)

    def cycle(r):
        z = weight * r  # the first sweep, from z = 0
        smooth(z, r, _JACOBI_SWEEPS - 1)
        z += transfer @ coarse_lu.solve(restrict @ (r - shifted @ z))
        smooth(z, r, _JACOBI_SWEEPS)
        return z

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            _, vecs = lobpcg(op.A, transfer @ start, B=op.M, M=cycle, Y=np.ones((op.dimension, 1)),
                             tol=_LOBPCG_TOL * math.sqrt(op.shift), maxiter=_LOBPCG_MAXITER,
                             largest=False)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SolverError(f"two-grid LOBPCG failed: {exc} ({where})") from exc
    return vecs


def _residual_bounds(op: OperatorPair, r):
    """Upper bounds sqrt(r^T D^-1 r / c0) on ||r||_{M^-1} per column of r,
    with D = diag(M) and c0 = op.c0: the least scaled eigenvalue of the
    affine and the mapped element masses.

    Since M >= c0 D, each is at least the exact norm, and at most about
    sqrt(c1 / c0) = 2.29 times it, c1 the largest eigenvalue of the scaled
    reference mass.
    """
    return np.sqrt(_column_dots(r, r / op.M.diagonal()[:, None]) / op.c0)


def _checked_pairs(op: OperatorPair, vecs, where: str):
    """Values, vectors and residuals of the pencil from approximate vectors.

    The vectors are made M-orthogonal to the constants and M-normalized,
    and the values are their Rayleigh quotients, ascending.  The residual
    gate asks _residual_bounds of r = A v - mu M v, an upper bound on
    ||r||_{M^-1} with no solve with M, to be <= RESIDUAL_TOL * mu, both
    scaling like 1/R^2; so it refuses whatever the exact norm would refuse.
    Returns read-only (mu, vectors, residual bounds).
    """
    n = op.dimension
    m_ones = op.M @ np.ones(n)
    vecs = vecs - np.outer(np.ones(n), (m_ones @ vecs) / m_ones.sum())
    vecs /= np.sqrt(_column_dots(vecs, op.M @ vecs))
    mus = _column_dots(vecs, op.A @ vecs)
    rank = np.argsort(mus)
    mus, vecs = mus[rank], vecs[:, rank]

    r = op.A @ vecs - (op.M @ vecs) * mus
    resid = _residual_bounds(op, r)
    if np.any(resid > RESIDUAL_TOL * mus):
        raise SolverError(
            f"eigensolver residuals {resid} above tolerance ({where}; pencil values {mus})"
        )
    for arr in (mus, vecs, resid):
        arr.setflags(write=False)
    return mus, vecs, resid


def _pencil_solve(mesh: Mesh, count: int, coarse=None):
    """The count + 1 smallest nonzero pencil values A v = mu M v of one
    mesh, with vectors and residuals (_checked_pairs), and the LU factor
    of A + shift M (OperatorPair) that found them.

    With coarse None the mesh is solved by shift-invert Lanczos on its own
    factor.  Otherwise coarse is (parent, factor, values, vectors): the
    mesh that refine split to make this one, and its solve with the same
    count.  LOBPCG starts from those vectors and is preconditioned with
    that factor (_two_grid_vectors), and the factor returned is None.  The
    extra mode lets each of its values be checked against the parent's,
    so that a lost mode raises SolverError instead of passing the gate as
    the wrong eigenvalue.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    op = assemble(mesh)
    if count + 3 >= op.dimension:
        raise ValueError("mesh too small for requested eigenvalue count")
    where = f"h={mesh.h:g}, ndof={op.dimension}"
    if coarse is None:
        lu = _factor(op.shifted)
        vectors = _lanczos_vectors(op, lu, count + 1, where)
    else:
        lu, (parent, coarse_lu, parent_mus, parent_vectors) = None, coarse
        vectors = _two_grid_vectors(op, coarse_lu, _transfer(parent, mesh), parent_vectors,
                                    where)
    mus, vectors, residuals = _checked_pairs(op, vectors, where)
    if coarse is not None and np.any(mus > parent_mus * (1.0 + _INDEX_SLACK)):
        raise SolverError(f"two-grid LOBPCG lost a mode: pencil values {mus} above "
                          f"the parent mesh's {parent_mus} ({where})")
    return mus, vectors, residuals, lu


def eig_polyharmonic_neumann(mesh: Mesh, count: int, m: int) -> EigResult:
    """Smallest `count` nonzero Neumann eigenvalues of Delta^(2m), by one
    Lanczos solve of this mesh alone.

    The values are mu^(2m) for the pencil values mu of the Laplacian on
    the same mesh, which is exact for the mixed operator
    K = A (M^{-1} A)^(2m-1).
    """
    if not (1 <= m <= MAX_POWER):
        raise ValueError(f"operator power m must be in 1..{MAX_POWER}")
    mus, vectors, residuals, _ = _pencil_solve(mesh, count)
    return EigResult(values=mus[:count]**(2 * m), vectors=vectors[:, :count],
                     residuals=residuals[:count], power=m)


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceStudy:
    """Estimates of the least nonzero pencil value mu over a mesh family,
    with Richardson extrapolation.

    extrapolated is None unless the values are monotone and the finest
    triple's observed order is above 0.5; error_bar = |extrapolated -
    finest|, or the last increment when extrapolation is withheld.  vector is
    the finest mesh's M-normalized eigenvector, read-only, and mesh that mesh.
    """

    h_list: tuple
    values: tuple
    observed_order: float | None
    extrapolated: float | None
    error_bar: float
    monotone: bool
    vector: np.ndarray = field(repr=False, compare=False)
    mesh: Mesh = field(repr=False, compare=False)

    @property
    def best(self) -> float:
        return self.extrapolated if self.extrapolated is not None else self.values[-1]


def _triple_order(h, ratio):
    """Order p solving (h0^p - h1^p) / (h1^p - h2^p) = ratio, or None.

    On a geometric list this is log(ratio) / log(h0 / h1).  With
    a = log(h0/h1) and b = log(h1/h2) the log of the left side is
    p b + log(expm1(p a) / expm1(p b)), which increases with p, so
    bisection finds the root; None when it lies outside [-10, 30].
    """
    a, b = math.log(h[0] / h[1]), math.log(h[1] / h[2])

    def log_lhs(p):
        return p * b + math.log(a / b if p == 0.0 else math.expm1(p * a) / math.expm1(p * b))

    target = math.log(ratio)
    lo, hi = -10.0, 30.0
    if not log_lhs(lo) <= target <= log_lhs(hi):
        return None
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if log_lhs(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def convergence_study(d: Domain, h_list=None) -> ConvergenceStudy:
    """Solve the Laplacian over a descending mesh family and extrapolate.

    The finest triple of lowest-eigenvalue estimates gives the observed
    order p of d ~ C h^p; where the values are monotone and p > 0.5, one
    Richardson step with p gives the extrapolated limit with error bar
    |extrapolated - finest|.  Memoized per (domain, h list): the value of
    Delta^(2m) on a mesh is mu^(2m), so one study serves every power m.

    h_list None takes MAPPED_H_LIST where maps_boundary(d), falling back
    to DEFAULT_H_LIST only when the mesher refuses that list's meshes
    (GeometryError, MeshQualityError, raised before any solve); every
    other shape takes DEFAULT_H_LIST.  study.h_list records the list used.
    """
    if h_list is not None:
        return _study(d, tuple(float(h) for h in h_list))
    if maps_boundary(d):
        try:
            return _study(d, MAPPED_H_LIST)
        except (GeometryError, MeshQualityError):
            pass
    return _study(d, DEFAULT_H_LIST)


# a verify run studies one domain and h list for every m
@lru_cache(maxsize=16)
def _study(d: Domain, h_list: tuple) -> ConvergenceStudy:
    """The study over h_list, its meshes all built before any solve."""
    if len(h_list) < 3:
        raise ValueError("need at least 3 mesh sizes")
    if any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ValueError("mesh sizes must be strictly descending")

    # refines[k]: mesh k is the red refinement of mesh k - 1, h having
    # halved; every other mesh is the memoized lattice mesh at its h
    refines = [False] + [a == 2.0 * b for a, b in zip(h_list, h_list[1:])] + [False]
    meshes = []
    for k, h in enumerate(h_list):
        meshes.append(refine(meshes[-1]) if refines[k] else cached_mesh(d, h))
    values, coarse = [], None
    for k, mesh in enumerate(meshes):
        mus, vectors, _, lu = _pencil_solve(mesh, 1, coarse)
        # the finest mesh of a halving run, which nothing refines, is solved
        # on its parent's factor, the only factor kept past its solve
        coarse = (mesh, lu, mus, vectors) if refines[k + 1] and not refines[k + 2] else None
        del lu  # the factor goes before the next mesh is assembled
        values.append(float(mus[0]))
    values, vector = tuple(values), vectors[:, 0]
    diffs = [values[i] - values[i + 1] for i in range(len(values) - 1)]
    monotone = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
    # the finest triple's order, from its increments alone, which avoids
    # assuming the limit; only the finest step is extrapolated
    observed = _triple_order(h_list[-3:], diffs[-2] / diffs[-1]) if monotone else None
    extrapolated, error_bar = None, abs(diffs[-1])
    if observed is not None and observed > 0.5:
        r = (h_list[-2] / h_list[-1]) ** observed
        extrapolated = values[-1] + (values[-1] - values[-2]) / (r - 1.0)
        error_bar = abs(extrapolated - values[-1])
    return ConvergenceStudy(h_list=h_list, values=values, observed_order=observed,
                            extrapolated=extrapolated, error_bar=error_bar, monotone=monotone,
                            vector=vector, mesh=meshes[-1])
