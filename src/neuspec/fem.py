"""Finite-element Neumann eigenvalues of Delta and Delta^(2m) on planar domains.

Continuous quadratic (P2) Lagrange elements give a mass/stiffness pair
(M, A); both Neumann-type boundary conditions of the even-order problems
are natural, so no constraints are imposed.  The order-2m operator is
realized mixed as K_q = A (M^{-1} A)^(q-1) with q = 2m, so its discrete
eigenpairs are exactly the q-th powers of the (A, M) pencil's with the
same vectors, and the reported value is mu^q; the independent particular-
solutions module is what probes whether that squaring survives at the
continuous level.

One eigensolve per mesh serves every q: shift-invert Lanczos (ARPACK
mode 3, through scipy's eigsh) at sigma = -1 on a sparse LU factor of
A + M, the only factor a mesh gets; M, A and A + M share one sparsity
pattern, built in one pass.  Each pair's residual in the M^{-1}
norm solves with M by Jacobi-preconditioned conjugate gradients: the
diagonally scaled mass matrix has an element-local condition bound, so
the iteration count does not grow under refinement.
The solve is memoized per (mesh, count), so the powers m of one
mesh share it; meshes compare by identity, and study_mesh gives one
mesh object per (domain, h list, position).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .geometry import Domain
from .meshing import Mesh, _edge_numbering, triangle_jacobians
from .quadrature import study_mesh, triangle_rule

__all__ = [
    "OperatorPair",
    "EigResult",
    "ConvergenceStudy",
    "assemble",
    "eig_neumann_laplacian",
    "eig_polyharmonic_neumann",
    "convergence_study",
    "SolverError",
]

RESIDUAL_TOL = 1e-9
_SHIFT = -1.0
_SEED = 20240


class SolverError(RuntimeError):
    """The eigensolver did not converge or missed the residual gate."""


@dataclass(frozen=True)
class OperatorPair:
    """Assembled P2 mass and stiffness operators of one mesh, with the
    positive definite shift A - _SHIFT M that the eigensolver factors."""

    M: sp.csr_matrix
    A: sp.csr_matrix
    shifted: sp.csc_matrix
    dimension: int


@dataclass(frozen=True)
class EigResult:
    """Eigenvalue estimates with vectors and operator residual norms.

    values are ascending; vectors are M-orthonormal and M-orthogonal to
    the constant mode; residuals are ||A v - mu M v|| in the M^{-1} norm
    at the pencil value mu, where value = mu^q with q = 2m (q = 1 for the
    Laplacian).  power records m (0 for the plain Laplacian).  vectors and
    residuals are read-only: results for the same mesh share one solve.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    power: int


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _barycentric_gradients(mesh: Mesh):
    """Gradients of the barycentric coordinates (nt, 3, 2) and the Jacobians."""
    v = mesh.vertices
    t = mesh.triangles
    jac = triangle_jacobians(v, t)
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


def _p2_matrices(mesh: Mesh):
    n_vals, dndl, w = _p2_reference()
    gradl, jac = _barycentric_gradients(mesh)

    ref_mass = np.einsum("q,qi,qj->ij", w, n_vals, n_vals)  # reference mass / |J|
    me = ref_mass[None, :, :] * jac[:, None, None]
    # on an affine triangle ke_ij = sum_ab G_ab S_abij: G is the Gram matrix
    # of the barycentric gradients times |J|, S a fixed reference tensor
    gram = np.einsum("tak,tbk,t->tab", gradl, gradl, jac)
    ref_stiff = np.einsum("q,qia,qjb->abij", w, dndl, dndl)
    ke = (gram.reshape(-1, 9) @ ref_stiff.reshape(9, 36)).reshape(-1, 6, 6)

    conn_e, n_edges = _edge_numbering(mesh)
    nv = len(mesh.vertices)
    dofs = np.concatenate([mesh.triangles, nv + conn_e], axis=1)  # (nt, 6)
    return me, ke, dofs, nv + n_edges


def assemble(mesh: Mesh) -> OperatorPair:
    """P2 mass and stiffness; the dofs are the vertices, then the edge midpoints.

    M and A come out of one COO-to-CSR pass, as the real and imaginary
    parts of one complex array: scipy orders the entries of a row by their
    column indices alone, so each sums its duplicates in the order a real
    pass of its own would.  Both are then symmetrized exactly on that one
    pattern, as 0.5 (S + S[perm]) with perm the (j, i) slot of each (i, j)
    slot, which removes assembly-order roundoff, and the shift A - _SHIFT M
    is formed there too.  An entry that comes out exactly 0 is dropped, as
    a sparse sum drops it, so a matrix with one gets its own pattern.
    """
    if np.any(triangle_jacobians(mesh.vertices, mesh.triangles) <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    me, ke, dofs, ndof = _p2_matrices(mesh)
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

    # the shift's pattern and values are exactly symmetric, so its CSR
    # arrays are its CSC arrays
    return OperatorPair(M=on_pattern(m_data, sp.csr_matrix),
                        A=on_pattern(a_data, sp.csr_matrix),
                        shifted=on_pattern(a_data - _SHIFT * m_data, sp.csc_matrix),
                        dimension=ndof)


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


# relative residual at which a mass solve stops, and its iteration cap:
# the Jacobi-scaled P2 mass matrix has a condition number of about 5.25
# at any mesh size, so CG gains about 0.4 digits per step and reaches
# 1e-14 in some 35 steps
_MASS_TOL = 1e-14
_MASS_MAXITER = 200


def _mass_solve(mass, rhs, where: str):
    """M^-1 rhs for an (n, k) block by Jacobi-preconditioned CG per column.

    A column stops once ||r|| <= _MASS_TOL ||rhs||.  Raises SolverError
    after _MASS_MAXITER steps.
    """
    from scipy.sparse.linalg import cg

    jacobi = sp.diags(1.0 / mass.diagonal())
    out = np.empty_like(rhs)
    for j in range(rhs.shape[1]):
        out[:, j], info = cg(mass, rhs[:, j], rtol=_MASS_TOL, atol=0.0,
                             maxiter=_MASS_MAXITER, M=jacobi)
        if info != 0:
            raise SolverError(
                f"mass-matrix CG missed {_MASS_TOL:g} in {_MASS_MAXITER} steps ({where})")
    return out


# the largest power m that eig_polyharmonic_neumann accepts
_MAX_POWER = 4


def _lowest_pencil_eigs(op: OperatorPair, count: int, h: float):
    """Smallest `count` nonzero pencil values A v = mu M v, with vectors.

    One shift-invert Lanczos run at sigma = -1 on an LU factor of
    A - sigma M = A + M, which is positive definite although A is
    singular, returns the constant mode and the `count` modes above it.
    The constant mode is dropped, the vectors are M-normalized and the
    values are their Rayleigh quotients.  A mass solve (_mass_solve) then
    serves the residual gate ||A v - mu M v||_{M^-1} <= RESIDUAL_TOL *
    max(1, mu).  Returns read-only (mu, vectors, residuals).
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    if count < 1:
        raise ValueError("count must be >= 1")
    n = op.dimension
    if count + 2 >= n:
        raise ValueError("mesh too small for requested eigenvalue count")
    where = f"h={h:g}, ndof={n}"
    lu = _factor(op.shifted)
    # a fixed start vector: ARPACK's default one is drawn from internal state
    v0 = np.random.Generator(np.random.PCG64(_SEED)).standard_normal(n)
    try:
        mus, vecs = eigsh(
            op.A, k=count + 1, M=op.M, sigma=_SHIFT, v0=v0,
            OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
        )
    except ArpackNoConvergence as exc:
        raise SolverError(f"shift-invert Lanczos did not converge ({where})") from exc

    vecs = vecs[:, np.argsort(mus)[1:]]  # the constant mode leads
    m_ones = op.M @ np.ones(n)
    vecs -= np.outer(np.ones(n), (m_ones @ vecs) / m_ones.sum())
    vecs /= np.sqrt(_column_dots(vecs, op.M @ vecs))
    mus = _column_dots(vecs, op.A @ vecs)
    rank = np.argsort(mus)
    mus, vecs = mus[rank], vecs[:, rank]

    r = op.A @ vecs - (op.M @ vecs) * mus
    resid = np.sqrt(np.maximum(_column_dots(r, _mass_solve(op.M, r, where)), 0.0))
    if np.any(resid > RESIDUAL_TOL * np.maximum(1.0, mus)):
        raise SolverError(
            f"eigensolver residuals {resid} above tolerance ({where}; pencil values {mus})"
        )
    for arr in (mus, vecs, resid):
        arr.setflags(write=False)
    return mus, vecs, resid


# a verify run solves one mesh per h, for every m
@lru_cache(maxsize=16)
def _pencil_solve(mesh: Mesh, count: int):
    return _lowest_pencil_eigs(assemble(mesh), count, mesh.h)


def _eigs(mesh: Mesh, count: int, m: int) -> EigResult:
    q = max(1, 2 * m)
    mus, vectors, residuals = _pencil_solve(mesh, count)
    return EigResult(values=mus**q, vectors=vectors, residuals=residuals, power=m)


def eig_neumann_laplacian(mesh: Mesh, count: int) -> EigResult:
    """Smallest `count` nonzero Neumann eigenvalues of the Laplacian."""
    return _eigs(mesh, count, 0)


def eig_polyharmonic_neumann(mesh: Mesh, count: int, m: int) -> EigResult:
    """Smallest `count` nonzero Neumann eigenvalues of Delta^(2m).

    The values are mu^(2m) for the pencil values mu of the Laplacian on
    the same mesh, which is exact for the mixed operator
    K = A (M^{-1} A)^(2m-1).
    """
    if not (1 <= m <= _MAX_POWER):
        raise ValueError(f"operator power m must be in 1..{_MAX_POWER}")
    return _eigs(mesh, count, m)


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceStudy:
    """Eigenvalue estimates over a mesh family with Richardson extrapolation.

    extrapolated is None when the value sequence is not monotone (the raw
    values are still reported); error_bar = |extrapolated - finest| or the
    last increment when extrapolation is withheld.
    """

    h_list: tuple
    values: tuple
    observed_order: float | None
    extrapolated: float | None
    error_bar: float
    monotone: bool
    power: int

    @property
    def best(self) -> float:
        return self.extrapolated if self.extrapolated is not None else self.values[-1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "h": list(self.h_list),
                "values": list(self.values),
                "observed_order": self.observed_order,
                "extrapolated": self.extrapolated,
                "error_bar": self.error_bar,
                "monotone": self.monotone,
                "m": self.power,
            },
            sort_keys=True,
            indent=2,
        )


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


def convergence_study(d: Domain, m: int, h_list) -> ConvergenceStudy:
    """Run the eigensolver over a descending mesh family and extrapolate.

    m = 0 studies the Laplacian; m >= 1 the operator Delta^(2m).  Each
    consecutive triple of lowest-eigenvalue estimates gives a convergence
    order for d ~ C h^p, their mean is the observed order, and one
    Richardson step gives the extrapolated limit with error bar
    |extrapolated - finest|.
    """
    h_list = tuple(float(h) for h in h_list)
    if len(h_list) < 3:
        raise ValueError("need at least 3 mesh sizes")
    if any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ValueError("mesh sizes must be strictly descending")

    def lowest(k: int) -> float:
        mesh = study_mesh(d, h_list, k)
        if m == 0:
            res = eig_neumann_laplacian(mesh, 1)
        else:
            res = eig_polyharmonic_neumann(mesh, 1, m)
        return float(res.values[0])

    values = tuple(lowest(k) for k in range(len(h_list)))

    diffs = [values[i] - values[i + 1] for i in range(len(values) - 1)]
    monotone = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
    if not monotone:
        return ConvergenceStudy(
            h_list=h_list,
            values=values,
            observed_order=None,
            extrapolated=None,
            error_bar=abs(diffs[-1]),
            monotone=False,
            power=m,
        )
    # one order per consecutive triple, from the increments alone, which
    # avoids assuming the limit
    orders = [_triple_order(h_list[i:i + 3], diffs[i] / diffs[i + 1])
              for i in range(len(values) - 2)]
    orders = [p for p in orders if p is not None]
    observed = float(np.mean(orders)) if orders else None
    p = observed if observed and observed > 0.5 else 2.0
    r = (h_list[-2] / h_list[-1]) ** p
    extrapolated = values[-1] + (values[-1] - values[-2]) / (r - 1.0)
    return ConvergenceStudy(
        h_list=h_list,
        values=values,
        observed_order=observed,
        extrapolated=extrapolated,
        error_bar=abs(extrapolated - values[-1]),
        monotone=True,
        power=m,
    )
