"""Finite-element Neumann eigenvalues of Delta and Delta^(2m) on planar domains.

Continuous Lagrange elements (order 1 or 2) give a mass/stiffness pair
(M, A); both Neumann-type boundary conditions of the even-order problems
are natural, so no constraints are imposed.  The order-2m operator is
realized mixed as K_q = A (M^{-1} A)^(q-1) with q = 2m, so its discrete
eigenpairs are exactly the q-th powers of the (A, M) pencil's with the
same vectors, and the reported value is mu^q; the independent particular-
solutions module is what probes whether that squaring survives at the
continuous level.

One eigensolve per mesh serves every q: shift-invert Lanczos (ARPACK
mode 3, through scipy's eigsh) at sigma = -1 on a sparse LU factor of
A + M.  A sparse LU factor of M gives each pair's residual in the M^{-1}
norm and the symmetric splitting quotient ||(M^{-1}A)^(q/2) v||_M^2 of
K_q, kept as a diagnostic of the mixed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Domain
from .meshing import Mesh, triangle_jacobians
from .quadrature import cached_mesh, triangle_rule

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
    """Assembled mass and stiffness operators of one mesh/order combination."""

    M: sp.csr_matrix
    A: sp.csr_matrix
    dimension: int
    order: int


@dataclass(frozen=True)
class EigResult:
    """Eigenvalue estimates with vectors and operator residual norms.

    values are ascending; vectors are M-orthonormal and M-orthogonal to
    the constant mode; residuals are ||A v - mu M v|| in the M^{-1} norm
    at the pencil value mu, where value = mu^q with q = 2m (q = 1 for the
    Laplacian).  splitting_quotients are v^T K_q v evaluated through the
    symmetric splitting of the mixed operator, an independent check of
    value = mu^q.  power records m (0 for the plain Laplacian); mesh_h the
    target edge length.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    splitting_quotients: np.ndarray
    power: int
    mesh_h: float

    def to_json(self, order: int | None = None) -> str:
        payload = {
            "values": [float(v) for v in self.values],
            "residuals": [float(r) for r in self.residuals],
            "h": self.mesh_h,
            "m": self.power,
        }
        if order is not None:
            payload["order"] = order
        return json.dumps(payload, sort_keys=True, indent=2)


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


def _p1_matrices(mesh: Mesh):
    grads, jac = _barycentric_gradients(mesh)
    area = 0.5 * jac
    ke = np.einsum("tik,tjk,t->tij", grads, grads, area)
    ref_mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = ref_mass[None, :, :] * area[:, None, None]
    return me, ke, mesh.triangles


def _p2_reference():
    pts, w = triangle_rule(4)
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


def _edge_numbering(mesh: Mesh):
    """Indices of each triangle's edges 01, 12, 20, numbered by first appearance."""
    pairs = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)].reshape(-1, 3), len(first)


def _p2_matrices(mesh: Mesh):
    n_vals, dndl, w = _p2_reference()
    gradl, jac = _barycentric_gradients(mesh)

    ref_mass = np.einsum("q,qi,qj->ij", w, n_vals, n_vals)  # reference mass / |J|
    me = ref_mass[None, :, :] * jac[:, None, None]
    gradn = np.einsum("qij,tjk->qtik", dndl, gradl)  # (nq, nt, 6, 2)
    ke = np.einsum("q,qtik,qtjk,t->tij", w, gradn, gradn, jac)

    conn_e, n_edges = _edge_numbering(mesh)
    nv = len(mesh.vertices)
    dofs = np.concatenate([mesh.triangles, nv + conn_e], axis=1)  # (nt, 6)
    return me, ke, dofs, nv + n_edges


def assemble(mesh: Mesh, order: int = 2) -> OperatorPair:
    """Mass and stiffness operators for continuous Lagrange elements."""
    if np.any(triangle_jacobians(mesh.vertices, mesh.triangles) <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    if order == 1:
        me, ke, dofs = _p1_matrices(mesh)
        ndof = len(mesh.vertices)
    elif order == 2:
        me, ke, dofs, ndof = _p2_matrices(mesh)
    else:
        raise ValueError("element order must be 1 or 2")
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    m_mat = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    a_mat = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    # exact symmetrization removes assembly-order roundoff
    m_mat = 0.5 * (m_mat + m_mat.T)
    a_mat = 0.5 * (a_mat + a_mat.T)
    return OperatorPair(M=m_mat.tocsr(), A=a_mat.tocsr(), dimension=ndof, order=order)


# ---------------------------------------------------------------------------
# The pencil eigensolver
# ---------------------------------------------------------------------------

def _factor(mat):
    """Sparse LU of a symmetric positive definite matrix.

    Minimum-degree ordering on the symmetric pattern with diagonal pivots
    keeps the factor symmetric in structure: on a 40k-dof P2 mesh it has
    half COLAMD's fill and factors in half the time.
    """
    from scipy.sparse.linalg import splu

    return splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _column_dots(u, w):
    return np.einsum("ij,ij->j", u, w)


def _lowest_pencil_eigs(op: OperatorPair, count: int, q: int, h: float):
    """Smallest `count` nonzero pencil values A v = mu M v, with vectors.

    One shift-invert Lanczos run at sigma = -1 on an LU factor of
    A - sigma M = A + M, which is positive definite although A is
    singular, returns the constant mode and the `count` modes above it.
    The constant mode is dropped and the vectors are M-normalized.  An LU
    factor of M then serves the residual gate
    ||A v - mu M v||_{M^-1} <= RESIDUAL_TOL * max(1, mu) and the K_q
    splitting quotients.  Returns (mu, vectors, residuals, quotients).
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    if count < 1:
        raise ValueError("count must be >= 1")
    n = op.dimension
    if count + 2 >= n:
        raise ValueError("mesh too small for requested eigenvalue count")
    where = f"h={h:g}, ndof={n}"
    shifted = _factor(op.A - _SHIFT * op.M)
    # a fixed start vector: ARPACK's default one is drawn from internal state
    v0 = np.random.Generator(np.random.PCG64(_SEED)).standard_normal(n)
    try:
        mus, vecs = eigsh(
            op.A, k=count + 1, M=op.M, sigma=_SHIFT, v0=v0,
            OPinv=LinearOperator((n, n), matvec=shifted.solve, dtype=float),
        )
    except ArpackNoConvergence as exc:
        raise SolverError(f"shift-invert Lanczos did not converge ({where})") from exc
    del shifted  # so that peak memory holds one factor, not two

    vecs = vecs[:, np.argsort(mus)[1:]]  # the constant mode leads
    m_ones = op.M @ np.ones(n)
    vecs -= np.outer(np.ones(n), (m_ones @ vecs) / m_ones.sum())
    vecs /= np.sqrt(_column_dots(vecs, op.M @ vecs))
    mus = _column_dots(vecs, op.A @ vecs)
    rank = np.argsort(mus)
    mus, vecs = mus[rank], vecs[:, rank]

    mass = _factor(op.M)
    r = op.A @ vecs - (op.M @ vecs) * mus
    resid = np.sqrt(np.maximum(_column_dots(r, mass.solve(r)), 0.0))
    if np.any(resid > RESIDUAL_TOL * np.maximum(1.0, mus)):
        raise SolverError(
            f"eigensolver residuals {resid} above tolerance ({where}; pencil values {mus})"
        )
    # v^T K_q v through the symmetric splitting of K_q = A (M^-1 A)^(q-1):
    # ||(M^-1 A)^(q/2) v||_M^2 for even q, w^T A w with w = (M^-1 A)^((q-1)/2) v
    w = vecs
    for _ in range(q // 2):
        w = mass.solve(op.A @ w)
    quotients = _column_dots(w, (op.M if q % 2 == 0 else op.A) @ w)
    return mus, vecs, resid, quotients


def _eigs(mesh: Mesh, count: int, order: int, m: int) -> EigResult:
    q = max(1, 2 * m)
    mus, vectors, residuals, quotients = _lowest_pencil_eigs(
        assemble(mesh, order), count, q, mesh.h
    )
    return EigResult(values=mus**q, vectors=vectors, residuals=residuals,
                     splitting_quotients=quotients, power=m, mesh_h=mesh.h)


def eig_neumann_laplacian(mesh: Mesh, count: int, order: int = 2) -> EigResult:
    """Smallest `count` nonzero Neumann eigenvalues of the Laplacian."""
    return _eigs(mesh, count, order, 0)


def eig_polyharmonic_neumann(mesh: Mesh, count: int, m: int, order: int = 2) -> EigResult:
    """Smallest `count` nonzero Neumann eigenvalues of Delta^(2m).

    The values are mu^(2m) for the pencil values mu of the Laplacian on
    the same mesh, which is exact for the mixed operator
    K = A (M^{-1} A)^(2m-1).
    """
    if not (1 <= m <= 4):
        raise ValueError("operator power m must be in 1..4")
    return _eigs(mesh, count, order, m)


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


def convergence_study(d: Domain, m: int, h_list, count: int = 1, order: int = 2,
                      workers: int = 1) -> ConvergenceStudy:
    """Run the eigensolver over a descending mesh family and extrapolate.

    m = 0 studies the Laplacian; m >= 1 the operator Delta^(2m).  Each
    consecutive triple of lowest-eigenvalue estimates gives a convergence
    order for d ~ C h^p, their mean is the observed order, and one
    Richardson step gives the extrapolated limit with error bar
    |extrapolated - finest|.  workers > 1 solves the mesh family
    concurrently; per-mesh results are identical to serial.
    """
    h_list = tuple(float(h) for h in h_list)
    if len(h_list) < 3:
        raise ValueError("need at least 3 mesh sizes")
    if any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ValueError("mesh sizes must be strictly descending")

    def run_one(h: float) -> float:
        mesh = cached_mesh(d, h)
        if m == 0:
            res = eig_neumann_laplacian(mesh, count, order)
        else:
            res = eig_polyharmonic_neumann(mesh, count, m, order)
        return float(res.values[0])

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        # meshes are built serially first: the cache is not locked
        for h in h_list:
            cached_mesh(d, h)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = tuple(pool.map(run_one, h_list))
    else:
        values = tuple(run_one(h) for h in h_list)

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
