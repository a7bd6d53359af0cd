"""Eigenvalue detection by particular solutions on smooth planar domains.

Trial functions are linear combinations of J_j(w r) cos/sin(j theta)
about an interior expansion center; for the fourth-order problem the
factorization of (Delta^2 - w^4) into (Delta - w^2)(Delta + w^2) adds the
modified family I_j(w r) cos/sin(j theta), so both boundary conditions
can be collocated exactly.  The indicator sigma(w) is the smallest
singular value of the boundary block of an orthonormalized collocation
matrix (boundary rows plus interior normalization rows); eigenfrequencies
show up as sharp local minima.
"""

from __future__ import annotations

import functools
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import Domain, domain_metrics

__all__ = [
    "MpsBasis",
    "SigmaCurve",
    "MpsEigenvalue",
    "mps_sigma",
    "mps_scan",
    "mps_find",
]

_PROBLEMS = ("laplace_neumann", "polyharm_neumann")
_INTERIOR_SEED = 777


@dataclass(frozen=True)
class MpsBasis:
    """Trial basis description: problem kind, frequency, truncation, center."""

    problem: str
    omega: float
    N: int
    center: tuple

    def __post_init__(self):
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError("trial frequency must be positive")
        if not (1 <= self.N <= 60):
            raise ValueError("angular truncation must be in 1..60")


@dataclass(frozen=True)
class SigmaCurve:
    omegas: tuple
    sigmas: tuple

    def to_csv(self, stream=None) -> str:
        buf = stream if stream is not None else io.StringIO()
        buf.write("omega,sigma\n")
        for w, s in zip(self.omegas, self.sigmas):
            buf.write(f"{w:.17g},{s:.17g}\n")
        return buf.getvalue() if stream is None else ""


@dataclass(frozen=True)
class MpsEigenvalue:
    value: float
    omega: float
    sigma: float


def _interior_points(d: Domain, count: int) -> np.ndarray:
    """Deterministic interior normalization points (fixed-seed rejection)."""
    rng = np.random.Generator(np.random.PCG64(_INTERIOR_SEED))
    t = np.arange(256) / 256.0
    bx, by = d._param(t)
    lo = np.array([bx.min(), by.min()])
    hi = np.array([bx.max(), by.max()])
    out = []
    while len(out) < count:
        cand = lo + rng.random((4 * count, 2)) * (hi - lo)
        keep = d.contains(cand)
        for p in cand[keep]:
            out.append(p)
            if len(out) == count:
                break
    return np.asarray(out)


# one entry serves every sigma of a scan and its refinement; a few more let
# callers alternate problems or truncations on one domain
@functools.lru_cache(maxsize=4)
def _collocation_geometry(d: Domain, n: int, center: tuple):
    """The omega-independent part of the collocation blocks: boundary radii,
    n.e_r and n.e_t there, interior radii, the orders 0..n, and the cos/sin
    tables at the boundary and interior points.  Every caller shares these
    arrays, so they are read-only."""
    nb = 4 * n + 8
    t = (np.arange(nb) + 0.5) / nb
    bpts, normals = d.boundary_frame(t)
    c = np.asarray(center)[None, :]
    relb = bpts - c
    reli = _interior_points(d, 2 * n + 4) - c
    rb = np.hypot(relb[:, 0], relb[:, 1])
    ri = np.hypot(reli[:, 0], reli[:, 1])
    thb = np.arctan2(relb[:, 1], relb[:, 0])
    thi = np.arctan2(reli[:, 1], reli[:, 0])

    # unit radial/tangential directions at boundary points
    er = relb / rb[:, None]
    et = np.column_stack([-er[:, 1], er[:, 0]])
    n_dot_r = np.sum(normals * er, axis=1)
    n_dot_t = np.sum(normals * et, axis=1)

    orders = np.arange(n + 1, dtype=float)
    out = (rb, ri, n_dot_r, n_dot_t, orders,
           np.cos(orders[None, :] * thb[:, None]), np.sin(orders[None, :] * thb[:, None]),
           np.cos(orders[None, :] * thi[:, None]), np.sin(orders[None, :] * thi[:, None]))
    for arr in out:
        arr.flags.writeable = False
    return out


def _collocation_blocks(d: Domain, basis: MpsBasis):
    """Boundary-condition rows and interior rows of the trial basis."""
    from scipy.special import ive, jv

    n = basis.N
    omega = basis.omega
    rb, ri, n_dot_r, n_dot_t, orders, cosb, sinb, cosi, sini = _collocation_geometry(
        d, n, tuple(basis.center))

    def normal_rows(f, fp):
        # d/dn of f(w r) T(j theta): n_r w f' T + n_t f j T'/r
        du_r_cos = omega * fp * cosb
        du_r_sin = omega * fp * sinb
        du_t_cos = -f * orders[None, :] * sinb / rb[:, None]
        du_t_sin = f * orders[None, :] * cosb / rb[:, None]
        rows_cos = n_dot_r[:, None] * du_r_cos + n_dot_t[:, None] * du_t_cos
        rows_sin = n_dot_r[:, None] * du_r_sin + n_dot_t[:, None] * du_t_sin
        return np.concatenate([rows_cos, rows_sin[:, 1:]], axis=1)

    # One Bessel evaluation per order and point: J on orders -1..n+1 and I
    # on 0..n+1 at the boundary give the values and the derivatives
    # J_j' = (J_(j-1) - J_(j+1)) / 2 and I_j' = (I_|j-1| + I_(j+1)) / 2;
    # the interior rows need values only.
    xb = omega * rb
    xi = omega * ri
    jb = jv(np.arange(-1.0, n + 2.0)[None, :], xb[:, None])
    bnd_j = normal_rows(jb[:, 1:-1], 0.5 * (jb[:, :-2] - jb[:, 2:]))
    ji = jv(orders[None, :], xi[:, None])
    int_j = np.concatenate([ji * cosi, (ji * sini)[:, 1:]], axis=1)

    if basis.problem == "laplace_neumann":
        return bnd_j, int_j

    # I_j * exp(-x_ref): the common factor is a pure column scaling (it
    # cancels in the subspace angles) and keeps large arguments finite.
    x_ref = float(np.max(xb))
    shift = np.exp(xb[:, None] - x_ref)
    ib = ive(np.arange(n + 2.0)[None, :], xb[:, None])
    ipb = 0.5 * (ib[:, np.abs(np.arange(n + 1) - 1)] + ib[:, 1:]) * shift
    bnd_i = normal_rows(ib[:, :-1] * shift, ipb)
    ii = ive(orders[None, :], xi[:, None]) * np.exp(xi[:, None] - x_ref)
    int_i = np.concatenate([ii * cosi, (ii * sini)[:, 1:]], axis=1)
    # first condition: d/dn(u_J + u_I) = 0; second: d/dn(Delta u)/w^2 =
    # -d/dn u_J + d/dn u_I = 0 (the Laplacian acts as -w^2 and +w^2 on the
    # two families).
    top = np.concatenate([bnd_j, bnd_i], axis=1)
    bottom = np.concatenate([-bnd_j, bnd_i], axis=1)
    boundary = np.concatenate([top, bottom], axis=0)
    interior = np.concatenate([int_j, int_i], axis=1)
    return boundary, interior


def mps_sigma(d: Domain, basis: MpsBasis) -> float:
    """Smallest boundary singular value of the orthonormalized trial space.

    Values near zero certify an eigenfrequency; the indicator lies in
    [0, 1] by construction.
    """
    boundary, interior = _collocation_blocks(d, basis)
    a = np.concatenate([boundary, interior], axis=0)
    scale = np.linalg.norm(a, axis=0)
    good = scale > 1e-280
    if not np.all(good):
        a = a[:, good]
        scale = scale[good]
    a = a / scale[None, :]
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() < 1e-14 * diag.max():
        warnings.warn(
            f"collocation matrix nearly rank deficient at omega={basis.omega:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    m_b = boundary.shape[0]
    return float(scipy.linalg.svdvals(q[:m_b]).min())


def mps_scan(d: Domain, problem: str, interval, N: int, n_grid: int = 100) -> SigmaCurve:
    """Sample sigma(omega) on a uniform grid over the interval."""
    if not d.is_smooth:
        raise ValueError(f"particular solutions need a smooth domain, got a {type(d).__name__}")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0 < lo < hi):
        raise ValueError("interval must be positive and increasing")
    if n_grid < 1:
        raise ValueError(f"grid must have at least one interval, got n_grid={n_grid}")
    center = domain_metrics(d).centroid
    omegas = np.linspace(lo, hi, n_grid + 1)
    sigmas = [
        mps_sigma(d, MpsBasis(problem=problem, omega=float(w), N=N, center=center))
        for w in omegas
    ]
    return SigmaCurve(omegas=tuple(float(w) for w in omegas), sigmas=tuple(sigmas))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(f, lo, hi, tol):
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def mps_find(d: Domain, problem: str, interval, N: int) -> list[MpsEigenvalue]:
    """Locate eigenvalues as refined local minima of sigma(omega).

    Returns one entry per minimum (possibly none), converting the
    frequency by value = omega^2 for the Laplacian and omega^4 for the
    fourth-order problem; sigma at the minimum is the quality score.
    """
    curve = mps_scan(d, problem, interval, N)
    center = domain_metrics(d).centroid
    omegas = np.asarray(curve.omegas)
    sigmas = np.asarray(curve.sigmas)

    def f(w):
        return mps_sigma(d, MpsBasis(problem=problem, omega=float(w), N=N, center=center))

    out = []
    tol = 1e-9 * (omegas[-1] - omegas[0])
    for i in range(1, len(omegas) - 1):
        if sigmas[i] < sigmas[i - 1] and sigmas[i] < sigmas[i + 1]:
            w_star, s_star = _golden_refine(f, omegas[i - 1], omegas[i + 1], tol)
            power = 2 if problem == "laplace_neumann" else 4
            out.append(
                MpsEigenvalue(value=w_star**power, omega=w_star, sigma=s_star)
            )
    return out
