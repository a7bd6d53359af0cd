"""Eigenvalue detection by particular solutions on smooth planar domains.

Trial functions are linear combinations of J_j(w r) cos/sin(j theta)
about the domain's centroid, and the one boundary condition collocated is
du/dn = 0: the Neumann Laplacian's.  The indicator sigma(w) is the
smallest singular value of the boundary block of an orthonormalized
collocation matrix (boundary rows, divided by w so that sigma has no
units, plus interior normalization rows); eigenfrequencies show up as
sharp local minima.

`mps_sigma` takes a batch of frequencies and returns one sigma per
frequency.  The scans send each pass's new grid points as one batch and
a refinement step is a batch of one; sigma at w is bit for bit the same
in any batch, so the batching changes the cost of a scan and nothing it
finds.

Every smooth shape neuspec parses (disk, ellipse, stadium, superellipse)
is symmetric in both axes through its centroid, and its boundary rule
maps to itself under both mirrors; `mps_sigma` rests on that assumption
and does not check it (tests/test_mps.py does, on every smooth shape).
The trial functions then split into four parity classes, the
eigenfunctions too, and sigma is the least of four class sigmas, each
from the points in the open first quadrant about the centroid.

The fourth-order problem Delta^2 u = w^4 u with du/dn = d(Delta u)/dn = 0
needs nothing more.  Its solutions split as u = v + z with Delta v = -w^2 v
and Delta z = w^2 z, and the two conditions, du/dn = 0 and
d(Delta u)/dn / w^2 = -dv/dn + dz/dn = 0, decouple into dv/dn = 0 and
dz/dn = 0.  The second has no solution but z = 0: Green's formula gives
int |grad z|^2 + w^2 int z^2 = int z dz/dn = 0.  So the eigenfrequencies
of Delta^2 are those of the Neumann Laplacian, and an eigenvalue is
reported as w^2 or w^4 from the same minimum of sigma (`mps_find`).
"""

from __future__ import annotations

import functools
import math
import warnings
from operator import itemgetter
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .geometry import Domain
from .special import bessel_orders

__all__ = [
    "SigmaCurve",
    "MpsEigenvalue",
    "mps_sigma",
    "mps_scan",
    "mps_find",
]

# the power of omega that mps_find reports as each problem's eigenvalue
_PROBLEMS = {"laplace_neumann": 2, "polyharm_neumann": 4}
# intervals of the default scan grid, the one mps_find brackets minima on
_SCAN_INTERVALS = 100
_INTERIOR_SEED = 777
# the most frequencies mps_sigma builds one Bessel table and one set of
# collocation blocks for.  The table's backward recurrence takes as many
# Python steps for one frequency as for many, so bigger batches cost less
# per frequency; but a batch's tables are alive at once.  On the
# mps-sweep benchmark, whose coarse passes have 26 frequencies, batches of
# 7 raised the median peak RSS by about 0.1 MB and batches of 13 by 0.65 MB.
_BATCH = 7


@dataclass(frozen=True)
class SigmaCurve:
    omegas: tuple
    sigmas: tuple

    def to_csv(self, stream) -> None:
        stream.write("omega,sigma\n")
        for w, s in zip(self.omegas, self.sigmas):
            stream.write(f"{w:.17g},{s:.17g}\n")


@dataclass(frozen=True)
class MpsEigenvalue:
    value: float
    omega: float
    sigma: float


def _interior_points(d: Domain, count: int) -> np.ndarray:
    """Deterministic interior normalization points in the open first
    quadrant about the centroid (fixed-seed rejection)."""
    rng = np.random.Generator(np.random.PCG64(_INTERIOR_SEED))
    t = np.arange(256) / 256.0
    lo = d.centroid()
    hi = d.boundary_at(t)[0].max(axis=0)
    out = []
    while len(out) < count:
        cand = lo + rng.random((4 * count, 2)) * (hi - lo)
        keep = d.contains(cand) & np.all(cand > lo, axis=1)
        for p in cand[keep]:
            out.append(p)
            if len(out) == count:
                break
    return np.asarray(out)


# one entry serves every sigma of a scan and its refinement; a few more let
# callers alternate truncations or domains
@functools.lru_cache(maxsize=4)
def _collocation_geometry(d: Domain, n: int):
    """The omega-independent part of the collocation blocks, at the points
    in the open first quadrant about the centroid: those of the boundary
    rule t = (i + 1/2) / (4N + 8) (N + 2 of them on the corpus shapes,
    fewer where the rule puts points on the axes, which are dropped) and
    N // 2 + 1 interior points.

    Returns the distinct boundary radii and the index from them back to
    the points, the interior radii, the unitless factors n.e_r cos(j
    theta), n.e_r sin(j theta), n.e_t j sin(j theta) and n.e_t j cos(j
    theta) of the normal derivative at the boundary points (those of the
    sines for j >= 1), and the cos/sin tables at the interior points.
    Every caller shares these arrays, so they are read-only."""
    nb = 4 * n + 8
    t = (np.arange(nb) + 0.5) / nb
    bpts, normals = d.boundary_frame(t)
    c = d.centroid()[None, :]
    relb = bpts - c
    quadrant = np.all(relb > 0.0, axis=1)
    relb, normals = relb[quadrant], normals[quadrant]
    reli = _interior_points(d, n // 2 + 1) - c
    rb = np.hypot(relb[:, 0], relb[:, 1])
    ri = np.hypot(reli[:, 0], reli[:, 1])
    thb = np.arctan2(relb[:, 1], relb[:, 0])
    thi = np.arctan2(reli[:, 1], reli[:, 0])

    # unit radial/tangential directions at boundary points
    er = relb / rb[:, None]
    et = np.column_stack([-er[:, 1], er[:, 0]])
    n_dot_r = np.sum(normals * er, axis=1)[:, None]
    n_dot_t = np.sum(normals * et, axis=1)[:, None]

    # the disk repeats boundary radii exactly, so the Bessel values are
    # taken once per distinct radius
    rb_distinct, rb_index = np.unique(rb, return_inverse=True)

    orders = np.arange(n + 1, dtype=float)
    cosb = np.cos(orders[None, :] * thb[:, None])
    sinb = np.sin(orders[None, :] * thb[:, None])
    jt = n_dot_t * orders[None, :]
    out = (rb_distinct, rb_index, ri,
           n_dot_r * cosb, n_dot_r * sinb[:, 1:], jt * sinb, (jt * cosb)[:, 1:],
           np.cos(orders[None, :] * thi[:, None]), np.sin(orders[None, :] * thi[:, None]))
    for arr in out:
        arr.flags.writeable = False
    return out


def _collocation_blocks(d: Domain, n: int, omegas: np.ndarray):
    """The boundary-condition rows, divided by omega, and the interior
    rows of the trial family, at the first-quadrant points: one block of
    each per omega, stacked on the first axis."""
    rb_distinct, rb_index, ri, nr_cos, nr_sin, nt_jsin, nt_jcos, cosi, sini = (
        _collocation_geometry(d, n))

    # One Bessel table, on orders 0..n+1 at the distinct boundary radii
    # and the interior points together, one row per omega.  The boundary
    # rows take the derivatives J_j' = (J_(j-1) - J_(j+1)) / 2, with
    # J_(-1) = -J_1; the interior rows take values only.  The blocks are
    # built in place, so that few tables of the batch's size are alive at
    # once.
    nd = rb_distinct.size
    w = omegas[:, None]
    xb = w * rb_distinct
    jall = bessel_orders(np.concatenate([xb, w * ri], axis=1), n + 1)
    ji = jall[:, nd:, :-1]
    interior = np.empty((omegas.size, ri.size, 2 * n + 1))
    np.multiply(ji, cosi, out=interior[..., :n + 1])
    np.multiply(ji[..., 1:], sini[:, 1:], out=interior[..., n + 1:])
    jb = jall[:, rb_index]
    del jall, ji
    fp = np.empty((omegas.size, rb_index.size, n + 1))
    np.negative(jb[..., 1], out=fp[..., 0])
    np.subtract(jb[..., :-2], jb[..., 2:], out=fp[..., 1:])
    fp[..., 1:] *= 0.5
    # d/dn of J_j(w r) T(j theta), over w: n_r J_j' T + n_t J_j j T' / (w r)
    f = jb[..., :-1]
    f /= xb[:, rb_index, None]
    boundary = np.empty((omegas.size, rb_index.size, 2 * n + 1))
    cos_rows, sin_rows = boundary[..., :n + 1], boundary[..., n + 1:]
    np.multiply(fp, nr_cos, out=cos_rows)
    np.multiply(fp[..., 1:], nr_sin, out=sin_rows)
    # fp and f are spent once read, so their storage takes the products
    sin_rows += np.multiply(f[..., 1:], nt_jcos, out=fp[..., 1:])
    cos_rows -= np.multiply(f, nt_jsin, out=f)
    return boundary, interior


# one entry per truncation, 1..60
@functools.lru_cache(maxsize=60)
def _parity_classes(n: int):
    """The columns of the four D2 parity classes, in the layout of
    _collocation_blocks (column j holds cos j theta, column n + j sin j
    theta): cos with j even, cos with j odd, sin with j odd, sin with j
    even (j >= 2).  The mirrors (x, y) -> (x, -y) and (x, y) -> (-x, y)
    about the centroid multiply each class by its own pair of signs.

    Returns every column class by class, and the place in that order of
    each class's last column; mps_sigma asks for them at each call, and
    the arrays are shared, so read-only."""
    j = np.arange(n + 1)
    classes = (j[0::2], j[1::2], n + j[1::2], n + j[2::2])
    order, last = np.concatenate(classes), np.cumsum([cols.size for cols in classes]) - 1
    order.flags.writeable = last.flags.writeable = False
    return order, last


def mps_sigma(d: Domain, N: int, omegas) -> np.ndarray:
    """Smallest boundary singular value of the orthonormalized trial space
    at each frequency of omegas, the least of the four parity classes'
    values.

    The frequencies are evaluated in batches of at most _BATCH: the Bessel
    table and the collocation blocks of a batch are built at once, and
    each frequency then gets its own column scaling, its own dropped
    columns and its own LAPACK stage.  Every step is taken per frequency,
    so sigma at omega does not depend on the batch it comes in: a batch of
    one is bit for bit an entry of any batch.

    Values near zero certify an eigenfrequency; the indicator lies in
    [0, 1] by construction and has no units.  It is the indicator of the
    whole mirror orbit of the first-quadrant points (on every smooth
    shape, the boundary rule's points less any on the axes).  A row at a
    mirror image g p is chi_c(g) = +-1 times the row at p on the columns
    of class c (`_parity_classes`), so the collocation matrix on the
    orbit is orthogonally equivalent to block-diag(2 A_c), with A_c class
    c's columns at the first-quadrant points.  Its Q factor is then block
    diagonal, and sigma is the least of the class sigmas; each class runs
    on at most N/2 + 1 columns.  No eigenvalue is lost, since every
    eigenfunction is a sum of class eigenfunctions of the same
    eigenvalue, and the kink where two class sigmas cross is never a
    local minimum.

    With A = [A_B; A_I] a class's column-scaled boundary and interior
    rows, its sigma is the smallest singular value of the boundary rows of
    A's Q factor.  Two Householder QRs give it: the R factor T of A_B has
    ||T x|| = ||A_B x||, so the top rows of the Q factor of [T; A_I] have
    the same singular values.  LAPACK's triangular-pentagonal QR (dtpqrt)
    factors [T; A_I] with reflectors [e_i; v_i], so with one block its Q
    is I - W T_f W^T for W = [I; V] and its top k-by-k block is exactly
    I - T_f: Q itself is never formed.  (Q_B = A_B R^-1 would skip a Q
    factor too, but its error grows with the condition number of A.)
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ValueError("trial frequencies must be a 1-D array")
    if not np.all((omegas > 0) & np.isfinite(omegas)):
        raise ValueError("trial frequency must be positive and finite")
    _check_truncation(N)
    order, last = _parity_classes(N)
    out = np.empty(omegas.size)
    for first in range(0, omegas.size, _BATCH):
        batch = omegas[first:first + _BATCH]
        boundary, interior = _collocation_blocks(d, N, batch)
        scales = np.sqrt(np.sum(boundary * boundary, axis=1) + np.sum(interior * interior, axis=1))
        scales = scales[:, order]
        # one scaled copy of each block with the columns class by class;
        # an omega's kept columns, transposed, are the column-major matrix
        # LAPACK takes, with each class a contiguous column slice
        a_b = _scaled_columns(boundary, order, scales)
        del boundary
        a_i = _scaled_columns(interior, order, scales)
        del interior
        kept = scales > 1e-280
        stops = np.cumsum(kept, axis=1)[:, last].tolist()
        for i, omega in enumerate(batch.tolist()):
            b_i, i_i = a_b[i, kept[i]].T, a_i[i, kept[i]].T
            sigma = math.inf
            for start, stop in zip([0, *stops[i]], stops[i]):
                k = stop - start
                if k == 0:
                    continue
                # dtpqrt reads only the upper triangle of T, so the reflectors
                # that dgeqrf leaves below the diagonal may stay there; A_B has
                # more rows (N + 1 or N + 2) than a class has columns (at most
                # N/2 + 1), so T is its top k rows
                tri = lapack.dgeqrf(b_i[:, start:stop], overwrite_a=1)[0][:k]
                # one block (nb = k), so that T_f is k-by-k and I - T_f is Q's
                # top block
                r, _, t, _ = lapack.dtpqrt(0, k, tri, i_i[:, start:stop], overwrite_a=1, overwrite_b=1)
                # [T; A_I] has the R factor of A
                diag = np.abs(r.diagonal()).tolist()
                if min(diag) < 1e-14 * max(diag):
                    warnings.warn(
                        f"collocation matrix nearly rank deficient at omega={omega:g}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                t *= -1.0
                t.flat[::k + 1] += 1.0
                _, sv, _, info = lapack.dgesdd(t, compute_uv=0, overwrite_a=1)
                if info != 0:
                    raise np.linalg.LinAlgError(f"dgesdd failed with info={info} at omega={omega:g}")
                sigma = min(sigma, float(sv[-1]))
            out[first + i] = sigma
    return out


def _scaled_columns(a: np.ndarray, cols: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """a[w][:, cols] / scales[w] for each omega w, with the columns on the
    middle axis.  A column of zero scale comes out NaN or infinite; mps_sigma
    drops it unread."""
    out = a.transpose(0, 2, 1)[:, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= scales[:, :, None]
    return out


def _check_truncation(N: int) -> None:
    if not 1 <= N <= 60:
        raise ValueError("angular truncation must be in 1..60")


def _check_scan(d: Domain, interval, N: int, n_grid: int) -> np.ndarray:
    """The scan grid over the interval, after the checks on its input."""
    if not d.is_smooth:
        raise ValueError(f"particular solutions need a smooth domain, got a {type(d).__name__}")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0 < lo < hi < math.inf):
        raise ValueError("interval must be positive, finite and increasing")
    if n_grid < 1:
        raise ValueError(f"grid must have at least one interval, got n_grid={n_grid}")
    _check_truncation(N)
    return np.linspace(lo, hi, n_grid + 1)


def mps_scan(d: Domain, interval, N: int, n_grid: int = _SCAN_INTERVALS) -> SigmaCurve:
    """Sample sigma(omega) on a uniform grid over the interval, in one
    call of mps_sigma."""
    omegas = _check_scan(d, interval, N, n_grid)
    return SigmaCurve(omegas=tuple(omegas.tolist()), sigmas=tuple(mps_sigma(d, N, omegas).tolist()))


# the refinement below needs about 7 steps at a sharp minimum and at most
# 46 on synthetic cusps |d|^p, p >= 0.1; bisection alone, when every
# parabola fails, narrowed such scan brackets to 1e-13 of the window in 63
# to 76 steps
_REFINE_STEPS = 80
# mps_find refines each minimum to this fraction of the window width
_REFINE_TOL = 1e-13


def _parabolic_vertex(pts):
    """Vertex of the parabola through three (x, y) points, or None if the
    parabola is not convex or the points do not determine one."""
    (b, fb), (a, fa), (c, fc) = pts
    p = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
    q = (b - a) * (fb - fc) - (b - c) * (fb - fa)
    # q is the leading coefficient times (b - a)(b - c)(c - a)
    if not q * (b - a) * (b - c) * (c - a) > 0:
        return None
    v = b - 0.5 * p / q
    return v if math.isfinite(v) else None


def _parabolic_refine(f, xs, sigmas, tol):
    """Lowest (x, sigma) found from a scan bracket x0 < x1 < x2 with sigma
    at x1 below both ends.

    Near an eigenfrequency sigma is close to sqrt(s0^2 + c^2 (x - x*)^2)
    (Betcke & Trefethen, SIAM Review 47 (2005) 469-491), so sigma^2 is
    close to a parabola.  Each step evaluates sigma at the vertex of the
    parabola through the three lowest points seen and shrinks the bracket
    [lo, hi] around the best point.  A vertex that is not finite, not a
    minimum or not inside (lo, hi) is replaced by the midpoint of the
    larger side; one within tol/2 of the best point by a step of tol/2
    toward the larger side.  Stops once the bracket is at most tol, up to
    the rounding of its ends: two failed steps of tol/2 leave it exactly
    that wide, and one ulp wider in floating point.  The given sigmas are
    not evaluated again.
    """
    # (x, sigma) from lowest sigma up; the sort is stable, so on a tie the
    # point seen first stays ahead, the scan's middle point first of all
    seen = [(float(xs[i]), float(sigmas[i])) for i in (1, 0, 2)]
    seen.sort(key=itemgetter(1))
    lo, hi = float(xs[0]), float(xs[2])
    for _ in range(_REFINE_STEPS):
        if hi - lo <= tol + math.ulp(hi):
            break
        x_best, s_best = seen[0]
        v = _parabolic_vertex([(x, s * s) for x, s in seen[:3]])
        left = x_best - lo >= hi - x_best
        if v is None or not lo < v < hi:
            v = 0.5 * (lo + x_best) if left else 0.5 * (x_best + hi)
        elif abs(v - x_best) < 0.5 * tol:
            v = x_best - 0.5 * tol if left else x_best + 0.5 * tol
        s = f(v)
        if s < s_best:
            lo, hi = (lo, x_best) if v < x_best else (x_best, hi)
        else:
            lo, hi = (v, hi) if v < x_best else (lo, v)
        seen.append((v, s))
        seen.sort(key=itemgetter(1))
    return seen[0]


# The coarse pass of mps_find takes every 4th point of the 101-point grid
# (4 divides _SCAN_INTERVALS, so both ends are coarse points).  On the
# windows (0.5, 1.05) j'_11 / R of the mps-sweep benchmark each sigma
# minimum has monotone sides of 9 to 60 grid cells, but neighbouring
# eigenfrequencies can sit closer than 4 cells: on the unit disk at
# N = 10 the window (1, 10) loses the minimum near 8.0152.  So a
# window where Weyl's law, |Omega| (hi^2 - lo^2) / (4 pi), expects more
# than 2 eigenfrequencies is scanned in full.  verify's window (0.75,
# 1.25) omega_FEM always qualifies: its count is |Omega| omega_FEM^2 /
# (4 pi), and Szego-Weinberger, mu_1 |Omega| <= pi j'_11^2, puts it at
# most j'_11^2 / 4 = 0.85.
_COARSE_STRIDE = 4
_COARSE_MAX_COUNT = 2.0


def _coarse_to_fine_scan(f, omegas, stride):
    """sigma at the grid points the coarse-to-fine scan evaluates, None at
    the others; f maps an array of omegas to their sigmas.

    sigma is taken at every stride-th point, then at every point within
    one stride of a coarse minimum (the ends count, against their one
    coarse neighbour), then, until nothing changes, at the other
    neighbour of any point lower than one evaluated neighbour, so a
    descent leaving a filled stretch is followed to its bottom.  Each of
    these passes is one call of f, on the points it has not yet seen.
    """
    sigmas = [None] * len(omegas)

    def fill(indices):
        todo = [i for i in indices if sigmas[i] is None]
        if todo:
            for i, s in zip(todo, f(omegas[todo]).tolist()):
                sigmas[i] = s

    last = len(omegas) - 1
    coarse = range(0, last + 1, stride)
    fill(coarse)
    near = set()
    for c in coarse:
        if all(sigmas[c] <= sigmas[j] for j in (c - stride, c + stride) if 0 <= j <= last):
            near.update(range(max(c - stride + 1, 0), min(c + stride, last + 1)))
    fill(sorted(near))
    while True:
        todo = set()
        for i in range(1, last):
            for a, b in ((i - 1, i + 1), (i + 1, i - 1)):
                if None not in (sigmas[i], sigmas[a]) and sigmas[b] is None and sigmas[i] < sigmas[a]:
                    todo.add(b)
        if not todo:
            return sigmas
        fill(sorted(todo))


def mps_find(d: Domain, problem: str, interval, N: int) -> list[MpsEigenvalue]:
    """Locate eigenvalues as refined local minima of sigma(omega).

    The minima are those of sigma on a 101-point grid over the interval,
    found without evaluating all of it (`_coarse_to_fine_scan`): a
    coarse pass at every 4th point, a fill-in within one coarse cell of
    each coarse minimum, and a walk down from there to the bottom of any
    descent.  A window where Weyl's law expects more than 2
    eigenfrequencies is scanned in full.  Each evaluated grid point lower
    than both grid neighbours is a minimum; parabolic steps on sigma^2
    then refine it to _REFINE_TOL of the interval width.  A minimum at the
    first or last grid point is not reported.  Returns one entry per minimum
    (possibly none); sigma at the minimum is the quality score.  Both
    problems have the same minima (see the module docstring); the
    problem only sets the reported value, omega^2 for the Laplacian and
    omega^4 for the fourth-order problem.
    """
    if problem not in _PROBLEMS:
        raise ValueError(f"problem must be one of {tuple(_PROBLEMS)}")
    power = _PROBLEMS[problem]
    omegas = _check_scan(d, interval, N, _SCAN_INTERVALS)
    count = d.area() * (omegas[-1] ** 2 - omegas[0] ** 2) / (4.0 * math.pi)
    stride = _COARSE_STRIDE if count <= _COARSE_MAX_COUNT else 1
    sigmas = _coarse_to_fine_scan(lambda ws: mps_sigma(d, N, ws), omegas, stride)

    out = []
    tol = _REFINE_TOL * (omegas[-1] - omegas[0])
    for i in range(1, len(omegas) - 1):
        bracket = sigmas[i - 1:i + 2]
        if None not in bracket and bracket[1] < bracket[0] and bracket[1] < bracket[2]:
            w_star, s_star = _parabolic_refine(lambda w: float(mps_sigma(d, N, [w])[0]),
                                               omegas[i - 1:i + 2], bracket, tol)
            out.append(MpsEigenvalue(value=w_star**power, omega=w_star, sigma=s_star))
    return out
