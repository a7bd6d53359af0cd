"""Bessel evaluation, radial eigenprofiles, and radial derivative zeros.

The radial building block used throughout the package is

    g(r) = 2^((n-2)/2) * Gamma(n/2) * (s*r)^(-(n-2)/2) * J_{n/2}(s*r),

the regular radial factor of the lowest nonconstant Neumann modes on a
ball in R^n.  The normalization makes g(r) = J_1(s*r) for n = 2 and the
spherical profile sin(sr)/(sr)^2 - cos(sr)/(sr) for n = 3, with
g'(0) = s/n in every dimension.  Eigenvalues come from zeros of the
radial derivative: mu = (nu/R)^2 with nu a zero of d/dr[r^(-(n-2)/2)
J_{j+(n-2)/2}(r)] for harmonic degree j.

Single Bessel values are delegated to scipy.special.  Tables of J_k over
consecutive orders k = 0..top, which the particular solutions need at
every collocation point, come from Miller's backward recurrence
normalized by scipy's order-0 or order-1 value (`bessel_orders`); J is
the only family they need, since they solve the Laplacian alone (see
`neuspec.mps`).  Zero isolation and the profile algebra are implemented
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt
from scipy.special import gamma as _gamma
from scipy.special import j0 as _j0
from scipy.special import j1 as _j1
from scipy.special import jv as _jv

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "bessel_orders",
    "RadialProfile",
    "radial_profile_eval",
    "radial_profile_second",
    "first_radial_deriv_zero",
    "radial_deriv_zeros",
    "BracketError",
]

# Arguments s*r below this are evaluated by power series to avoid the
# 0/0 form in the derivative of the profile.
_SERIES_SWITCH = 0.5


class BracketError(RuntimeError):
    """A zero scan failed to isolate the requested root."""


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"Bessel order must be finite and >= 0, got {nu}")
    return nu


def _check_argument(x) -> npt.NDArray[np.float64]:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("Bessel argument must be finite")
    if np.any(x < 0.0):
        raise ValueError("Bessel argument must be >= 0")
    return x


def _scalar_or_array(x, values):
    return float(values) if np.isscalar(x) or np.ndim(x) == 0 else values


def bessel_j(nu: float, x) -> float | npt.NDArray:
    """Bessel function of the first kind J_nu(x) for real order nu >= 0."""
    nu = _check_order(nu)
    xa = _check_argument(x)
    return _scalar_or_array(x, _jv(nu, xa))


def _jv_derivatives(nu: float, x, second: bool = False):
    """(J_nu, J_nu') at x, and J_nu'' with `second`, by the recurrences
    J_nu' = (J_{nu-1} - J_{nu+1})/2, which reduces to J_0' = -J_1, and
    J_nu'' = (J_{nu-2} - 2 J_nu + J_{nu+2})/4."""
    j = _jv(nu, x)
    jp = -_jv(1.0, x) if nu == 0.0 else 0.5 * (_jv(nu - 1.0, x) - _jv(nu + 1.0, x))
    if not second:
        return j, jp
    return j, jp, 0.25 * (_jv(nu - 2.0, x) - 2.0 * j + _jv(nu + 2.0, x))


def bessel_j_prime(nu: float, x) -> float | npt.NDArray:
    """First derivative dJ_nu/dx (_jv_derivatives)."""
    nu = _check_order(nu)
    xa = _check_argument(x)
    return _scalar_or_array(x, _jv_derivatives(nu, xa)[1])


# Miller's recurrence starts where the solution it suppresses has shrunk,
# relative to the wanted one at the top order, by exp(-40) = 4e-18
_MILLER_LOG_TOL = -40.0


def _miller_start(top: int, x: float) -> int:
    """Order to start the backward recurrence from for orders 0..top at
    arguments up to x.

    Each step down from order k shrinks the unwanted solution Y_k
    relative to J_k by rho_k^2, where rho_k = x / (k + sqrt(k^2 - x^2))
    is the Debye estimate of J_k / J_(k-1), and rho_k = 1 below the
    turning point k = x.  The start is the first order past top at which
    the product of those factors is below exp(_MILLER_LOG_TOL): about
    max(top, x) plus a few x^(1/3) steps.
    """
    k, log_c = top, 0.0
    while log_c > _MILLER_LOG_TOL:
        k += 1
        rho = min(x / (k + math.sqrt(max(k * k - x * x, 0.0))), 1.0)
        if rho == 0.0:
            break
        log_c += 2.0 * math.log(rho)
    return k


def bessel_orders(x, top: int) -> npt.NDArray:
    """J_k(x) for k = 0..top: one row per x.

    Miller's algorithm (Gautschi, SIAM Rev. 9 (1967) 24-82): the backward
    recurrence J_(k-1) = (2k/x) J_k - J_(k+1), started from zero above the
    top order (`_miller_start`), followed by one normalization.  It runs
    on the ratios r_k = J_k / J_(k-1) = x / (2k - x r_(k+1)), which need
    no rescaling: they stay finite for every x >= 0 however far the
    values underflow.  The values are the products of the ratios times
    scipy's j0 or j1, whichever is larger in magnitude at x, so that no
    row is normalized at a zero of J_0.  The cost is about max(top, x)
    vector steps over all x at once.
    """
    xa = _check_argument(x).ravel()
    start = _miller_start(top, float(xa.max(initial=0.0)))
    # at x = 0, q = inf gives r = 0, and at a zero of J_0, r_1 = inf is
    # never used
    with np.errstate(divide="ignore", invalid="ignore"):
        # q[k - 1] = 1 / r_k = (2k - x r_(k+1)) / x, from r_(start + 1) = 0
        q = np.empty((start + 1, xa.size))
        q[start] = np.inf
        r = np.empty(xa.size)
        for k in range(start, 0, -1):
            np.divide(xa, q[k], out=r)
            np.subtract(2.0 * k, r, out=r)
            np.divide(r, xa, out=q[k - 1])
        # Where J_(k-1) vanishes to rounding (x at one of its zeros),
        # q[k - 1] = 0, r_k = inf and r_(k-1) = 1 / (2(k-1)/x - inf) = 0,
        # whose product is NaN; the orders below recover.  As in Lentz's
        # method, q[k - 1] = 1e-30 and the q[k - 2] it implies keep that
        # product near its value, -1.
        zero = q[1:top] == 0.0
        if zero.any():
            ks, rows = np.nonzero(zero)
            q[ks + 1, rows] = 1e-30
            q[ks, rows] = 2.0 * (ks + 1) / xa[rows] - 1e30
        out = np.empty((top + 1, xa.size))
        np.divide(1.0, q[:top], out=out[1:])
        # each row is normalized at whichever of J_0 and J_1 is larger
        # there; with J_1 the products start at order 2, and J_0 = J_1 q[0]
        f0, f1 = _j0(xa), _j1(xa)
        swap = np.abs(f1) > np.abs(f0)
        scale = np.where(swap, f1, f0)
        out[0] = np.where(swap, f1 * q[0], f0)
        np.copyto(out[1], 1.0, where=swap)
    np.cumprod(out[1:], axis=0, out=out[1:])
    out[1:] *= scale
    return out.T


# ---------------------------------------------------------------------------
# Radial profile
# ---------------------------------------------------------------------------

def _profile_constant(n: int) -> float:
    # 2^((n-2)/2) * Gamma(n/2); equals 1 for n = 2.
    return 2.0 ** ((n - 2) / 2.0) * _gamma(n / 2.0)


def _profile_series(n: int, x: npt.NDArray) -> tuple[npt.NDArray, npt.NDArray]:
    """Power-series evaluation of (g, dg/dx) in the variable x = s*r.

    g(x) = sum_k A_k x^(2k+1) with A_0 = 1/n and ratio
    A_{k+1}/A_k = -1/(4 (k+1) (n/2 + k + 1)); 14 terms reach machine
    precision on the switch interval.
    """
    nu = n / 2.0
    x2 = x * x
    g = np.zeros_like(x)
    dg = np.zeros_like(x)
    ak = 0.5 / nu
    xpow = np.ones_like(x)
    for k in range(14):
        g += ak * xpow * x
        dg += ak * (2 * k + 1) * xpow
        ak *= -0.25 / ((k + 1) * (nu + k + 1))
        xpow = xpow * x2
    return g, dg


@dataclass(frozen=True)
class RadialProfile:
    """Radial factor of the first nonconstant Neumann modes on a ball.

    Parameters
    ----------
    n : int
        Ambient dimension, n >= 2.
    scale : float
        Frequency s = sqrt(mu1) multiplying the radius inside the Bessel
        argument (units 1/length).
    radius : float
        Ball radius R at which the Neumann condition g'(R) = 0 holds.

    The pairing is validated at construction: scale * radius must sit on
    a zero of the radial derivative.
    """

    n: int
    scale: float
    radius: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        _, gp = radial_profile_eval(self, self.radius)
        ref = abs(self.scale) / self.n  # magnitude of g'(0)
        if abs(gp) > 1e-8 * ref:
            raise ValueError(
                "scale*radius does not sit on a radial derivative zero "
                f"(g'(R) = {gp:.3e})"
            )

    @classmethod
    def for_ball(cls, n: int, radius: float) -> "RadialProfile":
        """Profile of the lowest nonconstant Neumann mode on a ball of given radius."""
        p = first_radial_deriv_zero(n)
        return cls(n=n, scale=p / radius, radius=radius)

    @property
    def mu1(self) -> float:
        """First nonzero Neumann eigenvalue of the Laplacian on the ball."""
        return self.scale * self.scale


def radial_profile_eval(p: RadialProfile, r):
    """Evaluate the profile and its derivative, ``(g(r), g'(r))``.

    Accepts scalars or arrays; r = 0 returns the analytic limits
    (0, scale/n) taken from the leading series coefficient.
    """
    if not isinstance(p, RadialProfile):
        raise TypeError("expected a RadialProfile")
    r_arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r_arr)):
        raise ValueError("radius must be finite")
    if np.any(r_arr < 0.0):
        raise ValueError("radius must be >= 0")
    x = p.scale * np.atleast_1d(r_arr)
    n, s = p.n, p.scale
    a = (n - 2) / 2.0
    nu = n / 2.0
    c = _profile_constant(n)
    g = np.empty_like(x)
    gp = np.empty_like(x)

    small = x < _SERIES_SWITCH
    if np.any(small):
        gs, dgs = _profile_series(n, x[small])
        g[small] = gs
        gp[small] = s * dgs
    big = ~small
    if np.any(big):
        xb = x[big]
        jb, jpb = _jv_derivatives(nu, xb)
        w = xb ** (-a)
        g[big] = c * w * jb
        gp[big] = c * s * w * (jpb - a * jb / xb)

    if np.ndim(r) == 0:
        return float(g[0]), float(gp[0])
    return g.reshape(r_arr.shape), gp.reshape(r_arr.shape)


def radial_profile_second(p: RadialProfile, r):
    """Second derivative g''(r), assembled from shifted-order Bessel values.

    Avoids the governing ODE so the result can be used to test it.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0):
        raise ValueError("second derivative evaluated for r > 0 only")
    n, s = p.n, p.scale
    a = (n - 2) / 2.0
    nu = n / 2.0
    c = _profile_constant(n)
    x = s * r_arr
    j0, j1, j2 = _jv_derivatives(nu, x, second=True)
    w = x ** (-a)
    gpp = c * s * s * w * (j2 - 2.0 * a * j1 / x + a * (a + 1.0) * j0 / (x * x))
    if np.ndim(r) == 0:
        return float(gpp[0])
    return gpp.reshape(np.shape(r))


# ---------------------------------------------------------------------------
# Zeros of the radial derivative
# ---------------------------------------------------------------------------

def _deriv_indicator(n: int, j: int, r: npt.NDArray) -> npt.NDArray:
    """r^(a+1) * d/dr[r^(-a) J_{j+a}(r)] with a = (n-2)/2.

    Shares its positive zeros with the radial derivative but is smooth
    through r = 0, which keeps the sign scan honest near the origin.
    """
    a = (n - 2) / 2.0
    jnu, jp = _jv_derivatives(j + a, r)
    return r * jp - a * jnu


def _deriv_indicator_prime(n: int, j: int, r: npt.NDArray) -> npt.NDArray:
    a = (n - 2) / 2.0
    _, jp, jpp = _jv_derivatives(j + a, r, second=True)
    return (1.0 - a) * jp + r * jpp


def _polish_zeros(n: int, j: int, lo: npt.NDArray, hi: npt.NDArray) -> npt.NDArray:
    """Bisection of each bracket to width 1e-13, then one Newton step.

    The brackets run side by side, each with its own midpoints and sign
    tests, and each is frozen once it is narrow enough or hits an exact
    zero; since jv is elementwise the result is bit for bit that of one
    bracket at a time.
    """
    lo, hi = lo.copy(), hi.copy()
    flo = _deriv_indicator(n, j, lo)
    live = np.ones(len(lo), dtype=bool)
    for _ in range(200):
        live &= ~(hi - lo < 1e-13)
        if not live.any():
            break
        mid = 0.5 * (lo[live] + hi[live])
        fmid = _deriv_indicator(n, j, mid)
        hit = fmid == 0.0  # lo = hi = mid freezes the bracket
        move_lo = hit | ((flo[live] < 0.0) == (fmid < 0.0))
        lo[live] = np.where(move_lo, mid, lo[live])
        flo[live] = np.where(move_lo, fmid, flo[live])
        hi[live] = np.where(hit | ~move_lo, mid, hi[live])
    z = 0.5 * (lo + hi)
    f = _deriv_indicator(n, j, z)
    fp = _deriv_indicator_prime(n, j, z)
    step = np.divide(f, fp, out=np.full_like(z, np.inf), where=fp != 0.0)
    newton = np.abs(step) < 1e-6
    z[newton] -= step[newton]
    return z


# grid points per slice of the zero scan, about eight zeros
_SCAN_SLICE = 256


def _scan_zeros(n: int, j: int, count: int) -> list[float]:
    """First `count` positive zeros of the radial derivative for degree j."""
    a = (n - 2) / 2.0
    nu = j + a
    # the l-th zero grows like (l + nu/2 - 3/4) pi
    upper = nu + (count + 2 + nu / 2) * math.pi + 10.0
    grid = np.arange(0.1, upper, 0.1)  # zeros lie about pi apart
    # evaluated slice by slice until `count` sign changes are in: the
    # first `count` brackets of a prefix are those of the whole grid
    vals = np.empty_like(grid)
    done, flips = 0, []
    while len(flips) < count and done < len(grid):
        stop = min(done + _SCAN_SLICE, len(grid))
        vals[done:stop] = _deriv_indicator(n, j, grid[done:stop])
        done = stop
        signs = np.sign(vals[:done])
        # Treat exact zeros on grid points as negligible-probability; a
        # zero value still flips the product test below.
        flips = np.nonzero(signs[:-1] * signs[1:] <= 0.0)[0]
        flips = flips[(vals[flips] != 0.0) | (vals[flips + 1] != 0.0)]
    flips = flips[:count]
    if len(flips) < count:
        raise BracketError(
            f"zero scan found only {len(flips)} of {count} radial derivative "
            f"zeros for degree j={j} in dimension n={n} below r={upper:.1f}"
        )
    return _polish_zeros(n, j, grid[flips], grid[flips + 1]).tolist()


@lru_cache(maxsize=64)
def first_radial_deriv_zero(n: int) -> float:
    """First positive zero p_n of the radial profile derivative (unit scale).

    The first nonzero Neumann eigenvalue of the Laplacian on a ball of
    radius R is (p_n / R)^2.
    """
    if not (2 <= n <= 16):
        raise ValueError("dimension must satisfy 2 <= n <= 16")
    return _scan_zeros(n, 1, 1)[0]


@lru_cache(maxsize=256)
def radial_deriv_zeros(n: int, j: int, count: int) -> tuple:
    """First `count` positive zeros nu_{j,1} < nu_{j,2} < ... of the degree-j
    radial derivative on the unit ball in R^n (for j = 0 the constant mode's
    zero at r = 0 is excluded).  Memoized: a growing spectrum search reuses
    its rows.
    """
    if n < 2 or j < 0 or count < 1:
        raise ValueError(f"need n >= 2, j >= 0 and count >= 1, got n={n}, j={j}, count={count}")
    return tuple(_scan_zeros(n, j, count))
