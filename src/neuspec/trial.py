"""Radial trial functions certifying Neumann eigenvalue upper bounds.

For a planar domain of area pi R^2 the trial pair u_i = G(r) x_i / r,
built from the ball profile G and centered where the associated vector
field vanishes, has mean zero and a Rayleigh quotient for Delta^(2m)
equal to mu1(B_R)^(2m).  The certificate records the centering residuals
and both evaluations of the quotient: the pointwise-identity route and
an independent quadrature of the iterated radial operator applied to G.
Every integral runs on a signed fan over the exact boundary (_fan).

Nothing but the operator expansion depends on the power m, so the center
is memoized per domain, and each fan keeps its radii, G and Bessel
columns for the last domain certified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, inf, isfinite

import numpy as np
from scipy.special import jv as _jv

from .ball import Ball, upsilon1_poly_ball
from .fem import _MAX_POWER
from .geometry import Domain, domain_spec_string, gauss_legendre, point_in_polygon
from .special import RadialProfile, radial_profile_value

__all__ = [
    "TrialQuotient",
    "TrialCertificate",
    "find_center",
    "trial_quotient",
    "certify_upper_bound",
    "CenterConvergenceError",
    "QuotientMismatchError",
]

# Gauss nodes in rho of the certificate's fan (_fan); boundary_rule gives
# the matching resolution in t.  The error estimate repeats every integral
# on the fan at half these counts.
_FAN_NODES = 24
# largest accepted quotient error estimate, relative to the quotient; on
# the corpus at m <= 4 the estimate stays below 1e-14
_QUAD_ERROR_CAP = 1e-6

# scaled centering residual at which Newton stops, and the residuals a
# valid certificate may carry
CENTER_RESIDUAL_TOL = 1e-12
FIELD_RESIDUAL_TOL = 1e-10
MEAN_RESIDUAL_TOL = 1e-8


class CenterConvergenceError(RuntimeError):
    """Newton iteration on the centering field did not reach tolerance.

    A root is guaranteed to exist inside the convex hull, so this always
    indicates a solver or quadrature defect rather than a missing root.
    """


class QuotientMismatchError(RuntimeError):
    """The quadrature quotient is unresolved or disagrees with the identity.

    `quotient` carries both evaluations and the quadrature error estimate.
    """

    def __init__(self, message: str, quotient: "TrialQuotient"):
        super().__init__(message)
        self.quotient = quotient


def _profile(d: Domain) -> RadialProfile:
    """Radial profile of the equal-area disk, used on all of the domain."""
    return RadialProfile.for_ball(2, d.equal_area_radius())


@lru_cache(maxsize=8)
def _fan(d: Domain, n: int):
    """(points, weights) of the signed fan over the exact boundary of d.

    x = c + rho (b(t) - c) about the centroid c, with weight
    w_t w_rho rho ((b - c) x b'(t)), from d.boundary_rule(n) in t and the
    n-point Gauss rule in rho on [0, 1].  The weights are signed: the
    fan counts each point by the winding number of the boundary about it,
    1 inside the domain and 0 outside, so it integrates over the domain
    itself, star-shaped about c or not, every integrand that is smooth in
    the whole plane (G continues as a Bessel function beyond R).
    """
    b, db, wt = d.boundary_rule(n)
    rho, wr = gauss_legendre(n)
    c = d.centroid()
    arm = b - c[None, :]
    jac = wt * (arm[:, 0] * db[:, 1] - arm[:, 1] * db[:, 0])
    pts = c[None, None, :] + rho[None, :, None] * arm[:, None, :]
    w = jac[:, None] * (wr * rho)[None, :]
    return _read_only(pts.reshape(-1, 2)), _read_only(w.ravel())


def _field_and_scale(p: RadialProfile, pts, w, x0):
    """Components int (x - x0)_i G/r dx and the scale int |G| dx."""
    dx = pts - np.asarray(x0)[None, :]
    r = np.hypot(dx[:, 0], dx[:, 1])
    return _field_from(p, w, dx, r, radial_profile_value(p, r))


def _field_from(p: RadialProfile, w, dx, r, g):
    """_field_and_scale from the offsets dx, their lengths r and G(r)."""
    ratio = np.full_like(r, p.scale / p.n)  # analytic limit of G/r at 0
    pos = r > 1e-300
    ratio[pos] = g[pos] / r[pos]
    v = np.array([np.sum(w * ratio * dx[:, 0]), np.sum(w * ratio * dx[:, 1])])
    scale = float(np.sum(w * np.abs(g)))
    return v, scale


@lru_cache(maxsize=16)
def find_center(d: Domain):
    """Zero of the centering field inside the convex hull of the domain.

    Damped Newton with a central-difference Jacobian from the centroid;
    the residual is scaled by int |G| dx and must reach CENTER_RESIDUAL_TOL.
    Raises CenterConvergenceError with the best residual if the iteration
    budget runs out.  Memoized per domain: the center does not depend on
    the power m.  The returned array is read-only.
    """
    p = _profile(d)
    hull = d.hull()
    pts, w = _fan(d, _FAN_NODES)
    diam = d.diameter()
    fd_step = 1e-5 * diam

    def field(x):
        return _field_and_scale(p, pts, w, x)

    x = np.array(d.centroid(), dtype=float)
    v, scale = field(x)
    best = (float(np.hypot(*v)) / scale, x.copy())
    for _ in range(60):
        res = float(np.hypot(*v)) / scale
        if res < best[0]:
            best = (res, x.copy())
        if res <= CENTER_RESIDUAL_TOL:
            return _read_only(x)
        jac = np.empty((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = fd_step
            vp, _ = field(x + e)
            vm, _ = field(x - e)
            jac[:, k] = (vp - vm) / (2.0 * fd_step)
        try:
            step = np.linalg.solve(jac, -v)
        except np.linalg.LinAlgError:
            step = -v * diam / scale
        # damping: backtrack on residual growth or hull exit
        lam = 1.0
        for _ in range(40):
            cand = x + lam * step
            inside = point_in_polygon(cand[None, :], hull)[0]
            if inside:
                vc, scale = field(cand)
                if np.hypot(*vc) <= (1.0 - 1e-4 * lam) * np.hypot(*v) or res < 1e-9:
                    x, v = cand, vc
                    break
            lam *= 0.5
        else:
            break
    v, scale = field(x)
    res = float(np.hypot(*v)) / scale
    if res <= CENTER_RESIDUAL_TOL:
        return _read_only(x)
    raise CenterConvergenceError(
        f"centering residual {best[0]:.3e} did not reach tol {CENTER_RESIDUAL_TOL:.1e} "
        f"(best point {best[1].tolist()})"
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Radial tables: the m-independent part of the trial integrands
# ---------------------------------------------------------------------------

# highest Bessel order |k| of the expansion of L^m G for m <= _MAX_POWER
# (n = 2: orders 1 - 2m .. 1 + 2m, negative ones reflected); the radial
# tables fill orders 0.._TOP_ORDER in one backward-recurrence pass
_TOP_ORDER = 2 * _MAX_POWER + 1


def _low_orders(x) -> dict:
    """{k: J_k(x)} for k = 0.._TOP_ORDER at x > 0, read-only.

    J_(_TOP_ORDER) and the order below it come from scipy, the lower
    orders from J_(k-1)(x) = (2k/x) J_k(x) - J_(k+1)(x) (DLMF 10.6.1),
    which is stable downward since J is its minimal solution.  Below
    x = 0.1, where scipy's J_k carries a relative error near
    k |ln(x/2)| eps that the recurrence would pass on to every order, the
    Neumann sum J_0 + 2 (J_2 + J_4 + ...) = 1 (DLMF 10.12.4), to which
    the orders above _TOP_ORDER add under 1e-19 there, sets the scale
    instead (Miller's algorithm).  Where J_(_TOP_ORDER) underflows (x
    below about 1e-31) the recurrence would run down from zero, so every
    order there is evaluated directly.
    """
    cols = {_TOP_ORDER: _jv(_TOP_ORDER, x), _TOP_ORDER - 1: _jv(_TOP_ORDER - 1, x)}
    # 2k/x overflows where x is subnormal; those points are direct below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_TOP_ORDER - 1, 0, -1):
            cols[k - 1] = (2.0 * k / x) * cols[k] - cols[k + 1]
    direct = np.abs(cols[_TOP_ORDER]) < np.finfo(float).tiny
    small = (x < 0.1) & ~direct
    if np.any(small):
        total = cols[0][small] + 2.0 * sum(cols[k][small] for k in range(2, _TOP_ORDER, 2))
        for col in cols.values():
            col[small] /= total
    if np.any(direct):
        for k in range(_TOP_ORDER - 1):
            cols[k][direct] = _jv(k, x[direct])
    return {k: _read_only(col) for k, col in cols.items()}


class _RadialTable:
    """Radii r >= 0 of a point set, G(r), and the Bessel columns J_k(s r) at
    r > 0 for integer orders k >= 0, each computed on first use and kept
    read-only (r itself is made read-only).  The first request for an order
    up to _TOP_ORDER computes all of them (_low_orders); a higher order is
    evaluated directly."""

    def __init__(self, p: RadialProfile, r):
        self.p = p
        self.r = _read_only(r)
        self.safe = _read_only(r > 0)
        self._columns = {}

    @cached_property
    def g(self) -> np.ndarray:
        return _read_only(radial_profile_value(self.p, self.r))

    def bessel(self, k: int) -> np.ndarray:
        col = self._columns.get(k)
        if col is None:
            x = self.p.scale * self.r[self.safe]
            if k <= _TOP_ORDER:
                self._columns.update(_low_orders(x))
                col = self._columns[k]
            else:
                col = self._columns[k] = _read_only(_jv(k, x))
        return col


@lru_cache(maxsize=1)
def _domain_tables(d: Domain) -> dict:
    """{(profile, center, fan nodes): _RadialTable} for one domain.

    The cache holds one domain, so calling this for the next domain
    releases the tables of the last one.
    """
    return {}


def _quadrature_table(d: Domain, p: RadialProfile, center, n: int):
    """(points, weights, _RadialTable about center) of the fan at n nodes."""
    pts, w = _fan(d, n)
    tables = _domain_tables(d)
    key = (p, float(center[0]), float(center[1]), n)
    table = tables.get(key)
    if table is None:
        if any(k[:3] != key[:3] for k in tables):
            tables.clear()  # the tables of one center at a time
        dx = pts - center[None, :]
        table = tables[key] = _RadialTable(p, np.hypot(dx[:, 0], dx[:, 1]))
    return pts, w, table


# ---------------------------------------------------------------------------
# Iterated radial operator applied to the profile
# ---------------------------------------------------------------------------
#
# Terms are stored as {(dp, dc): coef} representing
#   sum coef * r^dp * J_(1 + dc)(s r),
# starting from the profile G(r) = J_1(s r).  Differentiation and division
# by r stay inside this family, so (d^2/dr^2 + (n-1)/r d/dr - (n-1)/r^2)^m G
# has an exact finite expansion built from order-shifted Bessel values.
# The coefficients are exact rationals: Fraction(s) is the double s itself,
# and each coefficient is an integer times a power of s/2.  Near r = 0 the
# expansion cancels catastrophically across Bessel orders, and the double
# sum would leave an O(eps * r^(-2m-1)) ghost contribution.  There the sum
# is replaced by its Taylor expansion about r = 0, formed exactly from these
# terms alone (never from L G = -mu1 G), so the quadrature path still
# checks the operator algebra; every power that cancels comes out 0, and
# each kept coefficient is rounded to double once.

# relative truncation error of the near-center Taylor expansion, and a
# bound on its length that converging series never reach
_TAYLOR_TAIL = 1e-20
_TAYLOR_MAX_J = 200


def _terms_derivative(terms, half_s):
    out = {}
    for (dp, dc), coef in terms.items():
        if dp:
            out[(dp - 1, dc)] = out.get((dp - 1, dc), 0) + coef * dp
        out[(dp, dc - 1)] = out.get((dp, dc - 1), 0) + coef * half_s
        out[(dp, dc + 1)] = out.get((dp, dc + 1), 0) - coef * half_s
    return out


def _terms_shift(terms, k, factor):
    return {(dp + k, dc): coef * factor for (dp, dc), coef in terms.items()}


def _apply_radial_operator(terms, n, s):
    """One application of d^2/dr^2 + (n-1)/r d/dr - (n-1)/r^2."""
    half_s = Fraction(s) / 2
    d1 = _terms_derivative(terms, half_s)
    out = _terms_derivative(d1, half_s)
    for key, coef in _terms_shift(d1, -1, n - 1).items():
        out[key] = out.get(key, 0) + coef
    for key, coef in _terms_shift(terms, -2, 1 - n).items():
        out[key] = out.get(key, 0) + coef
    return {k: c for k, c in out.items() if c != 0}


def _profile_terms(p: RadialProfile):
    # n = 2: G(r) = J_1(s r)
    return {(0, 0): Fraction(1)}


class _Expansion:
    """L^m G as a term expansion (values), with its exact Taylor series
    about r = 0 (taylor).  The exact per-power sums of the series do not
    depend on the radius it is cut at: they are formed once, as far as the
    largest radius asked for needs, and each taylor(r_max) applies the stop
    rule to them afresh, so both fans of a trial quotient share them."""

    def __init__(self, terms, p: RadialProfile):
        self.terms = terms
        self.p = p
        self._lo = min(dp + dc + 1 for dp, dc in terms)
        self._hi = max(dp + dc + 1 for dp, dc in terms)
        self._half_s = self._series = None  # exact, set up on first use
        self._steps = []

    def _start(self):
        # per series: (power e of its next term, j, Bessel order, that term / (s/2)^e)
        half_s = Fraction(self.p.scale) / 2
        self._series = []
        for (dp, dc), coef in self.terms.items():
            k = 1 + dc
            j = max(0, -k)
            c = coef / half_s**dp / (factorial(j) * factorial(j + k))
            self._series.append((dp + dc + 1 + 2 * j, j, k, -c if j % 2 else c))
        self._half_s = half_s

    def _step(self, e):
        """(sizes, bound, kept) of the step over the powers e and e + 1:
        (power, |term| / (s/2)^power) per series term in it; the largest
        (s r_max / 2)^2 at which the expansion may stop after it (-inf until
        the last series has started); (power, coefficient, sum / (s/2)^power)
        per power whose exact sum is not 0.  Steps are stored whole, so an
        OverflowError leaves the expansion as it was."""
        if self._series is None:
            self._start()
        while len(self._steps) <= (e - self._lo) // 2:
            e0 = self._lo + 2 * len(self._steps)
            # each started series has exactly one power in {e0, e0 + 1}
            sums = {e0: 0, e0 + 1: 0}
            sizes, advanced = [], []
            bound = inf if e0 + 1 >= self._hi else -inf
            for power, j, k, c in self._series:
                if power > e0 + 1:
                    bound = -inf  # its terms are all ahead
                    advanced.append((power, j, k, c))
                    continue
                sums[power] += c
                sizes.append((power, abs(float(c))))
                # later terms of this series shrink at least twofold
                bound = min(bound, (j + 1) * (j + 1 + k) / 2)
                advanced.append((power + 2, j + 1, k, c / -((j + 1) * (j + 1 + k))))
            kept = [(power, float(sums[power] * self._half_s**power), float(sums[power]))
                    for power in (e0, e0 + 1) if sums[power] != 0]
            self._steps.append((sizes, bound, kept))
            self._series = advanced
        return self._steps[(e - self._lo) // 2]

    def taylor(self, r_max: float) -> dict:
        """{e: c_e} with sum_e c_e r^e equal to the term expansion on [0, r_max].

        Each coef * r^dp * J_k(s r), k = 1 + dc, contributes
        coef * (-1)^j (s/2)^(2j + k) / (j! (j + k)!) to the power
        e = dp + k + 2j = dp + dc + 1 + 2j (DLMF 10.2.2, for j + k >= 0; the
        terms below vanish, which gives J_(-k) = (-1)^k J_k).  Each series
        carries its terms divided by (s/2)^e, starts from that closed form at
        its first nonzero term (j = -k for k < 0, else j = 0) and advances by
        the ratio -1 / ((j + 1)(j + k + 1)).  Powers are summed exactly in
        increasing order, so the cancellation across Bessel orders happens
        before the one rounding to double, of each sum times (s/2)^e.  The
        expansion stops once every series has passed its largest term and the
        contributions at r_max of the last two powers, which bound all later
        ones, fall to _TAYLOR_TAIL of the partial sum there.
        """
        lo = self._lo
        x = self.p.scale / 2 * r_max
        x2 = x * x
        coeffs, value = {}, 0.0
        # (s/2)^e r_max^e, which turns a scaled term into its size at r_max
        x_pow = {lo: x**lo, lo + 1: x ** (lo + 1)}
        for e in range(lo, self._hi + 2 * _TAYLOR_MAX_J, 2):
            sizes, bound, kept = self._step(e)
            step = 0.0
            for power, size in sizes:
                step += size * x_pow[power]
            for power, coef, scaled in kept:
                coeffs[power] = coef
                value += scaled * x_pow[power]
            if x2 <= bound and step <= _TAYLOR_TAIL * abs(value):
                return coeffs
            x_pow = {power + 2: v * x2 for power, v in x_pow.items()}
        raise ArithmeticError(f"Taylor expansion about r = 0 unresolved at r = {r_max:.3e}")

    def values(self, table: _RadialTable):
        """Evaluate the term expansion at the radii table.r >= 0.

        The double-precision sum computes each power of r once and takes the
        Bessel columns from the table; a negative order k comes from
        J_k = (-1)^k J_(-k), exact in floating point, with the sign folded into
        the coefficient.  Where the sum loses more than ~2 digits to
        cancellation (near r = 0, where the expansion of L^m G cancels across
        Bessel orders) the value comes from the exact Taylor expansion about
        r = 0 (taylor), summed in double.
        """
        terms = self.terms
        r = table.r
        total = np.zeros_like(r)
        magnitude = np.zeros_like(r)
        safe = table.safe
        rs = r[safe]
        powers = {dp: rs**dp for dp in {dp for dp, _ in terms}}
        for (dp, dc), coef in terms.items():
            k, c = 1 + dc, float(coef)
            if k < 0:
                k, c = -k, -c if k % 2 else c
            vals = c * powers[dp] * table.bessel(k)
            total[safe] += vals
            magnitude[safe] += np.abs(vals)
        bad = safe.copy()
        bad[safe] = magnitude[safe] > 1e2 * np.abs(total[safe])
        if np.any(bad):
            rb = r[bad]
            try:
                coeffs = self.taylor(float(rb.max()))
            except OverflowError:  # coefficients beyond the double range
                total[bad] = np.nan
            else:
                lo, hi = min(coeffs), max(coeffs)
                # Horner's rule from the highest power: smallest terms first
                poly = [coeffs.get(e, 0.0) for e in range(hi, lo - 1, -1)]
                total[bad] = np.polyval(poly, rb) * rb**lo
        # r = 0: every L^m G vanishes there (odd profile), matching g ~ r
        total[~safe] = 0.0
        return total


@dataclass(frozen=True)
class TrialQuotient:
    """Rayleigh quotient of the centered trial pair for Delta^(2m)."""

    identity: float
    quadrature: float
    quad_error: float
    m: int
    center: tuple


def trial_quotient(d: Domain, m: int, center=None) -> TrialQuotient:
    """Quotient [sum_i int (L^m u_i)^2] / [sum_i int u_i^2], two ways.

    Path one substitutes the pointwise identity (the operator acts on G
    as multiplication by -mu1) and is exact up to roundoff; path two
    integrates the operator expansion directly.  A quadrature error
    estimate above 1e-6 of the identity value, or disagreement beyond the
    quadrature budget, raises QuotientMismatchError, since it means the
    profile, the operator expansion or the quadrature is defective.
    """
    if m < 1:
        raise ValueError("operator power must be >= 1")
    p = _profile(d)
    if center is None:
        center = find_center(d)
    center = np.asarray(center, dtype=float)

    terms = _profile_terms(p)
    for _ in range(m):
        terms = _apply_radial_operator(terms, p.n, p.scale)

    expansion = _Expansion(terms, p)

    def sums(n):
        """int (L^m G)^2 and int G^2 on the fan at n nodes."""
        _, w, table = _quadrature_table(d, p, center, n)
        lg = expansion.values(table)
        return np.sum(w * lg * lg), np.sum(w * table.g * table.g)

    numer, denom = (float(v) for v in sums(_FAN_NODES))
    identity = (p.mu1 ** (2 * m) * denom) / denom
    quadrature = numer / denom

    # error estimate: the same fan at half the nodes
    quad_error = abs(quadrature - float(np.divide(*sums(_FAN_NODES // 2))))

    quot = TrialQuotient(
        identity=identity,
        quadrature=quadrature,
        quad_error=quad_error,
        m=m,
        center=(float(center[0]), float(center[1])),
    )
    # a wrong integrand inflates its own error estimate, so the estimate
    # is capped before it may widen the budget
    cap = _QUAD_ERROR_CAP * identity
    budget = max(cap, 10.0 * quad_error)
    if quad_error > cap or abs(quadrature - identity) > budget:
        raise QuotientMismatchError(
            f"quotient paths disagree: identity {identity:.12e} vs "
            f"quadrature {quadrature:.12e} (error estimate {quad_error:.3e}, "
            f"budget {budget:.3e})",
            quot,
        )
    return quot


@dataclass(frozen=True)
class TrialCertificate:
    """Certified upper bound for the first nonzero Neumann eigenvalue of Delta^(2m).

    Valid certificates assert, via the variational principle, that the
    first nonzero eigenvalue on the domain is at most `bound`, the exact
    value on the equal-area ball.
    """

    domain: str
    m: int
    n: int
    area: float
    R: float
    center: tuple
    field_residual: float
    mean_residuals: tuple
    quotient_identity: float
    quotient_quadrature: float
    quadrature_error: float
    bound: float
    valid: bool

    def to_json(self) -> str:
        """Strict JSON: a float that is not finite (a quadrature that left
        the double range) is written as null."""
        def num(x):
            return x if isfinite(x) else None

        payload = {
            "domain": self.domain,
            "m": self.m,
            "n": self.n,
            "area": num(self.area),
            "R": num(self.R),
            "center": [num(x) for x in self.center],
            "field_residual": num(self.field_residual),
            "mean_residuals": [num(x) for x in self.mean_residuals],
            "quotient_identity": num(self.quotient_identity),
            "quotient_quadrature": num(self.quotient_quadrature),
            "bound": num(self.bound),
            "valid": self.valid,
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def certify_upper_bound(d: Domain, m: int) -> TrialCertificate:
    """Assemble the centered trial construction into a certificate.

    Tolerance failures, including a quotient mismatch, mark the
    certificate invalid instead of raising.
    """
    _domain_tables(d)  # releases the last domain's tables before this one's
    bound = upsilon1_poly_ball(Ball(2, d.equal_area_radius()), m)
    p = _profile(d)

    try:
        center = find_center(d)
    except CenterConvergenceError:
        center = np.array(d.centroid(), dtype=float)

    pts, w, table = _quadrature_table(d, p, center, _FAN_NODES)
    v, scale = _field_from(p, w, pts - center[None, :], table.r, table.g)
    field_residual = float(np.hypot(*v)) / scale
    mean_residuals = (abs(float(v[0])) / scale, abs(float(v[1])) / scale)

    try:
        quot = trial_quotient(d, m, center=center)
    except QuotientMismatchError as exc:
        quot = exc.quotient
    cap = _QUAD_ERROR_CAP * bound
    valid = (
        field_residual <= FIELD_RESIDUAL_TOL
        and all(res <= MEAN_RESIDUAL_TOL for res in mean_residuals)
        and quot.quad_error <= cap
        and abs(quot.quadrature - bound) <= max(cap, 3.0 * quot.quad_error)
    )
    return TrialCertificate(
        domain=domain_spec_string(d),
        m=m,
        n=2,
        area=float(d.area()),
        R=d.equal_area_radius(),
        center=(float(center[0]), float(center[1])),
        field_residual=field_residual,
        mean_residuals=mean_residuals,
        quotient_identity=quot.identity,
        quotient_quadrature=quot.quadrature,
        quadrature_error=quot.quad_error,
        bound=bound,
        valid=valid,
    )
