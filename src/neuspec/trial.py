"""Radial trial functions certifying Neumann eigenvalue upper bounds.

For a planar domain of area pi R^2 the trial pair u_i = G(r) x_i / r,
built from the ball profile G and centered where the associated vector
field vanishes, has mean zero and a Rayleigh quotient for Delta^(2m)
equal to mu1(B_R)^(2m).  The certificate records the centering residuals
and both evaluations of the quotient: the pointwise-identity route and
an independent quadrature of the iterated radial operator applied to G.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from scipy.special import jv as _jv

from .ball import Ball, upsilon1_poly_ball
from .geometry import (
    Domain,
    domain_metrics,
    domain_spec_string,
    point_in_polygon,
)
from .quadrature import cached_mesh, mesh_quadrature
from .special import RadialProfile, radial_profile_eval

__all__ = [
    "TrialProfile",
    "TrialQuotient",
    "TrialCertificate",
    "hopf_field",
    "find_center",
    "trial_quotient",
    "certify_upper_bound",
    "CenterConvergenceError",
    "QuotientMismatchError",
]

# quadrature resolution for all trial-function integrals; diameter/72 at
# degree 7 keeps the composite error near 1e-11 times the field scale
_QUAD_DIVISIONS = 72
_QUAD_DEGREE = 7
# largest accepted quotient error estimate, relative to the quotient; on
# the corpus at m <= 4 the estimate stays below 5e-12
_QUAD_ERROR_CAP = 1e-6


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


@dataclass(frozen=True)
class TrialProfile:
    """Radial profile of the equal-area ball, extended to all r >= 0."""

    n: int
    mu1: float
    radius: float
    profile: RadialProfile

    @classmethod
    def for_domain(cls, d: Domain) -> "TrialProfile":
        radius = domain_metrics(d).equal_volume_radius
        profile = RadialProfile.for_ball(2, radius)
        return cls(n=2, mu1=profile.mu1, radius=radius, profile=profile)

    def g(self, r):
        """(G(r), G'(r)); the ball profile used on all of the domain."""
        return radial_profile_eval(self.profile, r)


@lru_cache(maxsize=32)
def _domain_quadrature(d: Domain, h: float, degree: int):
    mesh = cached_mesh(d, h)
    pts, w = mesh_quadrature(mesh, degree)
    return pts, w


def _default_h(d: Domain) -> float:
    return d.diameter() / _QUAD_DIVISIONS


def _field_and_scale(p: TrialProfile, pts, w, x0):
    """Components int (x - x0)_i G/r dx and the scale int |G| dx."""
    dx = pts - np.asarray(x0)[None, :]
    r = np.hypot(dx[:, 0], dx[:, 1])
    g, _ = p.g(r)
    ratio = np.full_like(r, p.profile.scale / p.n)  # analytic limit of G/r at 0
    pos = r > 1e-300
    ratio[pos] = g[pos] / r[pos]
    v = np.array([np.sum(w * ratio * dx[:, 0]), np.sum(w * ratio * dx[:, 1])])
    scale = float(np.sum(w * np.abs(g)))
    return v, scale


def hopf_field(d: Domain, x0, p: TrialProfile | None = None, h: float | None = None):
    """Domain integral of (x - x0) G(|x - x0|)/|x - x0|, a 2-vector.

    Continuous in x0; the integrand is regular at x = x0 where G/r tends
    to G'(0).
    """
    if p is None:
        p = TrialProfile.for_domain(d)
    pts, w = _domain_quadrature(d, h if h is not None else _default_h(d), _QUAD_DEGREE)
    v, _ = _field_and_scale(p, pts, w, np.asarray(x0, dtype=float))
    return v


def find_center(d: Domain, tol: float = 1e-12, p: TrialProfile | None = None,
                h: float | None = None):
    """Zero of the centering field inside the convex hull of the domain.

    Damped Newton with a central-difference Jacobian from the centroid;
    the residual is scaled by int |G| dx.  Raises CenterConvergenceError
    with the best residual if the iteration budget runs out.
    """
    if p is None:
        p = TrialProfile.for_domain(d)
    metrics = domain_metrics(d)
    hull = np.asarray(metrics.hull)
    pts, w = _domain_quadrature(d, h if h is not None else _default_h(d), _QUAD_DEGREE)
    diam = d.diameter()
    fd_step = 1e-5 * diam

    def field(x):
        return _field_and_scale(p, pts, w, x)

    x = np.asarray(metrics.centroid, dtype=float)
    v, scale = field(x)
    best = (float(np.hypot(*v)) / scale, x.copy())
    for _ in range(60):
        res = float(np.hypot(*v)) / scale
        if res < best[0]:
            best = (res, x.copy())
        if res <= tol:
            return x
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
    if res <= tol:
        return x
    raise CenterConvergenceError(
        f"centering residual {best[0]:.3e} did not reach tol {tol:.1e} "
        f"(best point {best[1].tolist()})"
    )


# ---------------------------------------------------------------------------
# Iterated radial operator applied to the profile
# ---------------------------------------------------------------------------
#
# Terms are stored as {(dp, dc): coef} representing
#   sum coef * r^(-a + dp) * J_(nu + dc)(s r)
# with a = (n-2)/2 and nu = n/2.  Differentiation and division by r stay
# inside this family, so (d^2/dr^2 + (n-1)/r d/dr - (n-1)/r^2)^m G has an
# exact finite expansion built from order-shifted Bessel values.  The
# coefficient algebra runs at 50 digits: near r = 0 the expansion cancels
# catastrophically across Bessel orders, and double-precision coefficients
# would leave an O(eps * r^(-2m-1)) ghost contribution.  There the sum is
# replaced by its Taylor expansion about r = 0, formed at the same
# precision from these terms alone (never from L G = -mu1 G), so the
# quadrature path still checks the operator algebra.

_COEFF_DPS = 50
# a Taylor coefficient whose contributions cancel to this many digits is zero
_ZERO_DIGITS = 35
# relative truncation error of the near-center Taylor expansion, and a
# bound on its length that converging series never reach
_TAYLOR_TAIL = 1e-20
_TAYLOR_MAX_J = 200


def _terms_derivative(terms, a, s):
    out = {}
    half_s = s / 2
    for (dp, dc), coef in terms.items():
        p = -a + dp
        if p != 0.0:
            out[(dp - 1, dc)] = out.get((dp - 1, dc), 0) + coef * p
        out[(dp, dc - 1)] = out.get((dp, dc - 1), 0) + coef * half_s
        out[(dp, dc + 1)] = out.get((dp, dc + 1), 0) - coef * half_s
    return out


def _terms_shift(terms, k, factor):
    return {(dp + k, dc): coef * factor for (dp, dc), coef in terms.items()}


def _apply_radial_operator(terms, n, s):
    """One application of d^2/dr^2 + (n-1)/r d/dr - (n-1)/r^2."""
    with mpmath.workdps(_COEFF_DPS):
        a = mpmath.mpf(n - 2) / 2
        s_m = mpmath.mpf(s)
        d1 = _terms_derivative(terms, a, s_m)
        d2 = _terms_derivative(d1, a, s_m)
        out = dict(d2)
        for key, coef in _terms_shift(d1, -1, mpmath.mpf(n - 1)).items():
            out[key] = out.get(key, 0) + coef
        for key, coef in _terms_shift(terms, -2, -mpmath.mpf(n - 1)).items():
            out[key] = out.get(key, 0) + coef
        return {k: c for k, c in out.items() if c != 0}


def _profile_terms(p: TrialProfile):
    # G(r) = C (s r)^(-a) J_nu(s r) => coefficient C * s^(-a) on r^(-a).
    n = p.n
    with mpmath.workdps(_COEFF_DPS):
        a = mpmath.mpf(n - 2) / 2
        c = mpmath.mpf(2) ** a * mpmath.gamma(mpmath.mpf(n) / 2)
        return {(0, 0): c * mpmath.mpf(p.profile.scale) ** (-a)}


def _taylor_coefficients(terms, p: TrialProfile, r_max: float) -> dict:
    """{e: c_e} with sum_e c_e r^e equal to the term expansion on [0, r_max].

    Each coef * r^(-a + dp) * J_k(s r), k = nu + dc, contributes
    coef * (-1)^j (s/2)^(2j + k) / (j! Gamma(j + k + 1)) to the power
    -a + dp + k + 2j = dp + dc + 1 + 2j (DLMF 10.2.2; 1/Gamma vanishes at
    the nonpositive integers, which gives J_(-k) = (-1)^k J_k).  Powers
    are formed in increasing order, so the cancellation across Bessel
    orders happens here, before rounding to double.  The expansion stops
    once every series has passed its largest term and the contributions
    at r_max of the last two powers, which bound all later ones, fall to
    _TAYLOR_TAIL of the partial sum there.
    """
    with mpmath.workdps(_COEFF_DPS):
        half_s = mpmath.mpf(p.profile.scale) / 2
        x2 = (half_s * r_max) ** 2
        rm = mpmath.mpf(r_max)
        keep = mpmath.mpf(10) ** -_ZERO_DIGITS
        # (lowest power, Bessel order, coefficient) of each term's series
        series = [(dp + dc + 1, mpmath.mpf(p.n) / 2 + dc, coef)
                  for (dp, dc), coef in terms.items()]
        lo = min(b for b, _, _ in series)
        hi = max(b for b, _, _ in series)
        coeffs, value = {}, mpmath.mpf(0)
        for e in range(lo, hi + 2 * _TAYLOR_MAX_J, 2):
            # each series has exactly one power in {e, e + 1}
            sums, sizes = {e: 0, e + 1: 0}, {e: 0, e + 1: 0}
            step, settled = 0, e + 1 >= hi
            for base, k, coef in series:
                if base > e + 1:
                    continue
                j = (e + 1 - base) // 2
                c = ((-1) ** j * coef * half_s ** (2 * j + k)
                     * mpmath.rgamma(j + 1) * mpmath.rgamma(j + k + 1))
                power = base + 2 * j
                sums[power] += c
                sizes[power] += abs(c)
                step += abs(c) * rm**power
                # later terms of this series shrink at least twofold
                settled = settled and j + k >= 0 and x2 <= (j + 1) * (j + 1 + k) / 2
            # a power whose contributions cancel to _ZERO_DIGITS digits is
            # zero to working precision: its residue times r^e (e < 0)
            # would swamp small radii.  For m <= 4 the kept powers cancel
            # by under one digit and the vanishing ones to about 51.
            for power in (e, e + 1):
                if abs(sums[power]) > keep * sizes[power]:
                    coeffs[power] = sums[power]
                    value += sums[power] * rm**power
            if settled and step <= _TAYLOR_TAIL * abs(value):
                return {power: float(c) for power, c in coeffs.items()}
    raise ArithmeticError(f"Taylor expansion about r = 0 unresolved at r = {r_max:.3e}")


def _eval_terms(terms, p: TrialProfile, r):
    """Evaluate a term expansion at radii r >= 0.

    The double-precision sum computes each Bessel order and each power of
    r once.  Where it loses more than ~2 digits to cancellation (near
    r = 0, where the expansion of L^m G cancels across Bessel orders) the
    value comes from the Taylor expansion about r = 0 formed at
    _COEFF_DPS digits (_taylor_coefficients) and summed in double.
    """
    n, s = p.n, p.profile.scale
    a = (n - 2) / 2.0
    nu = n / 2.0
    total = np.zeros_like(r)
    magnitude = np.zeros_like(r)
    safe = r > 0
    rs = r[safe]
    powers = {dp: rs ** (-a + dp) for dp in {dp for dp, _ in terms}}
    bessels = {dc: _jv(nu + dc, s * rs) for dc in {dc for _, dc in terms}}
    for (dp, dc), coef in terms.items():
        vals = float(coef) * powers[dp] * bessels[dc]
        total[safe] += vals
        magnitude[safe] += np.abs(vals)
    bad = safe.copy()
    bad[safe] = magnitude[safe] > 1e2 * np.abs(total[safe])
    if np.any(bad):
        rb = r[bad]
        coeffs = _taylor_coefficients(terms, p, float(rb.max()))
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


def trial_quotient(d: Domain, m: int, center=None, p: TrialProfile | None = None) -> TrialQuotient:
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
    if p is None:
        p = TrialProfile.for_domain(d)
    if center is None:
        center = find_center(d, p=p)
    center = np.asarray(center, dtype=float)

    h = _default_h(d)
    pts, w = _domain_quadrature(d, h, _QUAD_DEGREE)
    dx = pts - center[None, :]
    r = np.hypot(dx[:, 0], dx[:, 1])
    g, _ = p.g(r)
    denom = float(np.sum(w * g * g))

    terms = _profile_terms(p)
    for _ in range(m):
        terms = _apply_radial_operator(terms, p.n, p.profile.scale)
    lg = _eval_terms(terms, p, r)
    numer = float(np.sum(w * lg * lg))

    identity = (p.mu1 ** (2 * m) * denom) / denom
    quadrature = numer / denom

    # error estimate: embedded lower-degree rule plus a coarser mesh
    pts4, w4 = _domain_quadrature(d, h, 4)
    r4 = np.hypot(pts4[:, 0] - center[0], pts4[:, 1] - center[1])
    g4, _ = p.g(r4)
    lg4 = _eval_terms(terms, p, r4)
    quot4 = float(np.sum(w4 * lg4 * lg4) / np.sum(w4 * g4 * g4))
    ptsc, wc = _domain_quadrature(d, 2.0 * h, _QUAD_DEGREE)
    rc = np.hypot(ptsc[:, 0] - center[0], ptsc[:, 1] - center[1])
    gc, _ = p.g(rc)
    lgc = _eval_terms(terms, p, rc)
    quotc = float(np.sum(wc * lgc * lgc) / np.sum(wc * gc * gc))
    quad_error = abs(quadrature - quot4) + abs(quadrature - quotc) / 3.0

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
        payload = {
            "domain": self.domain,
            "m": self.m,
            "n": self.n,
            "area": self.area,
            "R": self.R,
            "center": list(self.center),
            "field_residual": self.field_residual,
            "mean_residuals": list(self.mean_residuals),
            "quotient_identity": self.quotient_identity,
            "quotient_quadrature": self.quotient_quadrature,
            "bound": self.bound,
            "valid": self.valid,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


FIELD_RESIDUAL_TOL = 1e-10
MEAN_RESIDUAL_TOL = 1e-8


def certify_upper_bound(d: Domain, m: int) -> TrialCertificate:
    """Assemble the centered trial construction into a certificate.

    Tolerance failures, including a quotient mismatch, mark the
    certificate invalid instead of raising.
    """
    metrics = domain_metrics(d)
    ball = Ball(2, metrics.equal_volume_radius)
    bound = upsilon1_poly_ball(ball, m)
    p = TrialProfile.for_domain(d)

    try:
        center = find_center(d, p=p)
    except CenterConvergenceError:
        center = np.asarray(metrics.centroid, dtype=float)

    pts, w = _domain_quadrature(d, _default_h(d), _QUAD_DEGREE)
    v, scale = _field_and_scale(p, pts, w, center)
    field_residual = float(np.hypot(*v)) / scale
    mean_residuals = (abs(float(v[0])) / scale, abs(float(v[1])) / scale)

    try:
        quot = trial_quotient(d, m, center=center, p=p)
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
        area=metrics.area,
        R=metrics.equal_volume_radius,
        center=(float(center[0]), float(center[1])),
        field_residual=field_residual,
        mean_residuals=mean_residuals,
        quotient_identity=quot.identity,
        quotient_quadrature=quot.quadrature,
        quadrature_error=quot.quad_error,
        bound=bound,
        valid=valid,
    )
