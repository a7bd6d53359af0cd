"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a PASS line; the expensive verification reports are shared
through session fixtures (their wall-clock budgets are asserted where
the criterion sets one).
"""

import math
import time

import numpy as np
import pytest
from conftest import SMOOTH, moved_polygon, splitting_quotients

from neuspec import fem
from neuspec import geometry as geo
from neuspec import mps
from neuspec import trial
from neuspec.ball import Ball, mu1_ball, upsilon1_ball, upsilon1_poly_ball
from neuspec.cli import _mps_warning, build_verification_report
from neuspec.corpus import CORPUS, corpus_domain
from neuspec.quadrature import cached_mesh

H_LIST = (0.08, 0.04, 0.02)

EXACT_UPS1 = upsilon1_ball(Ball(2, 1.0))  # 11.491813...
EXACT_UPS1_M2 = upsilon1_poly_ball(Ball(2, 1.0), 2)  # 132.0618...


def _report(domain_name, m, **kw):
    t0 = time.perf_counter()
    rep = build_verification_report(domain_name, m, H_LIST, **kw)
    rep["_elapsed"] = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="session")
def disk_report():
    return _report("disk", 1)


@pytest.fixture(scope="session")
def ellipse_reports():
    return {name: _report(name, 1) for name in ("ellipse-1.2", "ellipse-1.5", "ellipse-2.0")}


@pytest.fixture(scope="session")
def stadium_report():
    return _report("stadium", 1)


@pytest.fixture(scope="session")
def disk_m2_report():
    return _report("disk", 2, use_mps=False)


def test_criterion_1_biharmonic_disk(disk_report):
    """FEM biharmonic value on the unit disk hits the exact ball value."""
    rel_err = abs(disk_report["upsilon1_fem"] - EXACT_UPS1) / EXACT_UPS1
    assert rel_err <= 0.01
    assert disk_report["_elapsed"] < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: disk m=1 extrapolated {disk_report['upsilon1_fem']:.6f} "
        f"vs exact {EXACT_UPS1:.6f} (rel err {rel_err:.2e}, "
        f"{disk_report['_elapsed']:.1f}s < 60s)"
    )


def test_criterion_2_poly_power_disk(disk_m2_report):
    """Exact power algebra plus the m=2 FEM value on the disk."""
    b = Ball(2, 1.0)
    mu = mu1_ball(b)
    for m in range(1, 9):
        assert upsilon1_poly_ball(b, m) == mu ** (2 * m)
    ups, elapsed = disk_m2_report["upsilon1_fem"], disk_m2_report["_elapsed"]
    rel_err = abs(ups - EXACT_UPS1_M2) / EXACT_UPS1_M2
    assert rel_err <= 0.02
    assert elapsed < 180.0
    print(
        f"\nACCEPTANCE 2 PASS: power algebra exact; disk m=2 FEM {ups:.4f} "
        f"vs exact {EXACT_UPS1_M2:.4f} (rel err {rel_err:.2e}, {elapsed:.1f}s < 180s)"
    )


def test_criterion_3_strict_inequality_ellipses(ellipse_reports):
    """Ellipses of disk area sit strictly below the ball value."""
    for name, rep in ellipse_reports.items():
        assert rep["upsilon1_fem"] + rep["upsilon1_fem_error_bar"] < EXACT_UPS1, name
        assert rep["certificate"]["bound"] == pytest.approx(EXACT_UPS1, rel=1e-10)
        assert rep["_elapsed"] < 120.0, name
    gaps = {
        name: EXACT_UPS1 - rep["upsilon1_fem"] for name, rep in ellipse_reports.items()
    }
    print(
        "\nACCEPTANCE 3 PASS: strict inequality with margins "
        + ", ".join(f"{n}: {g:.4f}" for n, g in gaps.items())
    )


def test_criterion_4_quotient_identity_corpus():
    """The certificate's quotient is the ball value on the disk and resolved
    on every corpus domain."""
    worst_quad = 0.0
    for name in CORPUS:
        d = corpus_domain(name)
        q = trial.trial_quotient(d)
        worst_quad = max(worst_quad, q.error / q.value)
    disk = corpus_domain("disk")
    mu_ball = mu1_ball(Ball(2, disk.equal_area_radius()))
    disk_err = abs(trial.trial_quotient(disk).value - mu_ball) / mu_ball
    assert disk_err <= 1e-14
    assert worst_quad <= 1e-6
    print(
        f"\nACCEPTANCE 4 PASS: disk quotient within {disk_err:.2e} (<=1e-14) of mu1(B), "
        f"quotient error within {worst_quad:.2e} (<=1e-6) across the corpus"
    )


def test_criterion_5_centering_on_triangle():
    """Centering solver: residuals and rotation equivariance on the triangle."""
    tri = corpus_domain("triangle")
    center = trial.find_center(tri)[0]
    v, scale = trial._fan_integrals(trial._profile(tri), *trial._fan(tri, center, trial._FAN_NODES))[:2]
    field_res = float(np.hypot(*v)) / scale
    assert field_res < 1e-10
    assert abs(v[0]) / scale < 1e-8 and abs(v[1]) / scale < 1e-8

    ang = 0.7
    rotated = moved_polygon(tri, angle=ang)
    c_rot = trial.find_center(rotated)[0]
    expect = np.array(
        [
            math.cos(ang) * center[0] - math.sin(ang) * center[1],
            math.sin(ang) * center[0] + math.cos(ang) * center[1],
        ]
    )
    equiv = float(np.hypot(*(c_rot - expect)))
    assert equiv < 1e-10
    print(
        f"\nACCEPTANCE 5 PASS: triangle center residual {field_res:.2e} (<1e-10), "
        f"mean-zero {abs(v[0]) / scale:.1e}/{abs(v[1]) / scale:.1e} (<1e-8), "
        f"equivariance {equiv:.2e} (<1e-10)"
    )


def test_criterion_6_square_analytic_anchors():
    """Unit square at h = 0.02, order 2: pi^2 and pi^4 anchors."""
    mesh = cached_mesh(corpus_domain("square"), 0.02)
    mu = fem._pencil_solve(mesh, 1)[0][0]
    ups = fem.eig_polyharmonic_neumann(mesh, 1, 1).values[0]
    mu_err = abs(mu - math.pi**2) / math.pi**2
    ups_err = abs(ups - math.pi**4) / math.pi**4
    assert mu_err <= 0.003
    assert ups_err <= 0.006
    print(
        f"\nACCEPTANCE 6 PASS: square mu1 rel err {mu_err:.2e} (<=0.3%), "
        f"upsilon1 rel err {ups_err:.2e} (<=0.6%)"
    )


def test_criterion_7_cross_method_agreement():
    """Particular solutions agree with FEM on the ellipse and exactly on the disk."""
    ell = geo.Ellipse(1.5, 2.0 / 3.0)
    study = fem.convergence_study(ell, H_LIST)
    hits = mps.mps_find(ell, "laplace_neumann", (0.8 * study.best**0.5, 1.2 * study.best**0.5), 20)
    good = [e for e in hits if e.sigma < 1e-6]
    assert good, "no converged indicator minima near the FEM estimate"
    nearest = min(good, key=lambda e: abs(e.value - study.best))
    rel = abs(nearest.value - study.best) / study.best
    assert rel <= 1e-3

    disk = corpus_domain("disk")
    exact = mu1_ball(Ball(2, 1.0))
    found = mps.mps_find(disk, "laplace_neumann", (1.6, 2.1), 20)
    best = min(found, key=lambda e: e.sigma)
    disk_rel = abs(best.value - exact) / exact
    assert disk_rel <= 1e-7
    print(
        f"\nACCEPTANCE 7 PASS: ellipse MPS vs FEM rel diff {rel:.2e} (<=1e-3); "
        f"disk MPS vs exact rel diff {disk_rel:.2e} (<=1e-7)"
    )


def test_verify_mps_within_fem_bars(disk_report, ellipse_reports, stadium_report):
    """At the default h list verify warns about MPS only where it finds no value."""
    for rep in (disk_report, *ellipse_reports.values()):
        assert rep["upsilon1_mps"] is not None
        assert _mps_warning(rep) is None
    assert "upsilon1_mps is null" in _mps_warning(stadium_report)


def test_criterion_8_discrete_squaring():
    """Mixed-form quotients are squared Laplacian eigenvalues on a fixed mesh."""
    mesh = cached_mesh(geo.Ellipse(1.5, 2.0 / 3.0), 0.07)
    lap = fem._pencil_solve(mesh, 2)[0][:2]
    bih = fem.eig_polyharmonic_neumann(mesh, 2, 1)
    quotients = splitting_quotients(mesh, bih.vectors, 2)
    worst = max(abs(quotients[i] - lap[i] ** 2) / quotients[i] for i in range(2))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 8 PASS: discrete squaring within {worst:.2e} (<=1e-9)")


def test_criterion_9_special_function_suites():
    """Recurrence and radial-equation residual grids inside the time budget."""
    t0 = time.perf_counter()
    from neuspec.special import (
        RadialProfile,
        bessel_j,
        bessel_j_prime,
        radial_profile_eval,
        radial_profile_second,
    )

    xs = np.linspace(0.1, 40.0, 113)
    for nu in (0.5, 1.0, 1.5, 2.0, 3.0):
        if nu == 0.5:
            jm = np.sqrt(2.0 / (np.pi * xs)) * np.cos(xs)
        else:
            jm = bessel_j(nu - 1.0, xs)
        jp = bessel_j(nu + 1.0, xs)
        jc = bessel_j(nu, xs)
        resid = jm + jp - (2 * nu / xs) * jc
        scale = np.abs(jm) + np.abs(jp) + np.abs((2 * nu / xs) * jc)
        assert np.all(np.abs(resid) <= 1e-11 * np.maximum(scale, 1e-30))
        h = 1e-6
        fd = (bessel_j(nu, xs + h) - bessel_j(nu, xs - h)) / (2 * h)
        assert np.allclose(bessel_j_prime(nu, xs), fd, atol=1e-7)

    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        p = RadialProfile.for_ball(n, 1.0)
        r = rng.uniform(0.05, 1.4, size=100)
        g, gp = radial_profile_eval(p, r)
        gpp = radial_profile_second(p, r)
        resid = gpp + (n - 1) / r * gp + (p.mu1 - (n - 1) / r**2) * g
        scale = np.abs(gpp) + np.abs((n - 1) / r * gp) + np.abs(
            (p.mu1 - (n - 1) / r**2) * g
        )
        assert np.all(np.abs(resid) <= 1e-10 * np.maximum(scale, 1e-30))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 9 PASS: special-function invariant grids in {elapsed:.2f}s (<10s)")


def test_criterion_10_equality_case_probe(disk_report, ellipse_reports, stadium_report):
    """Equality only on the disk; strictness on the other smooth domains."""
    margin = disk_report["margin"]
    bar = disk_report["upsilon1_fem_error_bar"]
    assert abs(margin) <= bar
    strict = {}
    for name, rep in {**ellipse_reports, "stadium": stadium_report}.items():
        assert rep["margin"] > rep["upsilon1_fem_error_bar"], name
        assert rep["inequality_holds"], name
        strict[name] = rep["margin"]
    assert set(strict) == set(SMOOTH) - {"disk"}
    print(
        f"\nACCEPTANCE 10 PASS: disk |margin| {abs(margin):.2e} <= error bar {bar:.2e}; "
        "strict margins on "
        + ", ".join(f"{n}: {v:.3f}" for n, v in strict.items())
    )
