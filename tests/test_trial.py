import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import moved_polygon

from neuspec import cli, fem, quadrature, trial
from neuspec import geometry as geo
from neuspec.corpus import CORPUS, corpus_domain
from neuspec.ball import Ball, upsilon1_ball, upsilon1_poly_ball
from neuspec.special import radial_profile_eval


@pytest.fixture(scope="module")
def triangle():
    return geo.Polygon(((0, 0), (2, 0), (0.4, 1.1)))


def _field_and_scale(d, x0, n=trial._FAN_NODES):
    """Centering field int g(r) (x - x0)/r dx and its scale int |g| dx, on
    the quadrature find_center uses."""
    return trial._fan_integrals(trial._profile(d), *trial._fan(d, x0, n))[:2]


def _field(d, x0):
    return _field_and_scale(d, x0)[0]


L_SHAPE = "polygon:0,0;2,0;2,1;1,1;1,2;0,2"
U_SHAPE = "polygon:0,0;3,0;3,3;2,3;2,1;1,1;1,3;0,3"
THIN_L = "polygon:0,0;4,0;4,0.25;0.25,0.25;0.25,4;0,4"
# ellipses of axis ratio 4.7 to 10
THIN_ELLIPSES = ["ellipse:2.1,0.45", "ellipse:2,0.4", "ellipse:3,0.5", "ellipse:3,0.3"]


class TestFan:
    @pytest.mark.parametrize("spec", [*CORPUS.values(), L_SHAPE, THIN_L, "superellipse:1,1,40"])
    def test_weights_sum_to_area(self, spec):
        d = geo.parse_domain(spec)
        _, w = trial._fan(d, d.centroid(), trial._FAN_NODES)
        assert abs(float(np.sum(w)) - d.area()) <= 1e-13 * d.area()

    def test_center_outside_the_domain(self):
        # about (3, 3), outside the thin L, the weights change sign
        d = geo.parse_domain(THIN_L)
        _, w = trial._fan(d, (3.0, 3.0), trial._FAN_NODES)
        assert np.any(w < 0)
        assert abs(float(np.sum(w)) - d.area()) <= 1e-13 * d.area()

    def test_rays_split_on_the_circle(self, triangle):
        # every ray's nodes lie on one side of |x - x0| = R per stretch, so
        # no Gauss stretch straddles the circle where g'' jumps
        x0 = trial.find_center(triangle)[0]
        n = trial._FAN_NODES
        dx, _ = trial._fan(triangle, x0, n)
        r = np.hypot(dx[:, 0], dx[:, 1])
        inside = (r < triangle.equal_area_radius()).reshape(-1, n)
        assert np.all(inside.all(axis=1) | ~inside.any(axis=1))

    def test_crossings_of_a_segment(self):
        # |a + t (b - a) - x0|^2 = R^2 is a quadratic in t
        piece = geo._segment((-2.0, 0.5), (2.0, 0.5))
        t = geo._crossings(piece, np.array([0.3, 0.0]), 1.0)
        exact = (np.array([-1.0, 1.0]) * math.sqrt(0.75) + 2.3) / 4.0
        assert np.allclose(t, exact, rtol=0, atol=1e-15)
        assert len(geo._crossings(piece, np.array([0.0, 3.0]), 1.0)) == 0

    def test_crossings_at_samples(self):
        # |4t - 2|^2 = 1 at the samples t = 1/4 and 3/4, where f changes
        # sign; on the tangent segment f only touches 0, at t = 1/2
        through = geo._segment((-2.0, 0.0), (2.0, 0.0))
        assert np.array_equal(geo._crossings(through, np.zeros(2), 1.0), [0.25, 0.75])
        tangent = geo._segment((-2.0, 1.0), (2.0, 1.0))
        assert len(geo._crossings(tangent, np.zeros(2), 1.0)) == 0

    def test_disk_on_its_own_circle(self):
        # about its center the unit disk's piece lies on |x| = 1, where f is
        # rounding noise: no crossing, and the rule keeps its 8 panels
        d = geo.Disk((0, 0), 1.0)
        assert len(geo._crossings(d.pieces()[0], np.zeros(2), 1.0)) == 0
        b, _, w = d.boundary_rule(trial._FAN_NODES, np.zeros(2), 1.0)
        assert len(b) == 8 * trial._FAN_NODES == 192
        assert abs(w.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("cx", [0.0, 1e3, 1e5])
    def test_displaced_disk_on_its_own_circle(self, cx):
        # the rounding of b - x0 grows with |x0|; at cx = 1e5 a threshold
        # scaled by R^2 alone read 20 false crossings
        d = geo.Disk((cx, 0.0), 1.0)
        x0 = np.asarray(trial.find_center(d)[0])
        assert np.array_equal(x0, [cx, 0.0])
        assert len(geo._crossings(d.pieces()[0], x0, 1.0)) == 0
        b, _, _ = d.boundary_rule(trial._FAN_NODES, x0, 1.0)
        assert len(b) == 192
        assert trial.certify_upper_bound(d, 1).valid

    def test_panels_split_at_the_crossings(self, triangle):
        x0 = trial.find_center(triangle)[0]
        radius = triangle.equal_area_radius()
        n = 12
        b, _, w = triangle.boundary_rule(n, x0, radius)
        assert abs(w.sum() - 3.0) <= 1e-14  # one unit of t per edge
        inside = (np.hypot(*(b - x0).T) < radius).reshape(-1, n)
        assert len(inside) > 3  # some edge crosses the circle
        assert np.all(inside.all(axis=1) | ~inside.any(axis=1))

    def test_panels_graded_toward_the_center(self):
        # the center of the thin L lies outside it, 0.85 from its long
        # edges; each Gauss panel is at most _PANEL_REACH times as long as
        # its distance from the center
        d = geo.parse_domain(THIN_L)
        x0 = trial.find_center(d)[0]
        assert not d.contains(np.array([x0]))[0]
        panels = 0
        for piece in d.pieces():
            cuts = geo._graded_panels(piece, x0, np.array([0.0, 1.0]))
            ends = piece.at(cuts)[0]
            for a, b in zip(ends[:-1], ends[1:]):
                # a segment that is its own closed polyline, there and back
                dist = geo.distance_to_segments(x0[None, :], np.array([a, b]))[0]
                assert math.dist(a, b) <= geo._PANEL_REACH * dist * (1 + 1e-12)
            panels += len(cuts) - 1
        assert panels > len(d.pieces())  # the long edges were split

    def test_certificate_builds_no_mesh(self, monkeypatch):
        calls = []
        triangulate = quadrature.triangulate

        def counting(d, h):
            calls.append(h)
            return triangulate(d, h)

        monkeypatch.setattr(quadrature, "triangulate", counting)
        quadrature.cached_mesh.cache_clear()
        fem._study.cache_clear()  # a kept study would build no mesh
        report = cli.build_verification_report(CORPUS["square"], 1, [0.16, 0.12, 0.08],
                                               use_mps=False)
        assert report["certificate"]["valid"]
        assert calls == [0.16, 0.12, 0.08]  # the FEM meshes only


class TestHopfField:
    def test_disk_center_is_zero(self):
        d = geo.Disk((0, 0), 1.0)
        v = _field(d, (0.0, 0.0))
        scale = math.pi * 0.3  # order of int |g|
        assert np.hypot(*v) < 1e-10 * scale

    def test_ellipse_origin_is_zero(self):
        d = geo.Ellipse(1.5, 2 / 3)
        v = _field(d, (0.0, 0.0))
        assert np.hypot(*v) < 1e-10

    def test_translation_equivariance(self, triangle):
        x0 = (0.7, 0.4)
        v0 = _field(triangle, x0)
        shift = ((17.0, -3.0))
        moved = moved_polygon(triangle, shift=shift)
        v1 = _field(moved, (x0[0] + shift[0], x0[1] + shift[1]))
        assert np.allclose(v0, v1, rtol=0, atol=1e-12)

    def test_off_center_field_points_inward(self):
        d = geo.Disk((0, 0), 1.0)
        v = _field(d, (0.4, 0.0))
        assert v[0] < 0  # pulls the center back toward the centroid


class TestFindCenter:
    def test_symmetric_domains_give_centroid(self):
        for d in (geo.Ellipse(1.5, 2 / 3), geo.Stadium(0.5, 0.6)):
            c = trial.find_center(d)[0]
            assert np.hypot(*c) < 1e-8

    def test_disk_anywhere(self):
        d = geo.Disk((3.0, -4.0), 1.0)
        c = trial.find_center(d)[0]
        assert np.allclose(c, (3.0, -4.0), atol=1e-10)

    def test_triangle_center(self, triangle):
        c = trial.find_center(triangle)[0]
        v, scale = _field_and_scale(triangle, c)
        assert np.hypot(*v) / scale < 1e-10
        assert triangle.contains(np.array([c]))[0]

    def test_triangle_center_matches_grid_scan(self, triangle):
        c = trial.find_center(triangle)[0]
        xs = np.linspace(0.1, 1.8, 30)
        ys = np.linspace(0.05, 1.0, 30)
        best = (np.inf, None)
        for x in xs:
            for y in ys:
                if not triangle.contains(np.array([[x, y]]))[0]:
                    continue
                v, scale = _field_and_scale(triangle, (x, y))
                r = np.hypot(*v) / scale
                if r < best[0]:
                    best = (r, (x, y))
        cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
        assert math.hypot(c[0] - best[1][0], c[1] - best[1][1]) <= cell

    def test_rotation_equivariance(self, triangle):
        ang = 0.7
        about = (0.0, 0.0)
        c0 = trial.find_center(triangle)[0]
        c1 = trial.find_center(moved_polygon(triangle, angle=ang, about=about))[0]
        rc = np.array(
            [
                math.cos(ang) * c0[0] - math.sin(ang) * c0[1],
                math.sin(ang) * c0[0] + math.cos(ang) * c0[1],
            ]
        )
        assert np.hypot(*(c1 - rc)) < 1e-10

    def test_mean_zero_after_centering(self, triangle):
        c = trial.find_center(triangle)[0]
        v, scale = _field_and_scale(triangle, c)
        assert abs(v[0]) / scale < 1e-8
        assert abs(v[1]) / scale < 1e-8


# centers found by damped Newton on a central-difference Jacobian, a
# second route to the same zeros
NEWTON_CENTERS = {
    CORPUS["triangle"]: (0.771313283369637, 0.37697121064986255),
    L_SHAPE: (0.8150167293681588, 0.8150167293681588),
    THIN_L: (0.8505959771815137, 0.850595977181521),
}


def _boundary_samples(d, k):
    return d.boundary_at(np.arange(k) / k)[0]


def _extent(d):
    return np.ptp(_boundary_samples(d, 512), axis=0).max()


class TestNewton:
    @pytest.mark.parametrize("spec", NEWTON_CENTERS)
    def test_jacobian_matches_central_differences(self, spec):
        d = geo.parse_domain(spec)
        step = 1e-5 * _extent(d)
        for x0 in (d.centroid(), trial.find_center(d)[0]):
            jac = trial._fan_integrals(trial._profile(d),
                                       *trial._fan(d, x0, trial._FAN_NODES))[2]
            diff = np.column_stack([(_field(d, x0 + e) - _field(d, x0 - e)) / (2.0 * step)
                                    for e in step * np.eye(2)])
            assert np.abs(jac - diff).max() <= 1e-6 * np.abs(jac).max()

    @pytest.mark.parametrize("spec", NEWTON_CENTERS)
    def test_jacobian_is_negative_definite(self, spec):
        # at the centroid, the center and halfway from the centroid to
        # each of 12 boundary points
        d = geo.parse_domain(spec)
        p = trial._profile(d)
        points = [d.centroid(), trial.find_center(d)[0],
                  *(0.5 * (_boundary_samples(d, 12) + d.centroid()))]
        for x0 in points:
            jac = trial._fan_integrals(p, *trial._fan(d, x0, trial._FAN_NODES))[2]
            assert np.all(np.linalg.eigvalsh(jac + jac.T) < 0.0), (x0, jac)

    @pytest.mark.parametrize("spec", [*NEWTON_CENTERS, *(CORPUS[n] for n in CORPUS if n != "triangle"),
                                      U_SHAPE])
    def test_fans_per_center(self, monkeypatch, spec):
        # a shape whose centroid is the center takes one fan; the U-shape's
        # centroid and center lie outside it, and Newton needs no guard
        fan, calls = trial._fan, []
        monkeypatch.setattr(trial, "_fan", lambda *args: calls.append(args) or fan(*args))
        trial.find_center(geo.parse_domain(spec))
        assert len(calls) <= (6 if spec in (*NEWTON_CENTERS, U_SHAPE) else 1)

    @pytest.mark.parametrize("spec", NEWTON_CENTERS)
    def test_center_matches_the_difference_newton(self, spec):
        d = geo.parse_domain(spec)
        gap = np.hypot(*(trial.find_center(d)[0] - NEWTON_CENTERS[spec]))
        assert gap <= 1e-12 * _extent(d)


def _unclamped(p, r):
    """g(r) = J_1(s r) on the whole plane: not held constant past R."""
    return radial_profile_eval(p, r)


def _wrong_scale(p, r):
    """J_1(1.05 s min(r, R)), constant past R: g'(R) != 0, yet g is in H^1."""
    g, dg = radial_profile_eval(p, 1.05 * np.minimum(r, p.radius))
    return g, np.where(r < p.radius, 1.05 * dg, 0.0)


@pytest.fixture
def fresh_quotients():
    """Forget every memoized quotient before and after the test."""
    trial.trial_quotient.cache_clear()
    yield
    trial.trial_quotient.cache_clear()


class TestTrialQuotient:
    # Q / mu1(B) per corpus shape, from an independent prototype of the
    # same quotient
    RATIOS = {"ellipse-1.2": 0.99608, "ellipse-1.5": 0.97879, "ellipse-2.0": 0.93503,
              "stadium": 0.94474, "square": 0.98979, "triangle": 0.90391}

    def test_disk_is_the_ball_value(self):
        q = trial.trial_quotient(geo.Disk((0, 0), 1.0))
        mu = trial._profile(geo.Disk((0, 0), 1.0)).mu1
        assert abs(q.value - mu) <= 1e-14 * mu
        assert q.value ** 2 == pytest.approx(upsilon1_ball(Ball(2, 1.0)), rel=1e-14)

    @pytest.mark.parametrize("name", list(RATIOS))
    def test_corpus_ratios(self, name):
        d = corpus_domain(name)
        q = trial.trial_quotient(d)
        assert q.value / trial._profile(d).mu1 == pytest.approx(self.RATIOS[name], abs=1e-5)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_between_the_fem_value_and_the_ball(self, name):
        # mu1 <= Q (Q is a Rayleigh quotient) and Q <= mu1(B) (Szego-Weinberger)
        d = corpus_domain(name)
        study = fem.convergence_study(d, (0.16, 0.12, 0.08))
        q = trial.trial_quotient(d).value
        mu_ball = trial._profile(d).mu1
        assert study.best - study.error_bar <= q <= mu_ball * (1 + 1e-14)

    def test_ellipse_m2(self):
        # the one quotient, squared twice, certifies Delta^4 below the disk's value
        cert = trial.certify_upper_bound(geo.Ellipse(1.5, 2 / 3), 2)
        assert cert.bound == pytest.approx(132.062, abs=2e-3)
        assert cert.certified == (cert.quotient + cert.quotient_error) ** 4
        assert cert.valid and cert.strict and cert.certified < 0.99 * cert.bound

    def test_triangle_error_estimate(self):
        # needs the boundary panels split where the circle |x - x0| = R
        # crosses them; with the rays split alone it reads 5e-5
        d = corpus_domain("triangle")
        q = trial.trial_quotient(d)
        assert q.error <= 1e-6 * q.value

    def test_corpus_error_estimates(self):
        for name in CORPUS:
            q = trial.trial_quotient(corpus_domain(name))
            assert trial._ROUNDING * q.value <= q.error <= 1e-7 * q.value, name

    @pytest.mark.parametrize("name, spoil, ratio", [
        ("disk", _wrong_scale, 1.0022), ("triangle", _unclamped, 1.0330)])
    def test_spoiled_profiles_are_invalid(self, monkeypatch, fresh_quotients, name, spoil, ratio):
        # a wrong s on a non-disk shape still gives a true upper bound, so
        # only the disk is asked to reject it
        monkeypatch.setattr(trial, "_profile_values", spoil)
        d = corpus_domain(name)
        q = trial.trial_quotient(d)
        assert q.value / trial._profile(d).mu1 == pytest.approx(ratio, abs=1e-4)
        for m in range(1, 5):
            cert = trial.certify_upper_bound(d, m)
            assert not cert.valid and not cert.strict, m

    def test_mean_term_keeps_a_rayleigh_quotient(self, monkeypatch, fresh_quotients):
        # about an off-center point the pair has a mean, which the quotient
        # subtracts: it then still lies above the disk's mu1
        d = geo.Disk((0, 0), 1.0)
        x0 = np.array([0.3, 0.0])
        fan = trial._fan_integrals(trial._profile(d), *trial._fan(d, x0, trial._FAN_NODES))
        monkeypatch.setattr(trial, "find_center", lambda d: (x0, fan))
        q = trial.trial_quotient(d)
        assert q.field_residual > 1e-2
        assert q.value > trial._profile(d).mu1
        assert not trial.certify_upper_bound(d, 1).valid

    @pytest.mark.parametrize("spec", [CORPUS["disk"], *(CORPUS[n] for n in CORPUS
                                                         if n.startswith("ellipse"))])
    def test_fans_per_quotient(self, monkeypatch, fresh_quotients, spec):
        # centering's one fan gives Q; only the half-node estimate takes
        # another
        fan, calls = trial._fan, []
        monkeypatch.setattr(trial, "_fan", lambda *args: calls.append(args[2]) or fan(*args))
        trial.trial_quotient(geo.parse_domain(spec))
        assert calls == [trial._FAN_NODES, trial._FAN_NODES // 2]

    def test_failed_centering_falls_back_to_the_centroid(self, monkeypatch, fresh_quotients,
                                                         tmp_path):
        # the quotient is taken about the centroid, and its residuals say
        # whether that is the center: on the triangle it is not, so the
        # certificate is invalid and verify fails, with its report written
        def unconverged(d):
            raise trial.CenterConvergenceError("no center")

        monkeypatch.setattr(trial, "find_center", unconverged)
        cert = trial.certify_upper_bound(corpus_domain("triangle"), 1)
        assert not cert.valid
        assert cert.field_residual == pytest.approx(0.0503, abs=1e-4)
        assert cert.center == pytest.approx((0.8, 0.36667), abs=1e-5)
        # the ellipse's centroid is its center
        assert trial.certify_upper_bound(corpus_domain("ellipse-1.5"), 1).valid
        out = tmp_path / "report.json"
        argv = ["verify", "--domain", "triangle", "--no-mps", "--h-list", "0.16,0.12,0.08",
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert json.loads(out.read_text())["certificate"]["valid"] is False

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            trial.certify_upper_bound(geo.Disk((0, 0), 1.0), 0)

    def test_one_quotient_serves_every_power(self, fresh_quotients):
        d = corpus_domain("square")
        certs = [trial.certify_upper_bound(d, m) for m in range(1, 5)]
        assert trial.trial_quotient.cache_info().misses == 1
        assert {c.quotient for c in certs} == {certs[0].quotient}
        for m, c in enumerate(certs, start=1):
            assert c.certified == (c.quotient + c.quotient_error) ** (2 * m)

class TestCertificate:
    def test_disk_certificate(self):
        cert = trial.certify_upper_bound(geo.Disk((0, 0), 1.0), 1)
        assert cert.valid
        assert cert.bound == pytest.approx(11.49182, abs=2e-5)
        assert cert.bound == upsilon1_ball(Ball(2, 1.0))

    def test_square_certificate(self):
        sq = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        cert = trial.certify_upper_bound(sq, 1)
        assert cert.valid
        r = 1.0 / math.sqrt(math.pi)
        assert cert.bound == pytest.approx(upsilon1_ball(Ball(2, r)), rel=1e-15)
        assert cert.bound == pytest.approx(113.42, abs=0.01)

    def test_equal_area_certificates_share_bound(self):
        c1 = trial.certify_upper_bound(geo.Disk((0, 0), 1.0), 1)
        c2 = trial.certify_upper_bound(geo.Ellipse(1.5, 2 / 3), 1)
        assert c2.bound == pytest.approx(c1.bound, rel=1e-12)

    def test_m2_bound_matches_poly_ball(self, triangle):
        cert = trial.certify_upper_bound(triangle, 2)
        r = triangle.equal_area_radius()
        assert cert.bound == upsilon1_poly_ball(Ball(2, r), 2)
        assert cert.valid

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus_certificates(self, name):
        # valid at every power; strict below the bound except on the disk
        d = corpus_domain(name)
        for m in range(1, 5):
            cert = trial.certify_upper_bound(d, m)
            assert cert.valid, (name, m)
            assert cert.strict == (name != "disk"), (name, m)
            assert (cert.certified < cert.bound) == cert.strict, (name, m)

    @pytest.mark.parametrize("spec", [L_SHAPE, THIN_L, "superellipse:1,1,40",
                                      "superellipse:1.3,0.8,2.5", "superellipse:1,1,8",
                                      *THIN_ELLIPSES, "ellipse:8,0.125"])
    def test_other_shapes_certify(self, spec):
        # a center outside the domain (the thin L), narrow rounded corners
        # (p = 40), a boundary that is not smooth at the axes (p = 2.5), and
        # ellipses up to 64:1
        d = geo.parse_domain(spec)
        q = trial.trial_quotient(d)
        assert q.error <= 1e-6 * q.value
        for m in range(1, 5):
            cert = trial.certify_upper_bound(d, m)
            assert cert.valid is True and cert.strict is True, (spec, m)
            json.dumps(cert.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("spec", [*THIN_ELLIPSES, "superellipse:1,1,8",
                                      *(CORPUS[name] for name in CORPUS if name != "triangle")])
    def test_error_at_the_rounding_floor(self, spec):
        # Gauss panels cut where the circle |x - x0| = R crosses a curve
        # converge geometrically there, down to the rounding of the sums
        cert = trial.certify_upper_bound(geo.parse_domain(spec), 1)
        assert cert.valid
        assert cert.quotient_error <= 1e-12 * cert.quotient

    def test_thin_ellipse_report_certifies(self):
        report = cli.build_verification_report("ellipse:2,0.4", 1, use_mps=False)
        assert report["certificate"]["valid"] and report["certificate"]["strict"]
        assert report["inequality_holds"]

    def test_tiny_disk_powers_stay_finite(self):
        # at R = 1e-11 the m = 4 figures reach 1.7e180, inside the double range
        cert = trial.certify_upper_bound(geo.Disk((0, 0), 1e-11), 4)
        assert cert.valid and not cert.strict
        assert cert.certified == pytest.approx(1.744e180, rel=1e-3)
        assert math.isfinite(cert.certified)

    def test_json_fields_exact(self):
        cert = trial.certify_upper_bound(geo.Disk((0, 0), 1.0), 1)
        payload = cert.to_dict()
        assert set(payload) == {
            "domain",
            "m",
            "n",
            "area",
            "R",
            "center",
            "field_residual",
            "mean_residuals",
            "quotient",
            "quotient_error",
            "certified",
            "bound",
            "valid",
            "strict",
        }
        assert payload["n"] == 2
        assert len(payload["center"]) == 2
        assert len(payload["mean_residuals"]) == 2

    def test_nonfinite_fields_become_null(self):
        cert = trial.certify_upper_bound(geo.Disk((0, 0), 1.0), 1)
        payload = dataclasses.replace(cert, certified=math.inf, center=(math.nan, 0.0)).to_dict()
        assert payload["certified"] is None and payload["center"] == [None, 0.0]
        assert payload["bound"] == cert.bound and payload["valid"] is True
        json.dumps(payload, allow_nan=False)

    def test_certificate_leaves_mpmath_unimported(self):
        # with the whole package loaded, as the command line loads it, no
        # mpmath; with the certificate alone, nor the FEM it checks, nor
        # exact rationals
        env = dict(os.environ, PYTHONPATH=str(Path(trial.__file__).parents[1]))
        for modules, unimported in (("cli, geometry, trial", ("mpmath",)),
                                    ("geometry, trial", ("mpmath", "neuspec.fem", "fractions"))):
            code = ("import sys\n"
                    f"from neuspec import {modules}\n"
                    "assert trial.certify_upper_bound(geometry.Disk((0, 0), 1.0), 4).valid\n"
                    f"for name in {unimported!r}:\n"
                    "    assert name not in sys.modules, f'{name} was imported'\n")
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (modules, proc.stderr)
