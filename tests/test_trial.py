import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from neuspec import geometry as geo
from neuspec import trial
from neuspec.ball import Ball, upsilon1_ball, upsilon1_poly_ball


@pytest.fixture(scope="module")
def triangle():
    return geo.Polygon(((0, 0), (2, 0), (0.4, 1.1)))


class TestHopfField:
    def test_disk_center_is_zero(self):
        d = geo.Disk((0, 0), 1.0)
        p = trial.TrialProfile.for_domain(d)
        v = trial.hopf_field(d, (0.0, 0.0), p)
        scale = math.pi * 0.3  # order of int |G|
        assert np.hypot(*v) < 1e-10 * scale

    def test_ellipse_origin_is_zero(self):
        d = geo.Ellipse(1.5, 2 / 3)
        v = trial.hopf_field(d, (0.0, 0.0))
        assert np.hypot(*v) < 1e-10

    def test_translation_equivariance(self, triangle):
        p = trial.TrialProfile.for_domain(triangle)
        x0 = (0.7, 0.4)
        v0 = trial.hopf_field(triangle, x0, p)
        shift = ((17.0, -3.0))
        moved = triangle.translated(shift)
        v1 = trial.hopf_field(moved, (x0[0] + shift[0], x0[1] + shift[1]), p)
        assert np.allclose(v0, v1, rtol=0, atol=1e-12)

    def test_off_center_field_points_inward(self):
        d = geo.Disk((0, 0), 1.0)
        v = trial.hopf_field(d, (0.4, 0.0))
        assert v[0] < 0  # pulls the center back toward the centroid


class TestFindCenter:
    def test_symmetric_domains_give_centroid(self):
        for d in (geo.Ellipse(1.5, 2 / 3), geo.Stadium(0.5, 0.6)):
            c = trial.find_center(d)
            assert np.hypot(*c) < 1e-8

    def test_disk_anywhere(self):
        d = geo.Disk((3.0, -4.0), 1.0)
        c = trial.find_center(d)
        assert np.allclose(c, (3.0, -4.0), atol=1e-10)

    def test_triangle_center(self, triangle):
        c = trial.find_center(triangle, tol=1e-12)
        p = trial.TrialProfile.for_domain(triangle)
        pts, w = trial._domain_quadrature(triangle, trial._default_h(triangle), 7)
        v, scale = trial._field_and_scale(p, pts, w, c)
        assert np.hypot(*v) / scale < 1e-10
        assert triangle.contains(np.array([c]))[0]

    def test_triangle_center_matches_grid_scan(self, triangle):
        c = trial.find_center(triangle)
        p = trial.TrialProfile.for_domain(triangle)
        pts, w = trial._domain_quadrature(triangle, trial._default_h(triangle), 7)
        xs = np.linspace(0.1, 1.8, 30)
        ys = np.linspace(0.05, 1.0, 30)
        best = (np.inf, None)
        for x in xs:
            for y in ys:
                if not triangle.contains(np.array([[x, y]]))[0]:
                    continue
                v, scale = trial._field_and_scale(p, pts, w, np.array([x, y]))
                r = np.hypot(*v) / scale
                if r < best[0]:
                    best = (r, (x, y))
        cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
        assert math.hypot(c[0] - best[1][0], c[1] - best[1][1]) <= cell

    def test_rotation_equivariance(self, triangle):
        ang = 0.7
        about = (0.0, 0.0)
        c0 = trial.find_center(triangle)
        c1 = trial.find_center(triangle.rotated(ang, about))
        rc = np.array(
            [
                math.cos(ang) * c0[0] - math.sin(ang) * c0[1],
                math.sin(ang) * c0[0] + math.cos(ang) * c0[1],
            ]
        )
        assert np.hypot(*(c1 - rc)) < 1e-10

    def test_mean_zero_after_centering(self, triangle):
        p = trial.TrialProfile.for_domain(triangle)
        c = trial.find_center(triangle, p=p)
        pts, w = trial._domain_quadrature(triangle, trial._default_h(triangle), 7)
        v, scale = trial._field_and_scale(p, pts, w, c)
        assert abs(v[0]) / scale < 1e-8
        assert abs(v[1]) / scale < 1e-8


class TestTrialQuotient:
    def test_disk_m1_paths_agree(self):
        d = geo.Disk((0, 0), 1.0)
        q = trial.trial_quotient(d, 1)
        exact = upsilon1_ball(Ball(2, 1.0))
        assert q.identity == pytest.approx(exact, rel=1e-14)
        assert q.identity == pytest.approx(11.49182, abs=2e-5)
        assert q.quadrature == pytest.approx(q.identity, rel=1e-8)

    def test_area_pi_domains_share_quotient(self):
        disk_q = trial.trial_quotient(geo.Disk((0, 0), 1.0), 1)
        ell_q = trial.trial_quotient(geo.Ellipse(1.5, 2 / 3), 1)
        assert ell_q.identity == pytest.approx(disk_q.identity, rel=1e-12)

    def test_ellipse_m2(self):
        q = trial.trial_quotient(geo.Ellipse(1.5, 2 / 3), 2)
        assert q.identity == pytest.approx(132.062, abs=2e-3)
        assert q.quadrature == pytest.approx(q.identity, rel=1e-6)

    def test_profile_identity_pointwise(self):
        # the operator expansion reproduces -mu1 * G pointwise
        d = geo.Disk((0, 0), 1.0)
        p = trial.TrialProfile.for_domain(d)
        terms = trial._profile_terms(p)
        terms = trial._apply_radial_operator(terms, p.n, p.profile.scale)
        r = np.linspace(0.01, 1.4, 57)
        lg = trial._eval_terms(terms, p, r)
        g, _ = p.g(r)
        assert np.allclose(lg, -p.mu1 * g, rtol=1e-11, atol=1e-13)

    def test_small_radius_cancellation_guard(self):
        # iterated operator at tiny radii routes through extended precision
        d = geo.Disk((0, 0), 1.0)
        p = trial.TrialProfile.for_domain(d)
        terms = trial._profile_terms(p)
        for _ in range(2):
            terms = trial._apply_radial_operator(terms, p.n, p.profile.scale)
        r = np.array([1e-7, 1e-5, 1e-3])
        lg = trial._eval_terms(terms, p, r)
        g, _ = p.g(r)
        assert np.allclose(lg, p.mu1**2 * g, rtol=1e-9)

    @pytest.mark.parametrize("m", [3, 4])
    def test_tiny_radii_follow_the_profile(self, m):
        # the double sum cancels by about r^(-2m) here; the series does not
        d = geo.Disk((0, 0), 1.0)
        p = trial.TrialProfile.for_domain(d)
        terms = trial._profile_terms(p)
        for _ in range(m):
            terms = trial._apply_radial_operator(terms, p.n, p.profile.scale)
        r = np.array([1e-12, 1e-9, 1e-7, 1e-5])
        g, _ = p.g(r)
        together = trial._eval_terms(terms, p, r)
        one_by_one = np.concatenate([trial._eval_terms(terms, p, r[i:i + 1]) for i in range(4)])
        for lg in (together, one_by_one):
            assert np.allclose(lg, (-p.mu1) ** m * g, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_quadrature_points_follow_the_profile(self, m):
        # every point of the certificate's degree-7 set, flagged or not
        for d in (geo.Disk((0, 0), 1.0), geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))):
            p = trial.TrialProfile.for_domain(d)
            terms = trial._profile_terms(p)
            for _ in range(m):
                terms = trial._apply_radial_operator(terms, p.n, p.profile.scale)
            pts, _ = trial._domain_quadrature(d, trial._default_h(d), 7)
            c = d.centroid()
            r = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
            g, _ = p.g(r)
            lg = trial._eval_terms(terms, p, r)
            assert np.allclose(lg, (-p.mu1) ** m * g, rtol=1e-12, atol=0), d

    def test_flagged_quadrature_points_match_mpmath(self):
        # disk m=4: compare near-center values with a per-point 50-digit sum
        d = geo.Disk((0, 0), 1.0)
        p = trial.TrialProfile.for_domain(d)
        s = p.profile.scale
        terms = trial._profile_terms(p)
        for _ in range(4):
            terms = trial._apply_radial_operator(terms, p.n, s)
        pts, _ = trial._domain_quadrature(d, trial._default_h(d), 7)
        r = np.hypot(pts[:, 0], pts[:, 1])
        lg = trial._eval_terms(terms, p, r)
        # n = 2: a = 0, nu = 1; points that lose 9 digits, all of them flagged
        vals = np.array([float(c) * r**dp * jv(1 + dc, s * r) for (dp, dc), c in terms.items()])
        flagged = np.nonzero(np.abs(vals).sum(0) > 1e9 * np.abs(vals.sum(0)))[0]
        flagged = flagged[np.argsort(r[flagged])]
        assert len(flagged) >= 20
        with mpmath.workdps(50):
            for i in flagged[np.linspace(0, len(flagged) - 1, 20).astype(int)]:
                rr = mpmath.mpf(float(r[i]))
                ref = float(sum(c * rr**dp * mpmath.besselj(1 + dc, s * rr)
                                for (dp, dc), c in terms.items()))
                assert abs(lg[i] - ref) <= 1e-13 * abs(ref), r[i]

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            trial.trial_quotient(geo.Disk((0, 0), 1.0), 0)


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
        r = geo.domain_metrics(triangle).equal_volume_radius
        assert cert.bound == upsilon1_poly_ball(Ball(2, r), 2)
        assert cert.valid

    def test_spoiled_operator_is_invalid(self, monkeypatch):
        # without its -(n-1)/r^2 term the operator inflates the quadrature
        # error estimate along with the quotient, which must not widen the gate
        exact = trial._apply_radial_operator

        def spoiled(terms, n, s):
            out = exact(terms, n, s)
            for key, coef in trial._terms_shift(terms, -2, n - 1).items():
                out[key] = out.get(key, 0) + coef
            return out

        monkeypatch.setattr(trial, "_apply_radial_operator", spoiled)
        disk = geo.Disk((0, 0), 1.0)
        with pytest.raises(trial.QuotientMismatchError):
            trial.trial_quotient(disk, 2)
        for d in (disk, geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))):
            for m in range(1, 5):
                assert not trial.certify_upper_bound(d, m).valid, (d, m)

    def test_json_fields_exact(self):
        cert = trial.certify_upper_bound(geo.Disk((0, 0), 1.0), 1)
        payload = json.loads(cert.to_json())
        assert set(payload) == {
            "domain",
            "m",
            "n",
            "area",
            "R",
            "center",
            "field_residual",
            "mean_residuals",
            "quotient_identity",
            "quotient_quadrature",
            "bound",
            "valid",
        }
        assert payload["n"] == 2
        assert len(payload["center"]) == 2
        assert len(payload["mean_residuals"]) == 2
