import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import moved_polygon
from scipy.special import jv

from neuspec import cli, quadrature, trial
from neuspec import geometry as geo
from neuspec.corpus import CORPUS
from neuspec.ball import Ball, upsilon1_ball, upsilon1_poly_ball
from neuspec.special import radial_profile_value


@pytest.fixture(scope="module")
def triangle():
    return geo.Polygon(((0, 0), (2, 0), (0.4, 1.1)))


def _field(d, x0, p=None):
    """Centering field int (x - x0) G(|x - x0|)/|x - x0| dx, on the
    quadrature find_center uses."""
    if p is None:
        p = trial._profile(d)
    pts, w = trial._fan(d, trial._FAN_NODES)
    v, _ = trial._field_and_scale(p, pts, w, np.asarray(x0, dtype=float))
    return v


L_SHAPE = "polygon:0,0;2,0;2,1;1,1;1,2;0,2"
THIN_L = "polygon:0,0;4,0;4,0.25;0.25,0.25;0.25,4;0,4"


class TestFan:
    @pytest.mark.parametrize("spec", [*CORPUS.values(), L_SHAPE, THIN_L, "superellipse:1,1,40"])
    def test_weights_sum_to_area(self, spec):
        d = geo.parse_domain(spec)
        _, w = trial._fan(d, trial._FAN_NODES)
        assert abs(float(np.sum(w)) - d.area()) <= 1e-13 * d.area()

    def test_center_outside_the_domain(self, monkeypatch):
        # from (3, 3), outside the thin L, the weights change sign
        d = geo.parse_domain(THIN_L)
        monkeypatch.setattr(geo.Polygon, "centroid", lambda self: np.array([3.0, 3.0]))
        _, w = trial._fan.__wrapped__(d, trial._FAN_NODES)
        assert np.any(w < 0)
        assert abs(float(np.sum(w)) - d.area()) <= 1e-13 * d.area()

    def test_certificate_builds_no_mesh(self, monkeypatch):
        calls = []
        triangulate = quadrature.triangulate

        def counting(d, h):
            calls.append(h)
            return triangulate(d, h)

        monkeypatch.setattr(quadrature, "triangulate", counting)
        quadrature.cached_mesh.cache_clear()
        report = cli.build_verification_report(CORPUS["square"], 1, [0.16, 0.12, 0.08],
                                               use_mps=False)
        assert report["certificate"]["valid"]
        assert calls == [0.16, 0.12, 0.08]  # the FEM meshes only


class TestHopfField:
    def test_disk_center_is_zero(self):
        d = geo.Disk((0, 0), 1.0)
        p = trial._profile(d)
        v = _field(d, (0.0, 0.0), p)
        scale = math.pi * 0.3  # order of int |G|
        assert np.hypot(*v) < 1e-10 * scale

    def test_ellipse_origin_is_zero(self):
        d = geo.Ellipse(1.5, 2 / 3)
        v = _field(d, (0.0, 0.0))
        assert np.hypot(*v) < 1e-10

    def test_translation_equivariance(self, triangle):
        p = trial._profile(triangle)
        x0 = (0.7, 0.4)
        v0 = _field(triangle, x0, p)
        shift = ((17.0, -3.0))
        moved = moved_polygon(triangle, shift=shift)
        v1 = _field(moved, (x0[0] + shift[0], x0[1] + shift[1]), p)
        assert np.allclose(v0, v1, rtol=0, atol=1e-12)

    def test_off_center_field_points_inward(self):
        d = geo.Disk((0, 0), 1.0)
        v = _field(d, (0.4, 0.0))
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
        c = trial.find_center(triangle)
        p = trial._profile(triangle)
        pts, w = trial._fan(triangle, trial._FAN_NODES)
        v, scale = trial._field_and_scale(p, pts, w, c)
        assert np.hypot(*v) / scale < 1e-10
        assert triangle.contains(np.array([c]))[0]

    def test_triangle_center_matches_grid_scan(self, triangle):
        c = trial.find_center(triangle)
        p = trial._profile(triangle)
        pts, w = trial._fan(triangle, trial._FAN_NODES)
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
        c1 = trial.find_center(moved_polygon(triangle, angle=ang, about=about))
        rc = np.array(
            [
                math.cos(ang) * c0[0] - math.sin(ang) * c0[1],
                math.sin(ang) * c0[0] + math.cos(ang) * c0[1],
            ]
        )
        assert np.hypot(*(c1 - rc)) < 1e-10

    def test_mean_zero_after_centering(self, triangle):
        p = trial._profile(triangle)
        c = trial.find_center(triangle)
        pts, w = trial._fan(triangle, trial._FAN_NODES)
        v, scale = trial._field_and_scale(p, pts, w, c)
        assert abs(v[0]) / scale < 1e-8
        assert abs(v[1]) / scale < 1e-8

    def test_one_hull_per_domain(self, monkeypatch):
        hull, calls = geo.ConvexHull, []

        def counting_hull(pts):
            calls.append(len(pts))
            return hull(pts)

        monkeypatch.setattr(geo, "ConvexHull", counting_hull)
        trial.find_center.cache_clear()
        d = geo.Ellipse(1.3, 0.7)
        for m in (1, 2):
            assert trial.certify_upper_bound(d, m).valid
        assert calls == [512]


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
        p = trial._profile(d)
        terms = trial._profile_terms(p)
        terms = trial._apply_radial_operator(terms, p.n, p.scale)
        r = np.linspace(0.01, 1.4, 57)
        lg = trial._Expansion(terms, p).values(trial._RadialTable(p, r))
        g = radial_profile_value(p, r)
        assert np.allclose(lg, -p.mu1 * g, rtol=1e-11, atol=1e-13)

    def test_small_radius_cancellation_guard(self):
        # iterated operator at tiny radii routes through the exact Taylor expansion
        d = geo.Disk((0, 0), 1.0)
        p = trial._profile(d)
        terms = trial._profile_terms(p)
        for _ in range(2):
            terms = trial._apply_radial_operator(terms, p.n, p.scale)
        r = np.array([1e-7, 1e-5, 1e-3])
        lg = trial._Expansion(terms, p).values(trial._RadialTable(p, r))
        g = radial_profile_value(p, r)
        assert np.allclose(lg, p.mu1**2 * g, rtol=1e-9)

    @pytest.mark.parametrize("m", [3, 4])
    def test_tiny_radii_follow_the_profile(self, m):
        # the double sum cancels by about r^(-2m) here; the series does not
        d = geo.Disk((0, 0), 1.0)
        p = trial._profile(d)
        terms = trial._profile_terms(p)
        for _ in range(m):
            terms = trial._apply_radial_operator(terms, p.n, p.scale)
        r = np.array([1e-12, 1e-9, 1e-7, 1e-5])
        g = radial_profile_value(p, r)
        together = trial._Expansion(terms, p).values(trial._RadialTable(p, r))
        one_by_one = np.concatenate([
            trial._Expansion(terms, p).values(trial._RadialTable(p, r[i:i + 1])) for i in range(4)])
        for lg in (together, one_by_one):
            assert np.allclose(lg, (-p.mu1) ** m * g, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_quadrature_points_follow_the_profile(self, m):
        # every point of the certificate's main fan, flagged or not
        for d in (geo.Disk((0, 0), 1.0), geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))):
            p = trial._profile(d)
            terms = trial._profile_terms(p)
            for _ in range(m):
                terms = trial._apply_radial_operator(terms, p.n, p.scale)
            pts, _ = trial._fan(d, trial._FAN_NODES)
            c = d.centroid()
            r = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
            g = radial_profile_value(p, r)
            lg = trial._Expansion(terms, p).values(trial._RadialTable(p, r))
            assert np.allclose(lg, (-p.mu1) ** m * g, rtol=1e-12, atol=0), d

    def test_flagged_quadrature_points_match_mpmath(self):
        # disk m=4: compare near-center values with a per-point 50-digit sum
        d = geo.Disk((0, 0), 1.0)
        p = trial._profile(d)
        s = p.scale
        terms = trial._profile_terms(p)
        for _ in range(4):
            terms = trial._apply_radial_operator(terms, p.n, s)
        pts, _ = trial._fan(d, trial._FAN_NODES)
        r = np.hypot(pts[:, 0], pts[:, 1])
        lg = trial._Expansion(terms, p).values(trial._RadialTable(p, r))
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

    @pytest.mark.parametrize("r_max", [1e-3, 0.05, 0.3])
    def test_taylor_coefficients_are_exact(self, r_max):
        # L J_1(s r) = -s^2 J_1(s r), so the exact expansion of L^m G is that
        # of (-s^2)^m J_1(s r): odd powers from r^1, each rounded once
        for d in (geo.Disk((0, 0), 1.0), geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))):
            p = trial._profile(d)
            s = Fraction(p.scale)
            terms = trial._profile_terms(p)
            for m in range(1, 9):
                terms = trial._apply_radial_operator(terms, p.n, p.scale)
                coeffs = trial._Expansion(terms, p).taylor(r_max)
                assert sorted(coeffs) == list(range(1, max(coeffs) + 1, 2)), (d, m)
                for e, c in coeffs.items():
                    j = (e - 1) // 2
                    exact = ((-s * s) ** m * (-1) ** j * (s / 2) ** e
                             / (math.factorial(j) * math.factorial(j + 1)))
                    assert c == float(exact), (d, m, e)

    def test_one_expansion_serves_every_cut(self):
        # both fans of a quotient cut one set of exact sums at their own
        # radii: in either order each cut matches a fresh expansion's
        cuts = [1e-6, 1e-3, 0.05, 0.3, 1.0]
        for d in (geo.Disk((0, 0), 1.0), geo.Ellipse(1.5, 2 / 3)):
            p = trial._profile(d)
            terms = trial._profile_terms(p)
            for m in range(1, 9):
                terms = trial._apply_radial_operator(terms, p.n, p.scale)
                fresh = {r: trial._Expansion(terms, p).taylor(r) for r in cuts}
                for order in (cuts, cuts[::-1]):
                    shared = trial._Expansion(terms, p)
                    assert {r: shared.taylor(r) for r in order} == fresh, (d, m)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            trial.trial_quotient(geo.Disk((0, 0), 1.0), 0)

    @pytest.mark.parametrize("m", [5, 8])
    def test_orders_above_the_table_top(self, m):
        # m > 4 asks for orders above the recurrence's top, evaluated directly
        for d in (geo.Disk((0, 0), 1.0), geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))):
            q = trial.trial_quotient(d, m)
            assert q.quadrature == pytest.approx(q.identity, rel=1e-12), d


class TestRadialTable:
    def test_low_orders_from_two_direct_calls(self, monkeypatch):
        calls = []

        def counting_jv(k, x):
            calls.append(k)
            return jv(k, x)

        monkeypatch.setattr(trial, "_jv", counting_jv)
        p = trial._profile(geo.Disk((0, 0), 1.0))
        table = trial._RadialTable(p, np.linspace(0.0, 1.0, 101))
        for k in range(10):
            table.bessel(float(k))
        assert len(calls) == 2
        table.bessel(11.0)
        assert len(calls) == 3

    def test_columns_match_mpmath(self):
        p = trial._profile(geo.Disk((0, 0), 1.0))
        x = np.geomspace(1e-8, 10.0, 161)
        table = trial._RadialTable(p, x / p.scale)
        cols = np.array([table.bessel(float(k)) for k in range(10)])
        xs = p.scale * table.r  # the arguments the table evaluated
        with mpmath.workdps(40):
            for i, xi in enumerate(xs):
                ref = np.array([float(mpmath.besselj(k, mpmath.mpf(float(xi)))) for k in range(10)])
                assert np.max(np.abs(cols[:, i] - ref)) <= 1e-14 * np.max(np.abs(ref)), xi

    def test_underflow_falls_back_to_direct_values(self):
        p = trial._profile(geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1))))
        table = trial._RadialTable(p, np.array([1e-40, 1e-33, 0.3]))
        x = p.scale * table.r[:2]
        assert jv(9, x[1]) == 0.0  # scipy's J_9 underflows at both radii
        for k in range(10):
            col = table.bessel(float(k))
            assert np.all(np.isfinite(col))
            assert np.array_equal(col[:2], jv(k, x)), k


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

    def test_coefficients_beyond_doubles_invalidate(self):
        # at R = 1e-11 the m = 4 Taylor coefficients exceed the double range
        cert = trial.certify_upper_bound(geo.Disk((0, 0), 1e-11), 4)
        assert not cert.valid
        assert math.isnan(cert.quotient_quadrature)

    def test_tables_hold_one_domain(self):
        disk, square = geo.Disk((0, 0), 1.0), geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        for d in (disk, square):
            for m in (1, 2):
                assert trial.certify_upper_bound(d, m).valid
        assert trial._domain_tables.cache_info().currsize == 1
        hits = trial._domain_tables.cache_info().hits
        assert len(trial._domain_tables(square)) == 2  # the fan at n and at n/2
        assert trial._domain_tables.cache_info().hits == hits + 1

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

    def test_certificate_leaves_mpmath_unimported(self):
        code = ("import sys\n"
                "from neuspec import cli, geometry, trial\n"
                "assert trial.certify_upper_bound(geometry.Disk((0, 0), 1.0), 4).valid\n"
                "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n")
        env = dict(os.environ, PYTHONPATH=str(Path(trial.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
