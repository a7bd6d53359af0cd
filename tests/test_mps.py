import functools
import io
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from scipy.special import jv
from conftest import NONSMOOTH, SMOOTH

from neuspec import geometry as geo
from neuspec import mps
from neuspec.ball import Ball, neumann_spectrum_ball
from neuspec.corpus import corpus_domain
from neuspec.special import first_radial_deriv_zero


@pytest.fixture(scope="module")
def disk():
    return geo.Disk((0, 0), 1.0)


@pytest.fixture(scope="module")
def disk_omega():
    return first_radial_deriv_zero(2)


class TestSigma:
    def test_dip_at_eigenfrequency(self, disk, disk_omega):
        basis = mps.MpsBasis(disk_omega, 15)
        assert mps.mps_sigma(disk, basis) < 1e-8

    def test_large_away_from_spectrum(self, disk):
        basis = mps.MpsBasis(1.5, 15)
        assert mps.mps_sigma(disk, basis) > 1e-2

    def test_sigma_in_unit_interval(self, disk):
        for w in (0.7, 1.5, 2.9):
            s = mps.mps_sigma(disk, mps.MpsBasis(w, 10))
            assert 0.0 <= s <= 1.0

    def test_translation_invariance(self, disk_omega):
        base = geo.Disk((0, 0), 1.0)
        moved = geo.Disk((5.0, -2.0), 1.0)
        for w in (1.5, disk_omega):
            s0 = mps.mps_sigma(base, mps.MpsBasis(w, 12))
            s1 = mps.mps_sigma(moved, mps.MpsBasis(w, 12))
            assert abs(s0 - s1) < 1e-10

    def test_basis_validation(self, disk):
        with pytest.raises(ValueError, match="problem must be one of"):
            mps.mps_find(disk, "dirichlet", (1.5, 2.0), 10)
        with pytest.raises(ValueError):
            mps.MpsBasis(-1.0, 10)
        with pytest.raises(ValueError):
            mps.MpsBasis(1.0, 61)


class TestFind:
    def test_disk_matches_exact_spectrum(self, disk):
        found = mps.mps_find(disk, "laplace_neumann", (1.5, 4.0), 20)
        good = [e for e in found if e.sigma < 1e-6]
        exact = [e.value for e in neumann_spectrum_ball(Ball(2, 1.0), 4, 1)]
        assert len(good) >= 3
        for e in good:
            nearest = min(exact, key=lambda v: abs(v - e.value))
            assert e.value == pytest.approx(nearest, rel=1e-7)

    def test_polyharm_value_is_fourth_power(self, disk, disk_omega):
        found = mps.mps_find(disk, "polyharm_neumann", (1.6, 2.1), 15)
        good = [e for e in found if e.sigma < 1e-6]
        assert len(good) == 1
        assert good[0].value == pytest.approx(disk_omega**4, rel=1e-7)

    # the mps-sweep windows and truncations: Delta^2 has the Neumann
    # Laplacian's frequencies, so the two problems share every minimum
    @pytest.mark.parametrize("n", [20, 30])
    @pytest.mark.parametrize("name", ["disk", "ellipse-1.5"])
    def test_problems_share_their_minima(self, name, n):
        d = corpus_domain(name)
        window = np.array([0.5, 1.05]) * first_radial_deriv_zero(2) / d.equal_area_radius()
        second = mps.mps_find(d, "laplace_neumann", window, n)
        fourth = mps.mps_find(d, "polyharm_neumann", window, n)
        assert len(second) >= 1
        assert [(e.omega, e.sigma) for e in fourth] == [(e.omega, e.sigma) for e in second]
        assert all(e.value == e.omega**4 for e in fourth)
        assert all(e.value == e.omega**2 for e in second)

    def test_empty_result_without_minima(self, disk):
        found = mps.mps_find(disk, "laplace_neumann", (0.5, 1.2), 12)
        assert [e for e in found if e.sigma < 1e-6] == []

    def test_truncation_stability(self, disk):
        v20 = mps.mps_find(disk, "laplace_neumann", (1.7, 2.0), 20)
        v40 = mps.mps_find(disk, "laplace_neumann", (1.7, 2.0), 40)
        a = min(v20, key=lambda e: e.sigma).value
        b = min(v40, key=lambda e: e.sigma).value
        assert a == pytest.approx(b, rel=1e-8)

    def test_bad_interval(self, disk):
        with pytest.raises(ValueError):
            mps.mps_find(disk, "laplace_neumann", (-1.0, 2.0), 10)


def _reference_find(d, problem, interval, N):
    """mps_find as first written: sigma at all 101 grid points, then the
    same refinement at every grid point lower than both neighbours."""
    omegas = mps._check_scan(d, interval, mps._SCAN_INTERVALS)
    f = mps._sigma_at(d, N)
    sigmas = [f(w) for w in omegas]
    out = []
    tol = mps._REFINE_TOL * (omegas[-1] - omegas[0])
    power = mps._PROBLEMS[problem]
    for i in range(1, len(omegas) - 1):
        if sigmas[i] < sigmas[i - 1] and sigmas[i] < sigmas[i + 1]:
            w_star, s_star = mps._parabolic_refine(f, omegas[i - 1:i + 2], sigmas[i - 1:i + 2], tol)
            out.append(mps.MpsEigenvalue(value=w_star**power, omega=w_star, sigma=s_star))
    return out


class TestCoarseScan:
    """The coarse-to-fine scan of mps_find on synthetic sigma curves, with no
    particular solutions: the curve is a function of the position on the
    101-point grid, in grid cells."""

    DISK = geo.Disk((0, 0), 1.0)
    # Weyl count (2^2 - 1^2) / 4 = 0.75 on the unit disk: stride 4
    WINDOW = (1.0, 2.0)

    def _find(self, monkeypatch, curve, window=WINDOW):
        """Minima found by mps_find and by the full-grid reference, in grid
        cells, and the grid indices mps_find evaluated."""
        lo, hi = window
        grid = list(np.linspace(lo, hi, mps._SCAN_INTERVALS + 1))
        evaluated = []

        def sigma_at(d, N):
            def f(w):
                if w in grid:
                    # exactly the index, so that symmetric curves tie
                    evaluated.append(grid.index(w))
                    return curve(evaluated[-1])
                return curve((w - lo) / (hi - lo) * mps._SCAN_INTERVALS)
            return f

        monkeypatch.setattr(mps, "_sigma_at", sigma_at)
        found = mps.mps_find(self.DISK, "laplace_neumann", window, 10)
        scan = list(evaluated)
        want = _reference_find(self.DISK, "laplace_neumann", window, 10)
        assert found == want
        cells = [(e.omega - lo) / (hi - lo) * mps._SCAN_INTERVALS for e in found]
        return cells, scan

    @staticmethod
    def _vs(*centers):
        """Lowest of several Vs, each 0.01 deeper than the next."""
        return lambda x: min(abs(x - c) + 0.01 * k for k, c in enumerate(centers))

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    @pytest.mark.parametrize("gap", [2, 5, 8])
    def test_two_vs(self, monkeypatch, gap, offset):
        first = 40.3 + offset
        cells, scan = self._find(monkeypatch, self._vs(first, first + gap))
        assert cells == pytest.approx([first, first + gap], abs=1e-6)
        assert len(set(scan)) < 60

    def test_minima_next_to_the_ends(self, monkeypatch):
        cells, _ = self._find(monkeypatch, self._vs(1.2, 98.8))
        assert cells == pytest.approx([1.2, 98.8], abs=1e-6)

    def test_descent_from_a_filled_stretch(self, monkeypatch):
        # the grid minimum 52 is a coarse point whose coarse neighbour 48 is
        # lower, so only the fill-in round 48 and the walk down from 51 reach it
        def curve(x):
            return min(abs(x - 47.7) + 0.01, abs(x - 52.0) + 0.6)

        cells, scan = self._find(monkeypatch, curve)
        assert cells == pytest.approx([47.7, 52.0], abs=1e-6)
        assert 53 in scan and not {54, 55} & set(scan)

    def test_coarse_tie_counts_as_a_minimum(self, monkeypatch):
        # a V midway between the coarse points 40 and 44, whose sigmas tie
        cells, _ = self._find(monkeypatch, self._vs(42.0))
        assert cells == pytest.approx([42.0], abs=1e-6)

    def test_monotone_curve_has_no_minima(self, monkeypatch):
        cells, scan = self._find(monkeypatch, lambda x: 1.0 + x)
        assert cells == []
        # 26 coarse points and the fill-in round the lower end, 0
        assert sorted(scan) == sorted([*range(0, 101, 4), 1, 2, 3])

    def test_wide_window_scans_the_full_grid(self, monkeypatch):
        # Weyl count (10^2 - 1^2) / 4 = 24.75 on the unit disk
        cells, scan = self._find(monkeypatch, lambda x: 1.0 + x, window=(1.0, 10.0))
        assert cells == []
        assert sorted(scan) == list(range(101))


@pytest.fixture(scope="class")
def shared_sigma():
    """mps._sigma_at with sigma remembered per (domain, N, omega), so the
    reference and the scan evaluate each omega once between them."""
    memo = {}
    sigma_at = mps._sigma_at

    def memo_sigma_at(d, N):
        f = sigma_at(d, N)
        seen = memo.setdefault((d, N), {})

        def g(w):
            if w not in seen:
                seen[w] = f(w)
            return seen[w]
        return g

    with pytest.MonkeyPatch.context() as m:
        m.setattr(mps, "_sigma_at", memo_sigma_at)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rank warnings
            yield


@pytest.mark.usefixtures("shared_sigma")
class TestScanMatchesFullGrid:
    @pytest.mark.parametrize("n", [10, 20])
    @pytest.mark.parametrize("name", SMOOTH)
    def test_bit_identical_on_the_corpus(self, name, n):
        d = corpus_domain(name)
        w = first_radial_deriv_zero(2) / d.equal_area_radius()
        minima = 0
        for problem in ("laplace_neumann", "polyharm_neumann"):
            # the mps-sweep window, then verify's round omega_FEM
            for window in ((0.5 * w, 1.05 * w), (0.75 * w, 1.25 * w)):
                want = _reference_find(d, problem, window, n)
                assert mps.mps_find(d, problem, window, n) == want, (problem, window)
                minima += len(want)
        assert minima >= 2

    @pytest.mark.parametrize("problem", ["laplace_neumann", "polyharm_neumann"])
    def test_wide_window_keeps_close_minima(self, disk, problem):
        # every 4th grid point alone would lose the minimum near 8.0152
        found = mps.mps_find(disk, problem, (1.0, 10.0), 10)
        assert found == _reference_find(disk, problem, (1.0, 10.0), 10)
        assert any(abs(e.omega - 8.0152) < 1e-4 and e.sigma < 1e-7 for e in found)


def _refine(f, xs, tol):
    """Run the refinement from the scan bracket xs; returns its result and
    every (x, sigma) it evaluated."""
    evals = []

    def counted(x):
        evals.append((x, f(x)))
        return evals[-1][1]

    return mps._parabolic_refine(counted, xs, [f(x) for x in xs], tol), evals


class TestRefine:
    """The refinement on synthetic sigma curves, with no particular solutions."""

    X_STAR = 1.2345678901
    TOL = 1e-9

    def _check(self, f, xs, x_star):
        (x, s), evals = _refine(f, xs, self.TOL)
        assert abs(x - x_star) <= self.TOL
        assert all(xs[0] < e < xs[2] for e, _ in evals)
        assert s == min([f(v) for v in xs] + [v for _, v in evals])
        assert s == f(x)
        return evals

    @pytest.mark.parametrize("offset", [-0.006, 0.0, 0.003, 0.009])
    def test_asymmetric_v_with_floor(self, offset):
        # sigma near an eigenfrequency: sqrt(s0^2 + c^2 d^2), here skewed
        def f(x):
            d = x - self.X_STAR
            return math.sqrt(1e-24 + (1.8 * d) ** 2) * (1 + 0.3 * d)

        c = self.X_STAR + offset
        evals = self._check(f, (c - 0.01, c, c + 0.012), self.X_STAR)
        assert len(evals) <= 6

    def test_exact_v_never_repeats_a_point(self):
        # sigma^2 is exactly a parabola, so every fit lands on x* itself;
        # the step of tol/2 keeps the next sigma from repeating the last
        def f(x):
            return math.sqrt(1e-24 + (1.8 * (x - self.X_STAR)) ** 2)

        c = self.X_STAR + 0.003
        evals = self._check(f, (c - 0.01, c, c + 0.01), self.X_STAR)
        xs = sorted([c - 0.01, c, c + 0.01] + [e for e, _ in evals])
        assert min(np.diff(xs)) >= 0.4 * self.TOL

    def test_vertex_of_three_points(self):
        def parabola(x):
            return 3.0 * (x - 0.25) ** 2 + 1.0

        pts = [(x, parabola(x)) for x in (0.5, -1.0, 2.0)]
        assert mps._parabolic_vertex(pts) == pytest.approx(0.25, abs=1e-15)
        # a concave fit has a maximum, not a minimum
        assert mps._parabolic_vertex([(x, -y) for x, y in pts]) is None
        assert mps._parabolic_vertex([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) is None
        assert mps._parabolic_vertex([(0.0, 1.0), (0.0, 2.0), (2.0, 3.0)]) is None

    def test_smooth_quadratic_minimum(self):
        def f(x):
            return 1e-3 + 4.0 * (x - self.X_STAR) ** 2

        c = self.X_STAR + 0.004
        evals = self._check(f, (c - 0.01, c, c + 0.01), self.X_STAR)
        assert len(evals) <= 8

    def test_vertex_outside_bracket_is_bisected(self, monkeypatch):
        # a cusp: sigma^2 = |d|^1.2 is sharper than any parabola, so a fit
        # through three points on one side lands past the bracket
        vertices = []
        vertex = mps._parabolic_vertex

        def spy(pts):
            vertices.append(vertex(pts))
            return vertices[-1]

        monkeypatch.setattr(mps, "_parabolic_vertex", spy)

        def f(x):
            return abs(x - self.X_STAR) ** 0.6

        c = self.X_STAR - 0.006
        evals = self._check(f, (c - 0.004, c, c + 0.018), self.X_STAR)
        replaced = [(v, e) for v, (e, _) in zip(vertices, evals)
                    if v is not None and abs(v - e) > self.TOL]
        assert replaced

    def test_constant_keeps_the_middle_point(self):
        xs = (1.0, 1.01, 1.02)
        (x, s), evals = _refine(lambda x: 0.25, xs, self.TOL)
        assert (x, s) == (1.01, 0.25)
        assert all(xs[0] < e < xs[2] for e, _ in evals)
        assert len(evals) <= mps._REFINE_STEPS


class TestVerifyCrossCheck:
    """MPS measures its own minimum in verify's window, centered on the FEM
    frequency, instead of stopping on the grid point at that center."""

    def test_disk_meets_the_exact_value(self, disk_omega):
        from neuspec import cli

        for m in (1, 2, 3, 4):
            report = cli.build_verification_report("disk", m)
            exact = disk_omega ** (4 * m)
            assert abs(report["upsilon1_mps"] - exact) <= 1e-12 * exact, m

    def test_ellipse_value_is_its_own(self):
        from neuspec import cli

        report = cli.build_verification_report("ellipse-1.5", 1)
        ups_mps, ups_fem = report["upsilon1_mps"], report["upsilon1_fem"]
        # a stop on the center's grid point read 1 ulp from the FEM value
        assert 1e-12 * ups_fem < abs(ups_mps - ups_fem) <= report["upsilon1_fem_error_bar"]


class TestCurve:
    def test_csv_format(self, disk):
        curve = mps.mps_scan(disk, (1.5, 2.5), 10, n_grid=8)
        buf = io.StringIO()
        curve.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "omega,sigma"
        assert len(lines) == 10
        w, s = lines[1].split(",")
        assert float(w) == curve.omegas[0]
        assert float(s) == curve.sigmas[0]

    @pytest.mark.parametrize("n_grid", [0, -3])
    def test_grid_below_one_rejected_before_any_sigma(self, disk, n_grid, monkeypatch):
        def no_sigma(*args):
            raise AssertionError("mps_sigma called with an empty grid")

        monkeypatch.setattr(mps, "mps_sigma", no_sigma)
        with pytest.raises(ValueError, match="n_grid"):
            mps.mps_scan(disk, (1.5, 2.5), 10, n_grid=n_grid)


class TestNonSmooth:
    @pytest.mark.parametrize("name", NONSMOOTH)
    def test_rejected_before_any_sigma(self, name, monkeypatch):
        def no_sigma(*args):
            raise AssertionError("mps_sigma called on a non-smooth domain")

        monkeypatch.setattr(mps, "mps_sigma", no_sigma)
        d = corpus_domain(name)
        with pytest.raises(ValueError, match="particular solutions need a smooth domain"):
            mps.mps_scan(d, (1.0, 2.0), 10)
        with pytest.raises(ValueError, match="particular solutions need a smooth domain"):
            mps.mps_find(d, "polyharm_neumann", (1.0, 2.0), 10)


# the mirrors of D2 about the centroid as factors (sx, sy) on (x, y): the
# identity, (x, -y), (-x, y) and (-x, -y)
_MIRRORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _mirror_signs(n, sx, sy):
    """chi(g) on each column of the collocation layout for the mirror (sx,
    sy): cos j theta picks up sx^j, sin j theta sy sx^(j+1)."""
    j = np.arange(n + 1)
    return np.concatenate([sx**j, (sy * sx ** (j + 1))[1:]]).astype(float)


def _orbit(blocks, n):
    """Rows on the whole mirror orbit from the rows at the first-quadrant
    points: the rows at g p are chi(g) times those at p, one block of rows
    per mirror in _MIRRORS order."""
    return tuple(np.concatenate([b * _mirror_signs(n, *g) for g in _MIRRORS]) for b in blocks)


def _first_quadrant(blocks):
    """The rows at the first-quadrant points of blocks on the orbit."""
    return tuple(b[:len(b) // 4] for b in blocks)


def _reference_blocks(d, basis):
    """The collocation blocks on the whole mirror orbit of the
    first-quadrant points, as first written: three jv calls per block for
    values and derivatives, and the points, normals and polar frame
    rebuilt from the mirrored coordinates on every call."""
    n, omega = basis.N, basis.omega
    center = d.centroid()
    nb = 4 * n + 8
    t = (np.arange(nb) + 0.5) / nb
    bpts, normals = d.boundary_frame(t)
    relb = bpts - center[None, :]
    quadrant = (relb[:, 0] > 0) & (relb[:, 1] > 0)
    reli = mps._interior_points(d, n // 2 + 1) - center[None, :]
    relb = np.concatenate([relb[quadrant] * g for g in _MIRRORS])
    normals = np.concatenate([normals[quadrant] * g for g in _MIRRORS])
    reli = np.concatenate([reli * g for g in _MIRRORS])

    def polar(rel):
        return np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])

    rb, thb = polar(relb)
    ri, thi = polar(reli)
    er = relb / rb[:, None]
    et = np.column_stack([-er[:, 1], er[:, 0]])
    n_dot_r = np.sum(normals * er, axis=1)
    n_dot_t = np.sum(normals * et, axis=1)
    orders = np.arange(n + 1, dtype=float)
    cosb = np.cos(orders[None, :] * thb[:, None])
    sinb = np.sin(orders[None, :] * thb[:, None])
    cosi = np.cos(orders[None, :] * thi[:, None])
    sini = np.sin(orders[None, :] * thi[:, None])

    def j_block(x):
        vals = jv(orders[None, :], x[:, None])
        vprime = 0.5 * (jv(orders[None, :] - 1.0, x[:, None]) - jv(orders[None, :] + 1.0, x[:, None]))
        return vals, vprime

    jb, jpb = j_block(omega * rb)
    ji, _ = j_block(omega * ri)
    # the normal derivative over omega, so that the rows have no units
    du_r_cos = jpb * cosb
    du_r_sin = jpb * sinb
    du_t_cos = -jb * orders[None, :] * sinb / (omega * rb[:, None])
    du_t_sin = jb * orders[None, :] * cosb / (omega * rb[:, None])
    rows_cos = n_dot_r[:, None] * du_r_cos + n_dot_t[:, None] * du_t_cos
    rows_sin = n_dot_r[:, None] * du_r_sin + n_dot_t[:, None] * du_t_sin
    boundary = np.concatenate([rows_cos, rows_sin[:, 1:]], axis=1)
    return boundary, np.concatenate([ji * cosi, (ji * sini)[:, 1:]], axis=1)


def _reference_sigma(d, basis):
    """sigma in one stage on the whole mirror orbit, from the program's
    own first-quadrant blocks: the Q factor of the whole column-scaled
    collocation matrix in the full basis, formed explicitly, and the SVD
    of its boundary rows."""
    boundary, interior = _orbit(mps._collocation_blocks(d, basis), basis.N)
    a = np.concatenate([boundary, interior], axis=0)
    scale = np.linalg.norm(a, axis=0)
    good = scale > 1e-280
    q, _ = np.linalg.qr(a[:, good] / scale[good])
    return float(scipy.linalg.svdvals(q[:boundary.shape[0]]).min())


# the reduction grid of test_sigma_matches_one_stage_form: N = 60 only where
# the column-scaled collocation matrix is well enough conditioned for two
# backward-stable sigmas to agree to 1e-12.  On ellipse-2.0 and the stadium
# its condition numbers near 7e10 and 5e8 at N = 60 put the class sigma up
# to 1.2e-10 (relative) from the orbit's one-stage sigma, about as far as
# the recurrence's sigma lies from that of the exact columns.
_REDUCTION_N = {"ellipse-2.0": (1, 5, 20, 30), "stadium": (1, 5, 20, 30)}


def _domain(name):
    return corpus_domain(name) if ":" not in name else geo.parse_domain(name)


class TestCollocation:
    # "offset0": the expansion center sits at the centroid.  The Bessel
    # tables come from the recurrence and the reference's from scipy's
    # jv, which differ by up to 5.9e-14 of a column's largest entry on
    # this grid (stadium, N = 60, omega = 40); the reference is the one
    # further from mpmath (scipy's high orders carry up to 7.7e-14
    # relative error, the recurrence's 1.3e-15).
    @pytest.mark.parametrize("n", [1, 5, 20, 60], ids=lambda n: f"{n}-offset0")
    @pytest.mark.parametrize("name", ["disk", "ellipse-2.0", "stadium"])
    def test_matches_reference_exactly(self, name, n):
        d = corpus_domain(name)
        for omega in (0.5, 2.3, 9.7, 40.0):
            basis = mps.MpsBasis(omega, n)
            got = mps._collocation_blocks(d, basis)
            want = _reference_blocks(d, basis)
            assert len(got) == len(want)
            for g, w in zip(got, _first_quadrant(want)):
                assert g.shape == w.shape
                assert np.all(np.abs(g - w) <= 7.1e-14 * np.max(np.abs(w), axis=0)), omega
            # the reference's rows at the mirror images, from their own
            # angles, are the class signs times the first-quadrant rows;
            # its cos/sin of j theta at theta up to pi carry up to 1.6e-12
            # of a column's largest entry (stadium, N = 60)
            for g, w in zip(_orbit(got, n), want):
                assert np.all(np.abs(g - w) <= 1e-11 * np.max(np.abs(w), axis=0)), omega

    def test_sigma_no_further_from_exact_columns_than_scipy(self, monkeypatch):
        # the mps-sweep window's lower end on ellipse-2.0 at N = 60, where
        # sigma from the recurrence is 1.4e-11 (relative) from the sigma
        # of the mpmath columns and sigma from scipy's columns 1.1e-9
        d = corpus_domain("ellipse-2.0")
        basis = mps.MpsBasis(0.5 * first_radial_deriv_zero(2) / d.equal_area_radius(), 60)

        # each order is asked for three times, as values and in derivatives
        @functools.cache
        def mpmath_j(v, x):
            with mpmath.workdps(30):
                return float(mpmath.besselj(v, x))

        def mpmath_jv(v, x):
            v, x = np.broadcast_arrays(v, x)
            return np.array([mpmath_j(a, b) for a, b in zip(v.ravel().tolist(), x.ravel().tolist())]
                            ).reshape(v.shape)

        got = mps.mps_sigma(d, basis)
        sigmas = {}
        for source in ("scipy", "mpmath"):
            with monkeypatch.context() as m:
                if source == "mpmath":
                    m.setattr(sys.modules[__name__], "jv", mpmath_jv)
                blocks = _first_quadrant(_reference_blocks(d, basis))
                m.setattr(mps, "_collocation_blocks", lambda d, b: blocks)
                sigmas[source] = mps.mps_sigma(d, basis)
        assert abs(got - sigmas["mpmath"]) <= abs(sigmas["scipy"] - sigmas["mpmath"])

    def test_sigma_at_large_argument(self, monkeypatch):
        # omega r reaches 1224 on ellipse-1.5: the J recurrence runs about
        # 1300 steps, through the oscillatory range, and still agrees with
        # scipy to 5.5e-14 of a column's largest entry
        d = corpus_domain("ellipse-1.5")
        basis = mps.MpsBasis(1000.0, 20)
        got = mps._collocation_blocks(d, basis)
        want = _first_quadrant(_reference_blocks(d, basis))
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-13 * np.max(np.abs(w), axis=0))
        with monkeypatch.context() as m:
            sigma = mps.mps_sigma(d, basis)
            m.setattr(mps, "_collocation_blocks", lambda d, b: want)
            reference = mps.mps_sigma(d, basis)
        assert math.isfinite(sigma)
        assert abs(sigma - reference) <= 1e-14

    @pytest.mark.parametrize("name", ["disk", "ellipse-1.2", "ellipse-1.5", "ellipse-2.0", "stadium",
                                      "superellipse:1.3,0.8,4"])
    def test_sigma_matches_one_stage_form(self, name):
        d = _domain(name)
        window = np.array([0.5, 1.05]) * first_radial_deriv_zero(2) / d.equal_area_radius()
        for n in _REDUCTION_N.get(name, (1, 5, 20, 30, 60)):
            minima = [e.omega for e in mps.mps_find(d, "laplace_neumann", window, n)]
            for omega in [*np.linspace(*window, 25), *minima]:
                basis = mps.MpsBasis(float(omega), n)
                got, want = mps.mps_sigma(d, basis), _reference_sigma(d, basis)
                assert abs(got - want) <= 1e-12 * want + 1e-15, (n, omega)

    # at these low frequencies the high orders underflow: 28 of the 121
    # columns on the disk, 6 of the 81 on the stadium
    @pytest.mark.parametrize("name, omega, n", [("disk", 0.01, 60), ("stadium", 1e-3, 40)])
    def test_sigma_with_dropped_columns(self, name, omega, n):
        d = corpus_domain(name)
        basis = mps.MpsBasis(omega, n)
        a = np.concatenate(_reference_blocks(d, basis), axis=0)
        assert np.any(np.linalg.norm(a, axis=0) <= 1e-280)
        got, want = mps.mps_sigma(d, basis), _reference_sigma(d, basis)
        assert abs(got - want) <= 1e-12 * want + 1e-15

    def test_rank_deficient_collocation_warns(self, disk, monkeypatch):
        # cos 2 theta and cos 4 theta share a class; the columns of a class
        # copied into another's would break the mirror symmetry instead.
        # sigma of a singular trial space hangs on rounding, so only its
        # range is checked
        boundary, interior = mps._collocation_blocks(disk, mps.MpsBasis(1.5, 8))
        boundary, interior = boundary.copy(), interior.copy()
        boundary[:, 4] = boundary[:, 2]
        interior[:, 4] = interior[:, 2]
        monkeypatch.setattr(mps, "_collocation_blocks", lambda d, b: (boundary, interior))
        with pytest.warns(RuntimeWarning, match="nearly rank deficient"):
            sigma = mps.mps_sigma(disk, mps.MpsBasis(1.5, 8))
        assert 0.0 <= sigma <= 1.0

    def test_top_block_of_q_is_identity_minus_t(self):
        # dtpqrt's reflectors are [e_i; v_i]: with one block the top rows of
        # Q = I - W T W^T, W = [I; V], are I - T
        rng = np.random.default_rng(3)
        k, m = 30, 17
        top = np.triu(rng.standard_normal((k, k)))
        below = rng.standard_normal((m, k))
        t = scipy.linalg.lapack.dtpqrt(0, k, top, below)[2]
        q = np.linalg.qr(np.concatenate([top, below]))[0]
        assert np.max(np.abs(np.eye(k) - t - q[:k])) <= 1e-14

    def test_boundary_bessel_once_per_distinct_radius(self, disk, monkeypatch):
        n, omega = 20, 1.9
        rb_distinct, rb_index, ri = mps._collocation_geometry(disk, n)[:3]
        # the disk's 22 first-quadrant points have 1 distinct radius
        assert rb_distinct.size < rb_index.size == n + 2
        calls = []

        def spy(x, top, real=mps.bessel_orders):
            calls.append((np.ravel(x), top))
            return real(x, top)

        monkeypatch.setattr(mps, "bessel_orders", spy)
        mps._collocation_blocks(disk, mps.MpsBasis(omega, n))
        # one table per call, over each distinct boundary radius once and
        # then the interior points
        assert len(calls) == 1
        x, top = calls[0]
        assert np.array_equal(x, np.concatenate([omega * rb_distinct, omega * ri]))
        assert top == n + 1

    def test_cached_geometry_is_read_only(self):
        # N + 2 first-quadrant boundary points, less the stadium's 4 on the
        # axes at odd N, and N // 2 + 1 interior points
        for name, n, points in (("disk", 5, 7), ("stadium", 5, 6), ("stadium", 20, 22)):
            geometry = mps._collocation_geometry(corpus_domain(name), n)
            assert geometry[1].size == points and geometry[2].size == n // 2 + 1
            for arr in geometry:
                with pytest.raises(ValueError):
                    arr[0] = 1.0


class TestSymmetry:
    """The parity-class sigma rests on every smooth shape's boundary rule
    mapping to itself under both mirrors about the centroid."""

    @pytest.mark.parametrize("n", [1, 5, 20, 30])
    @pytest.mark.parametrize("name", [*SMOOTH, "superellipse:1.3,0.8,2.5", "disk:3,-2,0.5"])
    def test_rule_points_are_mirror_symmetric(self, name, n):
        d = _domain(name)
        nb = 4 * n + 8
        pts, normals = d.boundary_frame((np.arange(nb) + 0.5) / nb)
        rel = pts - d.centroid()[None, :]
        size = np.max(np.hypot(rel[:, 0], rel[:, 1]))
        for g in _MIRRORS[1:]:
            # each mirror image's nearest rule point, and the normal there
            gap = np.hypot(*((rel * g)[:, None, :] - rel[None, :, :]).transpose(2, 0, 1))
            near = np.argmin(gap, axis=1)
            assert np.max(gap[np.arange(nb), near]) <= 1e-12 * size, g
            assert np.max(np.abs(normals * g - normals[near])) <= 1e-12, g

    @pytest.mark.parametrize("w", [0.9, 2.5, 3.7])
    def test_sigma_is_scale_free(self, w):
        sigmas = [mps.mps_sigma(geo.Disk((0, 0), r), mps.MpsBasis(w / r, 20))
                  for r in (2.0**-30, 1.0, 2.0**30)]
        assert all(abs(s - sigmas[1]) <= 1e-12 * sigmas[1] for s in sigmas)
