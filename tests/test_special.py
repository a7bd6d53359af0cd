import math

import mpmath
import numpy as np
import pytest

from neuspec import special as sp


def series_bessel_j(nu, x, terms=40, dps=50):
    """Alternating power series for J_nu evaluated in extended precision.

    Independent oracle: no scipy, no recurrences.
    """
    with mpmath.workdps(dps):
        nu_m = mpmath.mpf(nu)
        x_m = mpmath.mpf(x)
        acc = mpmath.mpf(0)
        for k in range(terms):
            term = (-1) ** k * (x_m / 2) ** (nu_m + 2 * k) / (
                mpmath.factorial(k) * mpmath.gamma(nu_m + k + 1)
            )
            acc += term
        return float(acc)


def bisect_series_j1prime_zero(lo=1.5, hi=2.0):
    """First maximum of J_1 located by bisection on the series derivative."""
    def deriv(x):
        return series_bessel_j(0, x) - series_bessel_j(2, x)  # 2 J_1'(x)

    flo = deriv(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = deriv(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBesselJ:
    def test_at_zero(self):
        assert sp.bessel_j(0, 0.0) == 1.0
        assert sp.bessel_j(1, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
        assert abs(sp.bessel_j(0.5, math.pi)) < 1e-15
        x = 2.3
        expect = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert sp.bessel_j(0.5, x) == pytest.approx(expect, rel=1e-13)

    def test_against_series_oracle(self):
        assert sp.bessel_j(1, 1.8411838) == pytest.approx(
            series_bessel_j(1, 1.8411838), rel=1e-12
        )
        assert sp.bessel_j(1, 1.8411838) == pytest.approx(0.581865, abs=1e-6)
        for nu in (0.0, 0.5, 1.0, 2.5, 7.0):
            for x in (0.3, 1.0, 4.7, 11.0):
                assert sp.bessel_j(nu, x) == pytest.approx(
                    series_bessel_j(nu, x), rel=1e-12, abs=1e-300
                )

    def test_large_argument_against_series(self):
        # longer extended-precision series still converges at x = 40
        assert sp.bessel_j(2, 40.0) == pytest.approx(
            series_bessel_j(2, 40.0, terms=120), rel=1e-11
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sp.bessel_j(1, -0.5)
        with pytest.raises(ValueError):
            sp.bessel_j(1, math.nan)
        with pytest.raises(ValueError):
            sp.bessel_j(-1.0, 1.0)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 2.0])
        vals = sp.bessel_j(0, x)
        assert vals.shape == (3,)
        assert vals[0] == 1.0


class TestBesselJPrime:
    def test_at_zero(self):
        assert sp.bessel_j_prime(0, 0.0) == 0.0

    def test_zero_of_derivative(self):
        z = bisect_series_j1prime_zero()
        assert abs(sp.bessel_j_prime(1, z)) < 1e-9
        assert abs(sp.bessel_j_prime(1, 1.8411838)) < 1e-7

    def test_recurrence_form(self):
        # J_1'(x) = J_0(x) - J_1(x)/x
        x = 1.0
        expect = sp.bessel_j(0, x) - sp.bessel_j(1, x) / x
        assert sp.bessel_j_prime(1, x) == pytest.approx(expect, rel=1e-14)

    def test_finite_difference_consistency(self):
        h = 1e-6
        for nu in (0.5, 1.0, 1.5, 2.0, 3.0):
            for x in np.linspace(0.1, 40.0, 37):
                fd = (sp.bessel_j(nu, x + h) - sp.bessel_j(nu, x - h)) / (2 * h)
                assert sp.bessel_j_prime(nu, x) == pytest.approx(fd, abs=1e-7)


class TestRecurrenceInvariant:
    def test_three_term_recurrence(self):
        xs = np.linspace(0.1, 40.0, 113)
        for nu in (0.5, 1.0, 1.5, 2.0, 3.0):
            if nu == 0.5:
                # J_{-1/2} by closed form; the package rejects negative orders
                jm = np.sqrt(2.0 / (np.pi * xs)) * np.cos(xs)
            else:
                jm = sp.bessel_j(nu - 1.0, xs)
            jp = sp.bessel_j(nu + 1.0, xs)
            jc = sp.bessel_j(nu, xs)
            resid = jm + jp - (2 * nu / xs) * jc
            scale = np.abs(jm) + np.abs(jp) + np.abs((2 * nu / xs) * jc)
            assert np.all(np.abs(resid) <= 1e-11 * np.maximum(scale, 1e-30))


class TestBesselOrders:
    """Tables of J_k(x), k = 0..61, from Miller's recurrence."""

    TOP = 61
    # log-spaced over [1e-12, 200], with the first zeros j_0,1 of J_0 and
    # j_1,1 of J_1, where one of the two normalizations would divide by zero
    XS = np.unique(np.concatenate([np.geomspace(1e-12, 200.0, 60),
                                   [2.404825557695773, 3.8317059702075125]]))

    def test_against_mpmath(self):
        from scipy.special import jv

        with mpmath.workdps(40):
            exact = [[mpmath.besselj(k, x) for k in range(self.TOP + 1)] for x in self.XS]
        exact = np.array(exact, dtype=float)
        got = sp.bessel_orders(self.XS, self.TOP)
        scipy_values = jv(np.arange(self.TOP + 1.0)[None, :], self.XS[:, None])
        row_max = np.max(np.abs(exact), axis=1)

        def worst(values):
            return np.max(np.max(np.abs(values - exact), axis=1) / row_max)

        # measured: 2.2e-15 (scipy 4.2e-14, at x = 200)
        assert got.shape == exact.shape
        assert worst(got) <= 2.0 * worst(scipy_values)

    def test_finite_down_to_tiny_arguments(self):
        xs = np.array([1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-3, 1.0, 1e3])
        got = sp.bessel_orders(xs, self.TOP)
        assert np.all(np.isfinite(got))
        # J_0 = 1 to rounding at the tiny arguments, and J_1 = x / 2 there
        assert got[:4, 0] == pytest.approx(1.0, rel=1e-15)
        assert got[:4, 1] == pytest.approx(xs[:4] / 2, rel=1e-15)

    def test_zero_argument_and_orders(self):
        assert sp.bessel_orders(0.0, 3).tolist() == [[1.0, 0.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            sp.bessel_orders([-1.0], 3)


class TestRadialProfile:
    def test_derivative_zero_at_radius(self):
        p = sp.RadialProfile.for_ball(2, 1.0)
        _, gp = sp.radial_profile_eval(p, 1.0)
        assert abs(gp) < 1e-10

    def test_value_at_origin(self):
        for n in (2, 3, 5):
            p = sp.RadialProfile.for_ball(n, 1.0)
            g, gp = sp.radial_profile_eval(p, 0.0)
            assert g == 0.0
            assert gp == pytest.approx(p.scale / n, rel=1e-14)

    def test_n3_closed_form(self):
        p = sp.RadialProfile(3, 1.0, sp.first_radial_deriv_zero(3))
        g, gp = sp.radial_profile_eval(p, 1.0)
        assert g == pytest.approx(math.sin(1.0) - math.cos(1.0), rel=1e-13)
        assert g == pytest.approx(0.301169, abs=1e-6)
        r = 0.37
        expect = math.sin(r) / r**2 - math.cos(r) / r
        assert sp.radial_profile_eval(p, r)[0] == pytest.approx(expect, rel=1e-12)

    def test_series_matches_direct_at_switch(self):
        p = sp.RadialProfile.for_ball(2, 1.0)
        for r in (0.05, 0.24, 0.28, 0.4):
            g, gp = sp.radial_profile_eval(p, r)
            x = p.scale * r
            assert g == pytest.approx(series_bessel_j(1, x), rel=1e-13)

    def test_invalid_pairing_rejected(self):
        with pytest.raises(ValueError):
            sp.RadialProfile(2, 1.0, 1.0)  # g'(1) far from zero at scale 1

    def test_ode_residual_invariant(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5):
            p = sp.RadialProfile.for_ball(n, 1.3)
            r = rng.uniform(0.05, 1.6, size=100)
            g, gp = sp.radial_profile_eval(p, r)
            gpp = sp.radial_profile_second(p, r)
            resid = gpp + (n - 1) / r * gp + (p.mu1 - (n - 1) / r**2) * g
            scale = np.abs(gpp) + np.abs((n - 1) / r * gp) + np.abs(
                (p.mu1 - (n - 1) / r**2) * g
            )
            assert np.all(np.abs(resid) <= 1e-10 * np.maximum(scale, 1e-30))


def scan_zeros_scalar(n, j, count, step=0.1):
    """The zero scan with one bracket bisected at a time, in Python floats."""
    def f(r):
        return float(sp._deriv_indicator(n, j, np.array([r]))[0])

    a = (n - 2) / 2.0
    nu = j + a
    upper = nu + (count + 2 + nu / 2) * math.pi + 10.0
    grid = np.arange(step, upper, step)
    vals = sp._deriv_indicator(n, j, grid)
    signs = np.sign(vals)
    zeros = []
    for k in np.nonzero(signs[:-1] * signs[1:] <= 0.0)[0]:
        if vals[k] == 0.0 and vals[k + 1] == 0.0:
            continue
        lo, hi = float(grid[k]), float(grid[k + 1])
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-13:
                break
            fmid = f(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (flo < 0.0) == (fmid < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        z = 0.5 * (lo + hi)
        fz = f(z)
        fp = float(sp._deriv_indicator_prime(n, j, np.array([z]))[0])
        if fp != 0.0 and abs(fz / fp) < 1e-6:
            z -= fz / fp
        zeros.append(z)
        if len(zeros) >= count:
            break
    return zeros


class TestDerivZeros:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_polish_matches_scalar_loop(self, n):
        for j in (*range(0, 81, 8), 1, 3):
            assert np.array_equal(sp._scan_zeros(n, j, 8), scan_zeros_scalar(n, j, 8)), j

    @pytest.mark.parametrize("n", [2, 3])
    def test_sliced_scan_matches_full_grid(self, n):
        # the scan stops at `count` brackets; the zeros are those of the grid up to `upper`
        for j in (0, 1, 9, 40, 80):
            for count in (1, 7, 30):
                nu = j + (n - 2) / 2.0
                grid = np.arange(0.1, nu + (count + 2 + nu / 2) * math.pi + 10.0, 0.1)
                vals = sp._deriv_indicator(n, j, grid)
                signs = np.sign(vals)
                flips = np.nonzero(signs[:-1] * signs[1:] <= 0.0)[0]
                flips = flips[(vals[flips] != 0.0) | (vals[flips + 1] != 0.0)][:count]
                full = sp._polish_zeros(n, j, grid[flips], grid[flips + 1])
                assert np.array_equal(sp._scan_zeros(n, j, count), full), (j, count)

    def test_first_zero_n2(self):
        z = sp.first_radial_deriv_zero(2)
        assert z == pytest.approx(bisect_series_j1prime_zero(), abs=1e-10)
        assert z == pytest.approx(1.8411838, abs=1e-6)

    def test_first_zero_n3(self):
        # d/dr (sin r / r^2 - cos r / r) = 0: bisection on the closed form
        def deriv(r):
            return (
                math.cos(r) / r**2
                - 2 * math.sin(r) / r**3
                + math.sin(r) / r
                + math.cos(r) / r**2
            )

        lo, hi = 1.8, 2.3
        flo = deriv(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = deriv(mid)
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        assert sp.first_radial_deriv_zero(3) == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert sp.first_radial_deriv_zero(3) == pytest.approx(2.0815760, abs=1e-6)

    def test_self_consistency(self):
        for n in (2, 3, 4, 7, 16):
            z = sp.first_radial_deriv_zero(n)
            p = sp.RadialProfile(n, 1.0, z)
            _, gp = sp.radial_profile_eval(p, z)
            assert abs(gp) <= 1e-12 * max(1.0, abs(p.scale))

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            sp.first_radial_deriv_zero(1)
        with pytest.raises(ValueError):
            sp.first_radial_deriv_zero(17)

    def test_table_values_and_ordering(self):
        rows = [sp.radial_deriv_zeros(2, j, 3) for j in range(4)]
        assert rows[1][0] == pytest.approx(1.8411838, abs=1e-6)
        # first positive zero of J_0' (= -J_1) comes after the j=1 zero
        assert rows[0][0] == pytest.approx(3.8317060, abs=1e-6)
        assert rows[1][0] < rows[0][0]
        for row in rows:
            assert len(row) == 3
            assert row[0] < row[1] < row[2]

    def test_zero_row_input_checks(self):
        for n, j, count in ((1, 0, 1), (2, -1, 1), (2, 0, 0)):
            with pytest.raises(ValueError):
                sp.radial_deriv_zeros(n, j, count)

    def test_table_reaches_the_ball_caps(self):
        # the l-th zero grows like (l + j/2 - 3/4) pi: the scan must reach it
        # for every degree up to the caps of neumann_spectrum_ball
        from scipy.special import jnp_zeros

        for j in range(81):
            got = np.array(sp.radial_deriv_zeros(2, j, 60))
            assert np.allclose(got, jnp_zeros(j, 60), rtol=1e-13, atol=0), j

    def test_zero_quality_contract(self):
        for j in range(3):
            for z in sp.radial_deriv_zeros(3, j, 2):
                f = sp._deriv_indicator(3, j, np.array([z]))[0]
                fp = sp._deriv_indicator_prime(3, j, np.array([z]))[0]
                assert abs(f) <= 1e-12 * max(1.0, abs(fp) * z)
