import io

import numpy as np
import pytest

from neuspec import ball as bl
from neuspec.special import first_radial_deriv_zero


@pytest.fixture(scope="module")
def disk():
    return bl.Ball(2, 1.0)


class TestFirstValues:
    def test_mu1_matches_zero_square(self, disk):
        assert bl.mu1_ball(disk) == (first_radial_deriv_zero(2) / 1.0) ** 2
        assert bl.mu1_ball(disk) == pytest.approx(3.389958, abs=1e-6)

    def test_mu1_n3(self):
        b = bl.Ball(3, 1.0)
        assert bl.mu1_ball(b) == pytest.approx(first_radial_deriv_zero(3) ** 2, rel=1e-15)
        # quoted 7-digit reference values carry their own rounding
        assert bl.mu1_ball(b) == pytest.approx(4.332957, rel=5e-7)
        assert bl.upsilon1_ball(b) == pytest.approx(18.77451, rel=2e-6)

    def test_scaling_exact(self, disk):
        assert bl.mu1_ball(bl.Ball(2, 2.0)) == bl.mu1_ball(disk) / 4.0
        assert bl.upsilon1_ball(bl.Ball(2, 2.0)) == bl.upsilon1_ball(disk) / 16.0
        assert bl.upsilon1_poly_ball(bl.Ball(2, 0.5), 1) == 16.0 * bl.upsilon1_ball(disk)

    def test_scaling_covariance(self):
        base = bl.mu1_ball(bl.Ball(2, 1.0))
        for c in (0.3, 0.77, 1.9, 13.0):
            scaled = bl.mu1_ball(bl.Ball(2, c)) * c * c
            assert scaled == pytest.approx(base, rel=1e-14)

    def test_upsilon_is_algebraic_square(self):
        for n in (2, 3, 4):
            for radius in (0.5, 1.0, 2.7):
                b = bl.Ball(n, radius)
                assert bl.upsilon1_ball(b) == bl.mu1_ball(b) ** 2

    def test_poly_power_algebra(self):
        for n in (2, 3):
            b = bl.Ball(n, 1.3)
            mu = bl.mu1_ball(b)
            for m in range(1, 9):
                assert bl.upsilon1_poly_ball(b, m) == mu ** (2 * m)
        b = bl.Ball(2, 1.0)
        assert bl.upsilon1_poly_ball(b, 1) == bl.upsilon1_ball(b)
        assert bl.upsilon1_poly_ball(b, 2) == pytest.approx(132.062, abs=2e-3)

    def test_poly_power_bounds(self, disk):
        with pytest.raises(ValueError):
            bl.upsilon1_poly_ball(disk, 0)
        with pytest.raises(ValueError):
            bl.upsilon1_poly_ball(disk, 9)


class TestSpectrum:
    def test_lowest_disk_level(self, disk):
        entries = bl.neumann_spectrum_ball(disk, 1, power=1)
        assert entries[0].value == pytest.approx(3.389958, abs=1e-6)
        assert entries[0].multiplicity == 2
        assert entries[0].degree == 1

    def test_sorted(self, disk):
        entries = bl.neumann_spectrum_ball(disk, 12, power=1)
        values = [e.value for e in entries]
        assert values == sorted(values)

    def test_power_is_entrywise(self, disk):
        base = bl.neumann_spectrum_ball(disk, 6, power=1)
        for power in (2, 4):
            powered = bl.neumann_spectrum_ball(disk, 6, power=power)
            for a, c in zip(base, powered):
                assert (a.degree, a.radial_index) == (c.degree, c.radial_index)
                assert c.value == a.value**power

    def test_biharmonic_square_of_laplacian(self, disk):
        lap = bl.neumann_spectrum_ball(disk, 1, power=1)[0]
        bih = bl.neumann_spectrum_ball(disk, 1, power=2)[0]
        assert bih.value == lap.value**2

    def test_multiplicities_n3(self):
        b = bl.Ball(3, 1.0)
        entries = bl.neumann_spectrum_ball(b, 3, power=1)
        assert entries[0].multiplicity == 3  # coordinate modes
        assert bl.angular_multiplicity(3, 2) == 5
        assert bl.angular_multiplicity(4, 1) == 4
        assert bl.angular_multiplicity(2, 5) == 2

    @pytest.mark.parametrize("count", [118, 200])
    def test_large_counts_match_scipy(self, disk, count):
        # from count 118 on, count // 2 + 2 exceeds the l cap of the zero table
        from scipy.special import jnp_zeros

        entries = bl.neumann_spectrum_ball(disk, count, power=1)
        # j'_{j,l} for j < 40, l <= 20 covers the lowest 200 levels (j <= 35, l <= 12)
        ref = np.sort(np.concatenate([jnp_zeros(j, 20) for j in range(40)]))[:count] ** 2
        assert np.allclose([e.value for e in entries], ref, rtol=1e-13, atol=0)

    def test_csv_export(self, disk):
        entries = bl.neumann_spectrum_ball(disk, 2, power=2)
        buf = io.StringIO()
        bl.spectrum_to_csv(disk, entries, 2, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "power,n,R,j,l,multiplicity,value"
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "2"
        assert float(first[6]) == entries[0].value  # 17 digits round-trip


class TestValidation:
    def test_ball_invariants(self):
        with pytest.raises(ValueError):
            bl.Ball(1, 1.0)
        with pytest.raises(ValueError):
            bl.Ball(2, 0.0)
