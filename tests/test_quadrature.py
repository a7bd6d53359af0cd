import math
from math import factorial

import numpy as np
import pytest
from conftest import mesh_quadrature

from neuspec import geometry as geo
from neuspec import quadrature as quad
from neuspec.meshing import triangle_jacobians


class TestTriangleRules:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_monomial_exactness(self, degree):
        # the one rule integrates every monomial of this total degree exactly
        pts, w = quad.triangle_rule()
        for a in range(degree + 1):
            b = degree - a
            approx = float(np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b))
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert approx == pytest.approx(exact, rel=1e-13, abs=1e-16)

    def test_weights_sum_to_area(self):
        _, w = quad.triangle_rule()
        assert float(np.sum(w)) == pytest.approx(0.5, rel=1e-14)


def _integral(d, f, h):
    pts, w = mesh_quadrature(quad.cached_mesh(d, h))
    return float(np.sum(f(pts) * w))


class TestIntegrate:
    def test_area_of_disk_extrapolated(self, richardson_integral):
        d = geo.Disk((0, 0), 1.0)
        val = richardson_integral(d, lambda p: np.ones(len(p)), h=0.05)
        assert val == pytest.approx(math.pi, abs=1e-6)

    def test_odd_integrand_vanishes(self):
        d = geo.Disk((0, 0), 1.0)
        val = _integral(d, lambda p: p[:, 0], h=0.05)
        assert abs(val) < 1e-10

    def test_radial_moment(self, richardson_integral):
        d = geo.Disk((0, 0), 1.0)
        val = richardson_integral(d, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, h=0.05)
        assert val == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_linearity(self):
        d = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        f = lambda p: p[:, 0] ** 2  # noqa: E731
        g = lambda p: np.sin(p[:, 1])  # noqa: E731
        lhs = _integral(d, lambda p: 2.0 * f(p) - 3.0 * g(p), h=0.1)
        rhs = 2.0 * _integral(d, f, h=0.1) - 3.0 * _integral(d, g, h=0.1)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_additive_over_subdomains(self):
        f = lambda p: p[:, 0] ** 3 + p[:, 1]  # noqa: E731
        whole = geo.Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        left = geo.Polygon(((0, 0), (0.5, 0), (0.5, 1), (0, 1)))
        right = geo.Polygon(((0.5, 0), (1, 0), (1, 1), (0.5, 1)))
        total = _integral(whole, f, h=0.1)
        split = _integral(left, f, h=0.1) + _integral(right, f, h=0.1)
        assert split == pytest.approx(total, rel=1e-13)

    def test_metrics_area_agreement(self, richardson_integral):
        for d in (geo.Ellipse(1.5, 2 / 3), geo.Stadium(0.5, 0.6)):
            area = richardson_integral(d, lambda p: np.ones(len(p)), h=0.04)
            assert area == pytest.approx(d.area(), rel=1e-5)

    def test_mesh_quadrature_weight_sum(self):
        mesh = quad.cached_mesh(geo.Disk((0, 0), 1.0), 0.1)
        _, w = mesh_quadrature(mesh)
        area = float(np.sum(0.5 * triangle_jacobians(mesh.vertices, mesh.triangles)))
        assert float(np.sum(w)) == pytest.approx(area, rel=1e-13)
