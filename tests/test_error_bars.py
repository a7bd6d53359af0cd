"""The verify error bars against exact answers, and the verdict at equality.

The report raises the study's mu to Upsilon = mu^(2m) with the bar
(mu + bar)^(2m) - mu^(2m); on domains with a closed-form mu1 the raised
bar must cover the exact Upsilon at every power m.  No disk, however
placed or scaled, may come out strictly below the bound, and shapes near
the disk must.
"""

import json
import math

import pytest
from scipy.special import jnp_zeros

from neuspec import cli, fem
from neuspec.geometry import parse_domain

J11 = float(jnp_zeros(1, 1)[0])

# domain -> the exact least nonzero Neumann eigenvalue of the Laplacian
REFERENCES = {
    "disk:0,0,1": J11**2,
    "polygon:0,0;1,0;1,1;0,1": math.pi**2,
    "polygon:0,0;2,0;2,1;0,1": (math.pi / 2) ** 2,
    # the equilateral triangle of side 1 (McCartin 2002): 16 pi^2 / 9
    "polygon:0,0;1,0;0.5,0.8660254037844386": 16 * math.pi**2 / 9,
}
H_LISTS = ((0.16, 0.12, 0.08), (0.08, 0.04, 0.02))


@pytest.mark.parametrize("h_list", H_LISTS, ids=["coarse", "default"])
@pytest.mark.parametrize("spec", list(REFERENCES))
def test_raised_bar_covers_the_exact_value(spec, h_list):
    mu = REFERENCES[spec]
    study = fem.convergence_study(parse_domain(spec), h_list)
    assert study.monotone
    ratios = []
    for m in range(1, 9):
        _, ups, bar = cli._raised(study, m)
        error = abs(ups - mu ** (2 * m))
        assert error <= bar, (m, error, bar)
        ratios.append(error / bar)
    # the ratio is mu's own to first order; the disk at the coarse list,
    # the widest case, spreads by 0.8% over m = 1..8
    assert max(ratios) <= 1.01 * min(ratios), ratios


DISKS = [("disk:0.3,-0.2,1", 1.0), ("superellipse:1,1,2", 1.0)] + [
    (f"disk:0,0,{2.0**k!r}", 2.0**k) for k in (-3, -1, 2, 3)]


@pytest.mark.parametrize("spec, radius", DISKS)
def test_no_disk_is_strict(spec, radius, tmp_path):
    h_list = ",".join(repr(h * radius) for h in (0.16, 0.12, 0.08))
    for m in range(1, 5):
        out = tmp_path / f"m{m}.json"
        code = cli.main(["verify", "--domain", spec, "--m", str(m), "--h-list", h_list,
                         "--no-mps", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert code == 0, m
        assert rep["inequality_holds"] is True, m
        assert rep["strict"] is False, m
        assert rep["certificate"]["valid"] is True, m
        assert rep["certificate"]["strict"] is False, m


def _regular_polygon(n):
    return "polygon:" + ";".join(
        f"{math.cos(2 * math.pi * k / n)!r},{math.sin(2 * math.pi * k / n)!r}" for k in range(n))


# the 32-gon comes closest: its margin is about 1e-4 of the bound and
# more than 70 of its bars
NEAR_DISKS = {"8-gon": _regular_polygon(8), "32-gon": _regular_polygon(32),
              "superellipse-2.5": "superellipse:1,1,2.5"}


@pytest.mark.parametrize("h_list", H_LISTS, ids=["coarse", "default"])
@pytest.mark.parametrize("spec", list(NEAR_DISKS.values()), ids=list(NEAR_DISKS))
def test_near_disks_are_strict(spec, h_list):
    rep = cli.build_verification_report(spec, 1, h_list, use_mps=False)
    assert rep["strict"] is True
    assert rep["certificate"]["valid"] is True and rep["certificate"]["strict"] is True
