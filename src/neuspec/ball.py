"""Exact Neumann spectra of Delta^p on balls.

Eigenvalues on a ball of radius R are (nu_{j,l}/R)^(2p) for the operator
Delta^p, where nu_{j,l} is the l-th positive zero of the degree-j radial
derivative (see :mod:`neuspec.special`).  The lowest nonzero level of the
even-order operator Delta^(2m) is mu1^(2m) with mu1 the Laplacian value,
and its eigenfunctions are the n coordinate modes g(r) x_i / r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special import first_radial_deriv_zero, radial_deriv_zeros

__all__ = [
    "MAX_POWER",
    "Ball",
    "SpectrumEntry",
    "mu1_ball",
    "upsilon1_ball",
    "upsilon1_poly_ball",
    "neumann_spectrum_ball",
    "angular_multiplicity",
    "spectrum_to_csv",
]

# the largest power m of Delta^(2m) that neuspec accepts, from 1 on
MAX_POWER = 8


@dataclass(frozen=True)
class Ball:
    """Ball of radius `radius` centered at the origin of R^n."""

    n: int
    radius: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")


@dataclass(frozen=True)
class SpectrumEntry:
    """One Neumann level: eigenvalue, harmonic degree, radial index, multiplicity."""

    value: float
    degree: int
    radial_index: int
    multiplicity: int


def mu1_ball(b: Ball) -> float:
    """First nonzero Neumann eigenvalue of the Laplacian on the ball."""
    p = first_radial_deriv_zero(b.n)
    return (p / b.radius) ** 2


def upsilon1_ball(b: Ball) -> float:
    """First nonzero Neumann eigenvalue of the bi-Laplacian: mu1 squared.

    Algebraic squaring of :func:`mu1_ball`; no separate derivation.
    """
    return mu1_ball(b) ** 2


def upsilon1_poly_ball(b: Ball, m: int) -> float:
    """First nonzero Neumann eigenvalue of Delta^(2m): mu1^(2m)."""
    if not (1 <= m <= MAX_POWER):
        raise ValueError(f"power must satisfy 1 <= m <= {MAX_POWER}")
    return mu1_ball(b) ** (2 * m)


def angular_multiplicity(n: int, j: int) -> int:
    """Dimension of the degree-j spherical harmonics on S^(n-1)."""
    if j == 0:
        return 1
    if n == 2:
        return 2
    lower = math.comb(n + j - 3, j - 2) if j >= 2 else 0
    return math.comb(n + j - 1, j) - lower


_TABLE_J_CAP = 80
_TABLE_L_CAP = 60


def neumann_spectrum_ball(b: Ball, count: int, power: int = 1) -> list[SpectrumEntry]:
    """The `count` smallest nonzero Neumann eigenvalues of Delta^power.

    Entries are sorted ascending and carry (degree, radial index,
    multiplicity) labels; each value is (nu_{j,l}/R)^(2*power).  The zero
    eigenvalue of the constant mode is not included and is reported by
    callers separately.  The internal zero table grows on demand; running
    into its hard caps raises with the (j_max, l_max) that would be needed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if power < 1:
        raise ValueError("power must be >= 1")

    # start from a small table; the loop grows it as needed
    j_max, l_max = 8, 4
    while True:
        if j_max > _TABLE_J_CAP or l_max > _TABLE_L_CAP:
            raise RuntimeError(
                f"zero table exhausted: spectrum request needs roughly "
                f"(j_max={j_max}, l_max={l_max}) which exceeds caps "
                f"({_TABLE_J_CAP}, {_TABLE_L_CAP})"
            )
        rows = [radial_deriv_zeros(b.n, j, l_max) for j in range(j_max + 1)]
        nus = sorted((z, j, l) for j, row in enumerate(rows)
                     for l, z in enumerate(row, start=1))
        if len(nus) < count:
            l_max += 2
            continue
        nu_star = nus[count - 1][0]
        # The table is complete up to nu_star when the first zero of the
        # next degree and the last tabulated index of every degree both
        # exceed it; zeros increase in j (for j >= 1) and in l.
        need_more_j = radial_deriv_zeros(b.n, j_max + 1, 1)[0] <= nu_star
        need_more_l = any(row[-1] <= nu_star for row in rows)
        if not need_more_j and not need_more_l:
            break
        if need_more_j:
            j_max += 4
        if need_more_l:
            l_max += 4

    entries = []
    for nu, j, l in nus[:count]:
        mu = (nu / b.radius) ** 2
        entries.append(
            SpectrumEntry(
                value=mu**power,
                degree=j,
                radial_index=l,
                multiplicity=angular_multiplicity(b.n, j),
            )
        )
    return entries


def spectrum_to_csv(b: Ball, entries, power: int, stream) -> None:
    """Write spectrum entries to stream as CSV with 17 significant digits."""
    stream.write("power,n,R,j,l,multiplicity,value\n")
    for e in entries:
        stream.write(
            f"{power},{b.n},{b.radius:.17g},{e.degree},{e.radial_index},"
            f"{e.multiplicity},{e.value:.17g}\n"
        )
