"""The benchmark's three workloads: fixed inputs, one list of operations each.

No random seed enters the inputs.  The program's own seeds (the FEM
start vectors and the MPS interior points) are internal constants, so a
round repeats the same arithmetic on every run, and the counts in the
trace (degrees of freedom, triangles, sigma evaluations) repeat exactly.

This module imports nothing from neuspec: the checker and the worker
share it, and the checker must stay independent of the program.
"""

from __future__ import annotations

import math

from scipy.special import jnp_zeros

# First positive zero of J_1'.  The first nonzero Neumann eigenvalue of
# the Laplacian on a disk of radius R is (J11 / R)**2, so that of
# Delta^(2m) is (J11 / R)**(4m), the bound the paper's inequality states.
J11 = float(jnp_zeros(1, 1)[0])

# Areas by construction of the corpus: the disk has radius 1 and each
# ellipse has axes sqrt(aspect) and 1/sqrt(aspect), so every smooth domain
# here has area pi; the square is the unit square.
AREA = {
    "disk": math.pi,
    "ellipse-1.2": math.pi,
    "ellipse-1.5": math.pi,
    "ellipse-2.0": math.pi,
    "square": 1.0,
}

MPS_DOMAINS = ("disk", "ellipse-1.2", "ellipse-1.5", "ellipse-2.0")
MPS_PROBLEMS = ("polyharm_neumann", "laplace_neumann")
MPS_TRUNCATIONS = (20, 30)
COARSE_H_LIST = "0.16,0.12,0.08"


def equal_area_radius(domain: str) -> float:
    return math.sqrt(AREA[domain] / math.pi)


def ball_bound(domain: str, power: int) -> float:
    """Eigenvalue of Delta^(power/2) on the equal-area disk: (J11/R)**power."""
    return (J11 / equal_area_radius(domain)) ** power


def _verify(domain: str, m: int, h_list: str | None = None, mps: bool = True) -> dict:
    label = f"verify {domain} m={m}"
    return {"kind": "verify", "label": label, "domain": domain, "m": m,
            "h_list": h_list, "mps": mps}


def _mps_find(domain: str, problem: str, n: int) -> dict:
    # the window comes from the ball bound, never from an FEM value, so
    # MPS cannot merely repeat what FEM found
    r = equal_area_radius(domain)
    return {"kind": "mps_find", "label": f"mps_find {domain} {problem} N={n}",
            "domain": domain, "problem": problem, "N": n,
            "window": [0.5 * J11 / r, 1.05 * J11 / r]}


OPS = {
    "verify-ellipse": [_verify("ellipse-1.5", 1)],
    "powers-coarse": [
        _verify(domain, m, COARSE_H_LIST, mps=False)
        for domain in ("disk", "square")
        for m in (1, 2, 3, 4)
    ],
    "mps-sweep": [
        _mps_find(domain, problem, n)
        for domain in MPS_DOMAINS
        for problem in MPS_PROBLEMS
        for n in MPS_TRUNCATIONS
    ],
}
