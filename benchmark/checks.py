"""Independent checks of every operation's output, and their self-test.

The checks compare the program's outputs with values computed here
(Bessel zeros from scipy, closed forms for the disk and the square) or
with properties the method must have (monotone convergence, an error bar
that covers an independent estimate, a report whose figures agree with
each other).  None of them compares with a stored copy of an output.

check(workload, ops, outputs) gives, per operation, the list of checks
it failed; an operation fails when that list is not empty.  declared_ok
says whether the program itself presented the operation as a success:
such an operation that fails a check is a wrong answer given with
confidence, and makes the run incorrect.
"""

from __future__ import annotations

import copy
import math
import statistics

from workloads import J11, ball_bound

SIGMA_TOL = 1e-6          # MPS acceptance threshold, as verify applies it
DISK_OMEGA_TOL = 1e-9     # disk frequency against J11
OMEGA_AGREE_TOL = 1e-8    # one domain: both problems, both truncations
MPS_FEM_TOL = 1e-3        # verify-ellipse: MPS against FEM, absolute
REL = 1e-12               # closed-form and report arithmetic, relative


def _close(a, b, rel=REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _report_fails(op: dict, out: dict) -> list[str]:
    """Checks shared by both verify workloads; [] when all hold."""
    r = out.get("report")
    if r is None:
        return ["no report written"]
    fails = []
    m = op["m"]
    bound = ball_bound(op["domain"], 4 * m)
    fem = r["upsilon1_fem"]
    bar = r["upsilon1_fem_error_bar"]
    conv = r["convergence"]
    cert = r["certificate"]
    if not _close(r["bound"], bound):
        fails.append(f"bound {r['bound']!r} != (J11/R)**{4 * m} = {bound!r}")
    if not cert["valid"]:
        fails.append("certificate invalid")
    if not _close(cert["bound"], bound):
        fails.append(f"certificate bound {cert['bound']!r} != {bound!r}")
    best = conv["extrapolated"] if conv["monotone"] else conv["values"][-1]
    if fem != best or bar != conv["error_bar"]:
        fails.append("upsilon1_fem or its error bar differs from the convergence block")
    if not _close(r["margin"], r["bound"] - fem):
        fails.append("margin != bound - upsilon1_fem")
    if not conv["monotone"]:
        fails.append(f"convergence not monotone: {conv['values']}")
    return fails


def _check_verify_ellipse(ops, outputs):
    results = []
    for op, out in zip(ops, outputs):
        fails = _report_fails(op, out)
        if out["exit"] != 0:
            fails.append(f"exit code {out['exit']}")
        r = out.get("report")
        if r is not None:
            fem, bar, mps = r["upsilon1_fem"], r["upsilon1_fem_error_bar"], r["upsilon1_mps"]
            if not r["margin"] > bar:
                fails.append(f"margin {r['margin']!r} <= error bar {bar!r}")
            if mps is None:
                fails.append("no MPS value")
            else:
                if abs(mps - fem) > MPS_FEM_TOL:
                    fails.append(f"|MPS - FEM| = {abs(mps - fem):.3g} > {MPS_FEM_TOL}")
                if abs(mps - fem) > bar:
                    fails.append(f"MPS {mps!r} outside FEM error bar {fem!r} +- {bar!r}")
        results.append(fails)
    return results


def _check_powers(ops, outputs):
    results = []
    for op, out in zip(ops, outputs):
        fails = _report_fails(op, out)
        r = out.get("report")
        if r is not None:
            q = 4 * op["m"]
            exact = J11**q if op["domain"] == "disk" else math.pi**q
            fem, bar = r["upsilon1_fem"], r["upsilon1_fem_error_bar"]
            if abs(exact - fem) > bar:
                fails.append(f"closed form {exact!r} outside {fem!r} +- {bar!r}")
            if op["domain"] == "square" and not r["inequality_holds"]:
                fails.append("inequality_holds false on the square")
        results.append(fails)
    return results


def _mps_omega(out):
    minima = out.get("minima") or []
    return min(e["omega"] for e in minima) if minima else None


def _check_mps(ops, outputs):
    results = []
    for op, out in zip(ops, outputs):
        fails = []
        minima = out.get("minima")
        if not minima:
            fails.append(out.get("error", "no minimum in the window"))
        for e in minima or []:
            power = 2 if op["problem"] == "laplace_neumann" else 4
            if not e["sigma"] < SIGMA_TOL:
                fails.append(f"sigma {e['sigma']:.3g} at omega {e['omega']!r}")
            if not _close(e["value"], e["omega"] ** power):
                fails.append(f"value {e['value']!r} != omega**{power}")
            # the disk is the equality case: allow the MPS error there
            if e["value"] > ball_bound(op["domain"], power) * (1.0 + 1e-8):
                fails.append(f"value {e['value']!r} above the ball bound")
        omega = _mps_omega(out)
        if op["domain"] == "disk" and omega is not None and abs(omega - J11) > DISK_OMEGA_TOL:
            fails.append(f"disk omega {omega!r} != J11 {J11!r}")
        results.append(fails)
    for domain in {op["domain"] for op in ops}:
        idx = [i for i, op in enumerate(ops)
               if op["domain"] == domain and _mps_omega(outputs[i]) is not None]
        if not idx:
            continue
        center = statistics.median(_mps_omega(outputs[i]) for i in idx)
        for i in idx:
            omega = _mps_omega(outputs[i])
            if abs(omega - center) > OMEGA_AGREE_TOL:
                results[i].append(f"omega {omega!r} differs from {domain}'s median {center!r}")
    return results


CHECKERS = {
    "verify-ellipse": _check_verify_ellipse,
    "powers-coarse": _check_powers,
    "mps-sweep": _check_mps,
}


def check(workload: str, ops: list, outputs: list) -> list[list[str]]:
    if len(outputs) != len(ops):
        raise ValueError(f"{len(outputs)} outputs for {len(ops)} operations")
    return CHECKERS[workload](ops, outputs)


def declared_ok(op: dict, out: dict) -> bool:
    """Whether the program presented the operation as a success: an MPS
    minimum it would accept, or a verify report with monotone convergence
    and a valid certificate (the exit code cannot say it, since verify
    exits 1 on the disk, the equality case)."""
    if op["kind"] == "mps_find":
        return any(e["sigma"] < SIGMA_TOL for e in out.get("minima") or [])
    r = out.get("report")
    return r is not None and r["convergence"]["monotone"] and r["certificate"]["valid"]


# ---------------------------------------------------------------------------
# Self-test: each spoiled output must fail its check.
# ---------------------------------------------------------------------------

def _spoil_report(field_path, change):
    def spoil(out):
        node = out["report"]
        for key in field_path[:-1]:
            node = node[key]
        node[field_path[-1]] = change(node[field_path[-1]])
    return spoil


def _spoil_omega(out):
    out["minima"][0]["omega"] += 1e-6


SPOILERS = {
    "verify": {
        "eigenvalue moved by 1e-3 relative": _spoil_report(("upsilon1_fem",), lambda v: v * (1 + 1e-3)),
        "error bar set to 0": _spoil_report(("upsilon1_fem_error_bar",), lambda v: 0.0),
        "certificate valid flipped": _spoil_report(("certificate", "valid"), lambda v: not v),
    },
    "mps_find": {
        "omega shifted by 1e-6": _spoil_omega,
    },
}


def self_test(workload: str, ops: list, outputs: list, results: list):
    """Spoil each passing operation's output in each listed way, one at a
    time; return the number of spoilings and those the check missed."""
    tried, escaped = 0, []
    for i, (op, fails) in enumerate(zip(ops, results)):
        if fails:
            continue
        for what, spoil in SPOILERS[op["kind"]].items():
            tried += 1
            spoiled = copy.deepcopy(outputs)
            spoil(spoiled[i])
            if not check(workload, ops, spoiled)[i]:
                escaped.append(f"{op['label']}: {what}")
    return tried, escaped
