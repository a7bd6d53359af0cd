"""Command-line front end: exact ball tables, verification runs, and plots.

Exit codes: 0 success, 1 computation failure (stderr names the failing
stage), 2 usage errors.  Reruns with identical flags and the same BLAS
thread count (OPENBLAS_NUM_THREADS=1 for reproducible bytes) produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__
from .ball import (MAX_POWER, Ball, mu1_ball, neumann_spectrum_ball, spectrum_to_csv,
                   upsilon1_poly_ball)
from .corpus import CORPUS
from .fem import DEFAULT_H_LIST, MAPPED_H_LIST, convergence_study
from .geometry import Domain, domain_spec_string, parse_domain
from .meshing import load_mesh, save_mesh
from .mps import mps_find, mps_scan
from .plots import convergence_svg, eigenfunction_svg, sigma_curve_svg
from .trial import certify_upper_bound, failed_checks

# largest MPS indicator accepted as an eigenvalue, and the angular
# truncation of the MPS cross-check
MPS_SIGMA_TOL = 1e-6
MPS_TRUNC = 20
# verify warns when the MPS value lies further from the FEM value than
# this many FEM error bars
MPS_FEM_BARS = 2.0


def _resolve_out(path: str | None):
    if path is None:
        return None
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(os.environ.get("NEUSPEC_OUTDIR", "."), path)


def _resolve_domain(spec: str) -> Domain:
    return parse_domain(CORPUS.get(spec, spec))


def _h_list(text: str) -> tuple:
    try:
        hs = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated mesh sizes, got {text!r}") from None
    if (len(hs) < 3 or not all(0 < h < math.inf for h in hs)
            or any(a <= b for a, b in zip(hs, hs[1:]))):
        raise argparse.ArgumentTypeError(
            f"expected at least 3 positive, strictly descending mesh sizes, got {text!r}")
    return hs


def _checked(convert, ok, what: str):
    """argparse type: convert the text, and accept the value only if ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _json_dump(payload) -> str:
    """Strict JSON: raises ValueError on a NaN or infinite float."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

def _in_range(value: float) -> float:
    """value, if it is a positive double; OverflowError if it fell to 0 or inf."""
    if not 0.0 < value < math.inf:
        raise OverflowError(f"value {value!r} is outside the range of positive doubles")
    return value


def cmd_ball(args) -> int:
    b = Ball(args.n, args.R)
    # float ** raises OverflowError, and a value can underflow to 0
    stage = "mu1"
    try:
        mu = _in_range(mu1_ball(b))
        stage = "upsilon1"
        ups = _in_range(upsilon1_poly_ball(b, 1))
        ups_m = _in_range(upsilon1_poly_ball(b, args.m))
        stage = "spectrum"  # also the zero table's caps or a failed zero scan
        entries = neumann_spectrum_ball(b, args.count, power=2 * args.m)
        for e in entries:
            _in_range(e.value)
    except (RuntimeError, OverflowError) as exc:
        print(f"ball failed during {stage}: {exc}", file=sys.stderr)
        return 1
    lines = [
        f"ball n={args.n} R={args.R:g} m={args.m}",
        f"  mu1      = {mu:.10g}",
        f"  upsilon1 = {ups:.10g}",
        f"  upsilon1(Delta^{2 * args.m}) = {ups_m:.10g}",
        "  zero mode: value 0 (constant), multiplicity 1 (reported separately)",
        f"  lowest {args.count} nonzero levels of Delta^{2 * args.m}:",
    ]
    for e in entries:
        lines.append(
            f"    value={e.value:.10g} degree={e.degree} radial={e.radial_index} "
            f"mult={e.multiplicity}"
        )
    print("\n".join(lines))
    out = _resolve_out(args.out)
    if out:
        if args.format == "csv":
            with open(out, "w") as fh:
                spectrum_to_csv(b, entries, 2 * args.m, stream=fh)
        else:
            payload = {
                "n": args.n,
                "R": args.R,
                "m": args.m,
                "mu1": mu,
                "upsilon1": ups,
                "upsilon1_poly": ups_m,
                "spectrum": [asdict(e) for e in entries],
            }
            with open(out, "w") as fh:
                fh.write(_json_dump(payload))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class StageError(RuntimeError):
    """A verification step failed; `stage` names the step."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - re-raised with the step named
        raise StageError(name, exc) from exc


def _raised(study, m: int):
    """The study of mu as one of Upsilon = mu^(2m): the per-mesh values,
    Upsilon = best^(2m) and its bar (best + bar)^(2m) - best^(2m), which by
    convexity covers (best -+ bar)^(2m) too.  OverflowError if any of them
    leaves the range of positive doubles."""
    best = study.best
    with np.errstate(over="ignore", under="ignore"):
        raised = np.array([*study.values, best, best + study.error_bar]) ** (2 * m)
    values = [_in_range(float(v)) for v in raised[:-2]]
    ups = _in_range(float(raised[-2]))
    return values, ups, _in_range(float(raised[-1]) - ups)


def build_verification_report(domain_spec: str, m: int, h_list=None,
                              use_mps: bool = True) -> dict:
    """Assemble the full inequality-verification report for one domain.

    h_list None takes convergence_study's default; config.h_list records
    the list used.
    A failing step raises StageError naming it: "setup", "fem convergence
    study", "mps" or "certificate".
    """
    with _stage("setup"):
        d = _resolve_domain(domain_spec)
        # a bound that fell to 0 or inf would certify nothing
        bound = _in_range(upsilon1_poly_ball(Ball(2, d.equal_area_radius()), m))

    with _stage("fem convergence study"):
        study = convergence_study(d, h_list)
        h_list = study.h_list
        values, ups_fem, error_bar = _raised(study, m)

    ups_mps = None
    use_mps = use_mps and d.is_smooth
    if use_mps:
        # Delta^(2m) has the Neumann Laplacian's frequencies omega (see
        # neuspec.mps), so Upsilon = omega^(4m); the window is centered on
        # the FEM frequency
        w_est = math.sqrt(study.best)
        with _stage("mps"):
            hits = mps_find(d, "laplace_neumann", (0.75 * w_est, 1.25 * w_est), MPS_TRUNC)
            good = [_in_range(e.omega ** (4 * m)) for e in hits if e.sigma < MPS_SIGMA_TOL]
        if good:
            ups_mps = min(good, key=lambda v: abs(v - ups_fem))

    with _stage("certificate"):
        cert = certify_upper_bound(d, m)
    # inequality_holds: the FEM value does not contradict the certified
    # bound, which admits the equality case (the disk); strict: the FEM
    # study resolves a strict inequality
    margin = bound - ups_fem
    report = {
        "domain": domain_spec_string(d),
        "m": m,
        "area": float(d.area()),
        "R": d.equal_area_radius(),
        "upsilon1_fem": ups_fem,
        "upsilon1_fem_error_bar": error_bar,
        "upsilon1_mps": ups_mps,
        "bound": bound,
        "certificate": cert.to_dict(),
        "inequality_holds": bool(ups_fem - error_bar <= bound),
        "strict": bool(margin > error_bar),
        "margin": margin,
        "nonsmooth": not d.is_smooth,
        # in Upsilon units; the observed order is mu's, the same at every m
        "convergence": {
            "h": list(h_list),
            "values": values,
            "observed_order": study.observed_order,
            "extrapolated": ups_fem if study.extrapolated is not None else None,
            "error_bar": error_bar,
            "monotone": study.monotone,
            "m": m,
        },
        "config": {
            "command": "verify",
            "domain": domain_spec_string(d),
            "m": m,
            "h_list": list(h_list),
            "mps": use_mps,
        },
    }
    return report


def _mps_warning(report: dict) -> str | None:
    """What verify says on stderr about the report's MPS cross-check: that
    it found no value, or one outside the FEM value's error bars."""
    if not report["config"]["mps"]:
        return None
    ups_mps, ups_fem = report["upsilon1_mps"], report["upsilon1_fem"]
    if ups_mps is None:
        return f"no minimum with sigma < {MPS_SIGMA_TOL:g} in the window; upsilon1_mps is null"
    bars = MPS_FEM_BARS * report["upsilon1_fem_error_bar"]
    if abs(ups_mps - ups_fem) > bars:
        return (f"upsilon1_mps={ups_mps:.10g} lies outside upsilon1_fem={ups_fem:.10g} "
                f"+/- {MPS_FEM_BARS:g} error bars ({bars:.3g})")
    return None


def _failed_conditions(report: dict) -> list:
    """Why verify exits 1 with a report: one line per failed condition, by stage."""
    conv, lines = report["convergence"], []
    if conv["extrapolated"] is None:
        h = ", ".join(f"{v:g}" for v in conv["h"][-3:])
        lines.append("fem convergence study: " + (
            f"observed order {conv['observed_order']} at h = {h} not above 0.5"
            if conv["monotone"] else "values not monotone"))
    if not report["certificate"]["valid"]:
        why = failed_checks(parse_domain(report["domain"]))
        lines.append("certificate: " + "; ".join(why))
    if not report["inequality_holds"]:
        low = report["upsilon1_fem"] - report["upsilon1_fem_error_bar"]
        lines.append(f"inequality: upsilon1_fem - error_bar = {low!r} "
                     f"above bound {report['bound']!r}")
    return lines


def cmd_verify(args) -> int:
    try:
        report = build_verification_report(args.domain, args.m, args.h_list,
                                           use_mps=not args.no_mps)
    except StageError as exc:
        print(f"verify failed during {exc}", file=sys.stderr)
        return 1
    warning = _mps_warning(report)
    if warning:
        print(f"verify warning during mps: {warning}", file=sys.stderr)
    if args.save_eigenfunction:
        try:
            # the memoized study of the report
            study = convergence_study(_resolve_domain(args.domain), report["config"]["h_list"])
            save_mesh(study.mesh, _resolve_out(args.save_eigenfunction),
                      vertex_values=study.vector[:len(study.mesh.vertices)])
        except Exception as exc:  # noqa: BLE001
            print(f"verify failed during eigenfunction dump: {exc}", file=sys.stderr)
            return 1
    text = _json_dump(report)
    out = _resolve_out(args.out)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(
            f"verify {report['domain']}: upsilon1_fem={report['upsilon1_fem']:.8g} "
            f"bound={report['bound']:.8g} margin={report['margin']:.3g} "
            f"inequality_holds={report['inequality_holds']}"
        )
    else:
        sys.stdout.write(text)
    failed = _failed_conditions(report)
    for line in failed:
        print(f"verify check failed: {line}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def cmd_plot(args) -> int:
    out = _resolve_out(args.out) or (os.path.splitext(args.input)[0] + ".svg")
    try:
        if args.kind == "sigma":
            omegas, sigmas = [], []
            with open(args.input) as fh:
                header = fh.readline().strip()
                if header != "omega,sigma":
                    raise ValueError(f"line 1: expected 'omega,sigma' header, got {header!r}")
                for ln, line in enumerate(fh, start=2):
                    if not line.strip():
                        continue
                    try:
                        w, s = map(float, line.split(","))
                        if not (math.isfinite(w) and math.isfinite(s)):
                            raise ValueError
                    except ValueError:
                        raise ValueError(f"line {ln}: bad sigma-curve row {line!r}") from None
                    omegas.append(w)
                    sigmas.append(s)
            if len(set(omegas)) < 2:
                raise ValueError("sigma curve has nothing to draw")
            svg = sigma_curve_svg(omegas, sigmas)
        elif args.kind == "convergence":
            with open(args.input) as fh:
                data = json.load(fh)
            if "convergence" in data:
                data = data["convergence"]
            try:
                svg = convergence_svg(
                    data["h"], data["values"],
                    extrapolated=data.get("extrapolated"),
                    observed_order=data.get("observed_order"),
                )
            except KeyError as exc:
                raise ValueError(f"convergence JSON missing field {exc}") from None
        elif args.kind == "eigenfunction":
            vertices, triangles, values = load_mesh(args.input)
            if values is None:
                raise ValueError("mesh file carries no per-vertex value column")
            svg = eigenfunction_svg(vertices, triangles, values)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown plot kind {args.kind}")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"plot failed: {exc}", file=sys.stderr)
        return 1
    with open(out, "w") as fh:
        fh.write(svg)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuspec",
        description=(
            "Neumann spectra of Laplacian and even-order polyharmonic operators: "
            "exact ball values, FEM/particular-solution estimates, and certified "
            "isoperimetric upper bounds."
        ),
    )
    parser.add_argument("--version", action="version", version=f"neuspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    power = _checked(int, lambda m: 1 <= m <= MAX_POWER, f"an integer in 1..{MAX_POWER}")

    p_ball = sub.add_parser("ball", help="exact Neumann values on a ball")
    p_ball.add_argument("--n", type=_checked(int, lambda n: 2 <= n <= 16, "an integer in 2..16"),
                        default=2, help="ambient dimension, 2..16")
    p_ball.add_argument("--R", type=_checked(float, lambda v: 0 < v < math.inf,
                                             "a positive, finite radius"),
                        default=1.0, help="ball radius")
    p_ball.add_argument("--m", type=power, default=1,
                        help=f"operator power: Delta^(2m), 1..{MAX_POWER}")
    p_ball.add_argument("--count", type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
                        default=5, help="spectrum entries to list")
    p_ball.add_argument("--out", help="artifact path (relative paths join the output dir)")
    p_ball.add_argument("--format", choices=("json", "csv"), default="json")
    p_ball.set_defaults(func=cmd_ball)

    p_ver = sub.add_parser("verify", help="verify the isoperimetric inequality on a domain")
    p_ver.add_argument("--domain", required=True,
                       help="domain spec (disk:.., ellipse:..) or corpus name "
                            f"({', '.join(CORPUS)})")
    p_ver.add_argument("--m", type=power, default=1,
                       help=f"operator power: Delta^(2m), 1..{MAX_POWER}")
    p_ver.add_argument("--h-list", type=_h_list,
                       help="at least 3 strictly descending mesh sizes, comma separated "
                            f"(default {','.join(map(str, MAPPED_H_LIST))} on shapes with a "
                            "smooth curved piece, if they mesh at it, else "
                            f"{','.join(map(str, DEFAULT_H_LIST))})")
    p_ver.add_argument("--no-mps", action="store_true",
                       help="skip the particular-solutions cross-check")
    p_ver.add_argument("--save-eigenfunction", metavar="PATH",
                       help="dump the lowest eigenvector on the finest mesh")
    p_ver.add_argument("--out", help="report path (stdout when omitted)")
    p_ver.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="render a solver artifact as SVG")
    p_plot.add_argument("input", help="artifact file (CSV, JSON, or mesh dump)")
    p_plot.add_argument("kind", choices=("sigma", "convergence", "eigenfunction"))
    p_plot.add_argument("--out", help="SVG path (defaults next to the input)")
    p_plot.set_defaults(func=cmd_plot)

    p_scan = sub.add_parser("sigma-scan", help="sample the MPS indicator over a band")
    p_scan.add_argument("--domain", required=True)
    frequency = _checked(float, lambda v: 0 < v < math.inf, "a positive, finite frequency")
    p_scan.add_argument("--lo", type=frequency, required=True,
                        help="lowest frequency, below --hi")
    p_scan.add_argument("--hi", type=frequency, required=True, help="highest frequency")
    p_scan.add_argument("--trunc", type=_checked(int, lambda n: 1 <= n <= 60, "an integer in 1..60"),
                        default=20, help="angular truncation, 1..60")
    p_scan.add_argument("--grid", type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
                        default=100, help="grid intervals (the curve has one more row)")
    p_scan.add_argument("--out", required=True, help="CSV path")
    p_scan.set_defaults(func=cmd_sigma_scan)

    return parser


def cmd_sigma_scan(args) -> int:
    try:
        d = _resolve_domain(args.domain)
        curve = mps_scan(d, (args.lo, args.hi), args.trunc, args.grid)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"sigma-scan failed: {exc}", file=sys.stderr)
        return 1
    out = _resolve_out(args.out)
    with open(out, "w") as fh:
        curve.to_csv(stream=fh)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sigma-scan" and not args.lo < args.hi:
        parser.error(f"sigma-scan: --lo must be below --hi, got {args.lo:g} and {args.hi:g}")
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return 1


if __name__ == "__main__":
    sys.exit(main())
