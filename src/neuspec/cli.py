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

from . import __version__
from .ball import Ball, mu1_ball, neumann_spectrum_ball, spectrum_to_csv, upsilon1_poly_ball
from .corpus import CORPUS, corpus_domain
from .fem import convergence_study, eig_polyharmonic_neumann
from .geometry import Domain, domain_metrics, domain_spec_string, parse_domain
from .meshing import load_mesh, save_mesh
from .mps import mps_find, mps_scan
from .plots import convergence_svg, eigenfunction_svg, sigma_curve_svg
from .quadrature import cached_mesh
from .trial import certify_upper_bound

DEFAULT_H_LIST = (0.08, 0.04, 0.02)
# largest MPS indicator accepted as an eigenvalue
MPS_SIGMA_TOL = 1e-6


def _out_dir() -> str:
    return os.environ.get("NEUSPEC_OUTDIR", ".")


def _resolve_out(path: str | None, default_name: str | None):
    if path is None:
        return None if default_name is None else os.path.join(_out_dir(), default_name)
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(_out_dir(), path)


def _resolve_domain(spec: str) -> Domain:
    if spec in CORPUS:
        return corpus_domain(spec)
    return parse_domain(spec)


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


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

def cmd_ball(args) -> int:
    b = Ball(args.n, args.R)
    mu = mu1_ball(b)
    ups = upsilon1_poly_ball(b, 1)
    ups_m = upsilon1_poly_ball(b, args.m)
    entries = neumann_spectrum_ball(b, args.count, power=2 * args.m)
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
    out = _resolve_out(args.out, None)
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
                "spectrum": [
                    {
                        "value": e.value,
                        "degree": e.degree,
                        "radial_index": e.radial_index,
                        "multiplicity": e.multiplicity,
                    }
                    for e in entries
                ],
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


def build_verification_report(domain_spec: str, m: int, h_list, order: int = 2,
                              use_mps: bool = True, threads: int = 1,
                              mps_trunc: int = 20) -> dict:
    """Assemble the full inequality-verification report for one domain.

    A failing step raises StageError naming it: "setup", "fem convergence
    study", "mps" or "certificate".
    """
    with _stage("setup"):
        d = _resolve_domain(domain_spec)
        metrics = domain_metrics(d)
        bound = upsilon1_poly_ball(Ball(2, metrics.equal_volume_radius), m)

    with _stage("fem convergence study"):
        study = convergence_study(d, m, h_list, order=order, workers=threads)
    ups_fem = study.best
    error_bar = study.error_bar

    ups_mps = None
    if use_mps and d.is_smooth and m == 1:
        w_est = max(ups_fem, 1e-10) ** 0.25
        with _stage("mps"):
            hits = mps_find(d, "polyharm_neumann", (0.75 * w_est, 1.25 * w_est), mps_trunc)
        good = [e for e in hits if e.sigma < MPS_SIGMA_TOL]
        if good:
            ups_mps = min(good, key=lambda e: abs(e.value - ups_fem)).value

    with _stage("certificate"):
        cert = certify_upper_bound(d, m)
    # inequality_holds: the FEM value does not contradict the certified
    # bound, which admits the equality case (the disk); strict: the FEM
    # study resolves a strict inequality
    margin = bound - ups_fem
    report = {
        "domain": domain_spec_string(d),
        "m": m,
        "area": metrics.area,
        "R": metrics.equal_volume_radius,
        "upsilon1_fem": ups_fem,
        "upsilon1_fem_error_bar": error_bar,
        "upsilon1_mps": ups_mps,
        "bound": bound,
        "certificate": json.loads(cert.to_json()),
        "inequality_holds": bool(ups_fem - error_bar <= bound),
        "strict": bool(margin > error_bar),
        "margin": margin,
        "nonsmooth": not d.is_smooth,
        "convergence": json.loads(study.to_json()),
        "config": {
            "command": "verify",
            "domain": domain_spec_string(d),
            "m": m,
            "h_list": [float(h) for h in h_list],
            "order": order,
            "mps": bool(use_mps and d.is_smooth and m == 1),
            "threads": threads,
        },
    }
    return report


def cmd_verify(args) -> int:
    h_list = args.h_list
    try:
        report = build_verification_report(
            args.domain,
            args.m,
            h_list,
            order=args.order,
            use_mps=not args.no_mps,
            threads=args.threads,
        )
    except StageError as exc:
        print(f"verify failed during {exc}", file=sys.stderr)
        return 1
    if report["config"]["mps"] and report["upsilon1_mps"] is None:
        print(f"verify warning during mps: no minimum with sigma < {MPS_SIGMA_TOL:g} "
              "in the window; upsilon1_mps is null", file=sys.stderr)
    if args.save_eigenfunction:
        stage = "eigenfunction dump"
        try:
            d = _resolve_domain(args.domain)
            mesh = cached_mesh(d, h_list[-1])
            res = eig_polyharmonic_neumann(mesh, 1, args.m, order=args.order)
            nv = len(mesh.vertices)
            save_mesh(mesh, _resolve_out(args.save_eigenfunction, None),
                      vertex_values=res.vectors[:nv, 0])
        except Exception as exc:  # noqa: BLE001
            print(f"verify failed during {stage}: {exc}", file=sys.stderr)
            return 1
    text = _json_dump(report)
    out = _resolve_out(args.out, None)
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
    ok = (
        report["inequality_holds"]
        and report["certificate"]["valid"]
        and report["convergence"]["monotone"]
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def cmd_plot(args) -> int:
    out = _resolve_out(args.out, None) or (os.path.splitext(args.input)[0] + ".svg")
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
                        w, s = line.split(",")
                        omegas.append(float(w))
                        sigmas.append(float(s))
                    except ValueError:
                        raise ValueError(f"line {ln}: bad sigma-curve row {line!r}") from None
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
            mesh, values = load_mesh(args.input)
            if values is None:
                raise ValueError("mesh file carries no per-vertex value column")
            svg = eigenfunction_svg(mesh.vertices, mesh.triangles, values)
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

    p_ball = sub.add_parser("ball", help="exact Neumann values on a ball")
    p_ball.add_argument("--n", type=int, default=2, help="ambient dimension")
    p_ball.add_argument("--R", type=float, default=1.0, help="ball radius")
    p_ball.add_argument("--m", type=int, default=1, help="operator power: Delta^(2m)")
    p_ball.add_argument("--count", type=int, default=5, help="spectrum entries to list")
    p_ball.add_argument("--out", help="artifact path (relative paths join the output dir)")
    p_ball.add_argument("--format", choices=("json", "csv"), default="json")
    p_ball.set_defaults(func=cmd_ball)

    p_ver = sub.add_parser("verify", help="verify the isoperimetric inequality on a domain")
    p_ver.add_argument("--domain", required=True,
                       help="domain spec (disk:.., ellipse:..) or corpus name "
                            f"({', '.join(CORPUS)})")
    p_ver.add_argument("--m", type=int, choices=(1, 2, 3, 4), default=1,
                       help="operator power: Delta^(2m)")
    p_ver.add_argument("--h-list", type=_h_list,
                       default=",".join(str(h) for h in DEFAULT_H_LIST),
                       help="at least 3 strictly descending mesh sizes, comma separated")
    p_ver.add_argument("--order", type=int, choices=(1, 2), default=2)
    p_ver.add_argument("--no-mps", action="store_true",
                       help="skip the particular-solutions cross-check")
    p_ver.add_argument("--threads", type=int, default=1,
                       help="worker threads for the mesh family (1 = serial)")
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
    p_scan.add_argument("--problem", choices=("laplace_neumann", "polyharm_neumann"),
                        default="laplace_neumann")
    p_scan.add_argument("--lo", type=float, required=True)
    p_scan.add_argument("--hi", type=float, required=True)
    p_scan.add_argument("--trunc", type=int, default=20, help="angular truncation")
    p_scan.add_argument("--grid", type=int, default=100)
    p_scan.add_argument("--out", required=True, help="CSV path")
    p_scan.set_defaults(func=cmd_sigma_scan)

    return parser


def cmd_sigma_scan(args) -> int:
    try:
        d = _resolve_domain(args.domain)
        curve = mps_scan(d, args.problem, (args.lo, args.hi), args.trunc, args.grid)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"sigma-scan failed: {exc}", file=sys.stderr)
        return 1
    out = _resolve_out(args.out, None)
    with open(out, "w") as fh:
        curve.to_csv(stream=fh)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return 1


if __name__ == "__main__":
    sys.exit(main())
