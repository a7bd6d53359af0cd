import json
import math
import os
import subprocess
import sys

import pytest

from neuspec import cli, fem, trial
from neuspec.ball import MAX_POWER, Ball, mu1_ball, upsilon1_poly_ball
from neuspec.geometry import GeometryError
from neuspec.meshing import MeshQualityError
from neuspec.mps import MpsEigenvalue
from neuspec.quadrature import cached_mesh

RUN = [sys.executable, "-m", "neuspec.cli"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


class TestBallCommand:
    def test_disk_values(self):
        proc = run_cli(["ball", "--n", "2", "--R", "1", "--m", "1"])
        assert proc.returncode == 0
        assert "3.389957717" in proc.stdout
        assert "11.49181332" in proc.stdout

    def test_n3(self):
        proc = run_cli(["ball", "--n", "3", "--R", "1", "--m", "1"])
        assert proc.returncode == 0
        assert "4.332958551" in proc.stdout
        assert "18.77452981" in proc.stdout

    def test_scaling_composition(self):
        # R = 2, m = 2: value scales by 1/R^(4m) relative to the unit ball
        proc = run_cli(["ball", "--n", "2", "--R", "2", "--m", "2", "--count", "1"])
        assert proc.returncode == 0
        line = [l for l in proc.stdout.splitlines() if "Delta^4" in l][0]
        value = float(line.split("=")[-1])
        assert value == pytest.approx(132.06177340065153 / 256.0, rel=1e-9)

    def test_csv_artifact(self, tmp_path):
        out = tmp_path / "spec.csv"
        proc = run_cli(
            ["ball", "--n", "2", "--count", "3", "--format", "csv", "--out", str(out)]
        )
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "power,n,R,j,l,multiplicity,value"
        assert len(lines) == 4

    def test_unknown_flag_exits_2(self):
        proc = run_cli(["ball", "--unknown-flag", "3"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag, value", [
        ("--n", "1"), ("--n", "17"), ("--R", "-1"), ("--R", "nan"),
        ("--m", "0"), ("--m", "9"), ("--count", "0"),
    ])
    def test_bad_arguments_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ball", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_large_count(self, capsys):
        assert cli.main(["ball", "--count", "118"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("    value=") for line in lines) == 118

    def test_spectrum_failure_names_stage(self, capsys):
        # more levels than the capped zero table holds
        assert cli.main(["ball", "--count", "1000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ball failed during spectrum: zero table exhausted")

    @pytest.mark.parametrize("args, stage", [
        (["--R", "1e-200"], "mu1"),  # mu1 overflows
        (["--R", "1e-20", "--m", "8"], "upsilon1"),  # mu1^16 overflows
        (["--R", "1e200"], "mu1"),  # mu1 underflows to 0
        (["--R", "1e150", "--m", "8"], "upsilon1"),  # mu1^2 underflows to 0
    ])
    def test_values_beyond_doubles_exit_1(self, args, stage):
        proc = run_cli(["ball", *args])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"ball failed during {stage}: ")
        assert proc.stdout == ""

    def test_large_values_within_doubles(self):
        proc = run_cli(["ball", "--R", "1e-5", "--m", "8", "--count", "3"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-3:] == [
            "    value=3.041644824e+168 degree=1 radial=1 mult=2",
            "    value=3.287662003e+175 degree=2 radial=1 mult=2",
            "    value=4.661756888e+178 degree=0 radial=1 mult=1",
        ]

    def test_outdir_env(self, tmp_path):
        proc = run_cli(
            ["ball", "--out", "table.json"],
            env_extra={"NEUSPEC_OUTDIR": str(tmp_path)},
        )
        assert proc.returncode == 0
        assert (tmp_path / "table.json").exists()


@pytest.fixture(scope="module")
def square_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    proc = run_cli(
        [
            "verify",
            "--domain",
            "square",
            "--m",
            "1",
            "--h-list",
            "0.2,0.1,0.06",
            "--no-mps",
            "--out",
            str(out),
        ]
    )
    return proc, json.loads(out.read_text())


class TestVerifyCommand:

    def test_exit_zero_and_inequality(self, square_report):
        proc, report = square_report
        assert proc.returncode == 0
        assert report["inequality_holds"] is True
        assert report["margin"] > 0

    def test_report_fields(self, square_report):
        _, report = square_report
        for key in (
            "domain",
            "m",
            "area",
            "R",
            "upsilon1_fem",
            "upsilon1_fem_error_bar",
            "upsilon1_mps",
            "bound",
            "certificate",
            "inequality_holds",
            "strict",
            "margin",
            "nonsmooth",
            "config",
        ):
            assert key in report
        assert report["nonsmooth"] is True
        assert report["certificate"]["valid"] is True

    def test_config_echo(self, square_report):
        _, report = square_report
        cfg = report["config"]
        assert cfg["command"] == "verify"
        assert cfg["domain"] == "polygon:0,0;1,0;1,1;0,1"
        assert cfg["h_list"] == [0.2, 0.1, 0.06]
        assert set(cfg) == {"command", "domain", "h_list", "m", "mps"}

    def test_square_anchors(self, square_report):
        _, report = square_report
        assert report["upsilon1_fem"] == pytest.approx(math.pi**4, rel=1e-3)
        assert report["bound"] == pytest.approx(113.42, abs=0.01)

    def test_bad_domain_exits_1(self):
        proc = run_cli(["verify", "--domain", "blob:1,2", "--m", "1"])
        assert proc.returncode == 1
        assert "failed" in proc.stderr

    def test_malformed_spec_exits_1(self, capsys):
        assert cli.main(["verify", "--domain", "disk:1,2"]) == 1
        err = capsys.readouterr().err
        assert "verify failed during setup: disk needs 3 parameters cx,cy,R, got 2" in err

    def test_malformed_h_list_exits_2(self, capsys):
        proc = run_cli(["verify", "--domain", "disk", "--h-list", "0.2,abc"])
        assert proc.returncode == 2
        assert "mesh sizes" in proc.stderr
        # too short, not strictly descending, not positive and finite
        for h_list in ("0.2,0.1", "0.1,0.2,0.3", "0.2,-0.1,0.05", "0.2,0.1,0.1",
                       "inf,0.2,0.1", "0.2,0.1,nan"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--domain", "disk", "--h-list", h_list])
            assert exc.value.code == 2, h_list
            assert "mesh sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "9", "-1"])
    def test_power_out_of_range_exits_2(self, m, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--domain", "disk", "--m", m])
        assert exc.value.code == 2
        assert "--m" in capsys.readouterr().err

    def test_order_flag_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--domain", "disk", "--order", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order 2" in capsys.readouterr().err

    def test_threads_flag_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--domain", "disk", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_solver_failure_names_stage_and_mesh(self, monkeypatch, capsys):
        monkeypatch.setattr(fem, "RESIDUAL_TOL", 0.0)
        fem._study.cache_clear()  # a kept study would skip the gate
        code = cli.main(["verify", "--domain", "square", "--h-list", "0.3,0.2,0.12",
                         "--no-mps"])
        assert code == 1
        err = capsys.readouterr().err
        assert "verify failed during fem convergence study" in err
        assert "h=0.3" in err and "ndof=" in err

    def test_disk_equality_case_exits_zero(self, tmp_path):
        # the README pipeline: verify on the disk, then plot its mode
        report, mode = tmp_path / "disk.json", tmp_path / "mode.txt"
        code = cli.main(["verify", "--domain", "disk", "--h-list", "0.16,0.12,0.08",
                         "--no-mps", "--out", str(report), "--save-eigenfunction", str(mode)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["inequality_holds"] is True
        assert rep["strict"] is False
        assert rep["certificate"]["valid"] is True
        svg = tmp_path / "mode.svg"
        assert cli.main(["plot", str(mode), "eigenfunction", "--out", str(svg)]) == 0

    @pytest.mark.parametrize("radius, h_list", [(1e6, "1.6e5,0.8e5,0.4e5"),
                                                (1e-6, "1.6e-7,0.8e-7,0.4e-7")])
    def test_scaled_disk_repeats_the_unit_study(self, radius, h_list, tmp_path):
        # with an absolute shift and gate the 1e6 disk lost a mode and passed
        # at order 0.70, and the 1e-6 disk failed the gate at residual 9.7e14
        reports = tmp_path / "unit.json", tmp_path / "scaled.json"
        for domain, sizes, report in (("disk", "0.16,0.08,0.04", reports[0]),
                                      (f"disk:0,0,{radius!r}", h_list, reports[1])):
            assert cli.main(["verify", "--domain", domain, "--h-list", sizes, "--no-mps",
                             "--out", str(report)]) == 0
        want, got = (json.loads(report.read_text())["convergence"] for report in reports)
        assert got["observed_order"] == pytest.approx(want["observed_order"], abs=1e-6)
        # the values are mu^2, so mu R^2 within 1e-12 is mu^2 R^4 within 2e-12
        assert [v * radius**4 for v in got["values"]] == pytest.approx(want["values"], rel=2e-12)

    def test_fem_value_above_bound_fails(self, monkeypatch, tmp_path, capsys):
        def above_bound(d, h_list):
            b = mu1_ball(Ball(2, 1.0))
            return fem.ConvergenceStudy(
                h_list=tuple(h_list), values=(1.3 * b, 1.25 * b, 1.22 * b),
                observed_order=2.0, extrapolated=1.2 * b, error_bar=0.02 * b,
                monotone=True, vector=None, mesh=None)

        monkeypatch.setattr(cli, "convergence_study", above_bound)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--domain", "disk", "--h-list", "0.16,0.12,0.08",
                         "--no-mps", "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["upsilon1_fem"] - rep["upsilon1_fem_error_bar"] > rep["bound"]
        assert rep["inequality_holds"] is False
        assert rep["strict"] is False
        assert rep["certificate"]["valid"] is True
        below = rep["upsilon1_fem"] - rep["upsilon1_fem_error_bar"]
        assert capsys.readouterr().err == (
            f"verify check failed: inequality: upsilon1_fem - error_bar = {below!r} "
            f"above bound {rep['bound']!r}\n")

    def test_non_monotone_study_fails_naming_it(self, monkeypatch, tmp_path, capsys):
        def non_monotone(d, h_list):
            b = mu1_ball(Ball(2, 1.0))
            return fem.ConvergenceStudy(
                h_list=tuple(h_list), values=(0.99 * b, 0.98 * b, 0.985 * b),
                observed_order=None, extrapolated=None, error_bar=0.005 * b,
                monotone=False, vector=None, mesh=None)

        monkeypatch.setattr(cli, "convergence_study", non_monotone)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--domain", "disk", "--h-list", "0.16,0.12,0.08",
                         "--no-mps", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["inequality_holds"] is True
        assert capsys.readouterr().err == (
            "verify check failed: fem convergence study: values not monotone\n")

    def test_invalid_certificate_fails_naming_the_check(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(trial, "_QUAD_ERROR_CAP", 0.0)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--domain", "disk", "--h-list", "0.16,0.12,0.08",
                         "--no-mps", "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["certificate"]["valid"] is False and rep["inequality_holds"] is True
        err = capsys.readouterr().err
        assert err.startswith("verify check failed: certificate: quotient error ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("h_list, code", [("0.16,0.12,0.08", 1), ("0.08,0.04,0.02", 0)],
                             ids=["pre-asymptotic", "asymptotic"])
    def test_rotated_l_shape_extrapolates_only_in_range(self, h_list, code, tmp_path, capsys):
        # the L-shape rotated by 45 degrees observes order -0.35 on the coarse
        # list, where no Richardson step is taken, and 1.32 on the fine one
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        corners = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        spec = tmp_path / "l45.txt"
        spec.write_text("".join(f"{c * x - s * y!r} {s * x + c * y!r}\n" for x, y in corners))
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--domain", f"polygon:@{spec}", "--h-list", h_list,
                         "--no-mps", "--out", str(out)]) == code
        conv = json.loads(out.read_text())["convergence"]
        err = capsys.readouterr().err
        if code:
            assert conv["monotone"] is True and conv["extrapolated"] is None
            assert conv["observed_order"] == pytest.approx(-0.3515, abs=1e-4)
            assert err == ("verify check failed: fem convergence study: observed order "
                           f"{conv['observed_order']!r} at h = 0.16, 0.12, 0.08 not above 0.5\n")
        else:
            assert conv["extrapolated"] is not None
            assert conv["observed_order"] == pytest.approx(1.3155, abs=1e-4)
            assert err == ""

    def test_report_is_strict_json(self, tmp_path):
        # at R = 1e-11 the m = 4 certificate reaches 1.7e180, still a double
        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        out = tmp_path / "tiny.json"
        code = cli.main(["verify", "--domain", "disk:0,0,1e-11", "--m", "4",
                         "--h-list", "1.6e-12,1.2e-12,8e-13", "--no-mps", "--out", str(out)])
        rep = json.loads(out.read_text(), parse_constant=no_constant)
        assert rep["certificate"]["certified"] == pytest.approx(1.744e180, rel=1e-3)
        assert rep["certificate"]["valid"] is True
        assert rep["certificate"]["strict"] is False
        passes = rep["inequality_holds"] and rep["convergence"]["extrapolated"] is not None
        assert code == (0 if passes else 1)
        assert code == 0  # the FEM value lies below the bound, within its bar

    def test_tiny_disk_equality_case_exits_zero(self, tmp_path):
        # nothing in the FEM study may depend on the scale: at radius 1e-20
        # a chain of mass solves on A v overflowed
        out = tmp_path / "tiny.json"
        code = cli.main(["verify", "--domain", "disk:0,0,1e-20", "--h-list",
                         "1.6e-21,1.2e-21,8e-22", "--no-mps", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["inequality_holds"] is True
        assert rep["certificate"]["valid"] is True

    def test_bound_beyond_doubles_fails_in_setup(self, tmp_path, capsys):
        # at radius 1e30 the bound (j'11/R)^8 underflows to 0, which would
        # certify nothing, and so would every value compared with it
        out = tmp_path / "huge.json"
        code = cli.main(["verify", "--domain", "disk:0,0,1e30", "--m", "4", "--h-list",
                         "8e28,4e28,2e28", "--no-mps", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "verify failed during setup: value 0.0 is outside the range of positive doubles")
        assert not out.exists()

    def test_raised_value_beyond_doubles_fails_in_the_study(self, tmp_path):
        # at this radius the bound (j'11/R)^16 is 2.0e-5 below the largest
        # double, but mu_h on the coarsest mesh (h = 0.16 R) lies 5e-6 above
        # (j'11/R)^2, so mu_h^8 overflows
        out = tmp_path / "tiny.json"
        proc = run_cli(["verify", "--domain", "disk:0,0,9.9810898e-20", "--m", "4", "--h-list",
                        "1.6e-20,1.2e-20,8e-21", "--no-mps", "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr == ("verify failed during fem convergence study: value inf is "
                               "outside the range of positive doubles\n")
        assert not out.exists()

    def test_highest_power(self, tmp_path):
        out = tmp_path / "m8.json"
        code = cli.main(["verify", "--domain", "square", "--m", "8", "--h-list",
                         "0.16,0.12,0.08", "--no-mps", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert abs(rep["upsilon1_fem"] - math.pi**32) <= rep["upsilon1_fem_error_bar"]
        assert rep["strict"] is True and rep["certificate"]["strict"] is True

    def test_mps_at_every_power(self):
        # one window, centered on the FEM frequency, serves every m
        h_list = (0.16, 0.12, 0.08)
        first, second = (cli.build_verification_report("ellipse-1.5", m, h_list)
                         for m in (1, 2))
        assert second["config"]["mps"] is True
        assert second["upsilon1_mps"] == pytest.approx(first["upsilon1_mps"] ** 2, rel=1e-14)
        assert cli._mps_warning(first) is None and cli._mps_warning(second) is None
        assert (first["convergence"]["observed_order"]
                == second["convergence"]["observed_order"])

    def test_save_eigenfunction_dumps_the_study_mesh(self, tmp_path):
        # the finest mesh of a halving list is the refined one, not a lattice
        mode = tmp_path / "mode.txt"
        code = cli.main(["verify", "--domain", "ellipse-1.5", "--h-list", "0.08,0.04,0.02",
                         "--no-mps", "--out", str(tmp_path / "r.json"),
                         "--save-eigenfunction", str(mode)])
        assert code == 0
        d = cli._resolve_domain("ellipse-1.5")
        study = fem.convergence_study(d, (0.08, 0.04, 0.02))
        fine = study.mesh
        assert len(fine.triangles) == 16 * len(cached_mesh(d, 0.08).triangles)
        lines = mode.read_text().splitlines()
        nv, nt = (int(v) for v in lines[0].split()[2:])
        assert (nv, nt) == (len(fine.vertices), len(fine.triangles))
        assert float(lines[1].split()[3]) == study.vector[0]

    def test_mps_window_at_large_scale(self):
        # the window follows the FEM value at any scale; a floor at 1e-10
        # once put it round the disk's second eigenvalue
        proc = run_cli(["verify", "--domain", "disk:0,0,1000", "--h-list", "160,120,80",
                        "--m", "1"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        exact = upsilon1_poly_ball(Ball(2, 1000.0), 1)  # (j'_11 / 1000)^4
        assert abs(report["upsilon1_mps"] - exact) <= 1e-6 * exact

    def test_mps_without_minimum_warns(self):
        # on the stadium the only minimum in the window has sigma ~1e-2
        proc = run_cli(["verify", "--domain", "stadium", "--m", "1",
                        "--h-list", "0.16,0.12,0.08"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["config"]["mps"] is True
        assert report["upsilon1_mps"] is None
        assert "during mps" in proc.stderr
        assert "upsilon1_mps is null" in proc.stderr

    def test_mps_outside_fem_bars_warns(self, tmp_path, monkeypatch, capsys):
        # a minimum 10% above the window's center frequency: its value is
        # some 46% above the FEM value, far outside the FEM error bars
        def far_minimum(d, problem, window, n):
            w = 1.1 * 0.5 * (window[0] + window[1])
            return [MpsEigenvalue(value=w**4, omega=w, sigma=1e-9)]

        monkeypatch.setattr(cli, "mps_find", far_minimum)
        code = cli.main(["verify", "--domain", "ellipse-1.5", "--h-list", "0.16,0.12,0.08",
                         "--out", str(tmp_path / "r.json")])
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith("verify warning during mps: upsilon1_mps=")
        assert f"{cli.MPS_FEM_BARS:g} error bars" in err

    def test_reports_byte_identical(self, tmp_path):
        args = [
            "verify",
            "--domain",
            "triangle",
            "--m",
            "1",
            "--h-list",
            "0.3,0.2,0.12",
            "--no-mps",
        ]
        p1 = run_cli(args)
        p2 = run_cli(args)
        assert p1.returncode == p2.returncode
        assert p1.stdout == p2.stdout


def regular_polygon(n: int) -> str:
    """Spec of the regular n-gon inscribed in the unit circle."""
    return "polygon:" + ";".join(f"{math.cos(2 * math.pi * k / n)!r},"
                                 f"{math.sin(2 * math.pi * k / n)!r}" for k in range(n))


class TestDefaultHList:
    @pytest.mark.parametrize("name", ["disk", "ellipse-1.2", "ellipse-1.5", "ellipse-2.0",
                                      "stadium", "square", "triangle"])
    def test_corpus_defaults(self, name):
        d = cli._resolve_domain(name)
        want = fem.DEFAULT_H_LIST if name in ("square", "triangle") else fem.MAPPED_H_LIST
        assert fem.convergence_study(d).h_list == want

    @pytest.mark.parametrize("spec", [
        # cornered superellipses keep straight elements and the fine list
        "superellipse:1,1,2.05", "superellipse:1,1,2.2", "superellipse:1,1,2.5",
        # the mesher refuses the coarse list: refine's quality at 0.04, a
        # 0.06 straight shorter than 0.16 / 2, a perimeter below 8 * 0.16
        "superellipse:1,1,40", "stadium:0.03,1", "disk:0,0,0.15",
        # polygons keep the fine list; the 128-gon's edges are 0.049 long
        regular_polygon(64), regular_polygon(128),
    ], ids=["se-2.05", "se-2.2", "se-2.5", "se-40", "stadium-0.03", "disk-0.15", "64-gon",
            "128-gon"])
    def test_non_corpus_inputs_take_the_fine_list(self, spec, tmp_path):
        # each exits 0, as it did when the fine list was every shape's default
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--domain", spec, "--no-mps", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["h_list"] == list(fem.DEFAULT_H_LIST)
        assert report["convergence"]["h"] == list(fem.DEFAULT_H_LIST)

    @pytest.mark.parametrize("error, falls_back", [
        (MeshQualityError("refused"), True), (GeometryError("refused"), True),
        (RuntimeError("not the mesher's refusal"), False),
    ], ids=["quality", "geometry", "other"])
    def test_only_the_mesher_refusal_falls_back(self, error, falls_back, monkeypatch):
        d = cli._resolve_domain("disk")
        refine = fem.refine

        def refusing(mesh):
            if mesh.h == fem.MAPPED_H_LIST[0]:
                raise error
            return refine(mesh)

        monkeypatch.setattr(fem, "refine", refusing)
        fem._study.cache_clear()  # a kept study would build no mesh
        if falls_back:
            assert fem.convergence_study(d).h_list == fem.DEFAULT_H_LIST
        else:
            with pytest.raises(RuntimeError, match="not the mesher"):
                fem.convergence_study(d)

    def test_solver_failure_takes_no_second_list(self, monkeypatch, capsys):
        sizes = []

        def failing_solve(mesh, count, coarse=None):
            sizes.append(mesh.h)
            raise fem.SolverError("no convergence")

        monkeypatch.setattr(fem, "_pencil_solve", failing_solve)
        fem._study.cache_clear()  # a kept study would skip the solve
        assert cli.main(["verify", "--domain", "ellipse-1.5", "--no-mps"]) == 1
        assert sizes == [fem.MAPPED_H_LIST[0]]
        assert capsys.readouterr().err == ("verify failed during fem convergence study: "
                                           "no convergence\n")


class TestPlotCommand:
    def test_sigma_plot(self, tmp_path):
        csv = tmp_path / "curve.csv"
        proc = run_cli(
            [
                "sigma-scan",
                "--domain",
                "disk:0,0,1",
                "--lo",
                "1.5",
                "--hi",
                "2.5",
                "--trunc",
                "10",
                "--grid",
                "20",
                "--out",
                str(csv),
            ]
        )
        assert proc.returncode == 0
        svg = tmp_path / "curve.svg"
        p1 = run_cli(["plot", str(csv), "sigma", "--out", str(svg)])
        assert p1.returncode == 0
        body = svg.read_text()
        assert body.startswith("<?xml")
        assert "polyline" in body
        first = svg.read_bytes()
        run_cli(["plot", str(csv), "sigma", "--out", str(svg)])
        assert svg.read_bytes() == first  # byte-deterministic

    def test_sigma_parse_error_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("omega,sigma\n1.0,0.5\nnot-a-number\n")
        proc = run_cli(["plot", str(bad), "sigma", "--out", str(tmp_path / "x.svg")])
        assert proc.returncode == 1
        assert "line 3" in proc.stderr

    @pytest.mark.parametrize("rows, message", [
        ("nan,0.5\n2.0,0.25\n", "line 2: bad sigma-curve row"),
        ("1.0,0.5\n2.0,inf\n", "line 3: bad sigma-curve row"),
        ("1.0,0.5\ninf,0.25\n", "line 3: bad sigma-curve row"),
        ("1.0,nan\n2.0,0.25\n", "line 2: bad sigma-curve row"),
        ("1.0,0.5\n", "sigma curve has nothing to draw"),
        ("", "sigma curve has nothing to draw"),
    ], ids=["nan-omega", "inf-sigma", "inf-omega", "nan-sigma", "one-row", "no-rows"])
    def test_sigma_curve_with_nothing_finite_to_draw_fails(self, rows, message, tmp_path,
                                                           capsys, recwarn):
        # a CSV is input from outside the program: unchecked, these drew nan
        # or inf coordinates, warned, or failed with numpy's own message
        csv, svg = tmp_path / "bad.csv", tmp_path / "bad.svg"
        csv.write_text("omega,sigma\n" + rows)
        assert cli.main(["plot", str(csv), "sigma", "--out", str(svg)]) == 1
        assert capsys.readouterr().err.startswith(f"plot failed: {message}")
        assert not svg.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_convergence_plot(self, tmp_path):
        data = {
            "h": [0.2, 0.1, 0.05],
            "values": [9.88, 9.8723, 9.8703],
            "extrapolated": 9.8696,
            "observed_order": 2.0,
        }
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(data))
        svg = tmp_path / "conv.svg"
        proc = run_cli(["plot", str(path), "convergence", "--out", str(svg)])
        assert proc.returncode == 0
        assert "fitted slope" in svg.read_text()

    def test_eigenfunction_plot(self, tmp_path):
        import numpy as np

        from neuspec.fem import _pencil_solve
        from neuspec.geometry import Disk
        from neuspec.meshing import save_mesh
        from neuspec.quadrature import cached_mesh

        mesh = cached_mesh(Disk((0, 0), 1.0), 0.15)
        values = _pencil_solve(mesh, 1)[1][: len(mesh.vertices), 0]
        # lowest disk mode has a diameter nodal line: signs on both sides,
        # near-zero values at the center
        center_idx = int(np.argmin(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])))
        assert abs(values[center_idx]) < 0.25 * np.abs(values).max()
        assert values.min() < 0 < values.max()
        dump = tmp_path / "mode.txt"
        save_mesh(mesh, dump, vertex_values=values)
        svg = tmp_path / "mode.svg"
        proc = run_cli(["plot", str(dump), "eigenfunction", "--out", str(svg)])
        assert proc.returncode == 0
        assert "polygon points=" in svg.read_text()

    def test_missing_values_column(self, tmp_path):
        from neuspec.geometry import Disk
        from neuspec.meshing import save_mesh
        from neuspec.quadrature import cached_mesh

        dump = tmp_path / "plain.txt"
        save_mesh(cached_mesh(Disk((0, 0), 1.0), 0.3), dump)
        proc = run_cli(["plot", str(dump), "eigenfunction", "--out", str(tmp_path / "x.svg")])
        assert proc.returncode == 1

    @pytest.mark.parametrize("vertex, triangle, named", [
        ("0 0 1 0.3", "0 1 -1", "triangle line 5"),
        ("0 0 1 0.3", "0 1 7", "triangle line 5"),
        ("nan 0 1 0.3", "0 1 2", "vertex line 2"),
    ], ids=["negative-index", "index-past-end", "nan-coordinate"])
    def test_bad_mesh_file_fails(self, vertex, triangle, named, tmp_path):
        # a mesh file is input from outside the program: unchecked, an index
        # -1 wraps to the last vertex and a NaN reaches the SVG
        dump = tmp_path / "bad.txt"
        dump.write_text(f"mesh v1 3 1\n{vertex}\n1 0 1 0.5\n0 1 1 0.1\n{triangle}\n")
        svg = tmp_path / "bad.svg"
        proc = run_cli(["plot", str(dump), "eigenfunction", "--out", str(svg)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("plot failed: ") and named in proc.stderr
        assert not svg.exists()

    @pytest.mark.parametrize("text, named", [
        ("mesh v1 3 1\n0 0 1 0.3\n0 0 1 0.5\n0 0 1 0.1\n0 1 2\n", "every vertex at one point"),
        ("mesh v1 0 0\n", "no vertices"),
    ], ids=["zero-span", "empty"])
    def test_mesh_with_nothing_to_draw_fails(self, text, named, tmp_path):
        # unchecked, a zero span divides by zero: numpy warns and nan reaches
        # the SVG; an empty file was refused as carrying no value column
        dump = tmp_path / "flat.txt"
        dump.write_text(text)
        svg = tmp_path / "flat.svg"
        proc = run_cli(["plot", str(dump), "eigenfunction", "--out", str(svg)])
        assert proc.returncode == 1
        assert proc.stderr == f"plot failed: mesh file has nothing to draw: {named}\n"
        assert not svg.exists()

    def test_collinear_mesh_plots(self, tmp_path):
        dump = tmp_path / "line.txt"
        dump.write_text("mesh v1 3 1\n0 0 1 0.3\n1 1 1 0.5\n2 2 1 0.1\n0 1 2\n")
        svg = tmp_path / "line.svg"
        proc = run_cli(["plot", str(dump), "eigenfunction", "--out", str(svg)])
        assert proc.returncode == 0 and proc.stderr == ""
        assert "nan" not in svg.read_text()


class TestSigmaScanCommand:
    @pytest.mark.parametrize("flags, named", [
        (["--trunc", "0"], "--trunc"),
        (["--trunc", "61"], "--trunc"),
        (["--grid", "0"], "--grid"),
        (["--grid", "-3"], "--grid"),
        (["--lo", "0"], "--lo"),
        (["--lo", "-1"], "--lo"),
        (["--hi", "inf"], "--hi"),
        (["--lo", "nan"], "--lo"),
        (["--lo", "2"], "--lo must be below --hi"),
        (["--lo", "3"], "--lo must be below --hi"),
    ])
    def test_bad_arguments_exit_2(self, flags, named, tmp_path, capsys):
        argv = ["sigma-scan", "--domain", "disk", "--lo", "1", "--hi", "2",
                "--out", str(tmp_path / "s.csv")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + flags)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_bad_grid_exits_2_from_the_shell(self, tmp_path):
        proc = run_cli(["sigma-scan", "--domain", "disk", "--lo", "1", "--hi", "2",
                        "--grid", "-3", "--out", str(tmp_path / "s.csv")])
        assert proc.returncode == 2
        assert "--grid" in proc.stderr and "Traceback" not in proc.stderr

    def test_nonsmooth_domain_exits_1(self, tmp_path, capsys):
        code = cli.main(["sigma-scan", "--domain", "square", "--lo", "1", "--hi", "2",
                         "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "particular solutions need a smooth domain" in capsys.readouterr().err


class TestParser:
    def test_version(self):
        proc = run_cli(["--version"])
        assert proc.returncode == 0
        assert "neuspec" in proc.stdout

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "neuspec", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "neuspec" in proc.stdout

    def test_missing_command_exits_2(self):
        proc = run_cli([])
        assert proc.returncode == 2

    def test_power_range_is_one_name(self, capsys):
        # every path that takes m accepts 1..MAX_POWER and refuses the next
        top = MAX_POWER
        assert top == 8
        parser = cli.build_parser()
        for command in (["ball"], ["verify", "--domain", "disk"]):
            assert parser.parse_args(command + ["--m", str(top)]).m == top
            with pytest.raises(SystemExit) as exc:
                cli.main(command + ["--m", str(top + 1)])
            assert exc.value.code == 2
            assert f"expected an integer in 1..{top}" in capsys.readouterr().err
        disk = cli._resolve_domain("disk")
        with pytest.raises(ValueError, match=f"m <= {top}"):
            upsilon1_poly_ball(Ball(2, 1.0), top + 1)
        with pytest.raises(ValueError, match=f"1..{top}"):
            fem.eig_polyharmonic_neumann(cached_mesh(disk, 0.16), 1, top + 1)
        with pytest.raises(ValueError, match=f"m <= {top}"):
            trial.certify_upper_bound(disk, top + 1)
        with pytest.raises(cli.StageError, match=f"^setup: .*m <= {top}"):
            cli.build_verification_report("disk", top + 1, use_mps=False)

    def test_warm_reports_equal_cold(self):
        """Reports built after others in one process equal fresh ones byte for byte."""
        def clear_shared_work():
            fem._study.cache_clear()
            trial.trial_quotient.cache_clear()

        runs = [("disk", m) for m in (1, 2, 3, 4)] + [("square", 2), ("disk", 2)]
        h_list = (0.16, 0.12, 0.08)
        clear_shared_work()
        warm = [cli.build_verification_report(d, m, h_list, use_mps=False) for d, m in runs]
        for (d, m), report in zip(runs, warm):
            clear_shared_work()
            cold = cli.build_verification_report(d, m, h_list, use_mps=False)
            assert cli._json_dump(report) == cli._json_dump(cold), (d, m)

        # what the caches and the solver hand out cannot be written through
        disk = cli._resolve_domain("disk")
        res = fem.eig_polyharmonic_neumann(cached_mesh(disk, 0.08), 1, 1)
        center = trial.find_center(disk)[0]
        for arr in (fem.convergence_study(disk, h_list).vector, res.vectors, res.residuals,
                    center):
            with pytest.raises(ValueError):
                arr[..., 0] = 1.0

    def test_one_study_serves_every_power(self, monkeypatch):
        solve, solved = fem._pencil_solve, []

        def counting_solve(mesh, *args):
            solved.append(mesh)
            return solve(mesh, *args)

        monkeypatch.setattr(fem, "_pencil_solve", counting_solve)
        fem._study.cache_clear()
        for domain in ("disk", "square"):
            orders = {cli.build_verification_report(domain, m, (0.16, 0.12, 0.08),
                                                    use_mps=False)["convergence"]["observed_order"]
                      for m in (1, 2, 3, 4)}
            assert len(orders) == 1, domain
        assert len(solved) == 6

    def test_programmatic_report(self):
        report = cli.build_verification_report(
            "disk:0,0,1", 1, (0.3, 0.2, 0.12), use_mps=False
        )
        assert report["domain"] == "disk:0,0,1"
        assert abs(report["margin"]) < 0.2  # coarse equality-case probe
