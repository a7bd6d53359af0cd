import json
import math
import os
import subprocess
import sys

import pytest

from neuspec import cli, fem
from neuspec.ball import Ball, upsilon1_poly_ball

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
        assert cfg["threads"] == 1

    def test_square_anchors(self, square_report):
        _, report = square_report
        assert report["upsilon1_fem"] == pytest.approx(math.pi**4, rel=1e-3)
        assert report["bound"] == pytest.approx(113.42, abs=0.01)

    def test_bad_domain_exits_1(self):
        proc = run_cli(["verify", "--domain", "blob:1,2", "--m", "1"])
        assert proc.returncode == 1
        assert "failed" in proc.stderr

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

    @pytest.mark.parametrize("m", ["0", "5", "-1"])
    def test_power_out_of_range_exits_2(self, m, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--domain", "disk", "--m", m])
        assert exc.value.code == 2
        assert "--m" in capsys.readouterr().err

    def test_solver_failure_names_stage_and_mesh(self, monkeypatch, capsys):
        monkeypatch.setattr(fem, "RESIDUAL_TOL", 0.0)
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

    def test_fem_value_above_bound_fails(self, monkeypatch, tmp_path):
        def above_bound(d, m, h_list, **kwargs):
            b = upsilon1_poly_ball(Ball(2, 1.0), m)
            return fem.ConvergenceStudy(
                h_list=tuple(h_list), values=(1.3 * b, 1.25 * b, 1.22 * b),
                observed_order=2.0, extrapolated=1.2 * b, error_bar=0.02 * b,
                monotone=True, power=m)

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

        from neuspec.fem import eig_neumann_laplacian
        from neuspec.geometry import Disk
        from neuspec.meshing import save_mesh
        from neuspec.quadrature import cached_mesh

        mesh = cached_mesh(Disk((0, 0), 1.0), 0.15)
        res = eig_neumann_laplacian(mesh, 1, order=2)
        values = res.vectors[: len(mesh.vertices), 0]
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

    def test_programmatic_report(self):
        report = cli.build_verification_report(
            "disk:0,0,1", 1, (0.3, 0.2, 0.12), use_mps=False
        )
        assert report["domain"] == "disk:0,0,1"
        assert abs(report["margin"]) < 0.2  # coarse equality-case probe
