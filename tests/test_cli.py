"""Command-line surface: exit codes, JSON envelopes, CSV side effects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eigensphere import cli
from eigensphere.cli import main
from eigensphere.errors import InsufficientYield
from eigensphere.geometry import read_cloud


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestEigenCheck:
    def test_positive(self, capsys):
        code, report, _ = run_json(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2",
        )
        assert code == 0
        assert report["verdict"] == {
            "is_eigen": True, "k": 2, "n": 3, "lambda": -8, "mu": -4, "failure": None,
        }
        assert report["command"] == "eigen-check"
        assert report["inputs"]["poly"] == "z1^2+z2^2"

    def test_negative(self, capsys):
        code, report, _ = run_json(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "3",
            "--poly", "x1^2",
        )
        assert code == 1
        assert report["verdict"]["failure"]["condition"] == "laplacian_P"

    def test_dimension_mismatch(self, capsys):
        code, _out, err = run(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "2",
            "--poly", "z1",
        )
        assert code == 3
        assert "sphere-dim" in err

    def test_parse_error(self, capsys):
        code, _out, err = run(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1 +",
        )
        assert code == 3
        assert "error" in err

    def test_human_output(self, capsys):
        code, out, _ = run(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2",
        )
        assert code == 0
        assert "eigenfunction: yes" in out
        assert "lambda = -8" in out

    def test_single_json_document(self, capsys):
        _code, out, _ = run(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--json",
        )
        json.loads(out)  # whole stdout is one document


class TestMinimalLine:
    def test_clifford_exact(self, capsys):
        code, report, _ = run_json(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", "1,0",
        )
        assert code == 0
        assert report["verdict"]["status"] == "ExactMinimal"
        assert report["verdict"]["certificate"] == "8"

    def test_lawson_line(self, capsys):
        code, report, _ = run_json(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2*z2", "--line", "0,1",
        )
        assert code == 0
        assert report["verdict"]["status"] in ("ExactMinimal", "NumericMinimal")

    def test_cross_check_records_samples(self, capsys):
        code, report, _ = run_json(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", "0,1",
            "--samples", "50", "--cross-check",
        )
        assert code == 0
        assert report["verdict"]["samples"] == 50
        assert report["verdict"]["max_residual"] < 1e-8

    def test_not_eigen(self, capsys):
        code, _out, err = run(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "x1+x2", "--line", "1,0",
        )
        assert code == 3
        assert "condition" in err

    def test_bad_line_format(self, capsys):
        code, _out, err = run(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", "1;0",
        )
        assert code == 3


class TestMinimalZero:
    def test_quadric(self, capsys):
        code, report, _ = run_json(
            capsys, "minimal-zero", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--samples", "40",
        )
        assert code == 0
        assert report["verdict"]["status"] == "NumericMinimal"

    def test_flat_sections_reported(self, capsys):
        code, report, _ = run_json(
            capsys, "minimal-zero", "--vars", "5", "--sphere-dim", "4",
            "--poly", "z1^3+z2^3", "--samples", "40",
        )
        assert code == 0
        assert report["verdict"]["diagnostics"]["flat_section_max_residual"] < 1e-8

    def test_singular_fiber(self, capsys):
        code, _out, err = run(
            capsys, "minimal-zero", "--vars", "4", "--sphere-dim", "3",
            "--poly", "x1", "--samples", "20",
        )
        assert code == 3
        assert "regularity" in err


@pytest.mark.parametrize("command, extra", [
    ("minimal-line", ("--line", "1,0")),
    ("minimal-zero", ()),
])
@pytest.mark.parametrize("thresholds, named", [
    (("--tol", "-1"), "tol -1.0"),
    (("--tol", "0"), "tol 0.0"),
    (("--tol", "nan"), "tol nan"),
    (("--reject", "1e-9"), "reject 1e-09"),
    (("--tol", "1e-3", "--reject", "1e-3"), "reject 0.001"),
])
def test_bad_thresholds_exit_3(capsys, command, extra, thresholds, named):
    code, out, err = run(
        capsys, command, "--vars", "4", "--sphere-dim", "3", "--poly", "z1^2+z2^2",
        *extra, *thresholds,
    )
    assert code == 3
    assert out == ""
    assert named in err


class TestSample:
    def test_clifford_with_stereo(self, capsys, tmp_path):
        out_file = tmp_path / "torus.csv"
        code, report, _ = run_json(
            capsys, "sample", "--vars", "4",
            "--constraint", "x1^2-x2^2+x3^2-x4^2",
            "--count", "50", "--seed", "3", "--out", str(out_file), "--stereo", "4",
        )
        assert code == 0
        assert report["verdict"]["points_written"] == 50
        cloud = read_cloud(str(out_file))
        assert len(cloud) == 50
        assert cloud.stereo.shape == (50, 3)
        torus = cloud.points[:, 0] ** 2 + cloud.points[:, 2] ** 2
        assert max(abs(torus - 0.5)) < 1e-10

    def test_lawson_constraint(self, capsys, tmp_path):
        out_file = tmp_path / "lawson.csv"
        # Im(z1^2 * conj(z2)) expanded over real coordinates
        expr = "2*x1*x2*x3 - x1^2*x4 + x2^2*x4"
        code, report, _ = run_json(
            capsys, "sample", "--vars", "4", "--constraint", expr,
            "--count", "30", "--out", str(out_file),
        )
        assert code == 0
        assert len(read_cloud(str(out_file))) == 30

    def test_count_zero(self, capsys, tmp_path):
        code, _out, err = run(
            capsys, "sample", "--vars", "4", "--constraint", "x4",
            "--count", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3

    def test_partial_yield_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "partial.csv"
        code, _out, err = run(
            capsys, "sample", "--vars", "4",
            "--constraint", "x1", "--constraint", "x1 - 1",
            "--count", "10", "--out", str(out_file),
        )
        assert code == 2
        assert "warning" in err
        assert out_file.exists()
        assert len(read_cloud(str(out_file))) == 0

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_bad_tol_exit_3(self, capsys, tmp_path, tol):
        out_file = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "sample", "--vars", "4", "--constraint", "x1^2+x3^2-1/2",
            "--count", "5", "--tol", tol, "--out", str(out_file),
        )
        assert code == 3
        assert out == ""
        assert f"got {float(tol)!r}" in err
        assert not out_file.exists()

    def test_complex_constraint_rejected(self, capsys, tmp_path):
        code, _out, err = run(
            capsys, "sample", "--vars", "4", "--constraint", "z1",
            "--count", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "real" in err


class TestLawson:
    def test_torus(self, capsys):
        code, out, _ = run(capsys, "lawson", "--n", "1", "--m", "3")
        assert code == 0
        assert out.strip() == "Torus"

    def test_json(self, capsys):
        code, report, _ = run_json(capsys, "lawson", "--n", "2", "--m", "1")
        assert code == 0
        assert report["verdict"]["type"] == "KleinBottle"

    def test_both_zero(self, capsys):
        code, _out, err = run(capsys, "lawson", "--n", "0", "--m", "0")
        assert code == 3


class TestSearch:
    def test_linear_search(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "--vars", "4", "--degree", "1",
            "--attempts", "8", "--seed", "7",
        )
        assert code == 0
        results = report["verdict"]["results"]
        assert results[0]["residual"] < 1e-10
        assert any(r["exact"] for r in results)

    @pytest.mark.parametrize("extra, message", [
        (("--attempts", "-2"), "attempts"),
        (("--attempts", "0", "--denominator-bound", "0"), "denominator bound"),
        (("--attempts", "1", "--denominator-bound", "-1"), "denominator bound"),
    ])
    def test_invalid_arguments(self, capsys, extra, message):
        code, out, err = run(capsys, "search", "--vars", "4", "--degree", "1", *extra)
        assert code == 3
        assert out == ""
        assert message in err

    def test_over_memory_budget(self, capsys):
        code, out, err = run(
            capsys, "search", "--vars", "8", "--degree", "6", "--attempts", "1",
        )
        assert code == 3
        assert out == ""
        assert "budget" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, report, _ = run_json(capsys, "selftest")
        assert code == 0
        assert report["verdict"]["passed"] is True
        assert all(s["passed"] for s in report["verdict"]["suites"])


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 3

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_missing_required_flag(self, capsys):
        assert main(["eigen-check", "--vars", "4"]) == 3


def _escaping_insufficient_yield(monkeypatch, tmp_path):
    def give_up(*_args, **_kwargs):
        raise InsufficientYield("no reliable fiber samples")

    monkeypatch.setattr(cli, "check_minimal_codim1", give_up)
    return ["minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", "1,0"]


def _missing_out_directory(monkeypatch, tmp_path):
    return ["sample", "--vars", "4", "--constraint", "x4", "--count", "3",
            "--out", str(tmp_path / "missing" / "cloud.csv")]


@pytest.mark.parametrize("make_argv, code", [
    (_escaping_insufficient_yield, 2),
    (_missing_out_directory, 3),
])
def test_escaping_errors_map_to_exit_codes(capsys, monkeypatch, tmp_path, make_argv, code):
    exit_code, out, err = run(capsys, *make_argv(monkeypatch, tmp_path))
    assert exit_code == code
    assert out == ""
    assert err.startswith("error: ")


REPO_ROOT = Path(__file__).resolve().parent.parent


class TestInstalledScript:
    def test_console_script(self, tmp_path):
        # Build the `eigensphere` script the way an installer would, from
        # [project.scripts] and the package root in pyproject.toml, so the
        # command runs this tree's package and not whatever is on PATH.
        tomllib = pytest.importorskip("tomllib")
        config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        module, attr = config["project"]["scripts"]["eigensphere"].split(":")
        where = config["tool"]["setuptools"]["packages"]["find"]["where"]
        script = tmp_path / "eigensphere"
        script.write_text(
            f"#!{sys.executable}\n"
            f"import sys; from {module} import {attr}; sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        # PYTHONPATH holds only the package roots, so a missing `where`
        # directory fails here rather than falling back to an inherited path.
        env = {
            **os.environ,
            "PATH": os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]),
            "PYTHONPATH": os.pathsep.join(str(REPO_ROOT / d) for d in where),
        }
        proc = subprocess.run(
            [
                "eigensphere", "eigen-check", "--vars", "4", "--sphere-dim", "3",
                "--poly", "z1^2+z2^2", "--json",
            ],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["verdict"]["lambda"] == -8

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eigensphere", "lawson", "--n", "0", "--m", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Sphere"
