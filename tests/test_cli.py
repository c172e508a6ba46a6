"""Command-line surface: exit codes, JSON envelopes, CSV side effects."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eigensphere import cli, search
from eigensphere.cli import main
from eigensphere.errors import InsufficientYield
from eigensphere.geometry import read_cloud
from eigensphere.parsing import MAX_TERMS


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

    def test_degree_over_the_limit(self, capsys):
        code, out, err = run(
            capsys, "eigen-check", "--vars", "3", "--sphere-dim", "2",
            "--poly", "x1^4294967296",
        )
        assert code == 3
        assert out == ""
        assert "total degree 4294967296 is over the limit" in err

    def test_nesting_over_the_limit(self, capsys):
        code, out, err = run(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "3",
            "--poly", "(" * 101 + "z1" + ")" * 101,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: parentheses nest deeper than 100 levels")

    def test_long_run_of_minus_signs(self, capsys):
        code, report, _ = run_json(
            capsys, "eigen-check", "--vars", "4", "--sphere-dim", "3",
            "--poly=" + "-" * 1000 + "z1",
        )
        assert code == 0
        assert report["verdict"]["is_eigen"] is True

    def test_high_degree_residual(self, capsys):
        code, report, _ = run_json(
            capsys, "eigen-check", "--vars", "3", "--sphere-dim", "2",
            "--poly", "x1^70000",
        )
        assert code == 1
        assert report["verdict"]["failure"] == {
            "condition": "laplacian_P", "residual": "4899930000*x1^69998",
        }

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

    def test_cross_check_of_linear_pullback(self, capsys):
        # z1 pulls back to a linear P, whose criterion Q is identically zero
        code, report, _ = run_json(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1", "--line", "1,0", "--samples", "50", "--cross-check",
        )
        assert code == 0
        assert report["verdict"]["certificate"] == "Q ≡ 0"
        assert report["verdict"]["samples"] == 50

    @pytest.mark.parametrize("line", [["--line", "-1,2"], ["--line=-1,2"]],
                             ids=["separate", "joined"])
    def test_negative_first_entry(self, capsys, line):
        # argparse alone reads a separate "-1,2" as an option, not as the value
        code, report, _ = run_json(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", *line,
        )
        assert code == 0
        assert report["inputs"]["line"] == "-1,2"
        assert report["verdict"] == {"status": "ExactMinimal", "certificate": "40"}

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

    @pytest.mark.parametrize("line", ["1e3,1", "0.5,1"])
    def test_line_outside_the_grammar(self, capsys, line):
        # exponent notation would let "1e1000000" build a million-digit integer
        code, out, err = run(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", line,
        )
        assert code == 3
        assert out == ""
        assert "[+-]digits[/digits]" in err


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


@pytest.mark.parametrize("command, extra", [
    ("minimal-line", ("--line", "1,0")),
    ("minimal-zero", ()),
])
def test_constant_has_empty_fiber(capsys, command, extra):
    code, out, err = run(
        capsys, command, "--vars", "4", "--sphere-dim", "3", "--poly", "1", *extra)
    assert code == 3
    assert out == ""
    assert "constant" in err


@pytest.mark.parametrize("dims, poly", [
    (("--vars", "4", "--sphere-dim", "3"), "z1^3*conj(z2)^2"),  # exact certificate
    (("--vars", "6", "--sphere-dim", "5"), "z1^2*z2+z3^3"),  # sampled
])
def test_minimal_line_zero_samples_exit_3(capsys, dims, poly):
    code, out, err = run(
        capsys, "minimal-line", *dims, "--poly", poly, "--line", "1,0", "--samples", "0")
    assert code == 3
    assert out == ""
    assert "sample count must be >= 1, got 0" in err


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

    def test_components_in_json(self, capsys):
        code, report, _ = run_json(capsys, "lawson", "--n", "2", "--m", "2")
        assert code == 0
        assert report["verdict"] == {
            "type": "KleinBottle", "components": 2, "reduced_pair": [1, 1],
            "reduced_type": "Torus", "singular_circles": 2}


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

    def test_attempts_over_memory_budget(self, capsys, monkeypatch):
        # every starting point is drawn before the first step: 10^8 of them
        # are refused before any draw, not left to a MemoryError
        monkeypatch.setattr(search, "_AttemptDraws", None)
        started = time.perf_counter()
        code, out, err = run(
            capsys, "search", "--vars", "4", "--degree", "1", "--attempts", "100000000",
        )
        assert time.perf_counter() - started < 1
        assert code == 3
        assert out == ""
        assert err.startswith("error: 100000000 attempts") and "budget" in err


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


class TestCoefficientCap:
    S3 = ["--vars", "4", "--sphere-dim", "3"]

    @pytest.mark.parametrize("argv", [
        ["eigen-check", "--poly", "z1^2 + 10^5000*x1^2"],
        ["minimal-line", "--poly", "10^2200*z1^2", "--line", "1,0"],
        ["minimal-line", "--poly", "z1^2", "--line", "1" + "0" * cli.MAX_COEFF_DIGITS + ",1"],
    ], ids=["eigen-check", "minimal-line", "line-entry"])
    def test_over_the_cap_exits_3_before_exact_work(self, capsys, monkeypatch, argv):
        # these once computed a verdict and then failed to render it
        monkeypatch.setattr(cli, "verify_eigenfunction", None)
        monkeypatch.setattr(cli, "check_minimal_codim1", None)
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], *self.S3, *argv[1:])
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert out == ""
        assert f"over the limit of {cli.MAX_COEFF_DIGITS} digits" in err

    def test_line_entry_is_checked_before_the_polynomial(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "parse", None)
        code, _out, err = run(capsys, "minimal-line", *self.S3, "--poly", "z1^2",
                              "--line", "1,1/1" + "0" * cli.MAX_COEFF_DIGITS)
        assert code == 3
        assert f"over the limit of {cli.MAX_COEFF_DIGITS} digits" in err

    def test_input_at_the_cap_renders_its_certificate(self, capsys):
        # c*z1^2 with a line (a, 1): P = c*(a*x1^2 + 2*x1*x2 - a*x2^2) = x^T A x
        # with A^2 = c^2*(a^2 + 1)*I, so Q = 8*x^T A^3 x = 8*c^2*(a^2 + 1)*P,
        # a quotient of about 4*MAX_COEFF_DIGITS digits
        c = 10 ** (cli.MAX_COEFF_DIGITS - 1) + 7
        a = 10 ** (cli.MAX_COEFF_DIGITS - 1) + 3
        code, report, _err = run_json(capsys, "minimal-line", *self.S3,
                                      "--poly", f"{c}*z1^2", "--line", f"{a},1")
        assert code == 0
        assert report["verdict"] == {"status": "ExactMinimal",
                                     "certificate": str(8 * c**2 * (a**2 + 1))}
        # harmonic, so the gate fails on the square, whose coefficients are about c^2
        code, report, _err = run_json(capsys, "eigen-check", *self.S3,
                                      "--poly", f"{c}*(x1^2 - x2^2)")
        assert code == 1
        failure = report["verdict"]["failure"]
        assert failure["condition"] == "laplacian_P2"
        assert len(failure["residual"]) > 2 * cli.MAX_COEFF_DIGITS


class TestTermCap:
    def test_power_over_the_cap_exits_3_at_once(self, capsys):
        # 62.9M terms with 37-digit coefficients: no other budget refuses it
        start = time.perf_counter()
        code, out, err = run(capsys, "eigen-check", "--vars", "8", "--sphere-dim", "7",
                             "--poly", "(x1+x2+x3+x4+x5+x6+x7+x8)^40")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert f"over the limit of {MAX_TERMS} terms" in err


class TestFloatRange:
    S5 = ["--vars", "6", "--sphere-dim", "5"]

    @pytest.mark.parametrize("argv", [
        ["minimal-zero", "--vars", "4", "--sphere-dim", "3", "--poly", "10^400*z1*z2",
         "--samples", "5"],
        ["sample", "--vars", "3", "--constraint", "10^400*x1", "--count", "5"],
        ["minimal-line", *S5, "--poly", "10^400*(z1^2*z2+z3^3)", "--line", "1,0"],
        # P compiles; the criterion Q, with coefficients of about 10^360, does not
        ["minimal-line", *S5, "--poly", "10^120*(z1^2*z2+z3^3)", "--line", "1,0"],
    ], ids=["minimal-zero", "sample", "minimal-line", "minimal-line-criterion"])
    def test_past_float_range_exits_3(self, capsys, tmp_path, argv):
        out_path = tmp_path / "cloud.csv"
        if argv[0] == "sample":
            argv = [*argv, "--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: a coefficient is past the float range")
        assert not out_path.exists()

    def test_coefficient_sum_past_float_range(self, capsys):
        # each coefficient of P = c*(x1 + x3) is a float, their sum is not
        code, report, _ = run_json(
            capsys, "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "10^308*z1 + 10^308*z2", "--line", "1,0", "--samples", "5",
            "--cross-check")
        assert code == 0
        assert report["verdict"]["certificate"] == "Q ≡ 0"


# one command line per subcommand that takes --vars, for {n} variables
VARS_ARGV = [
    ["eigen-check", "--vars", "{n}", "--sphere-dim", "{dim}", "--poly", "z1"],
    ["minimal-line", "--vars", "{n}", "--sphere-dim", "{dim}", "--poly", "z1", "--line", "1,0"],
    ["minimal-zero", "--vars", "{n}", "--sphere-dim", "{dim}", "--poly", "z1"],
    ["sample", "--vars", "{n}", "--constraint", "x1", "--count", "5", "--out", "{out}"],
    ["search", "--vars", "{n}", "--degree", "1", "--attempts", "1"],
]


class TestVarsCap:
    @pytest.mark.parametrize("argv", VARS_ARGV, ids=[argv[0] for argv in VARS_ARGV])
    def test_over_the_cap_exits_3_at_once(self, capsys, monkeypatch, tmp_path, argv):
        # no polynomial may be built
        monkeypatch.setattr(cli, "parse", None)
        monkeypatch.setattr(cli, "search_eigen", None)
        n = cli.MAX_VARS + 1
        code, out, err = run(capsys, *[a.format(n=n, dim=n - 1, out=tmp_path / "cloud.csv")
                                       for a in argv])
        assert code == 3
        assert out == ""
        assert err == f"error: --vars {n} is over the limit of {cli.MAX_VARS} variables\n"
        assert not (tmp_path / "cloud.csv").exists()

    def test_eigen_check_at_the_cap_answers(self, capsys):
        n = cli.MAX_VARS
        code, report, _ = run_json(
            capsys, "eigen-check", "--vars", str(n), "--sphere-dim", str(n - 1), "--poly", "z1")
        assert code == 0
        assert report["verdict"] == {
            "is_eigen": True, "k": 1, "n": n - 1, "lambda": 1 - n, "mu": -1, "failure": None,
        }


def _escaping_insufficient_yield(monkeypatch, tmp_path):
    def give_up(*_args, **_kwargs):
        raise InsufficientYield("no reliable fiber samples")

    monkeypatch.setattr(cli, "check_minimal_codim1", give_up)
    return ["minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", "1,0"]


def _missing_out_directory(monkeypatch, tmp_path):
    return ["sample", "--vars", "4", "--constraint", "x4", "--count", "3",
            "--out", str(tmp_path / "missing" / "cloud.csv")]


def _line_zero_denominator(monkeypatch, tmp_path):
    return ["minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", "1/0,1"]


def _stereo_pole(pole):
    def make_argv(monkeypatch, tmp_path):
        return ["sample", "--vars", "4", "--constraint", "x4", "--count", "3",
                "--stereo", pole, "--out", str(tmp_path / "cloud.csv")]
    return make_argv


@pytest.mark.parametrize("make_argv, code", [
    (_escaping_insufficient_yield, 2),
    (_missing_out_directory, 3),
    pytest.param(_line_zero_denominator, 3, id="line-zero-denominator"),
    pytest.param(_stereo_pole("9"), 3, id="stereo-beyond-vars"),
    pytest.param(_stereo_pole("0"), 3, id="stereo-zero"),
])
def test_escaping_errors_map_to_exit_codes(capsys, monkeypatch, tmp_path, make_argv, code):
    exit_code, out, err = run(capsys, *make_argv(monkeypatch, tmp_path))
    assert exit_code == code
    assert out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "cloud.csv").exists()


# one command line per subcommand and the key order of its "inputs" block
INPUT_KEYS = [
    (["eigen-check", "--vars", "4", "--sphere-dim", "3", "--poly", "z1"],
     ["vars", "sphere_dim", "poly"]),
    (["minimal-line", "--vars", "4", "--sphere-dim", "3", "--poly", "z1^2+z2^2", "--line", "1,0"],
     ["vars", "sphere_dim", "poly", "line", "samples", "tol", "reject", "seed", "cross_check"]),
    (["minimal-zero", "--vars", "4", "--sphere-dim", "3", "--poly", "z1", "--samples", "3"],
     ["vars", "sphere_dim", "poly", "samples", "tol", "reject", "seed"]),
    (["sample", "--vars", "4", "--constraint", "x4", "--count", "2", "--out", "{out}"],
     ["vars", "constraints", "count", "seed", "tol", "out", "stereo"]),
    (["lawson", "--n", "1", "--m", "1"], ["n", "m"]),
    (["search", "--vars", "4", "--degree", "1", "--attempts", "0"],
     ["vars", "degree", "attempts", "seed", "denominator_bound"]),
    (["selftest"], []),
]


@pytest.mark.parametrize("argv, keys", [pytest.param(*row, id=row[0][0]) for row in INPUT_KEYS])
def test_inputs_key_order(capsys, tmp_path, argv, keys):
    argv = [a.format(out=tmp_path / "cloud.csv") for a in argv]
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["command"] == argv[0]
    assert list(report["inputs"]) == keys


def test_constraints_do_not_accumulate(capsys, tmp_path):
    # the parser is built once per process: a repeatable option must not
    # carry one run's values into the next
    for _ in range(2):
        code, report, _ = run_json(
            capsys, "sample", "--vars", "4", "--constraint", "x4", "--constraint", "x3",
            "--count", "2", "--out", str(tmp_path / "cloud.csv"),
        )
        assert code == 0
        assert report["inputs"]["constraints"] == ["x4", "x3"]


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
