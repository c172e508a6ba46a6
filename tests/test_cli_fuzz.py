"""Derandomized fuzzing of the command line: every run ends in an exit code.

`cli.main` is driven with cheap, often malformed argument lists for
`eigen-check`, `minimal-line`, `minimal-zero`, `sample` and `lawson`.
Whatever the input, no exception may escape `main` and the exit code must
be one of the four documented bands 0-3.  With `--json`, standard output is
empty or exactly one strict JSON document (no NaN or Infinity), and a
verdict (exit 0 or 1) always prints one.  Integers and exponents stay at one
digit and sample counts at 3 or fewer, so each example runs in milliseconds.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from eigensphere.cli import main  # noqa: E402

DIGITS = st.integers(0, 9).map(str)

REAL_FACTORS = st.builds("x{}".format, st.integers(1, 5))
FACTORS = st.one_of(
    st.builds("z{}".format, st.integers(1, 3)),
    st.builds("conj(z{})".format, st.integers(1, 3)),
    REAL_FACTORS,
    st.just("i"),
)


def polys(factors):
    terms = st.builds(
        lambda coeff, factors: "*".join([coeff, *factors]),
        st.one_of(DIGITS, st.builds("{}/{}".format, DIGITS, DIGITS)),
        st.lists(st.builds("{}^{}".format, factors, st.integers(0, 6)), min_size=1, max_size=2),
    )
    return st.one_of(
        st.sampled_from(["z1^2+z2^2", "z1^3*conj(z2)^2", "z1^2*z2", "x1^2-x2^2", "x4", "z1",
                         "", "z1^"]),
        st.lists(terms, min_size=1, max_size=3).map("+".join),
    )


POLYS = polys(FACTORS)
REAL_POLYS = polys(REAL_FACTORS)
RATIONALS = st.one_of(
    st.builds(str, st.integers(-9, 9)),
    st.builds("{}/{}".format, st.integers(-9, 9), DIGITS),
)
LINES = st.one_of(
    st.builds("{},{}".format, RATIONALS, RATIONALS),
    st.sampled_from(["1,0", "1/0,1", "1", "1,2,3", "a,b", ",", "1;0"]),
)
THRESHOLDS = st.sampled_from(["1e-8", "1e-3", "1e-12", "0", "-1", "nan", "inf", "1"])
# an optional flag is given one time in four
GIVEN = st.sampled_from([False, False, False, True])


def _sphere(draw):
    nvars = draw(st.sampled_from([4, 4, 5, 3, 2]))
    sphere_dim = draw(st.sampled_from([nvars - 1, nvars - 1, nvars - 1, nvars, 0]))
    return ["--vars", str(nvars), "--sphere-dim", str(sphere_dim)]


def _numeric(draw):
    argv = ["--samples", str(draw(st.integers(0, 3))), "--seed", draw(DIGITS)]
    if draw(GIVEN):
        argv += ["--tol", draw(THRESHOLDS)]
    if draw(GIVEN):
        argv += ["--reject", draw(THRESHOLDS)]
    return argv


@st.composite
def command_lines(draw, out_path):
    command = draw(st.sampled_from(
        ["eigen-check", "minimal-line", "minimal-zero", "sample", "lawson"]))
    if command == "eigen-check":
        argv = [command, *_sphere(draw), "--poly", draw(POLYS)]
    elif command == "minimal-line":
        argv = [command, *_sphere(draw), "--poly", draw(POLYS), "--line", draw(LINES),
                *_numeric(draw)]
        if draw(st.booleans()):
            argv.append("--cross-check")
    elif command == "minimal-zero":
        argv = [command, *_sphere(draw), "--poly", draw(POLYS), *_numeric(draw)]
    elif command == "sample":
        argv = [command, "--vars", draw(st.sampled_from(["4", "4", "5", "3", "2"])),
                "--count", str(draw(st.integers(0, 3))), "--seed", draw(DIGITS),
                "--out", out_path]
        for constraint in draw(st.lists(st.one_of(REAL_POLYS, POLYS), max_size=2)):
            argv += ["--constraint", constraint]
        if draw(st.booleans()):
            argv += ["--stereo", draw(DIGITS)]
        if draw(GIVEN):
            argv += ["--tol", draw(THRESHOLDS)]
    else:
        argv = [command, "--n", str(draw(st.integers(-1, 9))),
                "--m", str(draw(st.integers(-1, 9)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "cloud.csv")


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_command_line_ends_in_an_exit_code(out_path):
    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(command_lines(out_path))
    def check(argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if "--json" in argv and (stdout.getvalue() or code in (0, 1)):
            json.loads(stdout.getvalue(), parse_constant=_refuse_constant)

    check()
