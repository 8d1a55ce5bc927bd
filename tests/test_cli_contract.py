"""The CLI exit-code contract (0 ok, 1 usage, 2 bad input, never a
traceback): one test per input that used to escape it, and a fuzz test
over every subcommand."""
import contextlib
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from z2persist import (
    BifiltrationSpec, PointCloud, RipsParams, klein_height_skeleton, rips_filtration,
)
from z2persist import cli
from z2persist.cli import main


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def files(tmp_path):
    (tmp_path / "p.csv").write_text("0,0\n1,0\n0,1\n")
    (tmp_path / "a.bcx").write_text("0 0 1\n1 0.5 inf\n")
    (tmp_path / "k.fcx").write_text("cell 0 0 0\ncell 1 0 0\ncell 2 1 1 0 1\n")
    return tmp_path


@pytest.mark.parametrize("argv", [
    ("rips", "{d}/p.csv", "--max-dim", "1", "--threshold", "1", "--svg", "{d}/no/x.svg"),
    ("persist", "{d}/k.fcx", "--svg", "{d}/no/x.svg"),
    ("example", "ng3.fcx", "--out", "{d}/no/x"),
], ids=["rips-svg", "persist-svg", "example-out"])
def test_unwritable_output_is_bad_input(files, capsys, argv):
    code, _, err = run_cli(capsys, *(a.format(d=files) for a in argv))
    assert code == 2
    assert err.startswith(f"error: cannot write {files}/no/x")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, fault", [
    ("dir.fcx", "Is a directory"),
    ("bytes.fcx", "codec can't decode byte 0x81"),  # 0x81 is no character in UTF-8 or cp1252
], ids=["directory", "not-utf8"])
def test_unreadable_input_is_bad_input(tmp_path, capsys, name, fault):
    path = tmp_path / name
    if name == "dir.fcx":
        path.mkdir()
    else:
        path.write_bytes(b"cell 0 0 0\n# \x81\n")
    code, out, err = run_cli(capsys, "persist", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and fault in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold=-inf",),
    ("--steps", "3", "--step-size", "nan"), ("--steps", "3", "--step-size", "inf"),
], ids=["threshold-nan", "threshold-inf", "threshold-minus-inf", "step-nan", "step-inf"])
def test_rips_rejects_non_finite_scales(files, capsys, flags):
    code, out, err = run_cli(capsys, "rips", files / "p.csv", "--max-dim", "1", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("steps, step_size, shown", [
    ("3", "1e308", "3 * 1e+308"),
    ("1" + "0" * 400, "1", "1" + "0" * 400 + " * 1.0"),  # too large an int for a float
], ids=["float-overflow", "int-overflow"])
def test_rips_rejects_a_step_product_that_overflows(files, capsys, steps, step_size, shown):
    # both flags are given, so this is bad input, not a missing-flag usage error
    code, out, err = run_cli(capsys, "rips", files / "p.csv", "--max-dim", "1",
                             "--steps", steps, "--step-size", step_size)
    assert (code, out, err) == (2, "", f"error: steps * step_size = {shown} is not finite\n")
    with pytest.raises(ValueError, match=r"^steps \* step_size = 3 \* 1e\+308 is not finite$"):
        RipsParams(max_dim=1, steps=3, step_size=1e308, threshold=1.0)


def test_rips_needs_a_threshold_or_steps(files, capsys):
    code, out, err = run_cli(capsys, "rips", files / "p.csv", "--max-dim", "1")
    assert (code, out, err) == (1, "", "usage error: give --threshold or --steps/--step-size\n")


def test_rips_negative_threshold_keeps_no_cell(files, capsys):
    # no cell enters above the scale limit, vertices included, in either mode
    pc = PointCloud(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    for params in (RipsParams(max_dim=1, threshold=-1.0),
                   RipsParams(max_dim=1, steps=2, step_size=0.5, threshold=-1.0)):
        assert len(rips_filtration(pc, params)) == 0
    code, out, err = run_cli(capsys, "rips", files / "p.csv", "--max-dim", "1", "--threshold", "-1")
    assert (code, out, err) == (0, "", "")


def test_rips_params_reject_non_finite_scales():
    for kwargs in ({"threshold": math.nan}, {"threshold": math.inf},
                   {"steps": 3, "step_size": math.nan}, {"steps": 3, "step_size": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            RipsParams(max_dim=1, **kwargs)


def test_distance_rejects_negative_dim(files, capsys):
    code, out, err = run_cli(capsys, "distance", files / "a.bcx", files / "a.bcx", "--dim", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: --dim must be nonnegative")


@pytest.mark.parametrize("grid, message", [
    ("0:1e9:1e-9", "grid would have more than 100000 values"),
    ("0:1e308:1e-308", "grid would have more than 100000 values"),
    ("-1e308:1e308:1", "grid would have more than 100000 values"),
    ("0:100000:1", "grid would have more than 100000 values"),
    ("0:0:2.225073858507203e-309", "grid would have more than 100000 values"),
    ("0:inf:1", "grid needs finite"),
])
def test_betti_curve_grid_is_bounded(files, grid, message):
    # In a child process with a timeout: without the bound these never finish.
    proc = subprocess.run(
        [sys.executable, "-m", "z2persist.cli", "betti-curve", str(files / "a.bcx"),
         f"--grid={grid}"], capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"usage error: {message}")


@pytest.mark.parametrize("grid", ["0:nan:1", "nan:1:1", "0:1:inf", "0:1:nan"])
def test_betti_curve_grid_must_be_finite(files, capsys, grid):
    code, out, err = run_cli(capsys, "betti-curve", files / "a.bcx", "--grid", grid)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: grid needs finite")


def test_betti_curve_largest_grid_still_runs(files, capsys):
    code, out, _ = run_cli(capsys, "betti-curve", files / "a.bcx", "--grid", "0:99999:1")
    assert code == 0
    assert len(out.splitlines()) == 1 + 100_000


@pytest.mark.parametrize("text, message", [
    ("0,0\ncell 0 0 -2\n", "line 2: malformed number in `cell 0 0 -2`"),
    ("# points\n0,0\n1,0\n\n1,2,3\n", "line 5: 3 coordinates, expected 2"),
    ("0,0\n1,nan\n", "line 2: non-finite coordinate"),
    ("0,0\n1,1e400\n", "line 2: non-finite coordinate"),
], ids=["malformed", "mixed-dimensions", "nan", "overflow"])
def test_point_cloud_errors_carry_line_numbers(tmp_path, capsys, text, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        PointCloud.from_csv(text)
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "rips", path, "--max-dim", "1", "--threshold", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("kwargs", [{"lam": math.inf}, {"lam": math.nan},
                                    {"M": math.inf}, {"M": math.nan}])
def test_spec_rejects_non_finite_spacing_and_bound(kwargs):
    sk, f = klein_height_skeleton(2.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        BifiltrationSpec(sk, f, **kwargs)


def test_extended_rejects_a_bound_whose_cone_overflows(tmp_path, capsys):
    # 2M + lambda - min f is past the floats: the error names the bound,
    # not a cell of the cone
    (tmp_path / "t.spx").write_text("0\n1\n0 1\n")
    (tmp_path / "v.txt").write_text("0 1.0\n1 2.0\n")
    code, out, err = run_cli(capsys, "extended", tmp_path / "t.spx",
                             "--vertex-values", tmp_path / "v.txt", "--bound", "1e308")
    assert (code, out) == (2, "")
    assert err.startswith("error: the bound M=1e+308 and spacing lambda=1.0 ")
    assert "not finite" in err and "cell" not in err and "Traceback" not in err


@pytest.mark.parametrize("bound", [[], ["--bound", "2"]], ids=["default-bound", "bound-max-f"])
def test_extended_rejects_a_spacing_lost_in_rounding(tmp_path, capsys, bound):
    # 2M + lambda rounds to 2M; with M = max f = 2 the cone of the vertex at
    # 2 would enter at 2, with the ascending phase, and a bar would be lost
    (tmp_path / "t.spx").write_text("0\n1\n0 1\n")
    (tmp_path / "v.txt").write_text("0 1.0\n1 2.0\n")
    code, out, err = run_cli(capsys, "extended", tmp_path / "t.spx", "--vertex-values",
                             tmp_path / "v.txt", "--spacing", "1e-20", *bound)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: the bound M={2.0 if bound else 3.0} and spacing lambda=1e-20 ")
    assert err.endswith(" round 2M + lambda to 2M\n") and "Traceback" not in err


def test_extended_rejects_a_bound_that_ties_two_cone_values(tmp_path, capsys):
    # at M=1e16 and lambda=100 the cone values of -1.2 and -1.0 both round
    # to 2M + 100, so the cone would order those vertices by id, not by f
    (tmp_path / "t.spx").write_text("0 1 2\n")
    (tmp_path / "v.txt").write_text("0 -2.0\n1 -1.2\n2 -1.0\n")
    code, out, err = run_cli(capsys, "extended", tmp_path / "t.spx", "--vertex-values",
                             tmp_path / "v.txt", "--bound", "1e16", "--spacing", "100")
    assert (code, out) == (2, "")
    assert err.startswith("error: the bound M=1e+16 and spacing lambda=100.0 ")
    assert "two values of f" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzzing: small random files and flags for every subcommand

TOKENS = ["0", "1", "2", "3", "-1", "0.5", "1e9", "-0", "nan", "inf", "-inf", "1e400",
          "x", "cell", "#", "9223372036854775808"]
_token = st.sampled_from(TOKENS)
_line = st.lists(_token, max_size=5).flatmap(
    lambda toks: st.sampled_from([" ", ","]).map(lambda sep: sep.join(toks)))
_text = st.lists(_line, max_size=6).map(lambda lines: "\n".join(lines) + "\n")
_number = st.one_of(_token, st.floats(-3, 3).map(repr))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["homology", "persist", "extended", "rips", "distance", "betti-curve", "example"]))
    a, b, out = "{d}/a", "{d}/b", draw(st.sampled_from(["{d}/out", "{d}/no/out"]))
    optional = {
        "homology": [("--format", draw(st.sampled_from(["fcx", "spx"])))],
        "persist": [("--format", draw(st.sampled_from(["fcx", "spx"]))), ("--svg", out)],
        "extended": [("--spacing", draw(_number)), ("--bound", draw(_number)), ("--svg", out)],
        "rips": [("--threshold", draw(_number)), ("--steps", draw(_token)),
                 ("--step-size", draw(_number)), ("--radius-axis",), ("--svg", out)],
        "distance": [("--dim", draw(st.sampled_from(["-1", "0", "1", "x"])))],
        "betti-curve": [],
        "example": [],
    }[command]
    required = {
        "homology": [a], "persist": [a], "extended": [a, "--vertex-values", b],
        "rips": [a, "--max-dim", draw(st.one_of(st.sampled_from(["-1", "x"]),
                                                st.integers(0, 1000).map(str)))],
        "distance": [a, b],
        "betti-curve": [a, "--grid", ":".join(draw(st.lists(_number, min_size=3, max_size=3)))],
        "example": [draw(st.sampled_from(sorted(cli.EXAMPLES) + ["nope"])), "--out", out],
    }[command]
    argv = [command, *required]
    for flags in optional:
        if draw(st.booleans()):
            argv.extend(flags)
    if draw(st.integers(0, 9)) == 0:  # now and then a stray argument
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "x"])))
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv(), a=_text, b=_text)
def test_cli_fuzz_keeps_exit_code_contract(argv, a, b):
    with tempfile.TemporaryDirectory() as d:
        Path(d, "a").write_text(a)
        Path(d, "b").write_text(b)
        stdout, stderr = io.StringIO(), io.StringIO()
        # A small grid bound keeps every example cheap.
        with mock.patch.object(cli, "_MAX_GRID", 200), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.format(d=d) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert stderr.getvalue().startswith(("error: ", "usage error: "))
