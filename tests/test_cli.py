import subprocess
import sys
import time

import pytest

from z2persist import BifiltrationSpec, VertexFunction, extended_barcode
from z2persist.cli import main
from z2persist.complexes import parse_spx, parse_vertex_values
from z2persist.persistence import parse_bcx


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def klein_fcx(tmp_path, capsys):
    path = tmp_path / "klein_height.fcx"
    assert main(["example", "klein_height.fcx", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def test_homology_golden(tmp_path, capsys):
    path = tmp_path / "klein.fcx"
    main(["example", "klein_delta.fcx", "--out", str(path)])
    capsys.readouterr()
    code, out, err = run_cli(capsys, "homology", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["betti 0 1", "betti 1 2", "betti 2 1"]
    assert sum(1 for l in lines if l.startswith("generator ")) == 4


def test_persist_golden(klein_fcx, capsys):
    code, out, err = run_cli(capsys, "persist", str(klein_fcx))
    assert code == 0
    assert out == "0 -2 inf\n1 -1 inf\n1 2 inf\n2 2 inf\n"


def test_repeated_main_calls_share_no_state(klein_fcx, tmp_path, capsys):
    assert run_cli(capsys, "persist")[0] == 1  # missing file argument
    code, out, _ = run_cli(capsys, "persist", str(klein_fcx))
    assert (code, out) == (0, "0 -2 inf\n1 -1 inf\n1 2 inf\n2 2 inf\n")
    picture = tmp_path / "bars.svg"
    assert run_cli(capsys, "persist", str(klein_fcx), "--svg", str(picture))[0] == 0
    picture.unlink()
    assert run_cli(capsys, "persist", str(klein_fcx))[0] == 0
    assert not picture.exists()  # --svg of the previous call is not reused
    assert run_cli(capsys, "persist", str(klein_fcx), "--bogus")[0] == 1
    assert run_cli(capsys, "homology", str(klein_fcx))[0] == 0


def test_persist_is_deterministic(klein_fcx, capsys):
    _, out1, _ = run_cli(capsys, "persist", str(klein_fcx))
    _, out2, _ = run_cli(capsys, "persist", str(klein_fcx))
    assert out1 == out2


def test_extended_on_simplicial_input(tmp_path, capsys):
    spx = tmp_path / "path.spx"
    vals = tmp_path / "f.txt"
    spx.write_text("0\n1\n2\n0 1\n1 2\n")
    vals.write_text("0 0\n1 1\n2 0.5\n")
    code, out, err = run_cli(capsys, "extended", str(spx),
                             "--vertex-values", str(vals),
                             "--bound", "2", "--spacing", "1")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert all(r[2] != "inf" for r in rows)  # every extended bar is finite
    # the component is born at min f and dies when the first cone vertex
    # arrives at 2M + lambda - max f = 4
    assert ["0", "0", "4"] in rows


def test_extended_bound_may_equal_max_abs_f(tmp_path, capsys):
    # f = 0 everywhere, so M = 0 is a valid bound; the output is the
    # library's extended barcode for the same spec
    spx = tmp_path / "t.spx"
    vals = tmp_path / "zeros.vv"
    spx.write_text("0 1 2\n2 3\n")
    vals.write_text("".join(f"{v} 0\n" for v in range(4)))
    code, out, err = run_cli(capsys, "extended", str(spx), "--vertex-values", str(vals),
                             "--bound", "0")
    assert (code, err) == (0, "")
    sk = parse_spx(spx.read_text(), parse_vertex_values(vals.read_text()))
    f = VertexFunction({c.id: c.value for c in sk.cells if c.dim == 0})
    assert out == extended_barcode(BifiltrationSpec(sk, f, M=0.0)).to_bcx()
    assert out == "0 0 1\n"


def test_extended_bound_below_max_abs_f_names_m(tmp_path, capsys):
    spx = tmp_path / "t.spx"
    vals = tmp_path / "zeros.vv"
    spx.write_text("0 1\n")
    vals.write_text("0 0\n1 0\n")
    code, out, err = run_cli(capsys, "extended", str(spx), "--vertex-values", str(vals),
                             "--bound", "-1")
    assert (code, out) == (2, "")
    assert err == "error: the bound M=-1.0 must be finite and at least max|f| = 0.0\n"


def test_extended_rejects_a_value_for_a_vertex_the_complex_lacks(tmp_path, capsys):
    spx = tmp_path / "e.spx"
    vals = tmp_path / "e.vv"
    spx.write_text("0 1\n")
    vals.write_text("0 1\n1 2\n# vertex 7 is in no simplex\n7 100\n")
    code, out, err = run_cli(capsys, "extended", str(spx), "--vertex-values", str(vals))
    assert (code, out, err) == (2, "", "error: line 4: vertex 7 is not in the complex\n")
    # the library still takes a superset of the values it needs
    assert len(parse_spx(spx.read_text(), parse_vertex_values(vals.read_text()))) == 3


def test_extended_names_a_vertex_with_no_value(tmp_path, capsys):
    # the complex has cells 0-2; the vertex without a value is 20
    spx = tmp_path / "a.spx"
    vals = tmp_path / "a.vv"
    spx.write_text("10 20\n")
    vals.write_text("10 1.0\n")
    code, out, err = run_cli(capsys, "extended", str(spx), "--vertex-values", str(vals))
    assert (code, out, err) == (2, "", "error: vertex 20 has no function value\n")


def test_distance_of_barcode_with_itself(klein_fcx, tmp_path, capsys):
    bcx = tmp_path / "a.bcx"
    code, out, _ = run_cli(capsys, "persist", str(klein_fcx))
    bcx.write_text(out)
    code, out, _ = run_cli(capsys, "distance", str(bcx), str(bcx))
    assert code == 0
    assert out.strip() == "0"


def test_distance_with_dim_flag(tmp_path, capsys):
    a = tmp_path / "a.bcx"
    b = tmp_path / "b.bcx"
    a.write_text("0 0 2\n1 0 9\n")
    b.write_text("0 1 3\n1 0 9\n")
    code, out, _ = run_cli(capsys, "distance", str(a), str(b), "--dim", "0")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_cli(capsys, "distance", str(a), str(b), "--dim", "1")
    assert (code, out.strip()) == (0, "0")


def test_distance_halves_a_length_that_overflows(tmp_path, capsys):
    # [-1e308, 1e308) is 2e308 long, past the largest float, but deleting
    # it costs 1e308; the infinite bars' birth gap, 1.7e308, decides
    a, b = tmp_path / "a.bcx", tmp_path / "b.bcx"
    a.write_text("0 -1e308 1e308\n0 0 inf\n")
    b.write_text("0 1e308 1.7e308\n0 -1.7e308 inf\n")
    assert run_cli(capsys, "distance", str(a), str(b))[:2] == (0, "1.7e+308\n")


def test_rips_and_betti_curve(tmp_path, capsys):
    pts = tmp_path / "circle20.csv"
    main(["example", "circle20.csv", "--out", str(pts)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "rips", str(pts), "--max-dim", "2",
                           "--threshold", "2.1")
    assert code == 0
    bcx = tmp_path / "c.bcx"
    bcx.write_text(out)
    code, csv_out, _ = run_cli(capsys, "betti-curve", str(bcx),
                               "--grid", "0:2:0.5")
    assert code == 0
    lines = csv_out.splitlines()
    assert lines[0].startswith("t,b0,b1")
    assert len(lines) == 6  # header + 5 grid rows


def test_rips_radius_axis_halves_scales(tmp_path, capsys):
    pts = tmp_path / "two.csv"
    pts.write_text("0,0\n1,0\n")
    _, diam, _ = run_cli(capsys, "rips", str(pts), "--max-dim", "1",
                         "--threshold", "2")
    _, rad, _ = run_cli(capsys, "rips", str(pts), "--max-dim", "1",
                        "--threshold", "2", "--radius-axis")
    assert "0 0 1\n" in diam
    assert "0 0 0.5\n" in rad


def test_svg_of_an_empty_barcode():
    from z2persist.persistence import Barcode
    from z2persist.svg import barcode_svg

    text = barcode_svg(Barcode())
    assert text.startswith("<svg") and "empty barcode" in text and text.endswith("</svg>")


def test_svg_output(klein_fcx, tmp_path, capsys):
    svg = tmp_path / "bars.svg"
    code, _, _ = run_cli(capsys, "persist", str(klein_fcx), "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "</svg>" in text
    assert "H2" in text


def test_exit_code_usage_error(capsys):
    assert main(["persist"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["betti-curve", "x.bcx", "--grid", "nonsense"]) == 1
    capsys.readouterr()


def test_exit_code_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.fcx"
    bad.write_text("cell 0 5 0\ncell 1 0 -1 0\n")
    assert main(["persist", str(bad)]) == 2
    assert main(["persist", str(tmp_path / "missing.fcx")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("bad_line, message", [
    ("x 0 1", "malformed number"),
    ("0 0 y", "malformed number"),
    ("-1 0 1", "negative degree"),
    ("0 nan 1", "birth must be finite"),
    ("0 -inf 1", "birth must be finite"),
    ("0 inf inf", "birth must be finite"),
    ("0 0 nan", "death must be finite or `inf`"),
    ("0 0 1e400", "death must be finite or `inf`"),
    ("0 1 0.5", "need birth < death"),
], ids=["dim", "death", "negative-dim", "nan-birth", "minus-inf-birth", "inf-birth",
        "nan-death", "overflow-death", "empty-bar"])
def test_bad_bcx_rejected_at_parser(tmp_path, capsys, bad_line, message):
    text = "0 0 inf\n" + bad_line + "\n"
    with pytest.raises(ValueError, match=f"^line 2: {message}"):
        parse_bcx(text)
    bad = tmp_path / "bad.bcx"
    bad.write_text(text)
    good = tmp_path / "good.bcx"
    good.write_text("0 0 inf\n")
    code, out, err = run_cli(capsys, "distance", str(good), str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: ")


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "z2persist.cli", "example", "ng3.fcx",
         "--out", str(tmp_path / "ng3.fcx")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "z2persist.cli", "homology",
         str(tmp_path / "ng3.fcx")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "betti 1 3" in proc.stdout


def test_each_cli_job_validates_each_complex_once(klein_fcx, tmp_path, capsys, monkeypatch):
    # each input is walked once, where it is read: an FCX file by its reader, an SPX file
    # not at all (its closure is valid by construction), the skeleton of `extended` by the
    # cone and a Rips complex by the CLI; no complex made from an input is walked again
    from z2persist.complexes import FilteredComplex

    spx = tmp_path / "square.spx"
    spx.write_text("0 1 2\n0 2 3\n")
    vals = tmp_path / "f.txt"
    vals.write_text("0 0\n1 1\n2 2\n3 1\n")
    valued = tmp_path / "valued.spx"
    valued.write_text("2 0 1 2\n1 0 3\n")
    points = tmp_path / "p.csv"
    points.write_text("0,0\n1,0\n0,1\n1,1\n")
    skeleton = len(parse_spx(spx.read_text(), parse_vertex_values(vals.read_text())))
    jobs = [
        (("homology", str(klein_fcx)), [10]),  # the cells of klein_height
        (("persist", str(klein_fcx)), [10]),
        (("homology", str(valued), "--format", "spx"), []),
        (("persist", str(valued), "--format", "spx"), []),
        (("extended", str(spx), "--vertex-values", str(vals)), [skeleton]),
        (("rips", str(points), "--max-dim", "2", "--threshold", "1.5"), [14]),  # 4 + 6 + 4
    ]
    calls = []
    validate = FilteredComplex.validate
    monkeypatch.setattr(FilteredComplex, "validate",
                        lambda self: calls.append(len(self)) or validate(self))
    for argv, expected in jobs:
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == expected, argv


# faults that only `validate` finds, each after a comment line: (id, text, message, cell id)
_FCX_VALIDATE_FAULTS = [
    ("fcx-undeclared-face",
     "# two vertices, then an edge\ncell 0 0 0\ncell 1 0 0\ncell 2 1 1 0 5\n",
     "line 4: cell 2: face 5 not previously declared", 2),
    ("fcx-wrong-dim-face", "# two vertices and an edge, then an edge on it\n"
     "cell 0 0 0\ncell 1 0 0\ncell 2 1 1 0 1\ncell 3 1 1 0 2\n",
     "line 5: cell 3: face 2 has dim 1, expected 0", 3),
    ("fcx-value-below", "# a vertex, then one below it\ncell 0 0 1\ncell 1 0 0\n",
     "line 3: cell 1: ordering violation: value 0.0 dim 0 after value 1.0 dim 0", 1),
    ("fcx-boundary-of-boundary", "# a path of two edges, then a disk on it\ncell 0 0 0\n"
     "cell 1 0 0\ncell 2 0 0\ncell 3 1 0 0 1\ncell 4 1 0 1 2\ncell 5 2 0 3 4\n",
     "line 7: cell 5: boundary of boundary is nonzero", 5),
]


@pytest.mark.parametrize("fmt, text, message", [
    ("fcx", "cell 0 0 0\ncell 1 0 nan\n", "line 2: value must be finite"),
    ("fcx", "cell 0 0 0\ncell 1 0 inf\n", "line 2: value must be finite"),
    ("fcx", "cell 0 0 0\ncell 1 0 0\ncell 2 1 1 0 -1\n", "line 3: ids, dimensions and faces"),
    ("fcx", "cell -1 0 0\n", "line 1: ids, dimensions and faces"),
    ("fcx", "cell 0 -1 0\n", "line 1: ids, dimensions and faces"),
    ("spx", "0 0\nnan 0 1\n", "line 2: value must be finite"),
    ("spx", "inf 0 1\n", "line 1: value must be finite"),
    ("spx", "-inf 0 1\n", "line 1: value must be finite"),
    ("spx", "0 0\n0 1 9223372036854775808\n", "line 2: vertex id out of range"),
    # past int64 no array can record them; a dimension there used to pass
    ("fcx", "cell 0 9223372036854775808 0\n",
     "line 1: ids, dimensions and faces must be nonnegative 64-bit integers"),
    ("fcx", "cell 9223372036854775808 0 0\n", "line 1: ids, dimensions and faces"),
    ("fcx", "cell 0 0 0\ncell 1 1 0 0 9223372036854775808\n", "line 2: ids, dimensions and faces"),
    # an id is checked where it is written, and named by its line in the file
    ("fcx", "# two vertices, then an edge\ncell 0 0 0\ncell 1 0 0\ncell 3 1 1 0 1\n",
     "line 4: id 3 out of declaration order, expected 2"),
    ("fcx", "cell 0 0 0\ncell 0 0 0\n", "line 2: id 0 out of declaration order, expected 1"),
    # a fault `validate` finds is named by its cell's line too
    *[("fcx", text, message) for _, text, message, _ in _FCX_VALIDATE_FAULTS],
], ids=["fcx-nan", "fcx-inf", "fcx-negative-face", "fcx-negative-id", "fcx-negative-dim",
        "spx-nan", "spx-inf", "spx-minus-inf", "spx-huge-vertex", "fcx-huge-dim", "fcx-huge-id",
        "fcx-huge-face", "fcx-id-after-comment", "fcx-repeated-id",
        *[name for name, *_ in _FCX_VALIDATE_FAULTS]])
def test_bad_complex_rejected_at_parser(tmp_path, capsys, fmt, text, message):
    from z2persist.complexes import ComplexError, parse_fcx, parse_spx

    with pytest.raises(ComplexError, match=f"^{message}"):
        (parse_fcx if fmt == "fcx" else parse_spx)(text)
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    code, out, err = run_cli(capsys, "persist", str(path), "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("text, message, cell", [f[1:] for f in _FCX_VALIDATE_FAULTS],
                         ids=[f[0] for f in _FCX_VALIDATE_FAULTS])
def test_an_fcx_fault_named_by_its_line_keeps_its_cell_id(text, message, cell):
    from z2persist.complexes import ComplexError, parse_fcx

    with pytest.raises(ComplexError) as err:
        parse_fcx(text)
    assert (str(err.value), err.value.cell_id) == (message, cell)


def test_huge_dimension_persists_but_has_no_betti_table(tmp_path, capsys):
    # the reduction visits only the dimensions that have cells
    path = tmp_path / "huge.fcx"
    path.write_text("cell 0 1000000000000 0\n")
    assert run_cli(capsys, "persist", str(path)) == (0, "1000000000000 0 inf\n", "")
    code, out, err = run_cli(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert err == "error: dimension 1000000000000 is above 10000, the top of a Betti table\n"
    path.write_text("cell 0 10000 0\n")
    code, out, err = run_cli(capsys, "homology", str(path))
    assert code == 0
    assert out.splitlines()[-2:] == ["betti 10000 1", "generator 10000 0"]


def test_betti_curve_rejects_a_degree_above_the_table(tmp_path, capsys):
    # a column for every degree up to 2,000,000 takes more than ten seconds
    path = tmp_path / "huge.bcx"
    path.write_text("2000000 0 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "betti-curve", str(path), "--grid", "0:1:0.5")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: degree 2000000 is above 10000, the top of a Betti curve table\n"


def test_rips_refuses_a_complex_above_the_cell_cap(tmp_path, capsys):
    # 300 points all within the threshold have 4,455,100 triangles
    path = tmp_path / "cloud.csv"
    path.write_text("".join(f"{i % 17},{i // 17}\n" for i in range(300)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rips", str(path), "--max-dim", "2", "--threshold", "100")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error: the Rips complex passes 4194304 cells in dimension 2 (")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["persist", "homology", "extended"])
def test_oversize_simplex_is_bad_input(tmp_path, capsys, command):
    # its closure would have 2^17 - 1 cells, and a line of 30 vertices
    # would ask for about 10^9
    spx, vals = tmp_path / "big.spx", tmp_path / "f.txt"
    vals.write_text("".join(f"{v} 0.5\n" for v in range(17)))
    if command == "extended":
        spx.write_text("0 1\n" + " ".join(map(str, range(17))) + "\n")
        argv = (command, str(spx), "--vertex-values", str(vals))
    else:
        spx.write_text("0 0 1\n1 " + " ".join(map(str, range(17))) + "\n")
        argv = (command, str(spx), "--format", "spx")
    assert run_cli(capsys, *argv) == (
        2, "", "error: line 2: simplex has 17 vertices, above the limit of 16\n")


@pytest.mark.parametrize("line, message", [
    ("0 nan", "value must be finite"),
    ("0 inf", "value must be finite"),
    ("0 -inf", "value must be finite"),
    ("1 2", "repeated vertex id 1"),
    ("0 1.5 junk", "expected `<vertex-id> <value>`"),
], ids=["0 nan", "0 inf", "0 -inf", "repeated-id", "extra-field"])
def test_bad_vertex_value_rejected_at_parser(tmp_path, capsys, line, message):
    spx = tmp_path / "edge.spx"
    spx.write_text("0 1\n")
    vals = tmp_path / "f.txt"
    vals.write_text("1 0.5\n" + line + "\n")
    code, out, err = run_cli(capsys, "extended", str(spx), "--vertex-values", str(vals))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 2: {message}")
