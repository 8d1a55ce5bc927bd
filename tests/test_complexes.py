import random
import re

import pytest

from z2persist import (
    BifiltrationSpec,
    Cell,
    ComplexError,
    FilteredComplex,
    PointCloud,
    VertexFunction,
    build_cone_filtration,
    extended_barcode,
    klein_delta,
    klein_height,
    klein_height_skeleton,
    lower_star,
    ng_cw,
    parse_bcx,
    torus_delta,
    torus_height_skeleton,
)
from z2persist.complexes import _star_values, parse_fcx, parse_spx, parse_vertex_values, write_fcx

from helpers import (
    random_skeleton,
    random_vertex_function,
    reference_cell_vertices,
    reference_lower_star,
)


def star_rows(fc):
    return [(c.id, c.dim, repr(c.value), c.boundary, c.vertices, c.name) for c in fc.cells]


def test_klein_delta_validates():
    klein_delta().validate()


def test_torus_delta_is_the_klein_chain_complex():
    # orientation signs vanish mod 2, so the two are equal cell for cell
    assert torus_delta().cells == klein_delta().cells


def test_dimension_violation_reported():
    fc = FilteredComplex(
        [Cell(0, 0, 0.0), Cell(1, 2, 0.0, boundary=(0,))]
    )
    with pytest.raises(ComplexError, match="dim"):
        fc.validate()


def test_monotonicity_violation_reported():
    fc = FilteredComplex(
        [Cell(0, 0, 1.0), Cell(1, 0, 1.0), Cell(2, 1, 0.5, boundary=(0, 1))]
    )
    with pytest.raises(ComplexError):
        fc.validate()


def test_boundary_squared_checked():
    # 2-cell with a single edge whose endpoints are distinct: dd != 0
    fc = FilteredComplex(
        [
            Cell(0, 0, 0.0),
            Cell(1, 0, 0.0),
            Cell(2, 1, 0.0, boundary=(0, 1)),
            Cell(3, 2, 0.0, boundary=(2,)),
        ]
    )
    with pytest.raises(ComplexError, match="boundary of boundary") as err:
        fc.validate()
    assert err.value.cell_id == 3


def test_boundary_squared_names_first_bad_cell():
    # a triangle whose faces' boundaries cancel, then a 2-cell that does not
    fc = FilteredComplex(
        [
            Cell(0, 0, 0.0),
            Cell(1, 0, 0.0),
            Cell(2, 0, 0.0),
            Cell(3, 1, 0.0, boundary=(0, 1)),
            Cell(4, 1, 0.0, boundary=(0, 2)),
            Cell(5, 1, 0.0, boundary=(1, 2)),
            Cell(6, 2, 0.0, boundary=(3, 4, 5)),
            Cell(7, 2, 0.0, boundary=(3, 4)),
            Cell(8, 2, 0.0, boundary=(3,)),
        ]
    )
    with pytest.raises(ComplexError, match="^cell 7: boundary of boundary is nonzero$"):
        fc.validate()


def test_lower_star_max_rule():
    sk = FilteredComplex(
        [Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(0, 1))]
    )
    f = VertexFunction({0: 0.0, 1: 1.0})
    fc = lower_star(sk, f)
    edge = next(c for c in fc.cells if c.dim == 1)
    assert edge.value == 1.0


def test_lower_star_constant_function():
    sk, _ = klein_height_skeleton(2.0, 1.0)
    f = VertexFunction({0: 0.0, 1: 0.0, 2: 0.0})
    fc = lower_star(sk, f)
    assert all(c.value == 0.0 for c in fc.cells)


def test_lower_star_missing_vertex_value():
    sk = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0)])
    f = VertexFunction({0: 0.0})
    with pytest.raises(ComplexError):
        lower_star(sk, f)


def test_lower_star_output_validates():
    rng = random.Random(11)
    for _ in range(25):
        sk = random_skeleton(rng)
        lower_star(sk, random_vertex_function(rng, sk)).validate()


def test_ng_cw_shape():
    fc = ng_cw(2)
    assert [c.dim for c in fc.cells] == [0, 1, 1, 2]
    assert all(c.boundary == () for c in fc.cells)
    with pytest.raises(ValueError):
        ng_cw(0)


def test_euler_characteristics():
    assert klein_delta().euler_characteristic() == 0
    for g in range(1, 7):
        assert ng_cw(g).euler_characteristic() == 2 - g


def test_klein_height_fixture():
    fc = klein_height(2.0, 1.0)
    fc.validate()
    assert min(c.value for c in fc.cells) == -2.0
    assert fc.critical_values() == (-2.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        klein_height(1.0, 2.0)


def test_sublevel_nesting():
    fc = klein_height(2.0, 1.0)
    for a, b in [(-2.0, -1.0), (-1.5, 0.0), (0.0, 5.0)]:
        ids_a = {c.name for c in fc.sublevel(a)}
        ids_b = {c.name for c in fc.sublevel(b)}
        assert ids_a <= ids_b


def test_fixture_sizes_and_height_filtrations():
    assert len(ng_cw(2)) == 4
    assert len(klein_delta()) == 6
    klein_height(2.0, 1.0).validate()
    lower_star(*torus_height_skeleton(2.0, 1.0)).validate()


def test_cell_vertices_stops_at_a_face_with_its_own_vertex_list():
    # a loop with no boundary but a vertex list, and a disk on it that has
    # neither: the disk's vertices are the loop's
    fc = FilteredComplex([
        Cell(0, 0, 0.0, name="v"),
        Cell(1, 1, 0.0, vertices=(0,), name="a"),
        Cell(2, 2, 0.0, boundary=(1,), name="D"),
    ])
    fc.validate()
    assert reference_cell_vertices(fc, 2) == frozenset({0})
    f = VertexFunction({0: 0.5})
    assert [c.value for c in lower_star(fc, f).cells] == [0.5, 0.5, 0.5]
    assert star_rows(lower_star(fc, f)) == star_rows(reference_lower_star(fc, f))
    b = extended_barcode(BifiltrationSpec(fc, f))
    assert [(d, iv.birth, iv.death) for d, iv in b] == [(0, 0.5, 3.5)]


def test_fcx_round_trip():
    fc = klein_height(2.0, 1.0)
    again = parse_fcx(write_fcx(fc))
    assert [(c.dim, c.value, c.boundary) for c in again.cells] == [
        (c.dim, c.value, c.boundary) for c in fc.cells
    ]


def test_fcx_repeated_face_rejected():
    with pytest.raises(ComplexError):
        parse_fcx("cell 0 0 0\ncell 1 0 0\ncell 2 1 0 0 0\n")


def test_fcx_comments_and_blanks():
    fc = parse_fcx("# a point\n\ncell 0 0 0.5\n")
    assert len(fc) == 1 and fc.cells[0].value == 0.5


@pytest.mark.parametrize("parse, good, bad, message", [
    (parse_bcx, "0 0 1", "0 1", "expected `<dim> <birth> <death>`"),
    (parse_fcx, "cell 0 0 0", "cell 1 0", "expected `cell <id> <dim> <value> ...`"),
    (parse_spx, "0.5 1 2", "x 1", "malformed simplex line"),
    (parse_vertex_values, "1 0.5", "1", "expected `<vertex-id> <value>`"),
    (parse_vertex_values, "1 0.5", "1 0.5 junk", "expected `<vertex-id> <value>`"),
    (PointCloud.from_csv, "0,0", "0,x", "malformed number in `0,x`"),
], ids=["bcx", "fcx", "spx", "vertex-values", "vertex-values-extra-field", "csv"])
def test_text_formats_skip_comments_and_blank_lines(parse, good, bad, message):
    def same(x):
        return getattr(x, "cells", x)

    commented = f"# header {bad}\n\n  {good}  # {bad}\n \t\n#\n"
    assert same(parse(commented)) == same(parse(good))
    with pytest.raises(ValueError, match=f"^line 6: {re.escape(message)}$"):
        parse(commented + bad)


def test_spx_closure_completion():
    # one triangle declared at value 2; faces auto-inserted at 2
    fc = parse_spx("2 0 1 2\n")
    assert len(fc) == 7
    fc.validate()
    assert all(c.value == 2.0 for c in fc.cells)


def test_spx_closure_takes_min_over_cofaces():
    fc = parse_spx("3 0 1 2\n1 1 2\n")
    edge = next(c for c in fc.cells if c.name == "1-2")
    assert edge.value == 1.0


def test_spx_vertexfn_mode():
    vv = parse_vertex_values("0 0.0\n1 1.0\n2 2.0\n")
    fc = parse_spx("0 1 2\n", vertex_values=vv)
    fc.validate()
    tri = next(c for c in fc.cells if c.dim == 2)
    assert tri.value == 2.0


def test_vertex_values_reject_a_repeated_vertex_id():
    with pytest.raises(ComplexError, match=r"^line 4: repeated vertex id 0$"):
        parse_vertex_values("0 1.0\n1 2.0\n# f(0) again\n0 5.0\n")


def test_cell_vertices_closure_fallback():
    # no explicit vertex lists: closure is followed through boundaries
    fc = FilteredComplex(
        [
            Cell(0, 0, 0.0),
            Cell(1, 0, 0.0),
            Cell(2, 0, 0.0),
            Cell(3, 1, 0.0, boundary=(0, 1)),
            Cell(4, 1, 0.0, boundary=(0, 2)),
            Cell(5, 1, 0.0, boundary=(1, 2)),
            Cell(6, 2, 0.0, boundary=(3, 4, 5)),
        ]
    )
    assert reference_cell_vertices(fc, 6) == {0, 1, 2}
    assert reference_cell_vertices(fc, 3) == {0, 1}
    assert reference_cell_vertices(fc, 0) == {0}
    # the one-pass star values read the same closures through the faces
    f = VertexFunction({0: 2.0, 1: -1.0, 2: 0.5})
    lows, highs = _star_values(fc, f)
    for c in fc.cells:
        values = [f(v) for v in reference_cell_vertices(fc, c.id)]
        assert (lows[c.id], highs[c.id]) == (min(values), max(values))
    assert [(c.dim, c.value) for c in lower_star(fc, f).cells] == [
        (0, -1.0), (0, 0.5), (1, 0.5), (0, 2.0), (1, 2.0), (1, 2.0), (2, 2.0)]
    assert star_rows(lower_star(fc, f)) == star_rows(reference_lower_star(fc, f))


def test_lower_star_names_a_vertex_with_no_value():
    sk = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(0, 1))])
    with pytest.raises(ComplexError, match="^vertex 1 has no function value$"):
        lower_star(sk, VertexFunction({0: 0.0}))


@pytest.mark.parametrize("cells, cell, face", [
    ([Cell(0, 0, 0.0), Cell(1, 1, 0.0, boundary=(0, 2)), Cell(2, 0, 0.0)], 1, 2),
    ([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(1, 2))], 2, 2),
    ([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(-1, 0))], 2, -1),
], ids=["later-face", "own-id", "negative-face"])
def test_derived_filtrations_need_faces_before_their_cells(cells, cell, face):
    # star values read each face's entry, so a face at or after its cell, or
    # with a negative id, is named instead of read out of order or wrapped
    f = VertexFunction({0: 0.0, 1: 1.0, 2: 2.0})
    message = f"^cell {cell}: face {face} not previously declared$"
    with pytest.raises(ComplexError, match=message):
        lower_star(FilteredComplex(cells), f)
    with pytest.raises(ComplexError, match=message):
        build_cone_filtration(BifiltrationSpec(FilteredComplex(cells), f))


def test_derived_filtrations_need_faces_one_dimension_down():
    # star values are combined a dimension at a time, so an edge whose face
    # is an edge is named in the skeleton's ids, before any renumbering
    cells = [Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(0, 1)),
             Cell(3, 1, 0.0, boundary=(2,)), Cell(4, 0, 0.0)]
    f = VertexFunction({0: 0.0, 1: 0.0, 4: -1.0})
    message = "^cell 3: face 2 has dim 1, expected 0$"
    with pytest.raises(ComplexError, match=message):
        lower_star(FilteredComplex(cells), f)
    with pytest.raises(ComplexError, match=message):
        build_cone_filtration(BifiltrationSpec(FilteredComplex(cells), f))
