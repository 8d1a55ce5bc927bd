"""The array record of a FilteredComplex: cells built only on demand,
a lazy rebuild equal to the cells a complex was made from, and array rows
that validate names as the reference does."""
import math
import random

import numpy as np
import pytest

from z2persist import (
    BifiltrationSpec,
    Cell,
    ComplexError,
    FilteredComplex,
    PointCloud,
    RipsParams,
    VertexFunction,
    barcode,
    build_cone_filtration,
    klein_delta,
    klein_height,
    klein_height_skeleton,
    lower_star,
    ng_cw,
    rips_filtration,
    torus_height_skeleton,
)
from z2persist.cli import main
from z2persist.complexes import parse_fcx, parse_spx, write_fcx

from helpers import (
    grid_surface,
    random_skeleton,
    random_vertex_function,
    reference_rips_filtration,
    reference_parse_fcx,
    reference_validate,
    simplices_to_complex,
)


def rows(fc):
    return [(c.id, c.dim, repr(c.value), c.boundary, c.vertices, c.name) for c in fc.cells]


def rebuilt(fc):
    """A complex holding fc's arrays and no cells, so its cells are built
    from the arrays."""
    return FilteredComplex.from_arrays(fc.dims, fc.values, fc.indptr, fc.indices,
                                       fc.name_of, fc.vertex_lists)


def rips_clouds(rng):
    for n, threshold, max_dim in ((8, 1.2, 2), (12, 0.9, 2), (9, 1.5, 3)):
        pc = PointCloud(tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)))
        yield pc, RipsParams(max_dim=max_dim, threshold=threshold)


def fixtures():
    rng = random.Random(5)
    yield klein_delta()
    yield from (ng_cw(g) for g in (1, 3))
    yield from (sk for sk, _ in (klein_height_skeleton(2.0, 1.0), torus_height_skeleton(2.0, 1.0)))
    yield klein_height(2.0, 1.0)
    for _ in range(10):
        yield random_skeleton(rng)
    yield simplices_to_complex(grid_surface(4, True))
    for pc, params in rips_clouds(rng):
        yield rips_filtration(pc, params)


def refuse_cells(monkeypatch):
    def refuse(self):
        raise AssertionError("the cells of a complex were built")

    monkeypatch.setattr(FilteredComplex, "cells", property(refuse))


def test_rips_validate_and_barcode_build_no_cells(monkeypatch):
    rng = random.Random(3)
    for pc, params in rips_clouds(rng):
        expected = barcode(rips_filtration(pc, params))
        with monkeypatch.context() as m:
            refuse_cells(m)
            fc = rips_filtration(pc, params)
            fc.validate()
            assert barcode(fc) == expected


def broken_copies(fc):
    """From-arrays copies of fc with one broken cell each: a value below
    the cell before, a face not yet declared, and a vertex as a face of
    the first triangle."""
    dims, values, ptr, indices = fc.dims, fc.values, fc.indptr, fc.indices
    j = len(fc) // 2
    lowered = values.copy()
    lowered[j] = values[j - 1] - 1.0
    yield lowered, indices
    edge = int(np.argmax(dims == 1))
    undeclared = indices.copy()
    undeclared[ptr[edge + 1] - 1] = len(fc)
    yield values, undeclared
    tri = int(np.argmax(dims == 2))
    wrong_dim = indices.copy()
    wrong_dim[ptr[tri]] = 0
    wrong_dim[ptr[tri]:ptr[tri + 1]].sort()
    yield values, wrong_dim


def test_validate_builds_no_cells_on_valid_or_broken_complexes(monkeypatch):
    circle = PointCloud(tuple((np.cos(t), np.sin(t)) for t in np.linspace(0, 6, 9)))
    builds = [lambda: rips_filtration(circle, RipsParams(max_dim=2, threshold=1.5)),
              lambda: parse_spx("1 0 1 2\n2 1 2 3\n3 0 3\n")]
    for build in builds:
        fc = build()
        broken = list(broken_copies(fc))

        def copy(values, indices):
            return FilteredComplex.from_arrays(fc.dims, values, fc.indptr, indices)

        expected = []
        for values, indices in broken:
            with pytest.raises(ComplexError) as err:
                reference_validate(copy(values, indices))
            expected.append(str(err.value))
        assert "ordering violation" in expected[0]
        assert expected[1].endswith(f"face {len(fc)} not previously declared")
        assert expected[2].endswith("face 0 has dim 0, expected 1")
        with monkeypatch.context() as m:
            refuse_cells(m)
            build().validate()
            for (values, indices), text in zip(broken, expected):
                with pytest.raises(ComplexError) as err:
                    copy(values, indices).validate()
                assert str(err.value) == text


def test_cli_extended_and_spx_persist_build_no_cells(monkeypatch, tmp_path, capsys):
    spx, vals, valued = tmp_path / "square.spx", tmp_path / "f.txt", tmp_path / "valued.spx"
    spx.write_text("0 1 2\n0 2 3\n")
    vals.write_text("0 0\n1 1\n2 2\n3 1\n")
    valued.write_text("2 0 1 2\n1 0 3\n")
    jobs = [["extended", str(spx), "--vertex-values", str(vals)],
            ["persist", str(valued), "--format", "spx"]]
    for argv in jobs:
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with monkeypatch.context() as m:
            refuse_cells(m)
            assert main(argv) == 0
        assert capsys.readouterr().out == expected != ""


def fcx_complexes():
    """The CW models, a Klein grid lower star, a cone and a Rips complex, for the FCX reader."""
    rng = random.Random(21)
    grid = simplices_to_complex(grid_surface(5, True))
    yield from (ng_cw(3), klein_delta(), lower_star(grid, random_vertex_function(rng, grid)))
    yield build_cone_filtration(BifiltrationSpec(grid, random_vertex_function(rng, grid))).complex
    pc, params = next(rips_clouds(rng))
    yield rips_filtration(pc, params)


# a triangle whose faces are listed in reverse order; the reader sorts each row
_REVERSED_FACES = ("cell 0 0 0\ncell 1 0 0\ncell 2 0 0\ncell 3 1 0 1 0\ncell 4 1 0 2 0\n"
                   "cell 5 1 0 2 1\ncell 6 2 0 5 4 3\n")


def test_parse_fcx_builds_no_cell(monkeypatch):
    texts = [write_fcx(fc) for fc in fcx_complexes()]

    def refuse(self):
        raise AssertionError("a Cell was built")

    monkeypatch.setattr(Cell, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="^a Cell was built$"):  # the patch holds
        Cell(0, 0, 0.0)
    for text in texts:
        assert write_fcx(parse_fcx(text)) == text


def test_parse_fcx_reads_the_arrays_of_the_cell_reader():
    texts = [*map(write_fcx, fcx_complexes()), _REVERSED_FACES, "cell 0 0 0\ncell 1 0 1\n"]
    for text in texts:
        fc, ref = parse_fcx(text), reference_parse_fcx(text)
        for key, dtype in (("dims", np.int64), ("values", np.float64), ("indptr", np.int64),
                           ("indices", np.int64)):
            assert getattr(fc, key).dtype == getattr(ref, key).dtype == dtype, key
            assert np.array_equal(getattr(fc, key), getattr(ref, key)), key
    assert parse_fcx(_REVERSED_FACES).indices.tolist() == [0, 1, 0, 2, 1, 2, 3, 4, 5]


def test_a_file_of_vertices_only_parses():
    fc = parse_fcx("# no face anywhere\ncell 0 0 0\ncell 1 0 1\n")
    assert (len(fc), fc.indptr.tolist(), fc.indices.dtype, fc.indices.size) == (2, [0, 0, 0],
                                                                                np.int64, 0)
    assert barcode(fc) == barcode(FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 1.0)]))


def test_a_lazy_rebuild_gives_the_cells_a_complex_was_made_from():
    for fc in fixtures():
        made = FilteredComplex(fc.cells)
        again = rebuilt(made)
        assert rows(again) == rows(made) == rows(fc)
        assert write_fcx(again) == write_fcx(made)


def test_array_built_cells_and_fcx_match_the_cell_oracle():
    rng = random.Random(8)
    for pc, params in rips_clouds(rng):
        fc, ref = rips_filtration(pc, params), reference_rips_filtration(pc, params)
        assert write_fcx(fc) == write_fcx(ref)
        assert [c.name for c in fc.cells] == [c.name for c in ref.cells]


def test_int_vertex_values_become_floats():
    # f holds floats, so the values column is float64 and a lazily built cell holds a float
    sk, _ = klein_height_skeleton(2.0, 1.0)
    fc = lower_star(sk, VertexFunction({0: -2, 1: -1, 2: 2}))
    assert fc.values.dtype == np.float64
    assert [repr(c.value) for c in fc.cells] == ["-2.0", "-1.0", "-1.0", "-1.0", "2.0", "2.0",
                                                 "2.0", "2.0", "2.0", "2.0"]


def test_int_valued_cells_are_kept_with_their_float64_values():
    # the cells are built from the arrays: equal by value to those given, with float64 values
    cells = [Cell(0, 0, 1), Cell(1, 0, np.float32(1.5)), Cell(2, 1, 2.0, boundary=(0, 1))]
    fc = FilteredComplex(cells)
    assert [repr(c.value) for c in fc.cells] == ["1.0", "1.5", "2.0"]
    assert fc.cells == tuple(cells) and rows(fc) == rows(rebuilt(fc))
    assert write_fcx(fc) == "cell 0 0 1\ncell 1 0 1.5\ncell 2 1 2 0 1\n"
    # a cell's id is its position, checked as the list is converted
    with pytest.raises(ComplexError, match="^cell 7: id 7 out of declaration order$"):
        FilteredComplex([Cell(0, 0, 1), Cell(7, 0, 2)])


def test_the_cw_models_read_back_the_cells_they_were_made_from(monkeypatch):
    # the models keep no cell: the ones built from their arrays equal the given ones
    given, init = [], FilteredComplex.__init__
    monkeypatch.setattr(FilteredComplex, "__init__",
                        lambda self, cells: init(self, given.append(list(cells)) or given[-1]))
    models = [lambda: ng_cw(3), klein_delta, lambda: klein_height_skeleton(2.0, 1.0)[0],
              lambda: torus_height_skeleton(2.0, 1.0)[0]]
    for make in models:
        fc = make()
        assert fc.cells == tuple(given.pop()) and not given
        assert {type(c.value) for c in fc.cells} == {float}
        assert any(c.vertices for c in fc.cells) and all(c.name for c in fc.cells)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_from_arrays_holds_float64_values(dtype):
    # 2**53 + 1 rounds to 2**53 as a float: validate and barcode read the same float64
    # values, so both take the two vertices as tied, and the edge joins them at 2**53 + 2
    fc = FilteredComplex.from_arrays(
        np.array([0, 0, 1]), np.array([2**53 + 1, 2**53, 2**53 + 2], dtype=dtype),
        np.array([0, 0, 0, 2]), np.array([0, 1]))
    assert fc.values.dtype == np.float64
    fc.validate()
    b = barcode(fc)
    assert [(d, *iv) for d, iv in b] == [(0, 2.0**53, 2.0**53 + 2), (0, 2.0**53, math.inf)]
    assert {type(x) for x in b.births + b.deaths} == {float}


# an edge: two vertices, then the edge with faces 0 and 1
_EDGE = dict(dims=np.array([0, 0, 1]), values=np.array([0.0, 0.0, 1.0]),
             indptr=np.array([0, 0, 0, 2]), indices=np.array([0, 1]))


@pytest.mark.parametrize("change, text", [
    (dict(dims=np.array([[0, 0, 1]])), "the arrays do not fit together"),
    (dict(values=np.array([0.0, 0.0])), "the arrays do not fit together"),
    (dict(indptr=np.array([0, 0, 2])), "the arrays do not fit together"),
    (dict(indptr=np.array([1, 1, 1, 2])), "the arrays do not fit together"),
    (dict(indptr=np.array([0, 0, 0, 1])), "the arrays do not fit together"),
    (dict(indptr=np.array([0, 2, 0, 2])), "the arrays do not fit together"),
    (dict(indices=np.array([0.0, 1.0])), "dims, indptr and indices must be integer arrays"),
    (dict(dims=np.array([0.0, 0.0, 1.0])), "dims, indptr and indices must be integer arrays"),
    # uint64 ids past int64 would wrap to negative ones, naming faces the input never gave
    (dict(indices=np.array([0, 2**64 - 1], np.uint64)),
     "dims, indptr and indices must be integer arrays"),
    # a vertex list a cell, or none: `cells` and `lower_star` would read past the short list
    (dict(vertex_lists=[None]),
     r"the arrays do not fit together: 1-D dims and indices, 3 values and 4 indptr entries "
     r"from 0 to len\(indices\) are needed, and 3 vertex lists if any$"),
], ids=["dims-2d", "values-short", "indptr-short", "indptr-from-1", "indptr-to-1",
        "indptr-decreasing", "float-indices", "float-dims", "uint64-indices", "vertex-lists-short"])
def test_from_arrays_refuses_arrays_that_do_not_fit(change, text):
    # refused where they enter, not met later in numpy or answered on
    with pytest.raises(ComplexError, match=f"^{text}"):
        FilteredComplex.from_arrays(**{**_EDGE, **change})


@pytest.mark.parametrize("arrays", [([0], [0.0], [0, 0], []), ([], [], [0], [])],
                         ids=["one-vertex", "empty"])
def test_from_arrays_takes_empty_id_lists(arrays):
    # numpy reads [] as float64, and an empty array holds no id that could cast unsafely
    fc = FilteredComplex.from_arrays(*arrays)
    assert [getattr(fc, k).dtype for k in ("dims", "indptr", "indices")] == [np.int64] * 3
    assert (len(fc), fc.indices.size, fc.max_dim) == (len(arrays[0]), 0, len(arrays[0]) - 1)
    fc.validate()


@pytest.mark.parametrize("dtype", [np.int32, np.uint32, ">i8"])
def test_from_arrays_holds_native_int64_ids(dtype):
    ids = {k: a.astype(dtype) for k, a in _EDGE.items() if k != "values"}
    fc = FilteredComplex.from_arrays(values=_EDGE["values"], **ids)
    for k in ids:
        held = getattr(fc, k)
        assert held.dtype == np.int64 and held.dtype.isnative
        assert held.tolist() == _EDGE[k].tolist()


def corruptions(fc, rng):
    """One corrupted CSR row at a time: (kind, indices).  A negative face
    is left out: the reference reads it from the end of the cells, and
    test_validate pins its message."""
    ptr, dims = fc.indptr, fc.dims
    for j in rng.sample(range(len(fc)), len(fc)):
        a, b = int(ptr[j]), int(ptr[j + 1])
        if a == b:
            continue
        for kind in ("out-of-range", "repeated", "wrong-dim", "odd-dd"):
            indices = fc.indices.copy()
            if kind == "out-of-range":
                indices[b - 1] = j + rng.randint(0, 3)
            elif kind == "repeated" and b - a > 1:
                indices[a + 1] = indices[a]
            elif kind == "wrong-dim":
                wrong = np.flatnonzero(dims[:j] != dims[j] - 1)
                if not len(wrong):
                    continue
                indices[a] = rng.choice(wrong.tolist())
                indices[a:b].sort()
            elif kind == "odd-dd" and dims[j] >= 2:
                same = [f for f in np.flatnonzero(dims[:j] == dims[j] - 1).tolist()
                        if f not in indices[a:b]]
                if not same:
                    continue
                indices[a] = rng.choice(same)
                indices[a:b].sort()
            else:
                continue
            yield kind, indices


def test_a_corrupted_row_raises_the_reference_message():
    rng = random.Random(13)
    kinds = set()
    complexes = list(fixtures())
    sk = random_skeleton(rng)
    complexes.append(build_cone_filtration(
        BifiltrationSpec(sk, random_vertex_function(rng, sk))).complex)
    for fc in complexes:
        for kind, indices in corruptions(fc, rng):
            broken = FilteredComplex.from_arrays(fc.dims, fc.values, fc.indptr, indices,
                                                 fc.name_of, fc.vertex_lists)
            with pytest.raises(ComplexError) as expected:
                reference_validate(broken)
            with pytest.raises(ComplexError) as got:
                broken.validate()
            assert str(got.value) == str(expected.value), kind
            kinds.add(kind)
    assert kinds == {"out-of-range", "repeated", "wrong-dim", "odd-dd"}
