"""The array record of a FilteredComplex: cells built only on demand,
a lazy rebuild equal to the cells a complex was made from, and array rows
that validate names as the reference does."""
import random

import numpy as np
import pytest

from z2persist import (
    BifiltrationSpec,
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
from z2persist.complexes import _simplices_to_complex, parse_spx, write_fcx

from helpers import (
    grid_surface,
    random_skeleton,
    random_vertex_function,
    reference_rips_filtration,
    reference_validate,
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
    yield _simplices_to_complex(grid_surface(4, True))
    for pc, params in rips_clouds(rng):
        yield rips_filtration(pc, params)


def refuse_cells(monkeypatch):
    def refuse(self):
        raise AssertionError("the cells of a complex were built")

    monkeypatch.setattr(FilteredComplex, "_build_cells", refuse)


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


def test_int_vertex_values_stay_ints():
    # the values column keeps what f gave, so a lazily built cell does too
    sk, _ = klein_height_skeleton(2.0, 1.0)
    fc = lower_star(sk, VertexFunction({0: -2, 1: -1, 2: 2}))
    assert fc.values.dtype == object
    assert [repr(c.value) for c in fc.cells] == ["-2", "-1", "-1", "-1", "2", "2", "2", "2",
                                                 "2", "2"]


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
