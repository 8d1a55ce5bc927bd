"""The one-walk `FilteredComplex.validate` against the four-pass
`reference_validate`: seeded single-cell mutations of valid skeletons,
Rips filtrations and cones, and the checks the reference lacks."""
import math
import random
import tracemalloc
from dataclasses import replace

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
    build_cone_filtration,
    complexes,
    klein_height_skeleton,
    lower_star,
    rips_filtration,
)
from z2persist.complexes import parse_spx

from helpers import noisy_circle, random_skeleton, random_vertex_function, reference_validate


def valid_complexes():
    rng = random.Random(2024)
    out = [random_skeleton(rng) for _ in range(6)]
    for n, threshold in ((6, 1.2), (8, 0.9), (9, 1.5)):
        pc = PointCloud(tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)))
        out.append(rips_filtration(pc, RipsParams(max_dim=3, threshold=threshold)))
    sk = random_skeleton(rng, max_cells=20)
    out.append(build_cone_filtration(BifiltrationSpec(sk, random_vertex_function(rng, sk))).complex)
    return out


def mutations(fc: FilteredComplex, i: int, rng: random.Random) -> dict:
    """Ways to break cell i and no other cell: a lower value, which its
    successor and its cofaces still accept; and the dim or boundary of a
    cell that is no cell's face.  A wrong id is refused as the cells convert."""
    cells = fc.cells
    c, out = cells[i], {}
    if i:  # before the cell it follows, and still no later than its cofaces
        out["earlier-value"] = replace(c, value=cells[i - 1].value - rng.choice((0.5, 1.0)))
    if i and cells[i - 1].dim > c.dim:  # tied with the cell it follows, at a lower dim
        out["tied-lower-dim"] = replace(c, value=cells[i - 1].value)
    if any(i in d.boundary for d in cells):
        return out
    out["negative-dim"] = replace(c, dim=-1)
    out["undeclared-face"] = replace(c, boundary=c.boundary + (i + rng.randint(0, 3),))
    if c.boundary:
        out["repeated-face"] = replace(c, boundary=c.boundary + (rng.choice(c.boundary),))
        wrong = [f for f in range(i) if cells[f].dim != c.dim - 1]
        if wrong:
            rest = list(c.boundary)
            rest.pop(rng.randrange(len(rest)))
            out["wrong-dim-face"] = replace(c, boundary=(*rest, rng.choice(wrong)))
        if c.dim >= 2:  # a simplex missing one face has a boundary with a boundary
            out["dropped-face"] = replace(c, boundary=c.boundary[1:])
    return out


def mutated(fc: FilteredComplex, *changed: tuple[int, Cell]) -> FilteredComplex:
    cells = list(fc.cells)
    for i, cell in changed:
        cells[i] = cell
    return FilteredComplex(cells)


def message(fc: FilteredComplex, validate) -> str:
    with pytest.raises(ComplexError) as err:
        validate(fc)
    return str(err.value)


def test_valid_complexes_validate():
    for fc in valid_complexes():
        reference_validate(fc)
        fc.validate()


def test_single_cell_mutation_raises_the_reference_message():
    rng = random.Random(7)
    kinds = set()
    for fc in valid_complexes():
        for i in range(len(fc.cells)):
            for kind, cell in mutations(fc, i, rng).items():
                broken = mutated(fc, (i, cell))
                expected = message(broken, reference_validate)
                assert expected.startswith(f"cell {cell.id}: "), (kind, expected)
                assert message(broken, FilteredComplex.validate) == expected, kind
                kinds.add(kind)
    assert kinds == {"earlier-value", "tied-lower-dim", "negative-dim", "undeclared-face",
                     "repeated-face", "wrong-dim-face", "dropped-face"}


def test_a_cell_out_of_declaration_order_is_refused_as_the_cells_convert():
    # an id is checked where it is written, before any other rule: the misnumbered cell
    # also enters below the cell it follows, a fault that validate would name
    rng = random.Random(7)
    for fc in valid_complexes():
        cells = fc.cells
        for i, c in enumerate(cells):
            cid = c.id + rng.choice((1, 2, len(cells), -1 if i else 1))
            changed = replace(c, id=cid, value=cells[i - 1].value - 1.0 if i else c.value)
            with pytest.raises(ComplexError, match=f"^cell {cid}: id {cid} out of declaration"
                               " order$") as err:
                FilteredComplex([*cells[:i], changed, *cells[i + 1:]])
            assert err.value.cell_id == cid


def test_two_broken_cells_name_the_lower_id():
    # the higher cell breaks a rule of its own, which the reference's passes may
    # report before the lower cell's fault when its rule has the earlier pass
    rng = random.Random(11)
    reference_named_the_higher = 0
    for fc in valid_complexes():
        n = len(fc.cells)
        for _ in range(40):
            i, j = sorted(rng.sample(range(n), 2))
            low, high = mutations(fc, i, rng), mutations(fc, j, rng)
            if not low or not high:
                continue
            kind, low = rng.choice(sorted(low.items()))
            high = rng.choice(sorted(high.items()))[1]
            alone = message(mutated(fc, (i, low)), FilteredComplex.validate)
            broken = mutated(fc, (i, low), (j, high))
            assert message(broken, FilteredComplex.validate) == alone, kind
            reference_named_the_higher += message(broken, reference_validate).startswith(
                f"cell {j}: ")
    assert reference_named_the_higher > 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_validate_rejects_a_non_finite_value(value):
    fc = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, value), Cell(2, 1, value, boundary=(0, 1))])
    with pytest.raises(ComplexError, match=f"^cell 1: value {value} is not finite$") as err:
        fc.validate()
    assert err.value.cell_id == 1


def test_validate_rejects_a_negative_face_id():
    # at negative indices a Python tuple reads cells from the end, so the
    # four-pass check took faces -3 and -2 for the two vertices
    fc = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(-3, -2))])
    reference_validate(fc)
    with pytest.raises(ComplexError, match=r"^cell 2: face -3 not previously declared$"):
        fc.validate()


def test_star_values_name_a_face_fault_as_validate_does():
    # lower_star and the cone read a cell's star values from its faces, so they
    # validate their skeleton first, and a face they cannot read is named by validate
    rng = random.Random(19)
    checked = 0
    for fc in valid_complexes():
        for i, c in enumerate(fc.cells):
            if c.dim < 1 or c.vertices is not None:
                continue
            for kind, cell in mutations(fc, i, rng).items():
                if kind not in ("undeclared-face", "wrong-dim-face"):
                    continue
                broken = mutated(fc, (i, cell))
                expected = message(broken, FilteredComplex.validate)
                f = random_vertex_function(rng, broken)
                assert message(broken, lambda sk: lower_star(sk, f)) == expected, kind
                assert message(broken, lambda sk: build_cone_filtration(
                    BifiltrationSpec(sk, f))) == expected, kind
                checked += 1
    assert checked > 0


def test_builders_do_not_walk_the_complex_they_return(monkeypatch):
    # the SPX closure is valid by construction, and lower_star and the cone walk the
    # skeleton they are given, once, not the complex they make from it
    walked = []
    validate = FilteredComplex.validate
    monkeypatch.setattr(FilteredComplex, "validate",
                        lambda self: walked.append(self) or validate(self))
    made = [parse_spx("0 0 1 2\n1 1 2 3\n2 0 3\n"),
            parse_spx("0 1 2\n1 2 3\n", {0: 0.0, 1: 2.0, 2: 1.0, 3: -1.0})]
    assert walked == []
    sk, f = klein_height_skeleton(2.0, 1.0)
    made.append(lower_star(sk, f))
    made.append(build_cone_filtration(BifiltrationSpec(sk, f)).complex)
    assert [w is sk for w in walked] == [True, True]
    assert not any(w is fc for w in walked for fc in made)


def test_object_values_name_a_non_finite_value():
    # int heights and an infinite one are held as floats, and the infinite one is named
    edge = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(0, 1))])
    with pytest.raises(ComplexError, match=r"^cell 1: value inf is not finite$"):
        lower_star(edge, VertexFunction({0: 0, 1: math.inf}))


@pytest.mark.parametrize("height", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_an_int_height_past_the_floats_names_its_vertex(height):
    # f converts its values once, when it is made; an int too large for a float has no value
    edge = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(0, 1))])
    with pytest.raises(ComplexError, match=r"^vertex 1 has a value beyond the float range$"):
        lower_star(edge, VertexFunction({0: 0, 1: height}))


_TWO_VERTICES = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0)])


@pytest.mark.parametrize("make, text", [
    (lambda: FilteredComplex.from_arrays(np.array([0, 0]), np.array([0, 10**400], object),
                                         np.zeros(3, np.int64), np.empty(0, np.int64)),
     "cell 1: value is beyond the float range"),
    (lambda: FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, -10**400)]),
     "cell 1: value is beyond the float range"),
    (lambda: BifiltrationSpec(_TWO_VERTICES, VertexFunction({0: 0.0, 1: 1.0}), M=10**400),
     "the bound M is beyond the float range"),
    (lambda: BifiltrationSpec(_TWO_VERTICES, VertexFunction({0: 0.0, 1: 1.0}), lam=10**400),
     "the spacing lambda is beyond the float range"),
    # 10**400 passes the 0 < step_size < inf check, int/float comparison being exact
    (lambda: RipsParams(max_dim=1, steps=2, step_size=10**400),
     r"steps \* step_size = 2 \* 10{400} is not finite"),
    (lambda: RipsParams(max_dim=1, threshold=10**400), "threshold must be finite"),
    (lambda: PointCloud(((10**400, 0.0),)), "non-finite coordinate"),
    (lambda: FilteredComplex([Cell(0, 2**63, 0.0)]),
     "dims, indptr and indices must be integer arrays that cast safely to int64"),
    (lambda: FilteredComplex([Cell(0, 0, 0.0), Cell(1, 1, 0.0, boundary=(-(2**63) - 1,))]),
     "dims, indptr and indices must be integer arrays that cast safely to int64"),
], ids=["from_arrays", "cells", "bound", "spacing", "step-size", "threshold", "coordinate",
        "cell-dim-past-int64", "cell-face-past-int64"])
def test_an_int_past_the_floats_is_named(make, text):
    # values, the cone's bounds, the Rips scales and coordinates are floats, and a cell's dim
    # and faces int64; an int too large for its type is named where it enters, not met as an
    # OverflowError in the arithmetic or the conversion
    with pytest.raises(ValueError, match=f"^{text}$"):
        make()


def test_a_value_that_is_not_a_number_is_nan_and_named_by_validate():
    # None is held as nan, as numpy reads it, among ints that are each converted
    fc = FilteredComplex([Cell(0, 0, 1), Cell(1, 0, None)])
    assert [repr(c.value) for c in fc.cells] == ["1.0", "nan"]
    with pytest.raises(ComplexError, match="^cell 1: value nan is not finite$"):
        fc.validate()
    with pytest.raises(ComplexError, match="^cell 2: value is beyond the float range$"):
        FilteredComplex([Cell(0, 0, 1), Cell(1, 0, None), Cell(2, 0, 10**400)])


_ROWS_OUT_OF_ORDER = [
    ([0, 0, 0, 1, 1, 1, 2], [[], [], [], [0, 1], [0, 2], [1, 2], [5, 3, 4]],
     "face 3 listed after face 5"),
    ([0, 0, 1], [[], [], [1, 0]], "face 0 listed after face 1"),
]


@pytest.mark.parametrize("dims, rows, text", _ROWS_OUT_OF_ORDER, ids=["triangle", "edge"])
def test_validate_rejects_a_face_row_out_of_order(dims, rows, text):
    # the reduction takes a column's last row as its pivot, so the triangle
    # would be paired with edge 4 instead of edge 5
    cell = len(dims) - 1
    fc = FilteredComplex.from_arrays(
        np.array(dims), np.array(dims, dtype=float), np.cumsum([0] + [len(r) for r in rows]),
        np.array([f for r in rows for f in r], dtype=np.int64))
    with pytest.raises(ComplexError, match=f"^cell {cell}: {text}$") as err:
        fc.validate()
    assert err.value.cell_id == cell


_TRIANGLE_FAULTS = [  # (dim, value, row) of triangle 6 over vertices 0-2 and edges 3-5
    ((-1, math.nan, [3, 4, 5]), "negative dimension"),
    ((2, -math.inf, [3, 4, 5]), "value -inf is not finite"),
    ((2, 0.5, [9, 3]), "ordering violation: value 0.5 dim 2 after value 1.0 dim 1"),
    ((2, 2.0, [9, 3]), "face 9 not previously declared"),
    ((2, 2.0, [0, 0, 5]), "face 0 has dim 0, expected 1"),
    ((2, 2.0, [4, 0]), "face 0 listed after face 4"),
]


@pytest.mark.parametrize("block", [complexes._BLOCK, 4], ids=["default-block", "block-4"])
@pytest.mark.parametrize("triangle, text", _TRIANGLE_FAULTS,
                         ids=["dim-and-nan", "inf-and-order", "order-and-undeclared",
                              "undeclared-first", "entry-before-rule", "after-and-dim"])
def test_a_cell_breaking_two_rules_is_named_by_the_first(triangle, text, block, monkeypatch):
    # the cell rules come first (dim, finite value, then (value, dim) order), then the row's
    # first faulty entry, whichever rule it breaks, before a later entry's
    monkeypatch.setattr(complexes, "_BLOCK", block)
    dim, value, row = triangle
    rows = [[], [], [], [0, 1], [0, 2], [1, 2], row]
    fc = FilteredComplex.from_arrays(
        np.array([0, 0, 0, 1, 1, 1, dim]), np.array([0.0] * 3 + [1.0] * 3 + [value]),
        np.cumsum([0] + [len(r) for r in rows]), np.array(sum(rows, []), dtype=np.int64))
    with pytest.raises(ComplexError, match=f"^cell 6: {text}$") as err:
        fc.validate()
    assert err.value.cell_id == 6


@pytest.mark.parametrize("check, args", [
    (test_valid_complexes_validate, ()),
    (test_single_cell_mutation_raises_the_reference_message, ()),
    (test_two_broken_cells_name_the_lower_id, ()),
    (test_star_values_name_a_face_fault_as_validate_does, ()),
    *((test_validate_rejects_a_face_row_out_of_order, case) for case in _ROWS_OUT_OF_ORDER),
], ids=["valid", "single-cell", "two-cells", "star-values", "row-order-triangle", "row-order-edge"])
def test_validate_names_the_same_cell_across_block_edges(check, args, monkeypatch):
    # validate walks blocks of `_BLOCK` cells and entries and sorts `_BLOCK` face-of-face
    # entries at a time; at 16, below the 20 to 561 entries of `valid_complexes`, faults land
    # on a block's first cell, the (value, dim) rule compares cells across a block edge and
    # the boundary-of-boundary sub-blocks split a cell's neighbours
    monkeypatch.setattr(complexes, "_BLOCK", 16)
    check(*args)


@pytest.mark.parametrize("n", [1 << 18, 1 << 19], ids=["int32", "int64"])
def test_a_boundary_of_boundary_fault_is_named_in_either_key_width(n, monkeypatch):
    # isolated vertices, then a triangle with two edges a-b and b-c as the last cell of the
    # 16th block, then more vertices up to n cells: the triangle's sub-block is that whole
    # block, its (cell, face of a face) keys lie below 8192 n, 2**31 (sorted as int32) or
    # 2**32 (as int64), and its own keys are within 2**18 of that bound
    last = 16 * complexes._BLOCK - 1
    dims = np.zeros(n, np.int64)
    dims[last - 2:last + 1] = 1, 1, 2
    values = np.where(np.arange(n) > last, 3.0, 0.0)
    values[last - 2:last + 1] = 1.0, 1.0, 2.0
    rows = [[last - 5, last - 4], [last - 4, last - 3], [last - 2, last - 1]]
    indptr = np.zeros(n + 1, np.int64)
    indptr[last - 1:] = 2
    indptr[last:] = 4
    indptr[last + 1:] = 6
    fc = FilteredComplex.from_arrays(dims, values, indptr, np.array(sum(rows, []), np.int64))
    bounds, sort_keys = [], complexes._sort_keys
    monkeypatch.setattr(complexes, "_sort_keys",
                        lambda keys, bound: bounds.append(bound) or sort_keys(keys, bound))
    with pytest.raises(ComplexError, match=f"^cell {last}: boundary of boundary is nonzero$"):
        fc.validate()
    assert max(bounds) == complexes._BLOCK * n and bounds[-1] == max(bounds)


def test_validate_memory_does_not_grow_with_the_complex():
    # the walk holds a few 64 KiB blocks at a time, not whole-complex masks: on this
    # 17,969-cell complex (51,274 entries) those peaked at 3.95 MB
    fc = rips_filtration(noisy_circle(150), RipsParams(max_dim=2, threshold=0.6))
    assert (len(fc), len(fc.indices)) == (17969, 51274)
    tracemalloc.start()
    try:
        fc.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
