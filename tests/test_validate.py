"""The one-walk `FilteredComplex.validate` against the four-pass
`reference_validate`: seeded single-cell mutations of valid skeletons,
Rips filtrations and cones, and the checks the reference lacks."""
import math
import random
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
    lower_star,
    rips_filtration,
)

from helpers import random_skeleton, random_vertex_function, reference_validate


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
    """Ways to break cell i and no other cell: its id, which only its own
    checks read; a lower value, which its successor and its cofaces still
    accept; and the dim or boundary of a cell that is no cell's face."""
    cells = fc.cells
    c = cells[i]
    out = {"id": replace(c, id=c.id + rng.choice((1, 2, len(cells))))}
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
    assert kinds == {"id", "earlier-value", "tied-lower-dim", "negative-dim", "undeclared-face",
                     "repeated-face", "wrong-dim-face", "dropped-face"}


def test_two_broken_cells_name_the_lower_id():
    # the higher cell gets a wrong id, which the reference's first pass
    # reports wherever the lower cell's fault lies
    rng = random.Random(11)
    reference_named_the_higher = 0
    for fc in valid_complexes():
        n = len(fc.cells)
        for _ in range(40):
            i, j = sorted(rng.sample(range(n), 2))
            kind, low = rng.choice(sorted(mutations(fc, i, rng).items()))
            high = replace(fc.cells[j], id=j + n)
            alone = message(mutated(fc, (i, low)), FilteredComplex.validate)
            broken = mutated(fc, (i, low), (j, high))
            assert message(broken, FilteredComplex.validate) == alone, kind
            reference_named_the_higher += message(broken, reference_validate).startswith(
                f"cell {j + n}: ")
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
    # lower_star and the cone read a cell's star values from its faces, and
    # a face they cannot read is named by validate's own face rule
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


def test_object_values_name_a_non_finite_value():
    # int heights make the values an object array, read as Python scalars
    edge = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(0, 1))])
    with pytest.raises(ComplexError, match=r"^cell 1: value inf is not finite$"):
        lower_star(edge, VertexFunction({0: 0, 1: math.inf}))


@pytest.mark.parametrize("dims, rows, text", [
    ([0, 0, 0, 1, 1, 1, 2], [[], [], [], [0, 1], [0, 2], [1, 2], [5, 3, 4]],
     "face 3 listed after face 5"),
    ([0, 0, 1], [[], [], [1, 0]], "face 0 listed after face 1"),
], ids=["triangle", "edge"])
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
