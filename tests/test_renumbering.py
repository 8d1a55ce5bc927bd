"""lower_star and the cone filtration against their first builders, kept in
helpers.py: the same cells (id, dim, value by repr, boundary, vertices,
name), the same apex, and the same extended barcode."""
import math
import random

import numpy as np
import pytest

from z2persist import (
    BifiltrationSpec,
    Cell,
    FilteredComplex,
    Interval,
    RipsParams,
    VertexFunction,
    build_cone_filtration,
    extended_barcode,
    klein_height_skeleton,
    lower_star,
    ng_cw,
    rips_filtration,
    torus_height_skeleton,
)
from z2persist import complexes, extended, rips
from z2persist.complexes import (
    ComplexError, parse_fcx, parse_spx, simplicial_filtration, write_fcx,
)
from z2persist.persistence import Barcode

from helpers import (
    grid_surface,
    noisy_circle,
    random_skeleton,
    random_vertex_function,
    reference_build_cone_filtration,
    reference_extended_barcode,
    reference_lower_star,
    simplices_to_complex,
)


def _cells(fc):
    return [(c.id, c.dim, repr(c.value), c.boundary, c.vertices, c.name) for c in fc.cells]


def _tied_function(rng, fc):
    """Heights on a 1/16 grid, so many cells share a value."""
    values = {c.id: rng.randint(-16, 16) / 16 for c in fc.cells if c.dim == 0}
    return VertexFunction(values)


def _cases():
    rng = random.Random(61)
    for m in (4, 8, 12):
        for twist in (False, True):
            sk = simplices_to_complex(grid_surface(m, twist))
            yield f"grid{m}-{'klein' if twist else 'torus'}", sk, _tied_function(rng, sk)
    for i in range(30):
        sk = random_skeleton(rng)
        if i % 5 == 4:  # ids ordered by value, so dimensions interleave
            sk = reference_lower_star(sk, _tied_function(rng, sk))
        if i % 2:  # through FCX, which keeps no vertex lists
            sk = parse_fcx(write_fcx(sk))
        f = random_vertex_function(rng, sk) if i % 3 else _tied_function(rng, sk)
        yield f"random{i}", sk, f
    yield ("klein-height",) + klein_height_skeleton(2.0, 1.0)
    yield ("torus-height",) + torus_height_skeleton(2.0, 1.0)
    yield "ng3", ng_cw(3), VertexFunction({0: 0.5})
    yield "int-values", ng_cw(1), VertexFunction({0: 1})


CASES = list(_cases())
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("name, sk, f", CASES, ids=IDS)
def test_lower_star_matches_reference(name, sk, f):
    assert _cells(lower_star(sk, f)) == _cells(reference_lower_star(sk, f))


@pytest.mark.parametrize("name, sk, f", CASES, ids=IDS)
def test_cone_and_extended_barcode_match_reference(name, sk, f):
    for lam in (0.5, 1.0):
        spec = BifiltrationSpec(sk, f, lam=lam)
        cone, ref = build_cone_filtration(spec), reference_build_cone_filtration(spec)
        assert _cells(cone.complex) == _cells(ref.complex)
        assert cone.apex == ref.apex
        assert extended_barcode(spec) == reference_extended_barcode(spec)


_TIES = [-math.inf, -1.0, -0.0, 0.0, 0.5, math.inf]


def test_the_numbering_is_lexsorts_order(monkeypatch):
    # cells are numbered by (value, dim, row), each call checked against np.lexsort: seeded
    # values with long runs of ties, -0.0 beside 0.0 and +-inf, through simplicial_filtration;
    # lower stars and cones of skeletons whose dims do not increase in id order; 0 to 2 rows
    sizes, reorder = [], complexes._reorder

    def checked(dims, values, *rest):
        order = np.lexsort((dims, values))
        fc, new_id = reorder(dims, values, *rest)
        assert new_id[order].tolist() == list(range(len(dims)))
        sizes.append(len(dims))
        return fc, new_id

    monkeypatch.setattr(complexes, "_reorder", checked)
    monkeypatch.setattr(extended, "_reorder", checked)
    rng = np.random.default_rng(48)
    vertices = [np.arange(n).reshape(n, 1) for n in range(3)]
    for simplices, faces in [([vertices[0]], [None]), ([vertices[1]], [None]),
                             ([vertices[2], np.array([[0, 1]])], [None, np.array([[1, 0]])]),
                             rips._cliques(noisy_circle(80), RipsParams(2, threshold=0.6), 80)[:2]]:
        f = rng.choice(_TIES, len(simplices[0]))  # a simplex at the max of f over its vertices
        simplicial_filtration(simplices, faces, [f[s].max(axis=1, initial=-math.inf)
                                                 for s in simplices], [*map(str, range(len(f)))])
    skeletons = [FilteredComplex([Cell(i, 0, 0.0) for i in range(n)]) for n in (1, 2)]
    skeletons += [rips_filtration(noisy_circle(60), RipsParams(2, threshold=0.7))]
    skeletons += [sk for _, sk, _ in CASES[6:16]]
    # CW cells of dims past any key width: their ranks are packed instead
    skeletons += [FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 5, 0.0, vertices=(0,)),
                                   *(Cell(3 + i, 2**61 + i, 0.0, vertices=(i,)) for i in (0, 1))])]
    for sk in skeletons:
        f = VertexFunction({v: rng.choice(_TIES[1:-1]) for v in range(len(sk)) if sk.dims[v] == 0})
        lower_star(sk, f)
        build_cone_filtration(BifiltrationSpec(sk, f))
    assert {0, 1, 2} <= set(sizes) and max(sizes) > 1000


def _frozen(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def test_the_builders_leave_their_inputs_byte_identical(monkeypatch):
    # the renumbering overwrites the rows array it is given with new ids and sorts its keys
    # there, so each builder hands it a fresh one: a skeleton's arrays, and the simplices,
    # faces and values a caller gives simplicial_filtration, are only read
    for name, sk, f in CASES:
        before = _frozen((sk.dims, sk.values, sk.indptr, sk.indices))
        lower_star(sk, f)
        build_cone_filtration(BifiltrationSpec(sk, f, lam=0.5))
        assert _frozen((sk.dims, sk.values, sk.indptr, sk.indices)) == before, name
    unchanged = []

    def build(simplices, faces, values, labels):
        before = _frozen([*simplices, *faces[1:], *values])
        fc = simplicial_filtration(simplices, faces, values, labels)
        unchanged.append(_frozen([*simplices, *faces[1:], *values]) == before)
        return fc

    monkeypatch.setattr(rips, "simplicial_filtration", build)
    monkeypatch.setattr(complexes, "simplicial_filtration", build)
    rips_filtration(noisy_circle(40), RipsParams(max_dim=3, threshold=0.8))
    parse_spx("0 0 1 2\n1 1 2 3\n2 0 3\n")
    assert unchanged == [True, True]


def test_derived_filtrations_reject_missing_vertices_and_nan():
    sk = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 1, 0.0)])  # an edge with no vertex
    f = VertexFunction({0: 0.0})
    with pytest.raises(ComplexError, match="^cell 1: cell has no vertices"):
        lower_star(sk, f)
    with pytest.raises(ComplexError, match="^cell 1: cell has no vertices"):
        build_cone_filtration(BifiltrationSpec(sk, f))
    nan = VertexFunction({0: float("nan")})  # named by its cell, as +-inf is
    with pytest.raises(ComplexError, match="^cell 0: value nan is not finite$") as err:
        lower_star(ng_cw(1), nan)
    assert err.value.cell_id == 0


@pytest.mark.parametrize("vertices, bad", [((-1,), -1), ((0, 3), 3), ((0, 2), 2)],
                         ids=["negative", "past-the-last-cell", "an-edge"])
def test_derived_filtrations_reject_a_vertex_list_naming_no_vertex(vertices, bad):
    sk = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, vertices=vertices)])
    f = VertexFunction({0: 0.0, 1: 2.0, -1: 1.0, 3: 1.0})
    message = f"^cell 2: vertex {bad} is not a vertex of the complex$"
    with pytest.raises(ComplexError, match=message):
        lower_star(sk, f)
    with pytest.raises(ComplexError, match=message):
        build_cone_filtration(BifiltrationSpec(sk, f))


def test_extended_barcode_raises_unless_only_the_apex_is_essential(monkeypatch):
    sk, f = klein_height_skeleton(2.0, 1.0)
    spec = BifiltrationSpec(sk, f, M=2.0)
    two = Barcode([(0, Interval(-2.0, float("inf"))), (1, Interval(0.0, float("inf")))])
    monkeypatch.setattr(extended, "barcode", lambda fc: two)
    with pytest.raises(AssertionError, match="2 infinite bars"):
        extended_barcode(spec)
    monkeypatch.setattr(extended, "barcode", lambda fc: Barcode([]))
    with pytest.raises(AssertionError, match="0 infinite bars"):
        extended_barcode(spec)
