"""lower_star and the cone filtration against their first builders, kept in
helpers.py: the same cells (id, dim, value by repr, boundary, vertices,
name), the same apex, and the same extended barcode."""
import random

import pytest

from z2persist import (
    BifiltrationSpec,
    Cell,
    FilteredComplex,
    Interval,
    VertexFunction,
    build_cone_filtration,
    extended_barcode,
    klein_height_skeleton,
    lower_star,
    ng_cw,
    torus_height_skeleton,
)
from z2persist import extended
from z2persist.complexes import ComplexError, parse_fcx, write_fcx
from z2persist.persistence import Barcode

from helpers import (
    grid_surface,
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


def test_derived_filtrations_reject_missing_vertices_and_nan():
    sk = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 1, 0.0)])  # an edge with no vertex
    f = VertexFunction({0: 0.0})
    with pytest.raises(ComplexError, match="^cell 1: cell has no vertices"):
        lower_star(sk, f)
    with pytest.raises(ComplexError, match="^cell 1: cell has no vertices"):
        build_cone_filtration(BifiltrationSpec(sk, f))
    nan = VertexFunction({0: float("nan")})
    with pytest.raises(ComplexError, match="NaN entry value"):
        lower_star(ng_cw(1), nan)


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
