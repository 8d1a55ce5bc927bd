"""Bar extraction against the first bar walk, and barcodes held as columns.

`barcode` selects, orders and checks its bars on arrays; `reference_barcode`
is the per-bar walk it replaced.  Both must give the same bars in the same
order, with endpoints of the same Python type (float, from int heights too).
A `Barcode` holds degree, birth and death lists and builds its bars only
when they are read.
"""
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2persist import (
    Barcode,
    BifiltrationSpec,
    Cell,
    FilteredComplex,
    Interval,
    PointCloud,
    RipsParams,
    barcode,
    build_cone_filtration,
    extended_barcode,
    klein_height,
    klein_height_skeleton,
    lower_star,
    parse_bcx,
    rips_filtration,
    torus_height_skeleton,
)
from z2persist import VertexFunction, persistence

from helpers import grid_surface, reference_barcode, simplices_to_complex

INF = math.inf


def _triples(b):
    return [(d, *iv) for d, iv in b]


def _types(bars):
    return [tuple(map(type, bar)) for bar in bars]


def assert_same_bars(fc):
    """barcode(fc) is reference_barcode(fc), type for type; returns it."""
    b = barcode(fc)
    ref = reference_barcode(fc)
    got = _triples(b)
    assert got == ref
    assert _types(got) == _types(ref)
    assert all(type(iv) is Interval and -INF < iv.birth < iv.death for _, iv in b)
    return b


@st.composite
def _skeletons_with_heights(draw):
    """A simplicial complex on at most six vertices whose entry values tie
    often, and integer heights on its vertices."""
    value = st.integers(0, 3).map(float)
    nv = draw(st.integers(1, 6))
    simplices = {(v,): draw(value) for v in range(nv)}
    for k in (2, 3, 4):
        for s in combinations(range(nv), k):
            if all(f in simplices for f in combinations(s, k - 1)) and draw(st.booleans()):
                simplices[s] = draw(value)
    sk = simplices_to_complex(simplices)
    vertices = np.flatnonzero(sk.dims == 0).tolist()
    return sk, {v: draw(st.integers(-2, 2)) for v in vertices}


@settings(max_examples=50, deadline=None)
@given(_skeletons_with_heights())
def test_bars_equal_the_bar_walk_on_skeletons_lower_stars_and_cones(skeleton):
    sk, heights = skeleton
    assert_same_bars(sk)
    by_int = VertexFunction(heights)  # int heights: float64 values, as float heights give
    by_float = VertexFunction({v: h / 2 for v, h in heights.items()})
    for f in (by_int, by_float):
        fc = lower_star(sk, f)
        assert fc.values.dtype == float
        assert_same_bars(fc)
        # M = max|f| lets a vertex enter with the apex, at -M, when f attains -M
        sup = max(abs(x) for x in f.values.values())
        for spec in (BifiltrationSpec(sk, f, lam=0.5), BifiltrationSpec(sk, f, M=sup)):
            cone_bars = assert_same_bars(build_cone_filtration(spec).complex)
            # the extended barcode is the cone's, minus the apex's infinite bar
            want = [bar for bar in _triples(cone_bars) if bar[2] < INF]
            assert _triples(extended_barcode(spec)) == want


def test_numpy_float_heights_give_the_python_float_cells_and_bars():
    # f holds Python floats whatever it is given (numpy floats, Python or numpy ints):
    # float64 values, and the Python-float run's bars, whose endpoints are Python floats
    sk = simplices_to_complex(grid_surface(4, True))
    vertices = np.flatnonzero(sk.dims == 0).tolist()
    steps = np.random.default_rng(0).integers(-4, 5, len(vertices))  # ties among them
    quarters = steps / 4
    for heights, floats in ((quarters, quarters), (quarters.astype(np.float32), quarters),
                            (steps, steps.astype(float)), (steps.tolist(), steps.astype(float))):
        given = VertexFunction(dict(zip(vertices, heights)))
        by_float = VertexFunction(dict(zip(vertices, floats.tolist())))
        for build in (lambda f: lower_star(sk, f),
                      lambda f: build_cone_filtration(BifiltrationSpec(sk, f)).complex):
            fc, want = build(given), build(by_float)
            assert fc.values.dtype == want.values.dtype == np.float64
            b = barcode(fc)
            assert b == barcode(want) and len(b) > 0
            assert {type(x) for x in b.births + b.deaths} == {float}
        b = extended_barcode(BifiltrationSpec(sk, given))
        assert b == extended_barcode(BifiltrationSpec(sk, by_float)) and len(b) > 0
        assert {type(x) for x in b.births + b.deaths} == {float}


_COORD = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=7),
       st.integers(0, 6), st.sampled_from([0.3, 0.75, 1.2, 2.5]), st.booleans())
def test_bars_equal_the_bar_walk_on_rips_clouds_with_repeated_points(points, repeats, limit,
                                                                      stepped):
    # repeated points give zero-length pairs; grid points give tied diameters
    points = points + points[:repeats]
    params = (RipsParams(max_dim=2, steps=4, step_size=limit / 4) if stepped
              else RipsParams(max_dim=2, threshold=limit))
    fc = rips_filtration(PointCloud(tuple(points)), params)
    fc.validate()
    assert_same_bars(fc)


def test_bars_of_an_empty_complex():
    assert len(barcode(FilteredComplex([]))) == 0


def test_bars_name_the_first_bad_bar_in_output_order():
    # unvalidated values: -inf and nan births break Interval's rule
    fc = FilteredComplex([Cell(0, 0, -INF), Cell(1, 0, 0.0), Cell(2, 1, 1.0, boundary=(0, 1))])
    with pytest.raises(ValueError, match=r"^need -inf < birth < death, got \[-inf, inf\)$"):
        barcode(fc)
    with pytest.raises(ValueError, match=r"got \[-inf, inf\)"):
        reference_barcode(fc)
    fc = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, math.nan)])
    with pytest.raises(ValueError, match=r"^need -inf < birth < death, got \[nan, inf\)$"):
        barcode(fc)


def test_bars_refuse_values_out_of_filtration_order():
    fc = FilteredComplex([Cell(0, 0, 1.0), Cell(1, 0, 0.0)])
    with pytest.raises(ValueError, match="not in filtration order"):
        barcode(fc)


def test_barcodes_build_no_interval_through_its_check(monkeypatch):
    # bars are read off the columns on demand, without Interval's check
    pc = PointCloud(tuple((math.cos(t), math.sin(t)) for t in np.linspace(0, 6, 16)))
    complexes = [klein_height(2.0, 1.0), lower_star(*torus_height_skeleton(2.0, 1.0)),
                 simplices_to_complex(grid_surface(4, True)),
                 simplices_to_complex(grid_surface(4, False)),
                 rips_filtration(pc, RipsParams(max_dim=2, threshold=0.9))]
    spec = BifiltrationSpec(*klein_height_skeleton(2.0, 1.0))
    want = [reference_barcode(fc) for fc in complexes]
    want_extended = _triples(extended_barcode(spec))

    def refuse(cls, birth, death):
        raise AssertionError("an Interval was built through its check")

    monkeypatch.setattr(persistence.Interval, "__new__", refuse)
    got = [barcode(fc) for fc in complexes]
    assert [_triples(b) for b in got] == want
    assert [_triples(parse_bcx(b.to_bcx())) for b in got] == want
    assert _triples(extended_barcode(spec)) == want_extended
    assert all(type(iv) is Interval for b in got for k in b.dims() for iv in b.in_dim(k))


def test_a_barcode_of_unsorted_bars_equals_its_column_form():
    bars = [(1, Interval(0, 2)), (0, Interval(1.5, INF)), (2, Interval(0.25, 0.5)),
            (0, Interval(-1, 3)), (1, Interval(0, 1))]
    b = Barcode(bars)
    columns = Barcode(columns=([0, 0, 1, 1, 2], [-1, 1.5, 0, 0, 0.25], [3, INF, 1, 2, 0.5]))
    assert b == columns and columns == b and b != Barcode(bars[1:])
    assert b.bars == tuple(sorted(bars)) == tuple(columns)
    assert len(b) == 5 and b.dims() == (0, 1, 2)
    assert b.in_dim(1) == [Interval(0, 1), Interval(0, 2)] and b.in_dim(3) == []
    assert [type(x) for x in b.births] == [int, float, int, int, float]
    # int endpoints print as ints
    text = "0 -1 3\n0 1.5 inf\n1 0 1\n1 0 2\n2 0.25 0.5\n"
    assert b.to_bcx() == columns.to_bcx() == text
    assert parse_bcx(text) == b == parse_bcx("".join(reversed(text.splitlines(True))))
    assert Barcode() == Barcode([]) == Barcode(columns=([], [], [])) and not len(Barcode())
    assert repr(Barcode(bars[:1])) == "Barcode([(1, Interval(birth=0, death=2))])"
