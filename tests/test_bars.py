"""Bar extraction against the first bar walk.

`barcode` selects, orders and checks its bars on arrays; `reference_barcode`
is the per-bar walk it replaced.  Both must give the same bars in the same
order, with endpoints of the same Python type (an int height stays an int).
"""
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2persist import (
    BifiltrationSpec,
    Cell,
    FilteredComplex,
    Interval,
    PointCloud,
    RipsParams,
    barcode,
    build_cone_filtration,
    extended_barcode,
    lower_star,
    rips_filtration,
)
from z2persist import VertexFunction
from z2persist.complexes import _simplices_to_complex

from helpers import reference_barcode

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
    sk = _simplices_to_complex(simplices)
    vertices = np.flatnonzero(sk.dims == 0).tolist()
    return sk, {v: draw(st.integers(-2, 2)) for v in vertices}


@settings(max_examples=50, deadline=None)
@given(_skeletons_with_heights())
def test_bars_equal_the_bar_walk_on_skeletons_lower_stars_and_cones(skeleton):
    sk, heights = skeleton
    assert_same_bars(sk)
    by_int = VertexFunction(heights)  # int heights: object values
    by_float = VertexFunction({v: h / 2 for v, h in heights.items()})
    for f in (by_int, by_float):
        fc = lower_star(sk, f)
        assert fc.values.dtype == (object if f is by_int else float)
        assert_same_bars(fc)
        # M = max|f| lets a vertex enter with the apex, at -M, when f attains -M
        sup = max(abs(x) for x in f.values.values())
        for spec in (BifiltrationSpec(sk, f, lam=0.5), BifiltrationSpec(sk, f, M=sup)):
            cone_bars = assert_same_bars(build_cone_filtration(spec).complex)
            # the extended barcode is the cone's, minus the apex's infinite bar
            want = [bar for bar in _triples(cone_bars) if bar[2] < INF]
            assert _triples(extended_barcode(spec)) == want


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
