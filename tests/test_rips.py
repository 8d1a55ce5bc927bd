import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2persist import (
    PointCloud,
    RipsParams,
    barcode,
    betti_curve,
    betti_curve_csv,
    betti_numbers,
    rips_filtration,
)

from helpers import reference_distance_matrix


def circle_points(n, radius=1.0, noise=0.0, seed=None):
    rng = random.Random(seed)
    pts = []
    for i in range(n):
        t = 2 * math.pi * i / n
        r = radius + (rng.uniform(-noise, noise) if noise else 0.0)
        pts.append((r * math.cos(t), r * math.sin(t)))
    return PointCloud(tuple(pts))


def flat_torus_points(n, skew=0.5):
    """Grid on the flat torus S1 x S1 in R^4, skewed to break diagonal ties."""
    pts = []
    for i in range(n):
        for j in range(n):
            u = 2 * math.pi * (i + skew * j / n) / n
            v = 2 * math.pi * j / n
            pts.append((math.cos(u), math.sin(u), math.cos(v), math.sin(v)))
    return PointCloud(tuple(pts))


def klein_tube_points(nu=24, nv=6, R=1.2, r=0.5, skew=0.5):
    """Figure-8-free Klein bottle immersion in R^4 (tube with a half twist)."""
    pts = []
    for i in range(nu):
        for j in range(nv):
            u = 2 * math.pi * (i + skew * j / nv) / nu
            v = 2 * math.pi * j / nv
            pts.append((
                (R + r * math.cos(v)) * math.cos(u),
                (R + r * math.cos(v)) * math.sin(u),
                r * math.sin(v) * math.cos(u / 2),
                r * math.sin(v) * math.sin(u / 2),
            ))
    return PointCloud(tuple(pts))


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(())
    with pytest.raises(ValueError):
        PointCloud(((0.0, 0.0), (1.0,)))
    with pytest.raises(ValueError):
        PointCloud(((math.nan, 0.0),))


def test_point_cloud_csv_round_trip():
    pc = circle_points(7, noise=0.1, seed=3)
    assert PointCloud.from_csv(pc.to_csv()) == pc


def test_params_validation():
    with pytest.raises(ValueError):
        RipsParams(max_dim=-1)
    with pytest.raises(ValueError):
        RipsParams(max_dim=1, steps=4)  # step_size missing
    with pytest.raises(ValueError):
        rips_filtration(circle_points(4), RipsParams(max_dim=1))  # unbounded


def test_two_points():
    pc = PointCloud(((0.0, 0.0), (3.0, 4.0)))
    fc = rips_filtration(pc, RipsParams(max_dim=1, threshold=6.0))
    values = sorted((c.dim, c.value) for c in fc.cells)
    assert values == [(0, 0.0), (0, 0.0), (1, 5.0)]


def test_equilateral_triangle():
    pc = PointCloud(((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
    fc = rips_filtration(pc, RipsParams(max_dim=2, threshold=2.0))
    fc.validate()
    b = barcode(fc)
    # the triangle fills the 1-cycle the moment it is born
    assert b.in_dim(1) == []
    deaths = sorted(iv.death for iv in b.in_dim(0))
    assert deaths[:2] == pytest.approx([1.0, 1.0])
    assert deaths[2] == math.inf


def test_circle_has_a_long_h1_bar():
    pc = circle_points(20)
    fc = rips_filtration(pc, RipsParams(max_dim=2, threshold=2.1))
    b = barcode(fc)
    h1 = b.in_dim(1)
    assert sum(1 for iv in h1 if iv.length > 0.5) == 1
    assert betti_curve(b, 0, [0.0]) == [20]


def test_filtration_is_valid_and_monotone():
    pc = circle_points(9, noise=0.2, seed=5)
    fc = rips_filtration(pc, RipsParams(max_dim=2, threshold=1.5))
    fc.validate()
    for c in fc.cells:
        for face in c.boundary:
            assert fc.cells[face].value <= c.value


def test_duplicate_points_do_not_change_betti():
    pc = circle_points(8)
    dup = PointCloud(pc.points + (pc.points[0],))
    p = RipsParams(max_dim=2, threshold=1.0)
    b1 = barcode(rips_filtration(pc, p))
    b2 = barcode(rips_filtration(dup, p))
    grid = [0.5, 0.8, 0.95]
    for k in (0, 1):
        assert betti_curve(b1, k, grid) == betti_curve(b2, k, grid)


def test_scaling_equivariance():
    pc = circle_points(10, noise=0.1, seed=11)
    scaled = PointCloud(tuple(tuple(3.0 * x for x in p) for p in pc.points))
    b1 = barcode(rips_filtration(pc, RipsParams(max_dim=1, threshold=1.2)))
    b2 = barcode(rips_filtration(scaled, RipsParams(max_dim=1, threshold=3.6)))
    scaled_bars = sorted(
        (d, iv.birth * 3.0, iv.death * 3.0 if iv.death != math.inf else math.inf)
        for d, iv in b1
    )
    got = sorted((d, iv.birth, iv.death) for d, iv in b2)
    assert len(got) == len(scaled_bars)
    for (d1, x1, y1), (d2, x2, y2) in zip(got, scaled_bars):
        assert d1 == d2
        assert math.isclose(x1, x2, abs_tol=1e-9)
        assert y1 == y2 == math.inf or math.isclose(y1, y2, abs_tol=1e-9)


def test_snapping_is_deterministic_on_bundled_points():
    from importlib import resources

    text = resources.files("z2persist").joinpath("data/sample_points.csv").read_text()
    pc = PointCloud.from_csv(text)
    p = RipsParams(max_dim=2, steps=10, step_size=0.12)
    out1 = betti_curve_csv(barcode(rips_filtration(pc, p)),
                           [0.12 * i for i in range(11)], max_k=1)
    out2 = betti_curve_csv(barcode(rips_filtration(pc, p)),
                           [0.12 * i for i in range(11)], max_k=1)
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "t,b0,b1"
    assert len(lines) == 12
    # snapped values sit on step boundaries
    fc = rips_filtration(pc, p)
    for c in fc.cells:
        assert abs(c.value / 0.12 - round(c.value / 0.12)) < 1e-9


def test_torus_betti_window():
    pc = flat_torus_points(8)
    fc = rips_filtration(pc, RipsParams(max_dim=2, threshold=1.1))
    sub = fc.sublevel(1.1)
    assert betti_numbers(sub) == (1, 2, 1)


def test_klein_betti_window():
    # 3-simplices are needed to fill the spurious 2-cycles of the thickened
    # tube; degree 3 itself is not meaningful without 4-simplices.
    pc = klein_tube_points()
    fc = rips_filtration(pc, RipsParams(max_dim=3, threshold=0.7))
    sub = fc.sublevel(0.7)
    assert betti_numbers(sub)[:3] == (1, 2, 1)


# Coordinates of mixed magnitude: tiny, unit-sized, integral and huge.
_COORDINATE = st.one_of(
    st.floats(-1e-6, 1e-6), st.floats(-2.0, 2.0), st.integers(-3, 3).map(float),
    st.floats(-1e150, 1e150))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[_COORDINATE] * d), min_size=1, max_size=9)),
    st.integers(0, 4))
def test_distance_matrix_equals_the_broadcast_formula(points, repeats):
    pc = PointCloud(tuple(points + points[:repeats]))  # repeated points: zero distances
    assert np.array_equal(pc.distance_matrix(), reference_distance_matrix(pc))


def test_cell_cap_counts_every_dimension(monkeypatch):
    # ten points at pairwise distance <= 2 make 10 + 45 + 120 = 175 cells
    from z2persist import rips

    cloud = circle_points(10)
    params = RipsParams(max_dim=2, threshold=2.5)
    monkeypatch.setattr(rips, "_MAX_CELLS", 175)
    assert len(rips_filtration(cloud, params)) == 175
    monkeypatch.setattr(rips, "_MAX_CELLS", 174)
    with pytest.raises(ValueError, match=r"^the Rips complex passes 174 cells in dimension 2 \(175 so far\)$"):
        rips_filtration(cloud, params)
    monkeypatch.setattr(rips, "_MAX_CELLS", 54)
    with pytest.raises(ValueError, match=r"passes 54 cells in dimension 1 \(55 so far\)$"):
        rips_filtration(cloud, params)


def test_max_dim_0_lists_no_edges_and_caps_no_dimension_above_the_vertices(monkeypatch):
    # the 45 pairs of these ten points are all within the threshold, but
    # with max_dim=0 no edge is listed, so a cap of ten cells is not passed
    from z2persist import rips

    monkeypatch.setattr(rips, "_MAX_CELLS", 10)
    fc = rips_filtration(circle_points(10), RipsParams(max_dim=0, threshold=2.5))
    assert fc.dims.tolist() == [0] * 10 and fc.values.tolist() == [0.0] * 10
    with pytest.raises(ValueError, match=r"passes 10 cells in dimension 1 \(55 so far\)$"):
        rips_filtration(circle_points(10), RipsParams(max_dim=1, threshold=2.5))


def test_negative_threshold_reads_no_distance(monkeypatch):
    # no vertex enters below 0, so the build needs no distance at any max_dim
    def no_distances(self):
        raise AssertionError("distance_matrix read for a complex with no vertex")

    monkeypatch.setattr(PointCloud, "distance_matrix", no_distances)
    for max_dim in (1, 2):
        fc = rips_filtration(circle_points(10), RipsParams(max_dim=max_dim, threshold=-0.5))
        assert len(fc) == 0 and len(barcode(fc)) == 0
