import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2persist import (
    BifiltrationSpec,
    Cell,
    FilteredComplex,
    Interval,
    VertexFunction,
    build_cone_filtration,
    extended_barcode,
    extended_rank,
    klein_height_skeleton,
    reduce_filtration,
    single_interval_rank,
    torus_height_skeleton,
)
from z2persist.complexes import parse_spx

from helpers import (
    bar_phase,
    builder_skeletons,
    dense_betti,
    grid_surface,
    pair_rank,
    random_skeleton,
    random_vertex_function,
    reference_validate,
    simplices_to_complex,
)

INF = math.inf


def _klein_spec(M=2.0, A=1.0, lam=1.0):
    sk, f = klein_height_skeleton(M, A)
    return BifiltrationSpec(sk, f, M=M, lam=lam)


def test_spec_validation():
    sk, f = klein_height_skeleton(2.0, 1.0)
    with pytest.raises(ValueError):
        BifiltrationSpec(sk, f, M=2.0, lam=0.0)
    with pytest.raises(ValueError):
        BifiltrationSpec(sk, f, M=1.5)  # |f| reaches 2
    assert BifiltrationSpec(sk, f).M == 3.0  # default max|f| + 1


_LOST = "round 2M \\+ lambda to 2M"
_KLEIN_HEIGHTS = {0: -2.0, 1: -1.0, 2: 2.0}  # klein_height_skeleton(2.0, 1.0)'s f
# at M=1e16 and lambda=100 the cone values 2M + 101.2 and 2M + 101 both round to 2M + 100
_TIED_HEIGHTS = {0: -2.0, 1: -1.2, 2: -1.0}
_TIED = "round 2M \\+ lambda - f to one value for two values of f"


@pytest.mark.parametrize("M, lam, values, tail", [
    (1e308, 1.0, {0: 0.0}, "not finite"),                # 2M overflows
    (1e307, 1.7e308, {0: 0.0}, "not finite"),            # the spacing does
    (None, 1.0, {0: -9e307, 1: 9e307}, "not finite"),    # the default M = max|f| + 1 does
    (8.5e307, 1.0, {0: -8.5e307}, "not finite"),         # 2M is finite, 2M - min f is not
    (1e17, 1.0, _KLEIN_HEIGHTS, _LOST),                  # 2M + lambda - f is 2e17 for all f
    (2.0, 1e-20, _KLEIN_HEIGHTS, _LOST),                 # 2M + lambda - max f is max f
    (1e16, 100.0, _TIED_HEIGHTS, _TIED),                 # -1.2 and -1.0 both go to 2M + 100
], ids=["bound", "spacing", "default-bound", "min-f", "huge-bound", "tiny-spacing",
        "tied-cone-values"])
def test_spec_rejects_a_cone_whose_top_value_overflows(M, lam, values, tail):
    # The cone's cells go up to 2M + lambda - min f; past the floats, or
    # where 2M + lambda rounds to 2M, so that the cone's values tie for
    # values of f lambda apart or fall to max f, or where 2M + lambda - f
    # ties for two values of f, the spec names M and lambda, not a cell of
    # the cone built from them.
    sk = FilteredComplex([Cell(i, 0, 0.0) for i in range(len(values))])
    with pytest.raises(ValueError, match=rf"^the bound M=.* and spacing lambda=.* {tail}$"):
        BifiltrationSpec(sk, VertexFunction(values), M=M, lam=lam)


def test_spec_accepts_an_f_holding_both_zeros():
    # 0.0 and -0.0 are one value of f, so their one cone value is no tie
    sk = FilteredComplex([Cell(i, 0, 0.0) for i in range(3)])
    for M, lam in ((None, 1.0), (1e16, 100.0)):
        spec = BifiltrationSpec(sk, VertexFunction({0: 0.0, 1: -0.0, 2: -8.0}), M=M, lam=lam)
        assert spec.M == (9.0 if M is None else M)


@pytest.mark.parametrize("values", [{}, {0: INF}, {0: 0.5, 1: -INF}, {0: math.nan, 1: 1.0}],
                         ids=["empty", "inf", "minus-inf", "nan"])
def test_spec_rejects_an_empty_or_non_finite_f(values):
    sk = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0)])
    with pytest.raises(ValueError, match="^the vertex function f must have at least one value"):
        BifiltrationSpec(sk, VertexFunction(values))


def test_cone_single_vertex():
    sk = FilteredComplex([Cell(0, 0, 0.0)])
    f = VertexFunction({0: 0.0})
    cone = build_cone_filtration(BifiltrationSpec(sk, f, M=1.0, lam=1.0))
    cells = cone.complex.cells
    # apex leads the filtration; the vertex is coned at 2M + lambda - f
    assert cells[cone.apex].value == -1.0 and cone.apex == 0
    assert [c.value for c in cells[1:]] == [0.0, 3.0]
    b = extended_barcode(BifiltrationSpec(sk, f, M=1.0, lam=1.0))
    assert b.bars == ((0, Interval(0.0, 3.0)),)


def test_the_apex_leads_a_vertex_tied_with_it_at_minus_M():
    # f attains -M, so the vertex enters at -M with the apex, and after it
    sk = FilteredComplex([Cell(0, 0, 0.0)])
    spec = BifiltrationSpec(sk, VertexFunction({0: -1.0}), M=1.0, lam=1.0)
    cone = build_cone_filtration(spec)
    assert cone.apex == 0 and [c.value for c in cone.complex.cells] == [-1.0, -1.0, 4.0]
    assert extended_barcode(spec).bars == ((0, Interval(-1.0, 4.0)),)


def test_cone_filtration_validates_and_spans():
    spec = _klein_spec()
    cone = build_cone_filtration(spec)
    cone.complex.validate()
    assert max(c.value for c in cone.complex.cells) == 7.0  # 3M + lambda
    assert len(cone.complex) == 2 * len(spec.complex) + 1
    # the cone walks its skeleton, not itself, so each cone is walked here: by validate and
    # by the four-pass oracle, spanning [-M, 2M + lambda - min f]
    for sk, f in builder_skeletons(random.Random(41)):
        spec = BifiltrationSpec(sk, f)
        fc = build_cone_filtration(spec).complex
        fc.validate()
        reference_validate(fc)
        assert len(fc) == 2 * len(sk) + 1
        top = 2 * spec.M + spec.lam - min(f.values.values())
        assert (fc.values[0], fc.values[-1]) == (-spec.M, top)


@pytest.mark.parametrize("m, twist, before, after", [(12, True, 215, 161), (16, False, 391, 265)])
def test_the_mirrored_cone_phase_saves_column_additions(m, twist, before, after):
    # a standing torus's height plus seeded noise on a Klein or torus grid, read as the CLI
    # reads it; tied cones taken by ascending skeleton id, not descending, made `before`
    rng = random.Random(m)
    heights = {i * m + j: math.cos(2 * math.pi * i / m) * (2 + math.cos(2 * math.pi * j / m))
               + rng.gauss(0, 0.15) for i in range(m) for j in range(m)}
    sk = parse_spx("".join(f"{' '.join(map(str, s))}\n" for s in grid_surface(m, twist)), heights)
    vertices = np.flatnonzero(sk.dims == 0).tolist()
    f = VertexFunction(dict(zip(vertices, sk.values[vertices].tolist())))
    cone = build_cone_filtration(BifiltrationSpec(sk, f)).complex
    assert reduce_filtration(cone).column_additions == after <= 0.8 * before


def test_klein_extended_barcode():
    b = extended_barcode(_klein_spec())
    assert b.in_dim(0) == [Interval(-2.0, 3.0)]
    assert b.in_dim(1) == [Interval(-1.0, 6.0), Interval(2.0, 3.0)]
    assert b.in_dim(2) == [Interval(2.0, 7.0)]


def test_extended_bars_finite_and_contained():
    rng = random.Random(6)
    for _ in range(20):
        sk = random_skeleton(rng)
        f = random_vertex_function(rng, sk)
        spec = BifiltrationSpec(sk, f, lam=rng.choice([0.5, 1.0, 2.0]))
        b = extended_barcode(spec)
        for _, iv in b:
            assert iv.death != INF
            assert -spec.M <= iv.birth
            assert iv.death <= 3 * spec.M + spec.lam


def test_klein_fixture_bar_symmetries():
    # observed in the fixture: H0 and H2 bars have equal length 2M+lambda,
    # the short H1 bar is exactly [M, M+lambda)
    M, lam = 2.0, 1.0
    b = extended_barcode(_klein_spec(M=M, lam=lam))
    (h0,) = b.in_dim(0)
    (h2,) = b.in_dim(2)
    assert h0.length == h2.length == 2 * M + lam
    short = min(b.in_dim(1), key=lambda iv: iv.length)
    assert short == Interval(M, M + lam)


def test_torus_extended_rotational_symmetry():
    M, A, lam = 2.0, 1.0, 1.0
    sk, f = torus_height_skeleton(M, A)
    b = extended_barcode(BifiltrationSpec(sk, f, M=M, lam=lam))
    h1 = b.in_dim(1)
    assert len(h1) == 2
    # point reflection about M + lambda/2 maps the H1 multiset to itself
    center2 = 2 * M + lam
    reflected = sorted(
        (center2 - iv.death, center2 - iv.birth) for iv in h1
    )
    assert reflected == sorted((iv.birth, iv.death) for iv in h1)


def test_extended_rank_klein_spot_checks():
    b = extended_barcode(_klein_spec())
    assert extended_rank(b, 1, 2.2, 0.5) == 2
    assert extended_rank(b, 0, 10.0, 0.0) == 0
    assert extended_rank(b, 2, 2.5, 5.0) == 0
    with pytest.raises(ValueError):
        extended_rank(b, 0, 0.0, -0.5)


def test_extended_rank_p0_is_pointwise_dimension():
    b = extended_barcode(_klein_spec())
    for k in range(3):
        for a in (-2.0, -1.5, 0.0, 2.0, 2.5, 4.0, 6.5, 8.0):
            alive = sum(1 for iv in b.in_dim(k) if a in iv)
            assert extended_rank(b, k, a, 0.0) == alive


def test_extended_agrees_with_ordinary_on_ascending_subaxis():
    from z2persist import barcode, lower_star, persistent_betti

    spec = _klein_spec()
    ext = extended_barcode(spec)
    ord_b = barcode(lower_star(spec.complex, spec.f))
    for k in range(3):
        for a, p in [(-1.5, 0.5), (0.0, 1.0), (2.0, 0.5), (-2.0, 3.0)]:
            if a + p < spec.M + spec.lam:
                assert extended_rank(ext, k, a, p) == persistent_betti(ord_b, k, a, p)


def test_extended_rank_vanishes_across_gaps():
    from z2persist import Barcode

    b = Barcode([(0, Interval(0, 1)), (0, Interval(2, 3))])
    assert extended_rank(b, 0, 0.5, 2.0) == 0  # dimension hits 0 in between


def test_extended_rank_matches_relative_homology_oracle():
    rng = random.Random(14)
    for _ in range(25):
        sk = random_skeleton(rng, max_cells=20)
        f = random_vertex_function(rng, sk)
        spec = BifiltrationSpec(sk, f)
        b = extended_barcode(spec)
        for _ in range(4):
            a = rng.uniform(-spec.M, 3 * spec.M + spec.lam)
            p = rng.uniform(0, 2 * spec.M)
            for k in range(sk.max_dim + 2):
                oracle = pair_rank(sk, f, spec.M, spec.lam, k, a, a + p)
                assert extended_rank(b, k, a, p) == oracle, (k, a, p)


def test_single_interval_rank():
    assert single_interval_rank(0, 5, 1, 3) == 1
    assert single_interval_rank(0, 5, 1, 4) == 0
    assert single_interval_rank(0, 5, -1, 0) == 0
    with pytest.raises(ValueError):
        single_interval_rank(0, INF, 1, 1)
    with pytest.raises(ValueError):
        single_interval_rank(3, 2, 1, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 7), st.booleans(), st.booleans(), st.sampled_from([1.0, 0.25]), st.data())
def test_ext_bars_count_the_betti_numbers_of_a_closed_surface(m, twist, attained, lam, data):
    # each Z/2 homology class of the surface gives one Ext bar, in its own
    # degree (Cohen-Steiner, Edelsbrunner & Harer 2009)
    sk = simplices_to_complex(grid_surface(m, twist))
    level = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1, 1)
    values = data.draw(st.lists(level, min_size=m * m, max_size=m * m))
    f = VertexFunction(dict(zip([c.id for c in sk.cells if c.dim == 0], values)))
    M = max(map(abs, values)) + (0.0 if attained else 1.0)
    if len({2 * M + lam - v for v in values}) < len(set(values)):  # say 0.0 and 6e-81
        with pytest.raises(ValueError, match="to one value for two values of f$"):
            BifiltrationSpec(sk, f, M=M, lam=lam)
        return
    spec = BifiltrationSpec(sk, f, M=M if attained else None, lam=lam)
    ext = [d for d, iv in extended_barcode(spec) if bar_phase(spec, *iv) == "ext"]
    betti = [dense_betti(sk, k) for k in range(3)]
    assert [ext.count(k) for k in range(3)] == betti
    assert len(ext) == sum(betti) == 4  # torus and Klein bottle: (1, 2, 1) over Z/2


def _read_bars(spec):
    """The extended bars as a multiset of (phase, degree, birth, death), a
    cone value x >= M + lambda/2 read as the f-value 2M + lambda - x."""
    middle, top = spec.M + spec.lam / 2, 2 * spec.M + spec.lam
    read = lambda x: x if x < middle else top - x
    return Counter((bar_phase(spec, *iv), d, read(iv.birth), read(iv.death))
                   for d, iv in extended_barcode(spec))


# Cohen-Steiner, Edelsbrunner & Harer 2009, on a closed surface (d = 2):
# Ord_p(f) <-> Ord_{d-1-p}(-f) and Rel_p(f) <-> Rel_{d+1-p}(-f), each with
# (b, e) -> (-e, -b), and Ext_p(f) <-> Ext_{d-p}(-f), with (b, e) -> (-b, -e).
_DUAL = {
    "ord": lambda p, b, e: ("ord", 1 - p, -e, -b),
    "rel": lambda p, b, e: ("rel", 3 - p, -e, -b),
    "ext": lambda p, b, e: ("ext", 2 - p, -b, -e),
}


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 5), st.booleans(), st.integers(0, 8), st.integers(1, 16), st.data())
def test_extended_barcodes_of_f_and_minus_f_are_dual(m, twist, slack, lam, data):
    # values, M and lambda are multiples of 1/8, so that 2M + lambda - x is
    # exact and the bars compare exactly; slack 0 makes M attained
    sk = simplices_to_complex(grid_surface(m, twist))
    vertices = [c.id for c in sk.cells if c.dim == 0]
    values = [v / 8 for v in data.draw(st.lists(st.integers(-8, 8), min_size=m * m,
                                                 max_size=m * m))]
    M = max(map(abs, values)) + slack / 8
    f, minus_f = (VertexFunction(dict(zip(vertices, [s * v for v in values]))) for s in (1, -1))
    bars = _read_bars(BifiltrationSpec(sk, f, M=M, lam=lam / 8))
    dual = Counter({_DUAL[phase](*bar): count for (phase, *bar), count in bars.items()})
    assert dual == _read_bars(BifiltrationSpec(sk, minus_f, M=M, lam=lam / 8))
