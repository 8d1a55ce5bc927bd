"""The numpy simplex builder against the first per-simplex builders kept in
helpers.py: Rips and SPX complexes must agree cell for cell.  Their
barcodes must also not change when the points are permuted or the vertex
ids relabelled."""
import math
import random
import warnings
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2persist import (
    BifiltrationSpec, Cell, ComplexError, FilteredComplex, PointCloud, RipsParams, barcode,
    build_cone_filtration, lower_star, rips, rips_filtration,
)
from z2persist.complexes import _MAX_VERTICES, parse_spx, simplicial_filtration

from helpers import (
    grid_surface,
    random_vertex_function,
    reference_build_cone_filtration,
    reference_cell_vertices,
    reference_lower_star,
    reference_parse_spx,
    reference_rips_filtration,
    reference_simplices_to_complex,
    reference_validate,
    simplices_to_complex,
)


def cell_rows(fc):
    """Every field of every cell; values by repr, so a -0.0 or an int
    where the oracle has 0.0 or a float shows.  Vertex sets are read
    through the closure oracle: the oracle's cells list theirs, and the
    builder's leave them to their boundaries."""
    return [(c.id, c.dim, repr(c.value), c.boundary, reference_cell_vertices(fc, c.id), c.name)
            for c in fc.cells]


def assert_same_cells(fc, ref):
    assert all(c.vertices is None for c in fc.cells)
    assert cell_rows(fc) == cell_rows(ref)


def tied_cloud(rng, n):
    """Points on a coarse integer grid, so many distances tie, with some
    points repeated."""
    pts = [(float(rng.randint(0, 4)), float(rng.randint(0, 4))) for _ in range(n)]
    pts += rng.sample(pts, n // 4)
    return PointCloud(tuple(pts))


def random_cloud(rng, n, d=2):
    return PointCloud(tuple(tuple(rng.uniform(-1, 1) for _ in range(d)) for _ in range(n)))


@pytest.mark.parametrize("seed", range(6))
def test_rips_matches_oracle_on_tied_and_duplicate_points(seed):
    rng = random.Random(seed)
    for pc in (tied_cloud(rng, 14), random_cloud(rng, 18), random_cloud(rng, 12, d=3)):
        for threshold in (0.0, 1.0, 1.5, 2.5):
            params = RipsParams(max_dim=2, threshold=threshold)
            assert_same_cells(rips_filtration(pc, params), reference_rips_filtration(pc, params))


@pytest.mark.parametrize("max_dim", range(5))
def test_rips_matches_oracle_at_every_max_dim(max_dim):
    rng = random.Random(40 + max_dim)
    for pc in (tied_cloud(rng, 9), random_cloud(rng, 11)):
        params = RipsParams(max_dim=max_dim, threshold=1.6)
        assert_same_cells(rips_filtration(pc, params), reference_rips_filtration(pc, params))


@pytest.mark.parametrize("seed", range(4))
def test_rips_matches_oracle_in_stepped_mode(seed):
    rng = random.Random(100 + seed)
    for pc in (tied_cloud(rng, 12), random_cloud(rng, 14)):
        for params in (
            RipsParams(max_dim=2, steps=10, step_size=0.12),
            RipsParams(max_dim=3, steps=4, step_size=0.5),
            RipsParams(max_dim=2, steps=3, step_size=0.25, threshold=0.6),
            RipsParams(max_dim=1, steps=2, step_size=0.5, threshold=-1.0),  # nothing kept
        ):
            fc = rips_filtration(pc, params)
            assert_same_cells(fc, reference_rips_filtration(pc, params))
            fc.validate()


@pytest.mark.parametrize("block", [1, 3])
def test_rips_matches_oracle_with_candidate_blocks_ending_inside_rows(block, monkeypatch):
    # Candidates are tested `_MASK_ENTRIES` at a time; at 1 and 3 a row's
    # candidates straddle block ends, and the oracle tests must still pass.
    monkeypatch.setattr(rips, "_MASK_ENTRIES", block)
    for seed in range(6):
        test_rips_matches_oracle_on_tied_and_duplicate_points(seed)
    for max_dim in range(5):
        test_rips_matches_oracle_at_every_max_dim(max_dim)
    for seed in range(4):
        test_rips_matches_oracle_in_stepped_mode(seed)


def test_rips_stepped_mode_at_the_snap_boundary():
    # An edge enters iff its raw and its snapped length are both at or
    # under the limit, and only those lengths are snapped.
    cases = [
        # raw 0.7500000000000002 is above the limit 0.75, snapped 0.75 is not
        (((0.0, 0.0), (0.7500000000000002, 0.0)), RipsParams(max_dim=1, steps=3, step_size=0.25),
         0),
        # raw 0.55 is under the threshold 0.6, snapped 0.75 is not
        (((0.0, 0.0), (0.55, 0.0)), RipsParams(max_dim=1, steps=3, step_size=0.25, threshold=0.6),
         0),
        # a length of 1 divided by a subnormal step would overflow
        (((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)), RipsParams(max_dim=2, steps=3, step_size=1e-320),
         1),
    ]
    for points, params, edges in cases:
        pc = PointCloud(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fc = rips_filtration(pc, params)
        assert_same_cells(fc, reference_rips_filtration(pc, params))
        assert fc.num_cells(1) == edges


def test_rips_stops_expanding_at_the_first_empty_dimension():
    pc = PointCloud(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    with mock.patch.object(rips, "simplicial_filtration",
                           wraps=rips.simplicial_filtration) as build:
        fc = rips_filtration(pc, RipsParams(max_dim=500, threshold=2.0))
    assert [len(s) for s in build.call_args.args[0]] == [3, 3, 1]
    assert [c.dim for c in fc.cells] == [0, 0, 0, 1, 1, 1, 2]


@pytest.mark.parametrize("mode", ["threshold", "stepped"])
def test_rips_barcode_is_unchanged_by_permuting_the_points(mode):
    rng = random.Random(60 if mode == "threshold" else 61)
    for _ in range(60):
        n = rng.randint(1, 10)
        pc = tied_cloud(rng, n) if rng.random() < 0.7 else random_cloud(rng, n)
        if mode == "threshold":
            params = RipsParams(max_dim=rng.randint(0, 3), threshold=rng.choice([0.0, 1.0, 1.5, 2.5]))
        else:
            params = RipsParams(max_dim=rng.randint(0, 3), steps=rng.randint(1, 6),
                                step_size=rng.choice([0.25, 0.5, 0.7]))
        shuffled = PointCloud(tuple(rng.sample(pc.points, len(pc))))
        assert barcode(rips_filtration(pc, params)) == barcode(rips_filtration(shuffled, params))


def test_rips_single_point_and_threshold_below_every_distance():
    one = PointCloud(((0.5, -2.0),))
    for max_dim in (0, 2, 4):
        params = RipsParams(max_dim=max_dim, threshold=1.0)
        fc = rips_filtration(one, params)
        assert_same_cells(fc, reference_rips_filtration(one, params))
        assert cell_rows(fc) == [(0, 0, "0.0", (), {0}, "0")]
    pc = random_cloud(random.Random(7), 10)
    params = RipsParams(max_dim=3, threshold=1e-9)
    fc = rips_filtration(pc, params)
    assert_same_cells(fc, reference_rips_filtration(pc, params))
    assert [c.dim for c in fc.cells] == [0] * 10


def random_simplices(rng, labels, count, max_size=4):
    """Distinct increasing label tuples of 1..max_size vertices."""
    available = sum(math.comb(len(labels), k) for k in range(1, max_size + 1))
    if count > available:
        raise ValueError(f"{count} distinct simplices asked of {available} possible")
    out = set()
    while len(out) < count:
        k = rng.randint(1, min(max_size, len(labels)))
        out.add(tuple(sorted(rng.sample(labels, k))))
    return sorted(out, key=lambda s: rng.random())


def test_random_simplices_refuses_more_than_the_labels_allow():
    rng = random.Random(0)
    assert sorted(random_simplices(rng, [1, 2], 3)) == [(1,), (1, 2), (2,)]
    with pytest.raises(ValueError, match="9 distinct simplices asked of 1 possible"):
        random_simplices(rng, [5], 9)
    with pytest.raises(ValueError):
        random_simplices(rng, list(range(3)), 4, max_size=1)


LABEL_POOLS = {
    "small": list(range(12)),
    "negative": list(range(-9, 4)),
    "large": [10**15 + 7 * i for i in range(6)] + [-(2**62), 2**63 - 1, 0, 3],
}


@pytest.mark.parametrize("pool", sorted(LABEL_POOLS))
@pytest.mark.parametrize("seed", range(5))
def test_spx_plain_matches_oracle(pool, seed):
    rng = random.Random(seed)
    labels = rng.sample(LABEL_POOLS[pool], min(8, len(LABEL_POOLS[pool])))
    # top simplices only, so most faces are missing and closed by the parser
    valued = {s: rng.choice([0.0, 1.0, 2.5, -1.0, rng.uniform(-3, 3)])
              for s in random_simplices(rng, labels, rng.randint(1, 9))}
    text = "".join(f"{v!r} {' '.join(map(str, s))}\n" for s, v in valued.items())
    assert_same_cells(parse_spx(text), reference_simplices_to_complex(valued))


@pytest.mark.parametrize("pool", sorted(LABEL_POOLS))
@pytest.mark.parametrize("seed", range(5))
def test_spx_vertex_values_match_oracle(pool, seed):
    rng = random.Random(50 + seed)
    labels = rng.sample(LABEL_POOLS[pool], min(8, len(LABEL_POOLS[pool])))
    simplices = random_simplices(rng, labels, rng.randint(1, 9))
    used = sorted({v for s in simplices for v in s})
    # ties on purpose: several vertices share a height
    vv = {v: rng.choice([-1.0, 0.0, 0.5, rng.uniform(-2, 2)]) for v in used}
    vv[max(LABEL_POOLS[pool]) + 1] = 9.0  # a value for a vertex the complex lacks
    text = "".join(" ".join(map(str, s)) + "\n" for s in simplices)
    fc = parse_spx(text, vv)
    assert_same_cells(fc, reference_simplices_to_complex(dict.fromkeys(simplices, 0.0), vv))


def test_spx_duplicate_lines_keep_the_smallest_value():
    text = "3 0 1 2\n1 2 1\n2 1 2\n"
    ref = reference_simplices_to_complex({(0, 1, 2): 3.0, (1, 2): 1.0})
    assert_same_cells(parse_spx(text), ref)


# Lines the SPX reader must reject, as templates of a value x and labels
# a and b; vertexfn mode drops a leading "{x} " and the valued-only lines.
BAD_SPX_LINES = {
    "malformed value": "{x}z {a}",
    "malformed vertex": "{x} {a} 1.5",
    "repeated vertex": "{x} {a} {b} {a}",
    "id past int64": f"{{x}} {{a}} {2**63}",
    "id below int64": f"{{x}} {-(2**63) - 1}",
    "nan value": "nan {a}",
    "inf value": "-inf {a} {b}",
    "empty vertex list": "{x}",
    "oversize simplex": "{x} " + " ".join(map(str, range(-8, _MAX_VERTICES - 7))),
}
VALUED_ONLY = {"nan value", "inf value", "empty vertex list"}
# Every string that `str.splitlines` ends a line at.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def spx_inputs(draw):
    """A random SPX text in either mode with comments, blank lines, tabs,
    every line break, mixed widths and repeated simplices, sometimes with
    bad lines, and the vertex values of vertexfn mode."""
    valued = draw(st.booleans())
    pool = LABEL_POOLS[draw(st.sampled_from(sorted(LABEL_POOLS)))]
    labels = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    # `x + 0.0` turns -0.0 into 0.0: which zero a cell keeps when it gets
    # both is the tie rule, pinned by test_spx_equal_values_keep_the_first_row;
    # the oracle does not apply it, so a -0.0 here could fail with no fault
    value = st.sampled_from(["0", "1.0", "2.5", "-1", "1e0", "+2.50"]) | st.floats(-3, 3).map(
        lambda x: repr(x + 0.0))
    simplex = st.lists(st.sampled_from(labels), min_size=1, max_size=min(6, len(labels)),
                       unique=True)
    lines, declared = [], []
    for kind in draw(st.lists(st.sampled_from(["simplex"] * 4 + ["repeat", "comment", "blank"]),
                              max_size=12)):
        if kind == "simplex" or (kind == "repeat" and declared):
            verts = draw(st.permutations(draw(st.sampled_from(declared)))) if kind == "repeat" \
                else draw(simplex)
            declared.append(verts)
            sep = draw(st.sampled_from([" ", "  ", "\t"]))
            line = sep.join(([draw(value)] if valued else []) + [str(v) for v in verts])
            lines.append(line + draw(st.sampled_from(["", " # a comment", "\t"])))
        else:
            lines.append(draw(st.sampled_from(["# comment", "   ", ""])))
    names = sorted(BAD_SPX_LINES.keys() - (set() if valued else VALUED_ONLY))
    for name in draw(st.lists(st.sampled_from(names), max_size=2)):
        a, b = draw(st.permutations(labels + [max(labels) + 1]))[:2]
        bad = BAD_SPX_LINES[name] if valued else BAD_SPX_LINES[name].replace("{x} ", "")
        lines.insert(draw(st.integers(0, len(lines))), bad.format(x=draw(value), a=a, b=b))
    vertex_values = None if valued else {v: draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
                                         for v in labels + [max(labels) + 1]}
    # a break after every line but the last, which may also end the text
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in lines[1:]]
    breaks.append(draw(st.sampled_from(LINE_BREAKS + [""])))
    return "".join(map(str.__add__, lines, breaks)), vertex_values


@settings(max_examples=200, deadline=None)
@given(spx_inputs())
def test_spx_reader_matches_the_line_at_a_time_oracle(case):
    text, vertex_values = case
    try:
        expected = reference_parse_spx(text, vertex_values)
    except ComplexError as e:
        with pytest.raises(ComplexError) as got:
            parse_spx(text, vertex_values)
        assert str(got.value) == str(e)
    else:  # parse_spx does not walk its closure, so it is walked here, by both checks
        fc = parse_spx(text, vertex_values)
        fc.validate()
        reference_validate(fc)
        assert_same_cells(fc, expected)


@pytest.mark.parametrize("bad", ["{x} 3 1 3", "{x} 3 x", "{x} 3 99999999999999999999"],
                         ids=["repeated vertex", "malformed vertex", "id past int64"])
@pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
@pytest.mark.parametrize("end", [True, False], ids=["ended", "unended"])
def test_spx_names_the_bad_line_after_each_line_break(brk, bad, end):
    # lines 2 and 3 hold nothing, and line 5, the last, is the first bad one
    for x, vertex_values in (("1.5", None), ("", dict.fromkeys(range(4), 0.0))):
        lines = [f"{x} 0 1", "", "# a comment", f"{x} 1 2 # another", bad.format(x=x)]
        text = brk.join(line.strip() for line in lines) + brk * end
        with pytest.raises(ComplexError) as expected:
            reference_parse_spx(text, vertex_values)
        with pytest.raises(ComplexError, match="^line 5: ") as got:
            parse_spx(text, vertex_values)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("a, b", [("0.0", "-0.0"), ("-0.0", "0.0")])
def test_spx_equal_values_keep_the_first_row(a, b):
    # 0.0 and -0.0 are equal, so the closure's rule for ties fixes the sign:
    # a simplex keeps the first of its listed rows and then generated faces
    # (in the order of their cofaces) that holds its smallest value.
    fc = parse_spx(f"{a} 0 1\n{b} 1 0\n{b} 0 1 2\n")
    got = dict(zip(fc.labels(np.arange(len(fc))), map(repr, fc.values.tolist())))
    assert got == {"0": a, "1": a, "2": b, "0-1": a, "0-2": b, "1-2": b, "0-1-2": b}


# Forty labels of the "large" pool's kind: ids near 10^15 and the extremes.
WIDE_LABELS = LABEL_POOLS["large"] + [10**15 + 7 * i for i in range(6, 36)]


def wide_simplices(top):
    """The `top` largest of the forty labels, the four smallest with the
    eight largest, and triangles through the smallest that use the rest.
    Read in base 40, a row of twelve ranks from 24 up passes 2^63 and one
    from 0 does not, so a wrapped key would sort the first before the second."""
    labels = sorted(WIDE_LABELS)
    simplices = [labels[-top:], labels[:4] + labels[-8:]]
    rest = labels[4:-top]
    simplices += [[labels[0], *rest[i:i + 2]] for i in range(0, len(rest), 2)]
    return [tuple(s) for s in simplices]


def spx_text(rng, simplices, values=None):
    """SPX lines of the simplices, each listing its vertices shuffled."""
    lines = [" ".join(map(str, rng.sample(s, len(s)))) for s in simplices]
    return "".join(f"{line}\n" if values is None else f"{x!r} {line}\n"
                   for x, line in zip(values or repeat(None), lines))


@pytest.mark.parametrize("vertex_values", [False, True], ids=["valued", "vertex-values"])
def test_spx_rows_past_int64_keys_match_oracle(vertex_values):
    rng = random.Random(80 + vertex_values)
    simplices = wide_simplices(12)
    if vertex_values:
        vv = {v: rng.choice([-1.0, 0.0, 0.5, 2.0]) for v in WIDE_LABELS}
        fc = parse_spx(spx_text(rng, simplices), vv)
        ref = reference_simplices_to_complex(dict.fromkeys(simplices, 0.0), vv)
    else:
        values = [rng.choice([0.0, 1.0, 2.5, -1.0]) for _ in simplices]
        values[1] = values[0]  # so the wide rows tie and their keys order them
        fc = parse_spx(spx_text(rng, simplices, values))
        ref = reference_simplices_to_complex(dict(zip(simplices, values)))
    assert_same_cells(fc, ref)


def test_spx_sixteen_vertex_line_over_forty_labels_matches_oracle():
    # With every value 0 the cells are numbered by (dim, vertex tuple)
    # alone, so a key that wrapped past 2^63 would misnumber them; a
    # vertex function that is 0 everywhere gives the same complex.  The
    # oracle's cells are compared by their arrays and names (the vertex
    # labels), as walking 69,435 closures for their vertex sets would
    # take minutes.
    rng = random.Random(90)
    simplices = wide_simplices(_MAX_VERTICES)
    ref = reference_simplices_to_complex(dict.fromkeys(simplices, 0.0))
    for text, vv in ((spx_text(rng, simplices, [0.0] * len(simplices)), None),
                     (spx_text(rng, simplices), dict.fromkeys(WIDE_LABELS, 0.0))):
        fc = parse_spx(text, vv)
        for name in ("dims", "values", "indptr", "indices"):
            assert np.array_equal(getattr(fc, name), getattr(ref, name)), name
        assert fc.labels(np.arange(len(fc))) == ref.labels(np.arange(len(ref)))


def test_spx_simplex_size_limit():
    # the largest simplex accepted still closes, to 2^16 - 1 cells
    top = " ".join(map(str, range(_MAX_VERTICES)))
    fc = parse_spx(f"1 {top}\n")
    assert (len(fc), fc.max_dim, fc.euler_characteristic()) == (2**_MAX_VERTICES - 1, 15, 1)
    with pytest.raises(ComplexError, match="^line 3: simplex has 17 vertices, above the limit of 16$"):
        parse_spx(f"1 {top}\n# one vertex more\n2 {top} 99\n")
    with pytest.raises(ComplexError, match="^line 1: simplex has 17 vertices"):
        parse_spx(f"{top} 99\n", dict.fromkeys(range(100), 0.0))


@pytest.mark.parametrize("cap, dim, made", [(31, 2, 32), (81, 1, 82), (83, 0, 84)])
def test_spx_closure_stops_at_the_cell_cap(tmp_path, capsys, monkeypatch, cap, dim, made):
    # Two disjoint tetrahedra and an edge.  Before making a dimension's faces the closure
    # counts the vertex entries of the rows kept above and of the rows to make, each face
    # once for each simplex above it: 2 * 4 + 8 * 3 = 32 for the triangles, 32 + (1 + 24) * 2
    # = 82 for the edges, 8 + 24 + 26 + 26 * 1 = 84 for the vertices.  The complex keeps
    # 33 cells.
    from z2persist import complexes
    from z2persist.cli import main

    (path := tmp_path / "two.spx").write_text("0 0 1 2 3\n0 4 5 6 7\n0 8 9\n")
    monkeypatch.setattr(complexes, "_MAX_CELLS", 84)
    assert len(parse_spx(path.read_text())) == 33
    monkeypatch.setattr(complexes, "_MAX_CELLS", cap)
    assert main(["persist", str(path), "--format", "spx"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: the SPX complex passes {cap} vertex entries in dimension "
                              f"{dim} ({made} so far)\n")


@pytest.mark.parametrize("vertex_values", [False, True], ids=["valued", "vertex-values"])
def test_spx_barcode_is_unchanged_by_relabelling_the_vertices(vertex_values):
    rng = random.Random(70 + vertex_values)
    for _ in range(200):
        labels = list(range(rng.randint(4, 8)))
        simplices = random_simplices(rng, labels, rng.randint(1, 9))
        # ties on purpose: most values come from a short list
        heights, values = ([rng.choice([0.0, 1.0, 2.5, -1.0, rng.uniform(-3, 3)]) for _ in xs]
                           for xs in (labels, simplices))
        relabel = dict(zip(labels, rng.sample(range(-10**6, 10**6), len(labels))))
        barcodes = []
        for name in (dict(zip(labels, labels)), relabel):
            lines = [" ".join(str(name[v]) for v in s) for s in simplices]
            if vertex_values:
                vv = {name[v]: h for v, h in zip(labels, heights)}
            else:
                vv, lines = None, [f"{x!r} {line}" for x, line in zip(values, lines)]
            barcodes.append(barcode(parse_spx("\n".join(lines), vv)))
        assert barcodes[0] == barcodes[1]


def test_grid_surfaces_match_oracle():
    for m in (3, 5):
        for twist in (False, True):
            valued = grid_surface(m, twist)
            assert_same_cells(simplices_to_complex(valued),
                              reference_simplices_to_complex(valued))
            vv = {v: float((v * 7) % 5) - 2.0 for v in range(m * m)}
            assert_same_cells(simplices_to_complex(valued, vv),
                              reference_simplices_to_complex(valued, vv))


def test_builder_rejects_nan_values():
    with pytest.raises(ValueError, match="NaN"):
        simplicial_filtration([np.arange(3).reshape(3, 1)], [None], [[0.0, math.nan, 1.0]],
                              ["a", "b", "c"])


def test_builder_names_cells_by_labels():
    fc = simplicial_filtration(
        [np.arange(3).reshape(3, 1), np.array([[0, 1], [0, 2], [1, 2]]), np.array([[0, 1, 2]])],
        [None, np.array([[1, 0], [2, 0], [2, 1]]), np.array([[2, 1, 0]])],
        [[0.0, 0.0, 0.0], [2.0, 1.0, 1.0], [2.0]], ["x", "y", "z"])
    fc.validate()
    assert [c.name for c in fc.cells] == ["x", "y", "z", "x-z", "y-z", "x-y", "x-y-z"]
    assert fc.cells[6].boundary == (3, 4, 5)
    assert fc.cells[6].vertices is None
    assert reference_cell_vertices(fc, 6) == {0, 1, 2}


@pytest.mark.parametrize("source", ["rips", "spx", "lower-star", "cone", "cells", "sublevel"])
def test_names_read_from_the_top_dimension_down_match_the_oracle(source):
    # reading the top dimension first, then each one below, every label must
    # be the oracle's name for that cell, and so must a bulk read of every id
    # in a shuffled order with repeats.  A lower star or cone of an SPX
    # complex names a cell through two renumberings: its own and the SPX's;
    # a sublevel complex keeps its parent's names for its prefix
    rng = random.Random(7)
    if source == "rips":
        pc, params = random_cloud(rng, 12), RipsParams(max_dim=3, threshold=1.2)
        fc, ref = rips_filtration(pc, params), reference_rips_filtration(pc, params)
    else:
        labels = rng.sample(LABEL_POOLS["negative"], 8)
        valued = {s: rng.choice([0.0, 1.0, 2.5]) for s in random_simplices(rng, labels, 9)}
        fc = parse_spx("".join(f"{v!r} {' '.join(map(str, s))}\n" for s, v in valued.items()))
        ref = reference_simplices_to_complex(valued)
        f = random_vertex_function(rng, ref)
        if source in ("lower-star", "sublevel"):
            fc, ref = lower_star(fc, f), reference_lower_star(ref, f)
        elif source == "cone":
            fc = build_cone_filtration(BifiltrationSpec(fc, f)).complex
            ref = reference_build_cone_filtration(BifiltrationSpec(ref, f)).complex
        elif source == "cells":
            fc = FilteredComplex(ref.cells)
        if source == "sublevel":  # up to the first cell of the top dimension
            fc = fc.sublevel(fc.values[fc.dims.argmax()])
            assert len(fc) < len(ref)
    order = sorted(range(len(fc)), key=lambda j: -fc.dims[j])
    assert fc.max_dim >= 2 and fc.dims[order[0]] == fc.max_dim
    assert fc.labels(np.array(order)) == [ref.cells[j].name for j in order]
    ids = [*range(len(fc)), *rng.choices(range(len(fc)), k=len(fc))]
    rng.shuffle(ids)
    assert fc.labels(np.array(ids)) == [ref.cells[j].name for j in ids]
    assert fc.labels(np.empty(0, np.int64)) == []


def test_labels_give_the_id_of_a_cell_without_a_name():
    # name_of lists None for a cell without a name, and labels its id in its place
    named = FilteredComplex([Cell(0, 0, 0.0, name="v"), Cell(1, 0, 0.0),
                             Cell(2, 1, 0.0, boundary=(0, 1), name="e")])
    assert named.name_of(np.array([1, 2, 1, 0])) == [None, "e", None, "v"]
    assert named.labels(np.array([1, 2, 1, 0])) == ["1", "e", "1", "v"]
    assert named.labels(np.array([1])) == ["1"] and named.labels(np.array([2])) == ["e"]
    bare = FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0)])
    assert bare.name_of is None and bare.labels(np.array([1, 0, 1])) == ["1", "0", "1"]
    for fc, bad in ((named, -1), (named, 3), (bare, 2)):  # not the last cell's name
        with pytest.raises(IndexError, match=r"^cell ids must lie in \[0, \d\)$"):
            fc.labels(np.array([0, bad]))


def test_spx_vertex_values_must_cover_the_complex_and_be_finite():
    with pytest.raises(ComplexError, match="^vertex 2 has no function value$"):
        parse_spx("0 1\n1 2\n", {0: 0.0, 1: 1.0})
    with pytest.raises(ComplexError, match="^vertex -3 has a non-finite function value$"):
        parse_spx("-3 1\n", {-3: math.inf, 1: 0.0})
