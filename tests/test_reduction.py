"""The bitset reduction against the sorted-tuple oracle, and the number of
reductions each consumer runs."""
import random
import sys
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2persist import (
    BifiltrationSpec,
    Cell,
    FilteredComplex,
    PointCloud,
    RipsParams,
    betti,
    betti_numbers,
    build_cone_filtration,
    duality_check,
    extended_barcode,
    generators,
    klein_delta,
    klein_height,
    klein_height_skeleton,
    lower_star,
    ng_cw,
    rips_filtration,
    summarize,
    torus_delta,
    torus_height_skeleton,
)
from z2persist import VertexFunction, complexes, persistence
from z2persist.cli import main
from z2persist.complexes import _by_major, _owners, _sort_keys, parse_fcx, write_fcx
from z2persist.persistence import Reduction, _reduce, barcode, reduce_filtration

import helpers
from helpers import (
    column,
    dense_betti,
    graph_like,
    grid_surface,
    random_skeleton,
    random_vertex_function,
    reference_barcode,
    reference_clearing,
    reference_reduction,
    simplices_to_complex,
)


def _lower_star_surfaces(rng):
    for m in (3, 4, 5):
        for twist in (False, True):
            sk = simplices_to_complex(grid_surface(m, twist))
            yield lower_star(sk, random_vertex_function(rng, sk))
    yield klein_height(2.0, 1.0)
    yield lower_star(*torus_height_skeleton(2.0, 1.0))


def _rips_clouds(rng):
    # the last cloud's truncated skeleton has hundreds of H_2 cycles, the
    # longest chains tens of triangles
    for n, threshold in ((8, 1.2), (12, 0.9), (16, 0.7), (30, 1.2)):
        pts = tuple(
            (rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)
        )
        yield rips_filtration(PointCloud(pts), RipsParams(max_dim=2, threshold=threshold))


def _cones(rng):
    sk, f = klein_height_skeleton(2.0, 1.0)
    yield build_cone_filtration(BifiltrationSpec(sk, f, M=2.0, lam=1.0)).complex
    for _ in range(10):
        sk = random_skeleton(rng)
        f = random_vertex_function(rng, sk)
        yield build_cone_filtration(BifiltrationSpec(sk, f, lam=0.5)).complex


def _complexes(seed):
    rng = random.Random(seed)
    for _ in range(20):
        sk = random_skeleton(rng)
        yield sk
        yield lower_star(sk, random_vertex_function(rng, sk))
    yield from _lower_star_surfaces(rng)
    yield from _rips_clouds(rng)
    yield from _cones(rng)
    yield klein_delta()
    yield ng_cw(3)


def _oracle_generators(fc, ref):
    """The oracle's cycles as `summarize` lists them: degrees 0..max_dim,
    each in increasing unpaired id."""
    return {k: [frozenset(ref.cycles[j]) for j in ref.unpaired if fc.dims[j] == k]
            for k in range(fc.max_dim + 1)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bitset_reduction_matches_tuple_oracle(seed):
    for fc in _complexes(seed):
        fc.validate()
        ref = reference_reduction(fc)
        red = reduce_filtration(fc)
        assert red.pairs == ref.pairs
        assert red.unpaired == ref.unpaired
        expected = _oracle_generators(fc, ref)
        assert summarize(fc).generators == expected
        assert {k: generators(fc, k) for k in expected} == expected


@pytest.fixture
def engine(monkeypatch):
    """Record each `_reduce` call as (chains, the columns it is given, its
    column additions)."""
    real, calls = persistence._reduce, []

    def counted(ptr, flat, columns, chains, settled):
        out = real(ptr, flat, columns, chains, settled)
        calls.append((chains, columns.tolist(), out[2]))
        return out

    monkeypatch.setattr(persistence, "_reduce", counted)
    return calls


def _additions(engine):
    return sum(additions for _, _, additions in engine)


def _apparent_pairs(fc):
    """(y, c) for each cell c that is the oldest coface of its youngest face y."""
    cofaces = {c.id: [] for c in fc.cells}
    for c in fc.cells:
        for face in c.boundary:
            cofaces[face].append(c.id)
    return {(y, c.id) for c in fc.cells if c.boundary
            for y in c.boundary[-1:] if min(cofaces[y]) == c.id}


def _twist_order(fc):
    """The cells with a non-empty boundary, top dimension first, ids increasing within one."""
    return sorted((c.id for c in fc.cells if c.boundary), key=lambda j: (-fc.dims[j], j))


def _rips_circle():
    """30 noisy points on the unit circle, Rips to threshold 0.8 with triangles."""
    return rips_filtration(helpers.noisy_circle(30), RipsParams(max_dim=2, threshold=0.8))


# The column additions on the coboundary side, then those of summarize's
# boundary pass, the plain twist over every column with entries, apparent
# or not.  klein_delta: v; a, b, c with coboundary U+L each; U, L.
# Coboundary side, dimension 1 in decreasing id: c pairs with its lowest
# coface U, then b and a each add c's column and vanish: 2.  Boundary
# side: U = a+b+c takes the fresh pivot c, and L adds U and vanishes;
# a, b, c, v have no entries: 1.
# klein_height(2, 1) is v0 < v1 < p < a < v2 < q < b < c < U < L, with
# p = v0+v1, q = c = v1+v2 and U = L = a+q+b+c.  Coboundary side, degree 0
# by union-find, no column added: p joins v1 to v0, q joins v2 to v0, c
# joins nothing; dimension 1 in decreasing id: c = U+L pairs with U, b and
# a each add it and vanish, q and p are cleared: 2.  Boundary side: U takes
# the fresh pivot c and L adds U and vanishes; p and q take v1 and v2, and
# c, a pivot, is cleared: 1.  (c, U), (v1, p) and (v2, q) are apparent: each
# coface's column meets a fresh pivot and adds nothing.
# The grid surfaces and the Rips circle pin the counts of the twist that
# reduces every column.
@pytest.mark.parametrize("fc, cohomology, boundary", [
    (klein_delta(), 2, 1),
    (klein_height(2.0, 1.0), 2, 1),
    (simplices_to_complex(grid_surface(4, False)), 15, 37),
    (simplices_to_complex(grid_surface(4, True)), 14, 39),
    (_rips_circle(), 1, 755),
], ids=["klein_delta", "klein_height", "torus-grid", "klein-grid", "rips-circle"])
def test_reduction_counters_on_fixtures(fc, cohomology, boundary, engine):
    red = reduce_filtration(fc)
    assert red.column_additions == cohomology
    engine.clear()
    summarize(fc)
    [(chains, columns, additions)] = engine
    assert chains and additions == boundary
    # the one chains call gets every cell with entries, apparent ones too
    assert _apparent_pairs(fc) and columns == _twist_order(fc)


def _constant_lower_star():
    sk = simplices_to_complex(grid_surface(4, True))
    return lower_star(sk, VertexFunction({v: 0.0 for v in np.flatnonzero(sk.dims == 0).tolist()}))


# Degree 0 by union-find against the tuple oracle: ties, disconnected
# complexes, isolated vertices and CW loops, then the two fallbacks, where
# an edge with one face or with three keeps degree 0 in the column loop.
@pytest.mark.parametrize("fc, graph", [
    (rips_filtration(PointCloud(tuple((float(i), float(j)) for i in range(5) for j in range(5))),
                     RipsParams(max_dim=2, threshold=1.5)), True),
    (_constant_lower_star(), True),
    (simplices_to_complex({(0, 1): 1.0, (2,): 0.0, (3, 4, 5): 2.0, (6, 7): 0.5, (8,): 3.0}),
     True),
    (simplices_to_complex({(v, v + 1): float(v % 2) for v in range(0, 12, 3)}), True),
    (klein_delta(), True),
    (ng_cw(3), True),
    (FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 1.0, (0, 1)),
                      Cell(3, 1, 1.0, (1,))]), False),
    (FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 0, 0.0),
                      Cell(3, 1, 1.0, (0, 1)), Cell(4, 1, 1.0, (0, 1, 2)),
                      Cell(5, 1, 2.0, (1, 2))]), False),
], ids=["square-grid-rips", "constant-lower-star", "disconnected", "isolated-edges",
        "klein_delta", "ng3", "one-face-edge", "three-face-edge"])
def test_union_find_degree_zero_matches_the_oracle(fc, graph, engine):
    fc.validate()
    assert graph_like(fc) == graph
    ref = reference_reduction(fc)
    red = reduce_filtration(fc)
    assert (red.pairs, red.unpaired) == (ref.pairs, ref.unpaired)
    [(_, columns, _)] = engine
    vertex_columns = {len(fc) - 1 - j for j in columns} & {c.id for c in fc.cells if c.dim == 0}
    assert bool(vertex_columns) == (not graph)  # v0 is no apparent pair in a fallback


def _graded_lower_star(m, height):
    """The lower star of the m x m torus grid, vertex label v at height(v)."""
    sk = simplices_to_complex(grid_surface(m, False))
    vertices = np.flatnonzero(sk.dims == 0)
    return lower_star(sk, VertexFunction(dict(zip(vertices.tolist(), map(
        height, map(int, sk.labels(vertices)))))))


def _falling_path(k):
    """Vertices 0..k, then the path's edges (i, i + 1) entering from its far end: each
    vertex's first edge goes to a younger vertex, but for vertex k, which has none."""
    return FilteredComplex([*(Cell(v, 0, 0.0) for v in range(k + 1)), *(
        Cell(k + 1 + j, 1, float(j + 1), (k - 1 - j, k - j)) for j in range(k))])


# Degree 0 against the clearing oracle, pairs and column additions, with the merges that
# union-find takes from the apparent vertex pairs (seeded) and finds itself (walked): a
# lower star with one minimum, where every merge is apparent; a path whose only apparent
# merge is its youngest vertex's (a component's youngest vertex always is); tied heights;
# and a 1-cell with three faces, where no union-find runs and the vertex column of 0,
# which is no apparent pair, is reduced in the loop as the apparent ones are not.
@pytest.mark.parametrize("fc, seeded, walked", [
    (_graded_lower_star(5, float), 24, 0),
    (_falling_path(6), 1, 5),
    (_graded_lower_star(5, lambda v: float(v * 3 % 4)), 21, 3),
    (_constant_lower_star(), 15, 0),
    (parse_fcx("cell 0 0 0\ncell 1 0 0\ncell 2 0 1\ncell 3 1 1 0 1\ncell 4 1 2 0 1 2\n"),
     None, None),
], ids=["one-minimum-lower-star", "falling-path", "tied-lower-star", "constant-lower-star",
        "three-face-fcx"])
def test_seeded_union_find_matches_the_clearing_oracle(fc, seeded, walked, monkeypatch,
                                                      engine):
    fc.validate()
    real, merges = persistence._components, []
    monkeypatch.setattr(persistence, "_components", lambda fc, settled, seeds: merges.append(
        (len(seeds), len(out := real(fc, settled, seeds)))) or out)
    red, ref = reduce_filtration(fc), reference_reduction(fc)
    assert red == reference_clearing(fc, cohomology=True)
    assert (red.pairs, red.unpaired) == (ref.pairs, ref.unpaired)
    vertices = {c.id for c in fc.cells if c.dim == 0}
    looped = {len(fc) - 1 - j for _, columns, _ in engine for j in columns} & vertices
    if seeded is None:
        apparent = {i for i, _ in _apparent_pairs(fc)} & vertices
        assert (merges, looped, apparent) == ([], {0}, {1, 2})
    else:
        assert merges[0] == (seeded, walked) and not looped
        components = len(vertices) - sum(1 for d, _ in ref.pairs if fc.dims[d] == 0)
        assert seeded + walked == len(vertices) - components


@pytest.mark.parametrize("seed", [7, 8])
def test_apparent_pairs_do_no_work(seed, engine):
    # (i, c) is apparent if c is i's oldest coface and i is c's youngest
    # face, in any degree.  Neither column enters reduce_filtration's loop,
    # yet the counters equal those of the oracle that reduces every column.
    # summarize's twist reduces every column with entries and settles nothing
    # first, with the oracle's additions: settling the apparent pairs first
    # would save none, as each apparent coface meets a fresh pivot
    apparent = 0
    for fc in _complexes(seed):
        engine.clear()
        red = reduce_filtration(fc)
        assert red == reference_clearing(fc, cohomology=True)
        every = _apparent_pairs(fc)
        assert every <= set(red.pairs)
        cells = {j for pair in every for j in pair}
        [(_, columns, _)] = engine
        assert not {len(fc) - 1 - j for j in columns} & cells
        engine.clear()
        summarize(fc)
        [(_, columns, additions)] = engine
        assert columns == _twist_order(fc)
        assert additions == reference_clearing(fc, cohomology=False).column_additions
        settled = np.full(len(fc), -1)
        for y, c in every:
            settled[y] = c
        rest = np.array([j for j in columns if j not in cells], np.int64)
        assert _reduce(fc.indptr, fc.indices, rest, False, settled)[2] == additions
        apparent += len(every)
    assert apparent > 100


@pytest.mark.parametrize("seed", [5, 6])
def test_column_additions_are_the_oracle_column_additions(seed, monkeypatch, engine):
    # reference_clearing adds a column, then on the boundary side its
    # chain: every call to add_into, or every other, is a column addition,
    # but for the coboundary columns of degree 0 (rows of 1-cells) when the
    # engine settles that degree by union-find.  On the boundary side the
    # engine's additions are those of summarize's one pass.
    calls = []
    add_into = helpers.add_into
    monkeypatch.setattr(helpers, "add_into", lambda a, b: calls.append(a) or add_into(a, b))
    for fc in _complexes(seed):
        calls.clear()
        ref = reference_clearing(fc, cohomology=True)
        assert reduce_filtration(fc) == ref
        uncounted = [a for a in calls if graph_like(fc) and fc.dims[a[0]] == 1]
        assert len(calls) - len(uncounted) == ref.column_additions
        calls.clear()
        ref = reference_clearing(fc, cohomology=False)
        assert len(calls) == ref.column_additions * 2
        engine.clear()
        summarize(fc)
        assert _additions(engine) == ref.column_additions


@pytest.mark.parametrize("boundary", [False, True])
def test_a_reduction_made_from_tuples_equals_the_engines(boundary):
    # the engine keeps int64 arrays; its tuple views are built on first read.
    # The boundary-side oracle's pairs are the same, its counters are not.
    for fc in [FilteredComplex([]), *_complexes(9)]:
        red = reduce_filtration(fc)
        ref = reference_clearing(fc, cohomology=not boundary)  # made by keyword from tuples
        if boundary:
            assert (red.pairs, red.unpaired) == (ref.pairs, ref.unpaired)
        else:
            assert red == ref and ref == red
        for r in (red, ref):
            assert r.pair_ids.dtype == r.unpaired_ids.dtype == np.int64
            assert r.pair_ids.tolist() == [list(p) for p in r.pairs]
            assert r.unpaired_ids.tolist() == list(r.unpaired)
            assert type(r.pairs) is type(r.unpaired) is tuple
            assert all(type(p) is tuple and len(p) == 2 for p in r.pairs)
            assert {type(j) for p in r.pairs for j in p} | set(map(type, r.unpaired)) <= {int}
    red = reduce_filtration(klein_height(2.0, 1.0))
    fields = dict(pairs=red.pairs, unpaired=red.unpaired,
                  column_additions=red.column_additions)
    assert Reduction(**fields) == red != red.pairs
    for key, other in (("pairs", red.pairs[1:]), ("unpaired", red.unpaired[:-1]),
                       ("column_additions", red.column_additions + 1)):
        assert Reduction(**{**fields, key: other}) != red


def test_a_reduction_takes_its_pairs_in_any_order():
    # births and deaths keep the order the pairs were given in; pair_ids, built on first
    # read, are in death order, so a shuffle of the pairs makes an equal Reduction
    rng = random.Random(49)
    for fc in [FilteredComplex([]), FilteredComplex([Cell(0, 0, 0.0)]), *_complexes(4)]:
        red = reduce_filtration(fc)
        rows = red.pair_ids.tolist()
        assert [d for _, d in rows] == sorted(d for _, d in rows)
        assert sorted(zip(red.births.tolist(), red.deaths.tolist())) == sorted(map(tuple, rows))
        shuffled = rng.sample(rows, len(rows))
        given = Reduction(shuffled, red.unpaired, red.column_additions)
        assert (given.births.tolist(), given.deaths.tolist()) == (
            [b for b, _ in shuffled], [d for _, d in shuffled])
        assert "pair_ids" not in vars(given)
        assert given == Reduction(rows, red.unpaired, red.column_additions) == red
        assert given.pair_ids.tolist() == rows and given.pair_ids.dtype == np.int64


# barcode reads the pairs in the engine's order and sorts only the bars it keeps, giving
# the bars of the death-ordered pairs (`reference_barcode` reads `pairs`): on random
# complexes; CW complexes with loops; a 1-cell with three faces (no union-find); lower
# stars and cones; Rips with tied lengths, stepped, up to dimension 3; and a lower star
# whose apparent vertex pairs join every vertex, so union-find walks no edge
_BAR_CASES = {
    **{f"complexes{seed}": lambda seed=seed: [*_complexes(seed)] for seed in range(6)},
    "cw": lambda: [*map(ng_cw, range(1, 5)), klein_delta(), parse_fcx(
        "cell 0 0 0\ncell 1 0 0\ncell 2 0 1\ncell 3 1 1 0 1\ncell 4 1 2 0 1 2\n")],
    "surfaces": lambda: [
        lower_star(*torus_height_skeleton(2.0, 1.0)), klein_height(2.0, 1.0),
        *(build_cone_filtration(BifiltrationSpec(*sk)).complex
          for sk in (torus_height_skeleton(2.0, 1.0), klein_height_skeleton(2.0, 1.0)))],
    "rips": lambda: [
        rips_filtration(pc, params)
        for pc in (PointCloud(tuple((float(i), float(j)) for i in range(4) for j in range(4))),
                   helpers.noisy_circle(12))
        for k in range(4) for params in (RipsParams(max_dim=k, threshold=1.5),
                                         RipsParams(max_dim=k, steps=3, step_size=0.5))],
    "apparent-joins": lambda: [_graded_lower_star(5, float)],
}


@pytest.mark.parametrize("case", _BAR_CASES)
def test_bars_equal_those_of_the_death_ordered_pairs(case, monkeypatch):
    # and the Reduction barcode reads never sorts its pairs: no pair_ids is built
    real, seen = persistence.reduce_filtration, []
    monkeypatch.setattr(persistence, "reduce_filtration",
                        lambda fc: seen.append(real(fc)) or seen[-1])
    fcs = _BAR_CASES[case]()
    for fc in fcs:
        fc.validate()
        assert [(d, *iv) for d, iv in barcode(fc)] == reference_barcode(fc)
    assert len(seen) == len(fcs) and not any("pair_ids" in vars(red) for red in seen)


# The coboundary columns come from one sort of the keys (n-1-face, n-1-coface)
# and a `% n`: complexes with no entries, columns with no entries, one long
# column, and the tied edge lengths of a square grid.
@pytest.mark.parametrize("fc", [
    FilteredComplex([]),
    FilteredComplex([Cell(0, 0, 0.0)]),
    FilteredComplex([Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 0, 1.0)]),
    simplices_to_complex({(0, 1): 1.0, (2,): 0.0, (3, 4, 5): 2.0}),
    simplices_to_complex({(0, 1, v): float(v) for v in range(2, 42)}),
    simplices_to_complex({(0, v): float(v % 3) for v in range(1, 60)}),
    rips_filtration(PointCloud(tuple((float(i), float(j)) for i in range(5) for j in range(5))),
                    RipsParams(max_dim=2, threshold=1.5)),
], ids=["empty", "one-vertex", "no-edges", "no-cofaces", "edge-of-40-triangles",
        "vertex-of-59-edges", "square-grid-rips"])
def test_transpose_edge_cases_reduce_as_the_oracle(fc):
    fc.validate()
    # equal pairs, unpaired cells and column_additions
    assert reduce_filtration(fc) == reference_clearing(fc, cohomology=True)


def _laid_out(fc, layout):
    """fc, or its prefix up to its median value, twice: with contiguous int64 CSR arrays,
    and with `indptr` and `indices` int32, strided, byte-swapped, or the prefix's views
    into fc's."""
    if layout == "sublevel":
        fc = fc.sublevel(float(np.median(fc.values)))
    ptr, flat = fc.indptr, fc.indices
    given = {"int32": (ptr.astype(np.int32), flat.astype(np.int32)),
             "strided": (np.repeat(ptr, 2)[::2], np.repeat(flat, 2)[::2]),
             "byteswapped": (ptr.astype(">i8"), flat.astype(">i8")),
             "sublevel": (ptr, flat)}[layout]
    return [FilteredComplex.from_arrays(fc.dims, fc.values, *arrays, fc.name_of, fc.vertex_lists)
            for arrays in ((np.array(ptr, np.int64), np.array(flat, np.int64)), given)]


@pytest.mark.parametrize("layout", ["int32", "strided", "byteswapped", "sublevel"])
def test_the_engine_reads_any_integer_layout_as_int64(layout, engine):
    # the engine reads its arrays through memoryviews, which need native
    # integers: any layout gives the same pairs, cycles, column additions and
    # labels as contiguous int64.
    # The lower stars and cones among the complexes name a cell through two
    # renumberings
    for fc in _complexes(10):
        plain, given = _laid_out(fc, layout)
        assert layout != "strided" or given.indptr.strides == (16,)
        engine.clear()
        red, summary = reduce_filtration(plain), summarize(plain)
        gens = {k: generators(plain, k) for k in summary.generators}
        calls = engine[:]  # (chains, columns, column additions) of each engine call
        engine.clear()
        assert reduce_filtration(given) == red  # pairs, unpaired and column_additions
        assert summarize(given) == summary
        assert {k: generators(given, k) for k in gens} == gens
        assert engine == calls
        labels = plain.labels(np.arange(len(plain)))
        assert given.labels(np.arange(len(given))) == labels
        assert labels == fc.labels(np.arange(len(plain)))


def test_int32_faces_past_46341_cells_reduce_as_int64():
    # the coboundary keys (n-1-face) * n + (n-1-coface) pass 2^31 once n passes
    # 46,341; made in int32 from int32 `indices`, they wrapped and the columns
    # were sorted wrongly.  A strip of triangles (i-2, i-1, i), entering at i
    dims, values, faces, vertex, edge = [], [], [], [], {}

    def add(dim, value, cell_faces):
        dims.append(dim), values.append(float(value)), faces.append(sorted(cell_faces))
        return len(dims) - 1

    for i in range(12_000):
        vertex.append(add(0, i, ()))
        for a in range(max(i - 2, 0), i):
            edge[a, i] = add(1, i, (vertex[a], vertex[i]))
        if i >= 2:
            add(2, i, (edge[i - 2, i - 1], edge[i - 1, i], edge[i - 2, i]))
    ptr, flat = np.cumsum([0, *map(len, faces)]), np.concatenate(faces).astype(np.int64)
    wide, narrow = (FilteredComplex.from_arrays(np.array(dims), np.array(values), ptr.astype(t),
                                                flat.astype(t)) for t in (np.int64, np.int32))
    wide.validate()
    red = reduce_filtration(wide)
    assert len(wide) > 46_341 and red.unpaired == (0,)
    assert reduce_filtration(narrow) == red


# the shift width b, the bit length of n - 1, steps between 64 and 65 and between 1024 and 1025,
# and between 32768 and 32769, where 2b passes 31 and the keys are sorted as int64, not int32
_KEY_SORT_SIZES = [0, 1, 2, 7, 50, 1000, 63, 64, 65, 1024, 1025, 32768, 32769]


@pytest.mark.parametrize("bound", [1 << 31, (1 << 31) + 1], ids=["2**31", "2**31+1"])
def test_key_sort_fits_its_width_to_the_bound(bound):
    # keys below 2**31 are sorted as int32, a key of 2**31 as int64; either way in their
    # own buffer, as np.sort sorts them
    rng = np.random.default_rng(bound)
    keys = np.append(rng.integers(0, bound, 5000), [bound - 1, 0, bound - 1])
    out = _sort_keys(keys.copy(), bound)
    assert out.dtype == np.int64 and out.tolist() == np.sort(keys).tolist()
    assert _sort_keys(keys, bound) is keys


@pytest.mark.parametrize("seed", range(len(_KEY_SORT_SIZES)))
def test_key_sort_is_a_stable_argsort(seed, monkeypatch):
    # the helper sorts `minor` by (major, minor) in major's own buffer, the keys packed
    # major << b | minor; on a complex's CSR it equals the transpose by a stable argsort
    # of the faces, and so does the two-buffer call reduce_filtration makes
    rng = np.random.default_rng(seed)
    n = _KEY_SORT_SIZES[seed]
    major, minor = rng.integers(0, max(n, 1), (2, 3 * n))
    if n:  # the largest ids fill every bit of a key
        major, minor = np.append(major, [n - 1, n - 1, 0]), np.append(minor, [n - 1, 0, n - 1])
    by_minor = np.argsort(minor, kind="stable")
    expected = minor[by_minor[np.argsort(major[by_minor], kind="stable")]]
    out = _by_major(major, minor, n)
    assert out is major and out.tolist() == expected.tolist()
    sorts = []

    def recorded(*args):
        sorts.append(_by_major(*args))
        return sorts[-1]

    monkeypatch.setattr(complexes, "_by_major", recorded)
    for fc in _complexes(seed):
        n, owners = len(fc), _owners(fc.indptr)
        stable = n - 1 - owners[np.argsort(fc.indices, kind="stable")[::-1]]
        assert _by_major(n - 1 - fc.indices, n - 1 - owners, n).tolist() == stable.tolist()
        sorts.clear()
        reduce_filtration(fc)
        assert [flat.tolist() for flat in sorts] == [stable.tolist()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_union_find_skips_the_apparent_births_with_the_same_merges(seed, monkeypatch):
    # reduce_filtration seeds union-find with the apparent vertex pairs (v, e), e = (u, v) the
    # oldest coface of v > u, and walks the edges it leaves: edges born in apparent pairs are
    # positive and join no components, so the seeded merges plus the apparent vertex pairs
    # are the merges of a union-find with no seed and no mask
    real, counts = persistence._components, []

    def both(fc, settled, seeds):
        out = real(fc, settled, seeds)
        assert settled.dtype == bool and settled.shape == fc.dims.shape
        assert seeds.dtype == np.int64 and settled[seeds].all()
        younger = fc.indices[fc.indptr[seeds] + 1].tolist()
        vertex_pairs = {(i, c) for i, c in _apparent_pairs(fc) if fc.dims[i] == 0}
        assert set(zip(younger, seeds.tolist())) == vertex_pairs
        plain = real(fc, np.zeros(len(fc), bool), np.empty(0, np.int64))
        assert sorted([*map(tuple, out.tolist()), *vertex_pairs]) == sorted(
            map(tuple, plain.tolist()))
        assert not set(out[:, 1].tolist()) & set(np.flatnonzero(settled).tolist())
        edges = (fc.dims == 1) & (fc.indptr[1:] - fc.indptr[:-1] == 2)
        counts.append((len(seeds), len(out), int(np.count_nonzero(edges & ~settled)),
                       int(np.count_nonzero(edges))))
        return out

    monkeypatch.setattr(persistence, "_components", both)
    rng = random.Random(seed)
    clouds = [helpers.noisy_circle(n) for n in (40, 150)] + [
        PointCloud(tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(60)))]
    for fc in chain(_complexes(seed), (rips_filtration(pc, RipsParams(max_dim=2, threshold=0.6))
                                       for pc in clouds)):
        assert reduce_filtration(fc) == reference_clearing(fc, cohomology=True)
    # the 150-point circle: (seeded merges, walked merges, edges left to walk, edges)
    assert counts[-2] == (80, 69, 81, 2183)


def test_rips_build_and_barcode_memory():
    # the renumbering sorts its keys in the buffer of its rows, the transpose in two
    # fresh arrays, and barcode drops the Reduction before it lists the bars: on this
    # 17,969-cell complex (51,274 entries) the build peaked at 4.07 MB and barcode at
    # 1.96 MB above the complex when each held a few more int64 copies of the entries
    pc, params = helpers.noisy_circle(150), RipsParams(max_dim=2, threshold=0.6)
    barcode(rips_filtration(pc, params))  # first calls, untraced
    tracemalloc.start()
    try:
        fc = rips_filtration(pc, params)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        barcode(fc)
        bars = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (len(fc), len(fc.indices)) == (17969, 51274)
    assert build < 3.4e6, build
    assert bars < 1.65e6, bars


@st.composite
def _valued_skeletons(draw):
    """A simplicial complex on at most six vertices, with entry values and
    vertex heights drawn from a few integers, so that ties are common."""
    value = st.integers(0, 3).map(float)
    nv = draw(st.integers(1, 6))
    simplices = {(v,): draw(value) for v in range(nv)}
    for k in (2, 3, 4):
        for s in combinations(range(nv), k):
            if all(f in simplices for f in combinations(s, k - 1)) and draw(st.booleans()):
                simplices[s] = draw(value)
    sk = simplices_to_complex(simplices)
    vertices = np.flatnonzero(sk.dims == 0).tolist()
    return sk, VertexFunction({v: float(draw(st.integers(-2, 2))) for v in vertices})


@settings(max_examples=60, deadline=None)
@given(_valued_skeletons())
def test_coboundary_and_boundary_pairs_equal_the_oracle_pairs(skeleton):
    # de Silva, Morozov & Vejdemo-Johansson 2011: cohomology and homology
    # give the same persistence pairs.  The coboundary side's pairs are
    # read directly; the boundary pass's show in summarize's Betti numbers
    # and cycles, since each degree is cleared by the one above.
    sk, f = skeleton
    cone = build_cone_filtration(BifiltrationSpec(sk, f, lam=0.5)).complex
    for fc in (sk, lower_star(sk, f), cone):
        ref = reference_reduction(fc)
        red = reduce_filtration(fc)
        assert (red.pairs, red.unpaired) == (ref.pairs, ref.unpaired)
        expected = _oracle_generators(fc, ref)
        summary = summarize(fc)
        assert summary.betti == {k: len(cycles) for k, cycles in expected.items()}
        assert summary.generators == expected


@pytest.mark.parametrize("seed", [3, 4])
def test_generator_cycles_are_mod2_cycles(seed):
    # each unpaired cell, in increasing id, gives a cycle it is the last of
    for fc in _complexes(seed):
        unpaired = reduce_filtration(fc).unpaired_ids
        for k, cycles in summarize(fc).generators.items():
            assert [max(cycle) for cycle in cycles] == unpaired[fc.dims[unpaired] == k].tolist()
            for cycle in cycles:
                assert all(fc.cells[c].dim == k for c in cycle)
                assert column(f for c in cycle for f in fc.cells[c].boundary) == ()


def test_grid_surfaces_have_surface_betti_numbers():
    for twist in (False, True):
        fc = simplices_to_complex(grid_surface(4, twist))
        assert betti_numbers(fc) == (1, 2, 1)
        assert tuple(dense_betti(fc, k) for k in range(3)) == (1, 2, 1)


@pytest.fixture
def reductions(monkeypatch):
    """Record the complex of every reduce_filtration call, through every
    module that binds the function."""
    real = persistence.reduce_filtration
    calls = []

    def counted(fc):
        calls.append(fc)
        return real(fc)

    for name, mod in list(sys.modules.items()):
        if name == "z2persist" or name.startswith("z2persist."):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def _chains(engine):
    return [chains for chains, _, _ in engine]


# klein_delta's loop c and ng_cw(4)'s loops have no boundary entries; c is
# killed by U, so it is a pivot and no generator
@pytest.mark.parametrize("fc", [
    klein_delta(), ng_cw(4), klein_height(2.0, 1.0),
    simplices_to_complex(grid_surface(4, False)), simplices_to_complex(grid_surface(4, True)),
], ids=["klein_delta", "ng4", "klein_height", "torus-grid", "klein-grid"])
def test_homology_consumers_reduce_once(reductions, engine, fc):
    # summarize reduces once, every degree in one pass, on the boundary side only
    summary = summarize(fc)
    assert reductions == []
    assert _chains(engine) == [True]
    for consumer, expected in ((betti_numbers, tuple(summary.betti.values())),
                               (lambda fc: duality_check(fc, 2).ok, True),
                               (lambda fc: betti(fc, 1), summary.betti[1])):
        reductions.clear(), engine.clear()
        assert consumer(fc) == expected
        assert reductions == [fc] and _chains(engine) == [False]
    for k, cycles in summary.generators.items():
        reductions.clear(), engine.clear()
        assert generators(fc, k) == cycles
        assert reductions == [fc] and _chains(engine) == [False, True]


def test_cli_homology_reduces_once(reductions, engine, tmp_path, capsys):
    # one boundary pass for dimensions 2, 1 and 0 together
    path = tmp_path / "ng3.fcx"
    path.write_text(write_fcx(ng_cw(3)))
    assert main(["homology", str(path)]) == 0
    assert "betti 1 3" in capsys.readouterr().out
    assert reductions == [] and _chains(engine) == [True]


def test_barcodes_never_request_chains(reductions, engine):
    barcode(klein_height(2.0, 1.0))
    sk, f = klein_height_skeleton(2.0, 1.0)
    extended_barcode(BifiltrationSpec(sk, f, M=2.0, lam=1.0))
    assert len(reductions) == 2 and _chains(engine) == [False, False]


def test_generators_reduce_only_the_degree_asked_for(engine):
    # a noisy Rips circle: generators(fc, 1) carries chains through the
    # edge columns alone; the full twist would reduce every triangle first
    fc = _rips_circle()
    assert (fc.dims == 2).any()
    gens = generators(fc, 1)
    chained = [columns for chains, columns, _ in engine if chains]
    assert len(chained) == 1 and chained[0]
    assert (fc.dims[chained[0]] == 1).all()
    assert gens == summarize(fc).generators[1] and len(gens) == 1


def test_betti_against_dense_oracle():
    rng = random.Random(17)
    fixtures = [klein_delta(), torus_delta(), ng_cw(3)]
    fixtures += [random_skeleton(rng) for _ in range(25)]
    for fc in fixtures:
        for k in range(-1, fc.max_dim + 3):
            assert betti(fc, k) == (dense_betti(fc, k) if k >= 0 else 0)
        assert betti_numbers(fc) == tuple(dense_betti(fc, k) for k in range(fc.max_dim + 1))
