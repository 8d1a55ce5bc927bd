"""The bitset reduction against the sorted-tuple oracle, and the number of
reductions each consumer runs."""
import math
import random
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2persist import (
    BifiltrationSpec,
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
from z2persist import VertexFunction, persistence
from z2persist.cli import main
from z2persist.complexes import write_fcx
from z2persist.persistence import Reduction, barcode, reduce_filtration

import helpers
from helpers import (
    column,
    dense_betti,
    grid_surface,
    random_skeleton,
    random_vertex_function,
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
    for n, threshold in ((8, 1.2), (12, 0.9), (16, 0.7)):
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

    def counted(ptr, flat, groups, chains):
        groups = [list(group) for group in groups]
        out = real(ptr, flat, groups, chains)
        calls.append((chains, [j for group in groups for j in group], out[3]))
        return out

    monkeypatch.setattr(persistence, "_reduce", counted)
    return calls


def _additions(engine):
    return sum(additions for _, _, additions in engine)


# (column additions, longest column) on the coboundary side, then the
# column additions of summarize's boundary passes (their longest column is
# not kept).  klein_delta: v; a, b, c with coboundary U+L each; U, L.
# Coboundary side, dimension 1 in decreasing id: c pairs with its lowest
# coface U, then b and a each add c's column and vanish: (2, 2).  Boundary
# side, dimension 2 first: U = a+b+c pairs with c, L adds U and vanishes;
# then c is cleared and a, b, v have no entries: 1.
# klein_height(2, 1) is v0 < v1 < p < a < v2 < q < b < c < U < L, with
# p = v0+v1, q = c = v1+v2 and U = L = a+q+b+c.  Coboundary side, dimension
# 0 in decreasing id: v2 = q+c pairs with q, v1 = p+q+c with p, and v0 = p
# adds v1's column, then v2's, and vanishes; dimension 1: c = U+L pairs with
# U, b and a each add it and vanish, q and p are cleared: (4, 3), v1's
# column the longest.  Boundary side: U pairs with c, L adds U and
# vanishes; p pairs with v1, q with v2, c is cleared: 1.
@pytest.mark.parametrize("fc, cohomology, boundary", [
    (klein_delta(), (2, 2), 1),
    (klein_height(2.0, 1.0), (4, 3), 1),
], ids=["klein_delta", "klein_height"])
def test_reduction_counters_on_fixtures(fc, cohomology, boundary, engine):
    red = reduce_filtration(fc)
    assert (red.column_additions, red.max_column) == cohomology
    engine.clear()
    summarize(fc)
    assert _additions(engine) == boundary


@pytest.mark.parametrize("seed", [5, 6])
def test_column_additions_are_the_oracle_column_additions(seed, monkeypatch, engine):
    # reference_clearing adds a column, then on the boundary side its
    # chain: every call to add_into, or every other, is a column addition.
    # On the boundary side the engine's additions are summarize's, summed
    # over its passes.
    calls = []
    add_into = helpers.add_into
    monkeypatch.setattr(helpers, "add_into", lambda a, b: calls.append(a) or add_into(a, b))
    for fc in _complexes(seed):
        calls.clear()
        ref = reference_clearing(fc, cohomology=True)
        assert reduce_filtration(fc) == ref
        assert len(calls) == ref.column_additions
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
                  column_additions=red.column_additions, max_column=red.max_column)
    assert Reduction(**fields) == red != red.pairs
    for key, other in (("pairs", red.pairs[1:]), ("unpaired", red.unpaired[:-1]),
                       ("column_additions", red.column_additions + 1)):
        assert Reduction(**{**fields, key: other}) != red


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
    # read directly; the boundary passes' show in summarize's Betti numbers
    # and cycles, since each pass is cleared by the one before.
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


@pytest.mark.parametrize("fc", [klein_delta(), ng_cw(4), klein_height(2.0, 1.0)],
                         ids=["klein_delta", "ng4", "klein_height"])
def test_homology_consumers_reduce_once(reductions, engine, fc):
    # summarize reduces each degree once, on the boundary side only
    summary = summarize(fc)
    assert reductions == []
    assert _chains(engine) == [True] * len(set(fc.dims.tolist()))
    for consumer, expected in ((betti_numbers, tuple(summary.betti.values())),
                               (lambda fc: duality_check(fc, 2).ok, True),
                               (lambda fc: betti(fc, 1), summary.betti[1])):
        reductions.clear(), engine.clear()
        assert consumer(fc) == expected
        assert reductions == [fc] and _chains(engine) == [False]
    reductions.clear(), engine.clear()
    assert generators(fc, 1) == summary.generators[1]
    assert reductions == [fc] and _chains(engine) == [False, True]


def test_cli_homology_reduces_once(reductions, engine, tmp_path, capsys):
    # once a degree: one boundary pass for each of dimensions 2, 1 and 0
    path = tmp_path / "ng3.fcx"
    path.write_text(write_fcx(ng_cw(3)))
    assert main(["homology", str(path)]) == 0
    assert "betti 1 3" in capsys.readouterr().out
    assert reductions == [] and _chains(engine) == [True, True, True]


def test_barcodes_never_request_chains(reductions, engine):
    barcode(klein_height(2.0, 1.0))
    sk, f = klein_height_skeleton(2.0, 1.0)
    extended_barcode(BifiltrationSpec(sk, f, M=2.0, lam=1.0))
    assert len(reductions) == 2 and _chains(engine) == [False, False]


def test_generators_reduce_only_the_degree_asked_for(engine):
    # a noisy Rips circle: generators(fc, 1) carries chains through the
    # edge columns alone; the full twist would reduce every triangle first
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 2 * math.pi, 30)
    pts = np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0.0, 0.05, (30, 2))
    fc = rips_filtration(PointCloud(tuple(map(tuple, pts.tolist()))),
                         RipsParams(max_dim=2, threshold=0.8))
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
