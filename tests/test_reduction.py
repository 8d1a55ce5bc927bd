"""The bitset reduction against the sorted-tuple oracle, and the number of
reductions each consumer runs."""
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bitset_reduction_matches_tuple_oracle(seed):
    for fc in _complexes(seed):
        fc.validate()
        ref = reference_reduction(fc)
        red = reduce_filtration(fc)
        assert red.pairs == ref.pairs
        assert red.unpaired == ref.unpaired
        assert red.cycles == {}
        red = reduce_filtration(fc, chains=True)
        assert red.pairs == ref.pairs
        assert red.unpaired == ref.unpaired
        assert red.cycles == {j: ref.cycles[j] for j in ref.unpaired}


# (column additions, longest column) on the coboundary side, then on the
# boundary side.  klein_delta: v; a, b, c with coboundary U+L each; U, L.
# Coboundary side, dimension 1 in decreasing id: c pairs with its lowest
# coface U, then b and a each add c's column and vanish: (2, 2).  Boundary
# side, dimension 2 first: U = a+b+c pairs with c, L adds U and vanishes;
# then c is cleared and a, b, v have no entries: (1, 3).
# klein_height(2, 1) is v0 < v1 < p < a < v2 < q < b < c < U < L, with
# p = v0+v1, q = c = v1+v2 and U = L = a+q+b+c.  Coboundary side, dimension
# 0 in decreasing id: v2 = q+c pairs with q, v1 = p+q+c with p, and v0 = p
# adds v1's column, then v2's, and vanishes; dimension 1: c = U+L pairs with
# U, b and a each add it and vanish, q and p are cleared: (4, 3), v1's
# column the longest.  Boundary side: U pairs with c, L adds U and
# vanishes; p pairs with v1, q with v2, c is cleared: (1, 4).
@pytest.mark.parametrize("fc, cohomology, boundary", [
    (klein_delta(), (2, 2), (1, 3)),
    (klein_height(2.0, 1.0), (4, 3), (1, 4)),
], ids=["klein_delta", "klein_height"])
def test_reduction_counters_on_fixtures(fc, cohomology, boundary):
    for chains, expected in ((False, cohomology), (True, boundary)):
        red = reduce_filtration(fc, chains=chains)
        assert (red.column_additions, red.max_column) == expected


@pytest.mark.parametrize("seed", [5, 6])
def test_column_additions_are_the_oracle_column_additions(seed, monkeypatch):
    # reference_clearing adds a column, then on the boundary side its
    # chain: every call to add_into, or every other, is a column addition
    calls = []
    add_into = helpers.add_into
    monkeypatch.setattr(helpers, "add_into", lambda a, b: calls.append(a) or add_into(a, b))
    for fc in _complexes(seed):
        for chains in (False, True):
            calls.clear()
            ref = reference_clearing(fc, cohomology=not chains)
            red = reduce_filtration(fc, chains=chains)
            assert red == ref
            assert len(calls) == ref.column_additions * (2 if chains else 1)


@pytest.mark.parametrize("chains", [False, True])
def test_a_reduction_made_from_tuples_equals_the_engines(chains):
    # the engine keeps int64 arrays; its tuple views are built on first read
    for fc in [FilteredComplex([]), *_complexes(9)]:
        red = reduce_filtration(fc, chains=chains)
        ref = reference_clearing(fc, cohomology=not chains)  # made by keyword from tuples
        assert red == ref and ref == red
        for r in (red, ref):
            assert r.pair_ids.dtype == r.unpaired_ids.dtype == np.int64
            assert r.pair_ids.tolist() == [list(p) for p in r.pairs]
            assert r.unpaired_ids.tolist() == list(r.unpaired)
            assert type(r.pairs) is type(r.unpaired) is tuple
            assert all(type(p) is tuple and len(p) == 2 for p in r.pairs)
            assert {type(j) for p in r.pairs for j in p} | set(map(type, r.unpaired)) <= {int}
    red = reduce_filtration(klein_height(2.0, 1.0), chains=chains)
    fields = dict(pairs=red.pairs, unpaired=red.unpaired, cycles=red.cycles,
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
    # give the same persistence pairs
    sk, f = skeleton
    cone = build_cone_filtration(BifiltrationSpec(sk, f, lam=0.5)).complex
    for fc in (sk, lower_star(sk, f), cone):
        ref = reference_reduction(fc)
        for chains in (False, True):
            red = reduce_filtration(fc, chains=chains)
            assert (red.pairs, red.unpaired) == (ref.pairs, ref.unpaired)


@pytest.mark.parametrize("seed", [3, 4])
def test_generator_cycles_are_mod2_cycles(seed):
    for fc in _complexes(seed):
        red = reduce_filtration(fc, chains=True)
        assert sorted(red.cycles) == sorted(red.unpaired)
        for j, cycle in red.cycles.items():
            assert list(cycle) == sorted(set(cycle)) and cycle[-1] == j
            assert all(fc.cells[c].dim == fc.cells[j].dim for c in cycle)
            assert column(f for c in cycle for f in fc.cells[c].boundary) == ()


def test_grid_surfaces_have_surface_betti_numbers():
    for twist in (False, True):
        fc = simplices_to_complex(grid_surface(4, twist))
        assert betti_numbers(fc) == (1, 2, 1)
        assert tuple(dense_betti(fc, k) for k in range(3)) == (1, 2, 1)


@pytest.fixture
def reductions(monkeypatch):
    """Record the `chains` keyword of every reduce_filtration call, through
    every module that binds the function."""
    real = persistence.reduce_filtration
    calls = []

    def counted(fc, *, chains=False):
        calls.append(chains)
        return real(fc, chains=chains)

    for name, mod in list(sys.modules.items()):
        if name == "z2persist" or name.startswith("z2persist."):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize("fc", [klein_delta(), ng_cw(4), klein_height(2.0, 1.0)],
                         ids=["klein_delta", "ng4", "klein_height"])
def test_homology_consumers_reduce_once(reductions, fc):
    summary = summarize(fc)
    assert reductions == [True]
    reductions.clear()
    assert betti_numbers(fc) == tuple(summary.betti.values())
    assert reductions == [False]
    reductions.clear()
    assert duality_check(fc, 2).ok
    assert reductions == [False]
    reductions.clear()
    assert betti(fc, 1) == summary.betti[1]
    assert reductions == [False]
    reductions.clear()
    assert generators(fc, 1) == summary.generators[1]
    assert reductions == [True]


def test_cli_homology_reduces_once(reductions, tmp_path, capsys):
    path = tmp_path / "ng3.fcx"
    path.write_text(write_fcx(ng_cw(3)))
    assert main(["homology", str(path)]) == 0
    assert "betti 1 3" in capsys.readouterr().out
    assert reductions == [True]


def test_barcodes_never_request_chains(reductions):
    barcode(klein_height(2.0, 1.0))
    sk, f = klein_height_skeleton(2.0, 1.0)
    extended_barcode(BifiltrationSpec(sk, f, M=2.0, lam=1.0))
    assert reductions == [False, False]


def test_betti_against_dense_oracle():
    rng = random.Random(17)
    fixtures = [klein_delta(), torus_delta(), ng_cw(3)]
    fixtures += [random_skeleton(rng) for _ in range(25)]
    for fc in fixtures:
        for k in range(-1, fc.max_dim + 3):
            assert betti(fc, k) == (dense_betti(fc, k) if k >= 0 else 0)
        assert betti_numbers(fc) == tuple(dense_betti(fc, k) for k in range(fc.max_dim + 1))
