import random

from z2persist import (
    Cell,
    FilteredComplex,
    betti,
    betti_numbers,
    duality_check,
    generators,
    klein_delta,
    lower_star,
    ng_cw,
    torus_delta,
)
from z2persist.persistence import barcode
from helpers import (
    SparseZ2Matrix,
    boundary_matrix,
    column,
    dense_betti,
    random_skeleton,
    random_vertex_function,
    rank,
)


def _names(fc, cycle):
    return {fc.cells[c].label() for c in cycle}


def test_klein_betti():
    fc = klein_delta()
    assert betti_numbers(fc) == (1, 2, 1)
    assert betti(fc, 5) == 0


def test_ng_betti():
    assert betti_numbers(ng_cw(3)) == (1, 3, 1)


def test_torus_betti_via_dense_oracle():
    fc = torus_delta()
    assert betti_numbers(fc) == (1, 2, 1)
    assert tuple(dense_betti(fc, k) for k in range(3)) == (1, 2, 1)


def test_klein_generators():
    fc = klein_delta()
    assert [_names(fc, g) for g in generators(fc, 0)] == [{"v"}]
    gens1 = [_names(fc, g) for g in generators(fc, 1)]
    assert gens1 == [{"a"}, {"b"}]
    assert [_names(fc, g) for g in generators(fc, 2)] == [{"U", "L"}]


def test_generators_are_independent_cycles():
    rng = random.Random(5)
    for _ in range(20):
        sk = random_skeleton(rng)
        fc = lower_star(sk, random_vertex_function(rng, sk))
        for k in range(fc.max_dim + 1):
            gens = generators(fc, k)
            assert len(gens) == betti(fc, k)
            cols = []
            for g in gens:
                # each generator is a cycle: its boundary cancels mod 2
                bdry = column(f for c in g for f in fc.cells[c].boundary)
                assert bdry == ()
                cols.append(tuple(sorted(g)))
            if cols:
                # independence modulo boundaries: [gens | d(k+1)-cols] has
                # rank = #gens + rank d(k+1)
                bmat = boundary_matrix(fc, k + 1)
                kcells = sorted(c.id for c in fc.cells if c.dim == k)
                pos = {cid: i for i, cid in enumerate(kcells)}
                gen_cols = tuple(tuple(pos[c] for c in g) for g in cols)
                both = SparseZ2Matrix(len(kcells), gen_cols + bmat.columns)
                assert rank(both) == len(gen_cols) + rank(bmat)


def test_duality_symmetry():
    assert duality_check(klein_delta(), 2).ok
    assert duality_check(ng_cw(5), 2).ok


def test_duality_mismatch_reported():
    edge = FilteredComplex(
        [Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 0.0, boundary=(0, 1))]
    )
    report = duality_check(edge, 1)
    assert not report.ok
    assert report.mismatches == ((0, 1, 0), (1, 0, 1))


def test_euler_characteristic_equals_alternating_betti_sum():
    rng = random.Random(9)
    for _ in range(25):
        sk = random_skeleton(rng)
        fc = lower_star(sk, random_vertex_function(rng, sk))
        chi = sum((-1) ** k * betti(fc, k) for k in range(fc.max_dim + 1))
        assert chi == fc.euler_characteristic()


def test_betti_agrees_with_constant_filtration_barcode():
    rng = random.Random(13)
    for _ in range(20):
        sk = random_skeleton(rng)
        b = barcode(sk)  # all values 0: persistence of a single step
        for k in range(sk.max_dim + 1):
            assert len(b.in_dim(k)) == betti(sk, k) == dense_betti(sk, k)
