import copy
import math
import pickle
import random

import pytest

from z2persist import (
    Barcode,
    Cell,
    FilteredComplex,
    Interval,
    barcode,
    barcode_dimension_function,
    betti_curve,
    characteristic_sum_identity_check,
    dimension_function,
    klein_delta,
    klein_height,
    lower_star,
    parse_bcx,
    persistent_betti,
    reduce_filtration,
    single_interval_rank,
)
from z2persist.homology import betti

from helpers import (
    composite_rank,
    inclusion_rank,
    random_intervals,
    random_skeleton,
    random_vertex_function,
    reference_sort_filtration,
    tied_intervals,
)

INF = math.inf


def test_reduce_single_vertex():
    fc = FilteredComplex([Cell(0, 0, 0.0)])
    red = reduce_filtration(fc)
    assert red.pairs == () and red.unpaired == (0,)


def test_reduce_edge_merge():
    fc = FilteredComplex(
        [Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 1.0, boundary=(0, 1))]
    )
    red = reduce_filtration(fc)
    assert red.pairs == ((1, 2),)
    assert red.unpaired == (0,)


def test_reduce_klein_height_all_unpaired_at_critical_values():
    fc = klein_height(2.0, 1.0)
    red = reduce_filtration(fc)
    surviving = sorted(
        (fc.cells[j].dim, fc.cells[j].value) for j in red.unpaired
    )
    assert surviving == [(0, -2.0), (1, -1.0), (1, 2.0), (2, 2.0)]
    # every pair is instantaneous: no finite bars among the critical cells
    assert all(fc.cells[i].value == fc.cells[j].value for i, j in red.pairs)


def test_barcode_klein_height():
    b = barcode(klein_height(2.0, 1.0))
    assert b.in_dim(0) == [Interval(-2.0, INF)]
    assert b.in_dim(1) == [Interval(-1.0, INF), Interval(2.0, INF)]
    assert b.in_dim(2) == [Interval(2.0, INF)]


def test_barcode_constant_filtration_is_homology():
    b = barcode(klein_delta())
    assert [len(b.in_dim(k)) for k in range(3)] == [1, 2, 1]
    assert all(iv == Interval(0.0, INF) for _, iv in b)


def test_barcode_two_vertices_one_edge():
    fc = FilteredComplex(
        [Cell(0, 0, 0.0), Cell(1, 0, 0.0), Cell(2, 1, 1.0, boundary=(0, 1))]
    )
    b = barcode(fc)
    assert b.in_dim(0) == [Interval(0.0, 1.0), Interval(0.0, INF)]


def test_barcode_invariant_under_tie_shuffles():
    rng = random.Random(21)
    for _ in range(15):
        sk = random_skeleton(rng)
        f = random_vertex_function(rng, sk)
        fc = lower_star(sk, f)
        reference = barcode(fc)
        # shuffle ids inside (value, dim) ties and re-sort
        cells = list(fc.cells)
        perm = list(range(len(cells)))
        blocks = {}
        for c in cells:
            blocks.setdefault((c.value, c.dim), []).append(c.id)
        for block in blocks.values():
            shuffled = block[:]
            rng.shuffle(shuffled)
            for old, new in zip(block, shuffled):
                perm[old] = new
        from dataclasses import replace

        remapped = [
            replace(
                c,
                id=perm[c.id],
                boundary=tuple(perm[f_] for f_ in c.boundary),
                vertices=None,
            )
            for c in cells
        ]
        remapped.sort(key=lambda c: c.id)
        shuffled_fc = reference_sort_filtration(remapped)
        shuffled_fc.validate()
        assert barcode(shuffled_fc) == reference


def test_bars_at_level_count_sublevel_betti():
    rng = random.Random(33)
    for _ in range(20):
        sk = random_skeleton(rng)
        fc = lower_star(sk, random_vertex_function(rng, sk))
        b = barcode(fc)
        for a in [-0.7, 0.0, 0.4, 2.0]:
            sub = fc.sublevel(a)
            for k in range(fc.max_dim + 1):
                alive = sum(1 for iv in b.in_dim(k) if a in iv)
                assert alive == betti(sub, k)


def test_persistent_betti_examples():
    kh = barcode(klein_height(2.0, 1.0))
    assert persistent_betti(kh, 1, 0.0, 100.0) == 1
    b = parse_bcx("1 0 2\n1 1 3\n")
    assert persistent_betti(b, 1, 0.5, 2.0) == 0
    assert composite_rank(b.in_dim(1), 0.5, 2.0) == 0
    for p in (-1.0, math.nan):
        with pytest.raises(ValueError, match="lifespan p must be nonnegative"):
            persistent_betti(b, 1, 0.0, p)


def test_persistent_betti_p0_is_dimension_function():
    """dimension_function, betti_curve and persistent_betti at p = 0 all
    count the bars containing t: at every endpoint, between endpoints, at
    random points and at -inf, and they count 0 at +inf and at NaN."""
    rng = random.Random(2)
    for n in range(100):
        # every other case has shared endpoints and repeated bars
        ivs = (random_intervals(rng, rng.randint(0, 6)) if n % 2 else
               tied_intervals(rng, rng.randint(0, 6), rng.randint(0, 3)))
        b = Barcode((0, iv) for iv in ivs)
        df = dimension_function(ivs)
        ends = sorted({iv.birth for iv in ivs} | {iv.death for iv in ivs})
        for t in [*ends, *((s + u) / 2 for s, u in zip(ends, ends[1:])),
                  *(rng.uniform(-5, 9) for _ in range(5)), -INF, INF, math.nan]:
            alive = sum(t in iv for iv in ivs)
            assert df(t) == betti_curve(b, 0, [t])[0] == persistent_betti(b, 0, t, 0) == alive
        assert df(INF) == df(math.nan) == 0


def test_persistent_betti_nonincreasing_in_p():
    rng = random.Random(4)
    for _ in range(30):
        ivs = random_intervals(rng, 5)
        from z2persist import Barcode

        b = Barcode((1, iv) for iv in ivs)
        a = rng.uniform(-4, 4)
        ranks = [persistent_betti(b, 1, a, p) for p in (0.0, 0.5, 1.0, 2.0, 8.0)]
        assert all(x >= y for x, y in zip(ranks, ranks[1:]))


def test_persistent_betti_matches_composite_rank_oracle():
    rng = random.Random(8)
    from z2persist import Barcode

    for _ in range(200):
        ivs = random_intervals(rng, rng.randint(1, 6))
        b = Barcode((0, iv) for iv in ivs)
        a = rng.uniform(-4, 6)
        p = rng.uniform(0, 6)
        assert persistent_betti(b, 0, a, p) == composite_rank(ivs, a, p)


def test_persistent_betti_matches_chain_level_oracle():
    rng = random.Random(17)
    for _ in range(15):
        sk = random_skeleton(rng)
        fc = lower_star(sk, random_vertex_function(rng, sk))
        b = barcode(fc)
        for _ in range(4):
            a = rng.uniform(-1, 1)
            p = rng.uniform(0, 1.5)
            for k in range(fc.max_dim + 1):
                assert persistent_betti(b, k, a, p) == inclusion_rank(fc, k, a, a + p)


def test_no_deaths_means_constant_in_p():
    b = barcode(klein_height(2.0, 1.0))
    for k in range(3):
        assert all(iv.death == INF for iv in b.in_dim(k))
        base = persistent_betti(b, k, 2.5, 0.0)
        for p in (0.0, 1.0, 100.0):
            assert persistent_betti(b, k, 2.5, p) == base


def test_dimension_function_examples():
    df = dimension_function([Interval(-2.0, INF)])
    assert df.critical_values == (-2.0,)
    assert df.dims == (0, 1)
    assert dimension_function([]).dims == (0,)
    df = dimension_function([Interval(0, 2), Interval(1, 3)])
    assert df.critical_values == (0.0, 1.0, 2.0, 3.0)
    assert df.dims == (0, 1, 2, 1, 0)


def test_barcode_dimension_function():
    b = barcode(klein_height(2.0, 1.0))
    df = barcode_dimension_function(b, 1)
    assert df(-1.5) == 0 and df(-1.0) == 1 and df(3.0) == 2


def test_characteristic_splice_identity():
    lhs = [Interval(0, 1), Interval(1, 2)]
    assert characteristic_sum_identity_check(lhs, [Interval(0, 2)])
    assert not characteristic_sum_identity_check([Interval(0, 1)], [Interval(0, 2)])
    # the two sides differ only past every left-hand endpoint
    assert not characteristic_sum_identity_check([Interval(0, 2)], [Interval(0, 2), Interval(3, 4)])


def test_characteristic_union_intersection_identity():
    i, j = Interval(0, 2), Interval(1, 3)
    assert characteristic_sum_identity_check([i, j], [Interval(0, 3), Interval(1, 2)])


def test_characteristic_identities_random():
    rng = random.Random(12)
    for _ in range(100):
        a = rng.uniform(-3, 3)
        b = a + rng.uniform(0.1, 2)
        c = b + rng.uniform(0.1, 2)
        assert characteristic_sum_identity_check(
            [Interval(a, b), Interval(b, c)], [Interval(a, c)]
        )
    for _ in range(100):
        s1 = rng.uniform(-3, 3)
        t1 = s1 + rng.uniform(0.5, 3)
        s2 = rng.uniform(s1, t1 - 0.1)  # force overlap
        t2 = s2 + rng.uniform(0.1, 3)
        i, j = Interval(s1, t1), Interval(s2, t2)
        union = Interval(min(s1, s2), max(t1, t2))
        lo, hi = max(s1, s2), min(t1, t2)
        rhs = [union] + ([Interval(lo, hi)] if lo < hi else [])
        assert characteristic_sum_identity_check([i, j], rhs)


def test_bcx_round_trip():
    b = barcode(klein_height(2.0, 1.0))
    assert parse_bcx(b.to_bcx()) == b


@pytest.mark.parametrize("birth, death, shown", [
    (-INF, 1.0, "[-inf, 1.0)"), (-INF, INF, "[-inf, inf)"), (math.nan, 1.0, "[nan, 1.0)"),
    (INF, INF, "[inf, inf)"), (1.0, math.nan, "[1.0, nan)"), (1.0, 1.0, "[1.0, 1.0)"),
    (2, 1, "[2, 1)"),
], ids=["minus-inf-birth", "minus-inf-essential", "nan-birth", "inf-birth",
        "nan-death", "empty", "reversed"])
def test_interval_needs_finite_birth_before_death(birth, death, shown):
    with pytest.raises(ValueError) as e:
        Interval(birth, death)
    assert str(e.value) == f"need -inf < birth < death, got {shown}"
    # namedtuple's other constructors check the rule too
    with pytest.raises(ValueError, match=r"need -inf < birth < death"):
        Interval._make((birth, death))
    with pytest.raises(ValueError, match=r"need -inf < birth < death"):
        Interval(-5.0, 5.0)._replace(birth=birth, death=death)


def test_interval_is_a_birth_death_tuple():
    iv = Interval(0, 1)
    assert repr(iv) == "Interval(birth=0, death=1)"
    assert iv == (0, 1) and (0, 1) == iv and iv != (0, 2)
    assert iv == Interval(birth=0, death=1) == Interval(0.0, 1.0)
    assert hash(iv) == hash((0, 1)) == hash(Interval(0.0, 1.0))
    birth, death = iv
    assert (birth, death) == (0, 1) and type(birth) is int
    assert sorted([Interval(1, 2), Interval(0, 3), Interval(0, 1), Interval(-1, INF)]) == [
        (-1, INF), (0, 1), (0, 3), (1, 2)]
    assert Interval(0, 1) < Interval(0, 2) < Interval(1, 1.5)
    assert 0 in iv and 0.5 in iv and 1 not in iv and -0.5 not in iv
    assert 1e300 in Interval(0, INF) and INF not in Interval(0, INF)
    assert Interval(1, 4).length == 3 and Interval(0.5, INF).length == INF
    assert pickle.loads(pickle.dumps(iv)) == iv and type(copy.copy(iv)) is Interval


def test_interval_is_immutable():
    iv = Interval(0.0, 1.0)
    with pytest.raises(AttributeError):
        iv.birth = 0.5
    with pytest.raises(AttributeError):
        iv.label = "x"


def test_one_at_a_time_builders_still_reject_bad_bars():
    with pytest.raises(ValueError, match="line 2: need birth < death"):
        parse_bcx("0 0 1\n0 1 1\n")
    with pytest.raises(ValueError, match=r"need -inf < birth < death, got \[2, 2\)"):
        single_interval_rank(2, 2, 0, 1)
