import math
import random

import pytest

from z2persist import (
    Barcode,
    BifiltrationSpec,
    Interval,
    bottleneck,
    bottleneck_matching,
    extended_barcode,
    interleaved,
    interval_distance,
    Matching,
    klein_height_skeleton,
    stability_harness,
)

from z2persist import distances
from z2persist.cli import main

from helpers import (
    check_matching,
    exhaustive_bottleneck,
    match_cost,
    perturbed,
    random_intervals,
    random_vertex_function,
    reference_bottleneck,
    tied_intervals,
)

INF = math.inf


def bc(dim, *pairs):
    return Barcode([(dim, Interval(b, d)) for b, d in pairs])


def test_interval_distance_examples():
    assert interval_distance(Interval(0, 2), Interval(0, 2)) == 0.0
    assert interval_distance(Interval(0, 2), Interval(1, 3)) == 1.0
    # deleting both short bars is cheaper than matching them
    assert interval_distance(Interval(0, 1), Interval(10, 11)) == 0.5
    assert interval_distance(Interval(0, INF), Interval(2, INF)) == 2.0
    # a length that overflows to inf, though half of it does not
    assert interval_distance(Interval(-1e308, 1e308), Interval(1.5e308, 1.6e308)) == 1e308


def test_bottleneck_examples():
    assert bottleneck(bc(0, (0, 2)), bc(0)) == 1.0
    assert bottleneck(bc(0, (0, 4), (0, 2)), bc(0, (0, 4))) == 1.0
    assert bottleneck(bc(1, (0, 3)), bc(1, (1, 3))) == 1.0
    assert bottleneck(bc(0, (0, 2)), bc(0, (0, 2))) == 0.0


def test_bottleneck_infinite_bars():
    # infinite bars must match infinite bars; mismatched counts diverge
    assert bottleneck(bc(0, (0, INF)), bc(0, (1, INF))) == 1.0
    assert bottleneck(bc(0, (0, INF)), bc(0)) == INF
    assert bottleneck(bc(0, (0, INF), (0, 2)), bc(0, (3, INF), (0, 2))) == 3.0


def test_bottleneck_per_degree_and_max():
    b1 = Barcode([(0, Interval(0, 10)), (1, Interval(0, 1))])
    b2 = Barcode([(0, Interval(0, 10)), (1, Interval(0, 5))])
    assert bottleneck(b1, b2, k=0) == 0.0
    # deleting both dim-1 bars (cost max(0.5, 2.5)) beats matching them (4)
    assert bottleneck(b1, b2, k=1) == 2.5
    assert bottleneck(b1, b2) == 2.5  # max over degrees


def test_bottleneck_matching_is_certified():
    b1 = bc(0, (0, 4), (1, 2))
    b2 = bc(0, (0.5, 4.5))
    cost, m = bottleneck_matching(b1, b2, 0)
    assert cost == 0.5
    assert ((0, 0) in m.pairs) and (1 in m.unmatched_left)
    # the witness matching respects the reported cost
    for u, v in m.pairs:
        assert interval_distance(b1.in_dim(0)[u], b2.in_dim(0)[v]) <= cost


def test_shift_invariance_of_infinite_parts():
    b1 = bc(1, (0, INF), (5, INF))
    b2 = bc(1, (1, INF), (6, INF))
    assert bottleneck(b1, b2) == 1.0


def test_bottleneck_agrees_with_exhaustive_oracle(monkeypatch):
    sides, covered = spied(monkeypatch, "_matching"), spied(monkeypatch, "_cover")
    rng = random.Random(31)
    for _ in range(200):
        left = random_intervals(rng, rng.randint(0, 6))
        right = random_intervals(rng, rng.randint(0, 6))
        if sum(iv.death == INF for iv in left) != sum(iv.death == INF for iv in right):
            continue
        got = bottleneck(Barcode([(0, iv) for iv in left]),
                         Barcode([(0, iv) for iv in right]), k=0)
        want = exhaustive_bottleneck(left, right)
        assert got == pytest.approx(want, abs=1e-12), (left, right)
    # sides matched by the lower bound's partners, and sides covered
    assert len(sides) - len(covered) >= 4 and len(covered) >= 4


def test_bottleneck_matching_agrees_with_reference_search(monkeypatch):
    sides, covered = spied(monkeypatch, "_matching"), spied(monkeypatch, "_cover")
    rng = random.Random(34)
    for trial in range(40):
        n_inf = rng.randint(0, 4)
        n_inf_right = n_inf if trial % 8 else rng.randint(0, 4)
        left = tied_intervals(rng, rng.randint(0, 46), n_inf)
        right = tied_intervals(rng, rng.randint(0, 46), n_inf_right)
        b1 = Barcode([(1, iv) for iv in left])
        b2 = Barcode([(1, iv) for iv in right])
        got, m = bottleneck_matching(b1, b2, 1)
        want, m_ref = reference_bottleneck(b1, b2, 1)
        assert got == want, (trial, got, want)
        if got == INF:
            assert m is None and m_ref is None
            continue
        check_matching(b1.in_dim(1), b2.in_dim(1), got, m)
        check_matching(b1.in_dim(1), b2.in_dim(1), want, m_ref)
    assert len(sides) - len(covered) >= 4 and len(covered) >= 4


def test_deep_chain_needs_no_recursion(tmp_path, capsys):
    # every bar meets its two neighbours at cost 0.5, so an augmenting path
    # can run the length of the chain
    n = 1200
    b1 = Barcode([(1, Interval(i, i + 1)) for i in range(n)])
    b2 = Barcode([(1, Interval(i + 0.5, i + 1.5)) for i in range(n)])
    d, m = bottleneck_matching(b1, b2, 1)
    assert d == 0.5
    check_matching(b1.in_dim(1), b2.in_dim(1), d, m)
    a, b = tmp_path / "a.bcx", tmp_path / "b.bcx"
    a.write_text(b1.to_bcx())
    b.write_text(b2.to_bcx())
    assert main(["distance", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "0.5\n"


def test_pseudometric_properties():
    rng = random.Random(32)
    for _ in range(50):
        a = bc(0, *[(iv.birth, iv.death) for iv in random_intervals(rng, 3, allow_infinite=False)])
        b = bc(0, *[(iv.birth, iv.death) for iv in random_intervals(rng, 3, allow_infinite=False)])
        c = bc(0, *[(iv.birth, iv.death) for iv in random_intervals(rng, 3, allow_infinite=False)])
        dab, dba = bottleneck(a, b), bottleneck(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert bottleneck(a, a) == 0.0
        assert bottleneck(a, c) <= dab + bottleneck(b, c) + 1e-9


def test_interleaved_decision():
    b1 = bc(0, (0, 4))
    b2 = bc(0, (1, 5))
    assert interleaved(b1, b2, 0, 1.0)
    assert not interleaved(b1, b2, 0, 0.5)
    with pytest.raises(ValueError):
        interleaved(b1, b2, 0, -1.0)


def test_interleaved_is_bottleneck_at_most_eps():
    rng = random.Random(35)
    for _ in range(60):
        left = random_intervals(rng, rng.randint(0, 7))
        right = random_intervals(rng, rng.randint(0, 7))
        b1 = Barcode([(0, iv) for iv in left])
        b2 = Barcode([(0, iv) for iv in right])
        d = bottleneck(b1, b2, 0)
        candidates = {0.0, INF} | {match_cost(i, j) for i in left for j in right}
        candidates |= {iv.length / 2 for iv in left + right}
        for c in candidates:
            for eps in (c, math.nextafter(c, -INF)):
                if eps >= 0:
                    assert interleaved(b1, b2, 0, eps) == (d <= eps), (left, right, eps)


def test_stability_on_klein_fixture():
    sk, f = klein_height_skeleton(2.0, 1.0)
    g = perturbed(random.Random(8), f, 0.05)
    rep = stability_harness(sk, f, g, mode="ordinary")
    rep_e = stability_harness(sk, f, g, mode="extended")
    assert rep.ok and rep.lhs <= rep.rhs + 1e-9
    assert rep_e.ok and rep_e.lhs <= rep_e.rhs + 1e-9


def test_stability_harness_rejects_unknown_mode():
    sk, f = klein_height_skeleton(2.0, 1.0)
    with pytest.raises(ValueError):
        stability_harness(sk, f, f, mode="sideways")


def test_stability_random_perturbations():
    from helpers import random_skeleton

    rng = random.Random(33)
    for _ in range(50):
        sk = random_skeleton(rng)
        f = random_vertex_function(rng, sk)
        g = perturbed(rng, f, rng.uniform(0.01, 0.3))
        for mode in ("ordinary", "extended"):
            rep = stability_harness(sk, f, g, mode=mode)
            assert rep.ok, (mode, rep.lhs, rep.rhs)


def test_extended_distance_between_heights():
    sk, f = klein_height_skeleton(2.0, 1.0)
    b1 = extended_barcode(BifiltrationSpec(sk, f, M=2.0))
    g = perturbed(random.Random(9), f, 0.1)
    b2 = extended_barcode(BifiltrationSpec(sk, g, M=f.sup_distance(g) + 2.0))
    # all bars finite, so every degree yields a finite distance
    assert bottleneck(b1, b2) < INF


def lower_bound(left, right):
    """The search's first probe: the largest, over all bars, of min(half the
    length, the cheapest edge), by the definition."""
    def value(iv, others):
        return min([iv.length / 2] + [match_cost(iv, jv) for jv in others])
    return max([value(iv, right) for iv in left] + [value(jv, left) for jv in right],
               default=0.0)


def checked(b1, b2, k):
    """The distance, with its witness checked against both oracles."""
    d, m = bottleneck_matching(b1, b2, k)
    assert d == reference_bottleneck(b1, b2, k)[0]
    if d < INF:
        check_matching(b1.in_dim(k), b2.in_dim(k), d, m)
    return d


def spied(monkeypatch, name):
    """The first argument, a `_Side`, of each call to `distances.<name>`."""
    calls, f = [], getattr(distances, name)
    monkeypatch.setattr(distances, name, lambda a, *rest: calls.append(a) or f(a, *rest))
    return calls


def test_a_probe_takes_the_lower_bounds_edges_as_its_matching(monkeypatch):
    covered = spied(monkeypatch, "_cover")
    # twin bars shifted by 0.5: every long bar's cheapest edge is its twin
    b1 = bc(0, *[(2 * i, 2 * i + 10) for i in range(4)], (0, INF))
    b2 = bc(0, *[(2 * i + 0.5, 2 * i + 10.5) for i in range(4)], (0.5, INF))
    # both left bars' cheapest edge is the right bar born at -1/16, so the
    # left side is covered; the right bars' cheapest edges are distinct
    b3, b4 = bc(0, (0, 10), (0.25, 10.25)), bc(0, (-0.0625, 9.9375), (0.75, 10.75))
    # one probe each in `bottleneck_matching` and `bottleneck`
    for x, y, want in ((b1, b2, []), (b3, b4, [[0, 0.25]] * 2)):
        covered.clear()
        assert checked(x, y, 0) == bottleneck(x, y, 0) == 0.5
        assert exhaustive_bottleneck(x.in_dim(0), y.in_dim(0)) == 0.5
        assert [side.births for side in covered] == want


def test_interleaved_at_inf_and_next_to_the_distance():
    rng = random.Random(36)
    for _ in range(40):
        n_inf = rng.randint(0, 2)
        b1 = Barcode([(0, iv) for iv in tied_intervals(rng, rng.randint(0, 9), n_inf)])
        b2 = Barcode([(0, iv) for iv in tied_intervals(rng, rng.randint(0, 9), rng.randint(0, 2))])
        d = bottleneck(b1, b2, 0)
        assert interleaved(b1, b2, 0, INF)  # every bar may be deleted at inf
        if d < INF:
            assert interleaved(b1, b2, 0, d)
            assert interleaved(b1, b2, 0, math.nextafter(d, INF))
            assert d == 0 or not interleaved(b1, b2, 0, math.nextafter(d, -INF))
        else:
            assert not interleaved(b1, b2, 0, 1e300)


def test_infinite_bars_only_match_in_birth_order():
    rng = random.Random(37)
    for n in range(6):
        left = [rng.choice([0.0, 0.5, rng.uniform(-2, 2)]) for _ in range(n)]
        right = [rng.choice([0.0, 0.5, rng.uniform(-2, 2)]) for _ in range(n)]
        b1, b2 = bc(2, *[(b, INF) for b in left]), bc(2, *[(b, INF) for b in right])
        want = max((abs(x - y) for x, y in zip(sorted(left), sorted(right))), default=0.0)
        assert checked(b1, b2, 2) == want
    assert bottleneck_matching(bc(2, (0, INF)), bc(2, (0, INF), (1, INF)), 2) == (INF, None)


def test_one_empty_side_deletes_every_bar():
    b1 = bc(1, (0, 3), (1, 2), (1, 2), (-4, 0))
    d, m = bottleneck_matching(b1, bc(1), 1)
    assert d == 2.0
    assert m == Matching((), (0, 1, 2, 3), ())
    d, m = bottleneck_matching(bc(1), b1, 1)
    assert d == 2.0 and m == Matching((), (), (0, 1, 2, 3))
    assert bottleneck_matching(bc(1, (0, INF)), bc(1), 1) == (INF, None)
    assert bottleneck_matching(bc(1), bc(1), 1) == (0.0, Matching((), (), ()))


def test_all_costs_tied():
    for nl, nr in ((3, 3), (4, 2), (1, 5)):
        b1, b2 = bc(0, *[(0, 4)] * nl), bc(0, *[(1, 5)] * nr)
        # every edge costs 1; a bar left over is deleted at half its length, 2
        assert checked(b1, b2, 0) == (1.0 if nl == nr else 2.0)
        assert checked(b1, b1, 0) == 0.0


def test_an_infeasible_lower_bound_is_searched_past():
    # both left bars cost 0 to the one right bar, so the bound is 0; but one
    # of them must be deleted, at half its length
    b1, b2 = bc(0, (0, 10), (0, 10)), bc(0, (0, 10))
    assert lower_bound(b1.in_dim(0), b2.in_dim(0)) == 0.0
    assert not interleaved(b1, b2, 0, 0.0)
    assert checked(b1, b2, 0) == 5.0
    # a subnormal bound, so small that a step of 1/16 of it is 0
    assert checked(b1, bc(0, (5e-324, 10)), 0) == 5.0
    rng = random.Random(38)
    searched = 0
    for _ in range(200):
        left = tied_intervals(rng, rng.randint(1, 12), 1)
        right = tied_intervals(rng, rng.randint(1, 12), 1)
        b1, b2 = Barcode([(1, iv) for iv in left]), Barcode([(1, iv) for iv in right])
        bound = lower_bound(left, right)
        d = checked(b1, b2, 1)
        assert d >= bound and interleaved(b1, b2, 1, bound) == (d == bound)
        searched += d > bound
    assert searched >= 4  # the gallop and the bracket's bisection ran


def test_a_side_lists_finite_then_infinite_bars_in_birth_order():
    # the one-pass split against a stable sort on "is infinite"
    rng = random.Random(41)
    for _ in range(200):
        bars = tied_intervals(rng, rng.randint(0, 12), rng.randint(0, 4))
        side = distances._Side(Barcode([(1, iv) for iv in bars] + [(0, Interval(0, 1))]), 1)
        deaths = [d for _, (_, d) in Barcode([(1, iv) for iv in bars])]
        assert side.index == sorted(range(len(bars)), key=lambda i: deaths[i] == INF)
        assert (side.nf, side.infinite) == (len(bars) - deaths.count(INF), deaths.count(INF))


def searched_bound(b1, b2, k):
    """The library's first probe, as `_search` takes it."""
    a, b = distances._Side(b1, k), distances._Side(b2, k)
    return distances._lower_bound(b, a, distances._lower_bound(a, b, 0.0))


def test_the_lower_bound_is_the_definitional_one():
    rng = random.Random(39)
    for trial in range(300):
        left, right = (tied_intervals(rng, rng.randint(0, 14), rng.randint(0, 4)) for _ in "ab")
        if trial % 7 == 0:
            right = []
        if trial % 5 == 0:  # every finite bar of one length
            left, right = ([iv if iv.death == INF else Interval(iv.birth, iv.birth + 1.5)
                            for iv in side] for side in (left, right))
        b1, b2 = Barcode([(1, iv) for iv in left]), Barcode([(1, iv) for iv in right])
        assert searched_bound(b1, b2, 1) == lower_bound(left, right), (trial, left, right)


def test_the_lower_bound_stops_at_the_first_bar_no_longer_than_it(monkeypatch):
    # every bar has half-length 2; the first deletion sets the bound to 2, so
    # no later bar looks for a partner
    visits = []
    kin = distances._Side.kin
    monkeypatch.setattr(distances._Side, "kin", lambda *args: visits.append(1) or kin(*args))
    b1, b2 = bc(0, *[(0, 4)] * 5), bc(0, (9, 13))
    assert searched_bound(b1, b2, 0) == 2.0
    assert len(visits) == 1


def test_the_value_path_equals_the_witness_path():
    rng = random.Random(40)
    for trial in range(150):
        n_inf = rng.randint(0, 3)
        bars = []
        for side in range(2):
            bars.append([(k, iv) for k in range(3) for iv in tied_intervals(
                rng, rng.randint(0, 10), n_inf if trial % 6 else rng.randint(0, 3))])
            if trial % 4 == side:  # a length that overflows to inf, though half of it does not
                bars[-1].append((rng.randint(0, 2), Interval(-1e308 * rng.uniform(0.9, 1),
                                                             1e308 * rng.uniform(0.9, 1))))
        b1, b2 = Barcode(bars[0]), Barcode(bars[1])
        values = [bottleneck_matching(b1, b2, k)[0] for k in range(3)]
        assert [bottleneck(b1, b2, k) for k in range(3)] == values, trial
        assert bottleneck(b1, b2) == max(values), trial
    assert bottleneck(bc(0, (-1e308, 1e308)), bc(0), 0) == 1e308
    # two infinite bars whose birth gap, the only way to match them, overflows
    b1, b2 = bc(0, (-1e308, INF)), bc(0, (1e308, INF))
    assert bottleneck(b1, b2, 0) == bottleneck_matching(b1, b2, 0)[0] == INF


@pytest.mark.parametrize("k", [-1, 1.5, "0", None])
def test_a_degree_must_be_a_nonnegative_integer(k):
    b = bc(0, (0, 1), (0, INF))
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        bottleneck_matching(b, b, k)
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        interleaved(b, b, k, 0.0)
    if k is not None:  # None asks for the max over degrees
        with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
            bottleneck(b, b, k)


def test_a_numpy_degree_is_accepted():
    import numpy as np
    b1, b2 = bc(1, (0, 4)), bc(1, (1, 4))
    assert bottleneck(b1, b2, np.int64(1)) == bottleneck_matching(b1, b2, np.int32(1))[0] == 1.0
    assert interleaved(b1, b2, np.int64(1), 1.0)


def diagram(rng, n, scale):
    """n bars in one degree, one infinite: seven in ten short, endpoints
    multiples of 2**-8, as the benchmark's random diagrams."""
    q = lambda x: round(x * 256) / 256
    bars = [(q(rng.uniform(0, 0.5)), INF)]
    for _ in range(n - 1):
        b = q(rng.uniform(0, 2))
        mean = (0.04 if rng.random() < 0.7 else 0.5) * scale
        bars.append((b, b + q(rng.expovariate(1 / mean)) + 1 / 256))
    return bars


def jittered(rng, bars):
    q = lambda x: round(x * 256) / 256
    out = []
    for b, d in bars:
        nb = q(b + rng.gauss(0, 0.02))
        out.append((nb, d if d == INF else max(q(d + rng.gauss(0, 0.02)), nb + 1 / 256)))
    return out


def test_large_pairs_keep_the_padded_graph_values():
    # 3,000 bars a side; the values were computed once by the padded-graph
    # search, which built all 9 million bar-bar costs
    rng = random.Random(2017)
    left = diagram(rng, 3000, 1.0)
    b1 = bc(1, *left)
    for right, want in ((jittered(rng, left), 0.06640625), (diagram(rng, 3000, 2.0), 2.54296875)):
        b2 = bc(1, *right)
        d, m = bottleneck_matching(b1, b2, 1)
        assert d == want
        check_matching(b1.in_dim(1), b2.in_dim(1), d, m)
