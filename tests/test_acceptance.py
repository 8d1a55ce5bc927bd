"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line on the real stdout so the result survives pytest capture."""
import math
import random
from contextlib import contextmanager
from importlib import resources

import pytest

from z2persist import (
    Barcode,
    BifiltrationSpec,
    Interval,
    PointCloud,
    RipsParams,
    VertexFunction,
    barcode,
    betti_curve_csv,
    betti_numbers,
    bottleneck,
    characteristic_sum_identity_check,
    duality_check,
    extended_barcode,
    extended_rank,
    generators,
    klein_delta,
    klein_height,
    klein_height_skeleton,
    lower_star,
    ng_cw,
    persistent_betti,
    rips_filtration,
    stability_harness,
)

from helpers import (
    composite_rank,
    exhaustive_bottleneck,
    perturbed,
    random_intervals,
    random_skeleton,
    random_vertex_function,
)

from test_rips import circle_points, flat_torus_points, klein_tube_points

INF = math.inf


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def check(num, text):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"{verdict}  criterion {num}: {text}", flush=True)

    return check


def test_criterion_1_klein_homology(criterion):
    with criterion(1, "Klein bottle Betti numbers (1,2,1) with named generators"):
        fc = klein_delta()
        assert betti_numbers(fc) == (1, 2, 1)

        def names(cycle):
            return {fc.cells[c].label() for c in cycle}

        assert [names(g) for g in generators(fc, 1)] == [{"a"}, {"b"}]
        assert [names(g) for g in generators(fc, 2)] == [{"U", "L"}]


def test_criterion_2_ng_family(criterion):
    with criterion(2, "Betti(N_g) = (1, g, 1) and duality for g = 1..6"):
        for g in range(1, 7):
            fc = ng_cw(g)
            assert betti_numbers(fc) == (1, g, 1)
            assert duality_check(fc, 2).ok


def test_criterion_3_ordinary_persistence(criterion):
    with criterion(3, "klein_height(2,1) barcode: all classes essential"):
        b = barcode(klein_height(2.0, 1.0))
        assert b.in_dim(0) == [Interval(-2.0, INF)]
        assert b.in_dim(1) == [Interval(-1.0, INF), Interval(2.0, INF)]
        assert b.in_dim(2) == [Interval(2.0, INF)]


def test_criterion_4_extended_persistence(criterion):
    with criterion(4, "extended klein_height(2,1) barcode, all deaths finite"):
        sk, f = klein_height_skeleton(2.0, 1.0)
        b = extended_barcode(BifiltrationSpec(sk, f, M=2.0, lam=1.0))
        assert b.in_dim(0) == [Interval(-2.0, 3.0)]
        assert b.in_dim(1) == [Interval(-1.0, 6.0), Interval(2.0, 3.0)]
        assert b.in_dim(2) == [Interval(2.0, 7.0)]
        assert all(iv.death != INF for _, iv in b)


def test_criterion_5_extended_rank_spot_checks(criterion):
    with criterion(5, "extended rank closed-form spot checks"):
        sk, f = klein_height_skeleton(2.0, 1.0)
        b = extended_barcode(BifiltrationSpec(sk, f, M=2.0, lam=1.0))
        assert extended_rank(b, 1, 2.2, 0.5) == 2
        assert extended_rank(b, 0, 0.0, 3.1) == 0
        assert extended_rank(b, 2, 2.0, 4.9) == 1


def test_criterion_6_stability_attained(criterion):
    with criterion(6, "shifting the height function by 0.25 moves barcodes by exactly 0.25"):
        sk, f = klein_height_skeleton(2.0, 1.0)
        g = VertexFunction({v: x + 0.25 for v, x in f.values.items()})
        b1 = barcode(lower_star(sk, f))
        b2 = barcode(lower_star(sk, g))
        for k in (0, 1, 2):
            assert abs(bottleneck(b1, b2, k) - 0.25) <= 1e-9


def test_criterion_7_stability_suite(criterion):
    with criterion(7, "100 random perturbations obey the stability bound in both modes"):
        rng = random.Random(77)
        for _ in range(100):
            sk = random_skeleton(rng, max_cells=30)
            f = random_vertex_function(rng, sk)
            g = perturbed(rng, f, rng.uniform(0.0, 0.3))
            for mode in ("ordinary", "extended"):
                rep = stability_harness(sk, f, g, mode=mode)
                assert rep.ok, (mode, rep.lhs, rep.rhs)


def test_criterion_8_oracle_equivalence(criterion):
    with criterion(8, "bottleneck and rank counting match brute-force oracles"):
        rng = random.Random(88)
        done = 0
        while done < 200:
            left = random_intervals(rng, rng.randint(0, 6))
            right = random_intervals(rng, rng.randint(0, 6))
            if sum(iv.death == INF for iv in left) != sum(iv.death == INF for iv in right):
                continue
            got = bottleneck(Barcode([(0, iv) for iv in left]),
                             Barcode([(0, iv) for iv in right]), k=0)
            assert got == exhaustive_bottleneck(left, right)
            done += 1
        for _ in range(200):
            intervals = random_intervals(rng, rng.randint(1, 6))
            b = Barcode([(0, iv) for iv in intervals])
            a = rng.uniform(-4, 4)
            p = rng.uniform(0, 3)
            assert persistent_betti(b, 0, a, p) == composite_rank(intervals, a, p)


def test_criterion_9_rips_sanity(criterion):
    with criterion(9, "Rips: circle, torus and Klein samples, deterministic Betti curves"):
        b = barcode(rips_filtration(circle_points(20), RipsParams(max_dim=2, threshold=2.1)))
        assert sum(1 for iv in b.in_dim(0) if 0.0 in iv) == 20
        assert sum(1 for iv in b.in_dim(1) if iv.length > 0.5) == 1

        torus = rips_filtration(flat_torus_points(8), RipsParams(max_dim=2, threshold=1.1))
        assert betti_numbers(torus.sublevel(1.1)) == (1, 2, 1)

        klein = rips_filtration(klein_tube_points(), RipsParams(max_dim=3, threshold=0.7))
        assert betti_numbers(klein.sublevel(0.7))[:3] == (1, 2, 1)

        text = resources.files("z2persist").joinpath("data/sample_points.csv").read_text()
        pc = PointCloud.from_csv(text)
        params = RipsParams(max_dim=2, steps=10, step_size=0.12)
        grid = [0.12 * i for i in range(11)]
        runs = {betti_curve_csv(barcode(rips_filtration(pc, params)), grid, max_k=1)
                for _ in range(3)}
        assert len(runs) == 1


def test_criterion_10_dimension_function_identities(criterion):
    with criterion(10, "characteristic-diagram sum identities on 100 random instances"):
        rng = random.Random(10)
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
            s2 = rng.uniform(s1, t1 - 0.1)
            t2 = s2 + rng.uniform(0.1, 3)
            union = Interval(min(s1, s2), max(t1, t2))
            lo, hi = max(s1, s2), min(t1, t2)
            rhs = [union] + ([Interval(lo, hi)] if lo < hi else [])
            assert characteristic_sum_identity_check(
                [Interval(s1, t1), Interval(s2, t2)], rhs
            )
