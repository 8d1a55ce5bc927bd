import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import SparseZ2Matrix, add_into, column, gf2_rank, low, rank

cols = st.lists(st.integers(0, 30), max_size=12).map(lambda xs: column(xs))


def test_add_into_examples():
    assert add_into((1, 3), (3, 5)) == (1, 5)
    assert add_into((), (2,)) == (2,)
    assert add_into((0, 1, 2), (0, 1, 2)) == ()


def test_low_examples():
    assert low((1, 3)) == 3
    assert low(()) is None
    assert low((7,)) == 7


def test_column_cancels_duplicates():
    assert column([3, 1, 3, 5, 1, 1]) == (1, 5)


@given(cols, cols)
def test_add_commutative(a, b):
    assert add_into(a, b) == add_into(b, a)


@given(cols, cols, cols)
def test_add_associative(a, b, c):
    assert add_into(add_into(a, b), c) == add_into(a, add_into(b, c))


@given(cols)
def test_self_inverse(a):
    assert add_into(a, a) == ()


@given(cols, cols)
def test_result_strictly_increasing(a, b):
    r = add_into(a, b)
    assert all(r[i] < r[i + 1] for i in range(len(r) - 1))


def test_rank_identity():
    m = SparseZ2Matrix(3, ((0,), (1,), (2,)))
    assert rank(m) == 3


def test_rank_equal_columns():
    m = SparseZ2Matrix(4, ((0, 2), (0, 2)))
    assert rank(m) == 1


def test_rank_klein_boundary():
    # d2 of the Klein delta-complex: U and L both map to a+b+c
    m = SparseZ2Matrix(3, ((0, 1, 2), (0, 1, 2)))
    assert rank(m) == 1


def test_row_index_bounds_checked():
    with pytest.raises(ValueError):
        SparseZ2Matrix(2, ((0, 2),))


def _dense(m: SparseZ2Matrix) -> np.ndarray:
    a = np.zeros((m.num_rows, m.num_cols), dtype=np.uint8)
    for j, col in enumerate(m.columns):
        for i in col:
            a[i, j] = 1
    return a


def test_rank_against_dense_oracle():
    rng = random.Random(42)
    for _ in range(200):
        nr = rng.randint(1, 8)
        nc = rng.randint(0, 8)
        columns = tuple(
            column(rng.sample(range(nr), rng.randint(0, nr))) for _ in range(nc)
        )
        m = SparseZ2Matrix(nr, columns)
        assert rank(m) == gf2_rank(_dense(m))


def test_rank_invariant_under_column_permutation_and_addition():
    rng = random.Random(7)
    for _ in range(100):
        nr = rng.randint(2, 7)
        nc = rng.randint(2, 7)
        columns = [
            column(rng.sample(range(nr), rng.randint(0, nr))) for _ in range(nc)
        ]
        r = rank(SparseZ2Matrix(nr, tuple(columns)))
        rng.shuffle(columns)
        assert rank(SparseZ2Matrix(nr, tuple(columns))) == r
        i, j = rng.sample(range(nc), 2)
        columns[i] = add_into(columns[i], columns[j])
        assert rank(SparseZ2Matrix(nr, tuple(columns))) == r


def test_reduction_lows_distinct_is_what_rank_counts():
    # full reduction leaves nonzero columns with pairwise distinct lows;
    # rank() counts exactly those columns
    rng = random.Random(3)
    for _ in range(50):
        nr = rng.randint(1, 6)
        columns = tuple(
            column(rng.sample(range(nr), rng.randint(0, nr))) for _ in range(6)
        )
        m = SparseZ2Matrix(nr, columns)
        assert rank(m) <= nr
