"""Boundary-matrix reduction, barcodes and the finite-type calculus.  Only
the functions that reduce a complex import numpy, when they run."""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import z2
from .text import format_value, text_lines

if TYPE_CHECKING:
    from .complexes import FilteredComplex

_MAX_DIM = 10_000  # the top degree a Betti table or curve lists


class Interval(namedtuple("Interval", "birth death")):
    """Half-open [birth, death), -inf < birth < death: a validated (birth, death) tuple."""

    __slots__ = ()

    def __new__(cls, birth: float, death: float):
        if not -math.inf < birth < death:  # also false for nan
            raise ValueError(f"need -inf < birth < death, got [{birth}, {death})")
        return super().__new__(cls, birth, death)

    _make = classmethod(lambda cls, pair: cls(*pair))  # so `_replace` checks too

    def __contains__(self, t: float) -> bool:
        return self.birth <= t < self.death

    @property
    def length(self) -> float:
        return self.death - self.birth


class Barcode:
    """Multiset of (dimension, interval) bars, made from bars in any order or
    from `columns`: three lists `degrees`, `births` and `deaths` in sorted bar
    order.  Iterating streams the (dimension, Interval) pairs, unchecked."""

    def __init__(self, bars: Iterable[tuple[int, Interval]] = (), *, columns=None):
        self.degrees, self.births, self.deaths = columns or (
            [*map(list, zip(*sorted((d, *iv) for d, iv in bars)))] or [[], [], []])

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self):
        intervals = map(tuple.__new__, repeat(Interval), zip(self.births, self.deaths))
        return zip(self.degrees, intervals)

    bars = property(tuple)  # the streamed bars, as a tuple

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and vars(self) == vars(other)  # the three columns

    def __repr__(self) -> str:
        return f"Barcode({list(self)!r})"

    def in_dim(self, k: int) -> list[Interval]:
        at = slice(bisect_left(self.degrees, k), bisect_right(self.degrees, k))
        return [*map(tuple.__new__, repeat(Interval), zip(self.births[at], self.deaths[at]))]

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.degrees)))

    def to_bcx(self) -> str:
        """BCX v1: `<dim> <birth> <death|inf>` lines, sorted."""
        return "".join(map("{} {} {}\n".format, self.degrees,
                           map(format_value, self.births), map(format_value, self.deaths)))


def parse_bcx(text: str) -> Barcode:
    """Parse BCX v1.  Degrees are nonnegative integers, births finite, and
    deaths finite or the literal `inf`; any other line is rejected with
    its line number."""
    bars = []
    for lineno, line in text_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected `<dim> <birth> <death>`")
        try:
            d, birth, death = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed number in `{line}`") from None
        if d < 0:
            raise ValueError(f"line {lineno}: negative degree {d}")
        if not -math.inf < birth < math.inf:  # also false for nan
            raise ValueError(f"line {lineno}: birth must be finite, got {parts[1]}")
        if not (death < math.inf or parts[2] == "inf"):  # nan, or overflow to inf
            raise ValueError(f"line {lineno}: death must be finite or `inf`, got {parts[2]}")
        if not birth < death:
            raise ValueError(f"line {lineno}: need birth < death, got {parts[1]} {parts[2]}")
        bars.append((d, (birth, death)))
    return Barcode(bars)


class Reduction:
    """Outcome of the column reduction: (birth, death) cell pairs in death
    order and the unpaired (positive, never-killed) cells in increasing id,
    as int64 arrays `pair_ids` and `unpaired_ids` and, built on first read,
    as int tuples `pairs` and `unpaired`.  `column_additions` counts the
    columns added into others, and `max_column` is the most entries of any
    nonzero reduced column."""

    def __init__(self, pairs, unpaired, column_additions: int, max_column: int):
        import numpy as np
        self.pair_ids = np.asarray(pairs, np.int64).reshape(-1, 2)
        self.unpaired_ids = np.asarray(unpaired, np.int64)
        self.column_additions, self.max_column = column_additions, max_column

    pairs = cached_property(lambda self: tuple(map(tuple, self.pair_ids.tolist())))
    unpaired = cached_property(lambda self: tuple(self.unpaired_ids.tolist()))

    def __eq__(self, other) -> bool:
        key = lambda r: (r.pairs, r.unpaired, r.column_additions, r.max_column)
        return isinstance(other, Reduction) and key(self) == key(other)


def _reduce(ptr: list, flat: list, groups: Iterable[list], chains: bool):
    """The one column reduction, with clearing (Chen & Kerber 2011).

    Column j holds the increasing rows `flat[ptr[j]:ptr[j + 1]]`, at least
    one, and its pivot is the last of them.  The groups are reduced in
    turn, each in its listed order.  A column whose id is already the pivot
    of an earlier column would vanish, and is skipped.  Any other column
    gets the earlier column with its pivot added until its pivot is fresh
    or it vanishes.  A column is made an int bitset (`z2`) only when it
    takes part in an addition; with `chains`, it carries the bitset of the
    columns summed into it.  Returns {pivot: column} for the nonzero
    columns, {column: chain} for the vanished ones, {column: bitset} for
    the nonzero columns made bitsets, and the number of additions.
    """
    pivots: dict[int, int] = {}   # pivot -> the column with that pivot
    reduced: dict[int, int] = {}  # column -> its reduced bitset, once made
    chain: dict[int, int] = {}    # column -> its chain, unless just itself
    zeros: dict[int, int] = {}    # vanished column -> its chain
    additions = 0
    for group in groups:
        for j in group:
            if j in pivots:
                continue
            start, end = ptr[j], ptr[j + 1]
            low = flat[end - 1]
            other = pivots.get(low)
            if other is not None:
                col = z2.bitset(flat[start:end])
                v = 1 << j if chains else 0
                while other is not None:
                    if other not in reduced:
                        reduced[other] = z2.bitset(flat[ptr[other]:ptr[other + 1]])
                    col ^= reduced[other]
                    additions += 1
                    if chains:
                        v ^= chain.get(other, 1 << other)
                    low = col.bit_length() - 1
                    other = pivots.get(low)
                if not col:
                    zeros[j] = v
                    continue
                reduced[j], chain[j] = col, v
            pivots[low] = j
    return pivots, zeros, reduced, additions


def reduce_filtration(fc: FilteredComplex) -> Reduction:
    """Persistence pairs of the filtration, by the one reduction `_reduce` of
    the coboundary matrix, anti-transposed.

    Cell ids double as row/column indices since the declaration order is
    the filtration order.  Column n-1-i holds the rows n-1-c of the cofaces
    c of cell i, and dimensions go upward, so a pivot n-1-c pairs cell i
    with c and clears the column of c.  These are the pairs of the standard
    left-to-right boundary reduction (de Silva, Morozov & Vejdemo-Johansson
    2011).  A column with no entries vanishes unless it is cleared, which is
    decided outside the loop.
    """
    import numpy as np
    from .complexes import _indptr, _owners
    n = len(fc)
    flat = n - 1 - _owners(fc.indptr)[np.argsort(fc.indices, kind="stable")[::-1]]
    ptr, dims = _indptr(np.bincount(fc.indices, minlength=n)[::-1]), fc.dims[::-1]
    full = ptr[1:] > ptr[:-1]
    pivots, zeros, reduced, additions = _reduce(
        ptr.tolist(), flat.tolist(),
        (np.flatnonzero(full & (dims == k)).tolist() for k in sorted(set(dims.tolist()))), False)
    low = np.fromiter(pivots, np.int64, len(pivots))
    col = np.fromiter(pivots.values(), np.int64, len(pivots))
    size = np.diff(ptr)  # a kept column's entries: its row count, or its bitset's
    size[np.fromiter(reduced, np.int64, len(reduced))] = [*map(int.bit_count, reduced.values())]
    longest = int(size[col].max()) if len(col) else 0
    free = ~full
    free[low] = False
    unpaired = np.concatenate([np.fromiter(zeros, np.int64, len(zeros)), np.flatnonzero(free)])
    pairs = n - 1 - np.stack([col, low], 1)  # back from the anti-transpose: (birth, death)
    return Reduction(pairs[np.argsort(pairs[:, 1])], np.sort(n - 1 - unpaired), additions, longest)


def barcode(fc: FilteredComplex) -> Barcode:
    """Barcode of the filtration, zero-length pairs dropped: bars are kept and
    sorted on int value ranks and checked on the endpoint arrays at once."""
    import numpy as np
    red = reduce_filtration(fc)
    n, values, free = len(fc), fc.values, red.unpaired_ids
    if (values[1:] < values[:-1]).any():
        raise ValueError("cell values decrease: the complex is not in filtration order")
    rank = np.arange(n + 1)  # a value's rank is the first id holding it; +inf's is n
    rank[1:n][values[1:] == values[:-1]] = 0
    rank = np.maximum.accumulate(rank)
    births = np.concatenate([red.pair_ids[:, 0], free])
    deaths = np.concatenate([red.pair_ids[:, 1], np.full(len(free), n)])
    order = np.lexsort((rank[deaths], rank[births], fc.dims[births]))
    order = order[rank[births[order]] < rank[deaths[order]]]
    births, ends = births[order], np.append(values, math.inf)
    lo, hi = ends[births], ends[deaths[order]]
    if not ((lo > -math.inf) & (lo < hi)).all():
        list(map(Interval, lo.tolist(), hi.tolist()))  # raises for the first bad bar
    return Barcode(columns=(fc.dims[births].tolist(), lo.tolist(), hi.tolist()))  # ints stay ints


def persistent_betti(b: Barcode, k: int, a: float, p: float) -> int:
    """Rank of the map induced by inclusion of level a into level a+p:
    bars born no later than a and still alive at a+p, i.e. the bars
    alive at a among those that outlive a+p."""
    if p < 0:
        raise ValueError("lifespan p must be nonnegative")
    return dimension_function([iv for iv in b.in_dim(k) if iv.death > a + p])(a)


@dataclass(frozen=True)
class DimensionFunction:
    """Piecewise-constant bar count: dims[i] holds on
    [critical_values[i-1], critical_values[i]) with half-open pieces.
    No bar is alive at +inf or at NaN."""

    critical_values: tuple[float, ...]
    dims: tuple[int, ...]

    def __call__(self, t: float) -> int:
        if not t < math.inf:  # +inf or nan
            return 0
        return self.dims[bisect_right(self.critical_values, t)]


def dimension_function(intervals: Sequence[Interval]) -> DimensionFunction:
    """Number of intervals alive at t, the one count of bars alive: births
    <= t minus deaths <= t, read off the sorted endpoints."""
    births = sorted(iv.birth for iv in intervals)
    deaths = sorted(iv.death for iv in intervals if iv.death < math.inf)
    critical = tuple(sorted({*births, *deaths}))
    dims = [bisect_right(births, c) - bisect_right(deaths, c) for c in critical]
    return DimensionFunction(critical, (0, *dims))


def betti_curve(b: Barcode, k: int, grid: Sequence[float]) -> list[int]:
    """Number of degree-k bars alive at each grid value."""
    if any(grid[i] > grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("grid must be sorted")
    return list(map(dimension_function(b.in_dim(k)), grid))


def betti_curve_csv(b: Barcode, grid: Sequence[float], max_k: Optional[int] = None) -> str:
    """CSV with header t,b0,...,bK, one row per grid value."""
    if max_k is None:
        max_k = max(b.dims(), default=0)
    if max_k > _MAX_DIM:  # a column for every degree up to it
        raise ValueError(f"degree {max_k} is above {_MAX_DIM}, the top of a Betti curve table")
    curves = [betti_curve(b, k, grid) for k in range(max_k + 1)]
    lines = ["t," + ",".join(f"b{k}" for k in range(max_k + 1))]
    for i, t in enumerate(grid):
        lines.append(f"{t!r}," + ",".join(str(c[i]) for c in curves))
    return "\n".join(lines) + "\n"


def barcode_dimension_function(b: Barcode, k: int) -> DimensionFunction:
    return dimension_function(b.in_dim(k))


def characteristic_sum_identity_check(
    lhs: Sequence[Interval], rhs: Sequence[Interval]
) -> bool:
    """Pointwise equality of the dimension functions of two interval sums.

    The splice and union/intersection identities for characteristic
    diagrams hold at this level (not as diagram isomorphisms: the internal
    maps across the seam differ).  Both functions are 0 below every
    endpoint and constant between endpoints, so comparing them at the
    endpoints decides equality.
    """
    f, g = dimension_function(lhs), dimension_function(rhs)
    return all(f(t) == g(t) for t in {*f.critical_values, *g.critical_values})
