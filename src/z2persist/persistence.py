"""Boundary-matrix reduction, barcodes and the finite-type calculus."""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from . import z2
from .complexes import FilteredComplex, _indptr, _owners, format_value, text_lines


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
    """Multiset of (dimension, interval) bars, kept in sorted order."""

    def __init__(self, bars: Iterable[tuple[int, Interval]]):
        self.bars: tuple[tuple[int, Interval], ...] = tuple(sorted(bars))

    @classmethod
    def _ordered(cls, bars: tuple) -> "Barcode":  # bars already in sorted order
        b = cls.__new__(cls)
        b.bars = bars
        return b

    def __len__(self) -> int:
        return len(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and self.bars == other.bars

    def __repr__(self) -> str:
        return f"Barcode({list(self.bars)!r})"

    def in_dim(self, k: int) -> list[Interval]:
        return [iv for d, iv in self.bars if d == k]

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted({d for d, _ in self.bars}))

    def to_bcx(self) -> str:
        """BCX v1: `<dim> <birth> <death|inf>` lines, sorted."""
        return "".join(f"{d} {format_value(s)} {format_value(e)}\n" for d, (s, e) in self.bars)


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
        bars.append((d, Interval(birth, death)))
    return Barcode(bars)


@dataclass(frozen=True)
class Reduction:
    """Outcome of the column reduction: (birth, death) cell pairs in death
    order and the unpaired (positive, never-killed) cells in increasing id.
    `cycles` maps each unpaired cell to the sorted cell ids of a cycle it
    represents; it is filled only when the reduction was asked for chains,
    and is empty otherwise.  `column_additions` counts the columns added
    into others, and `max_column` is the most entries of any nonzero
    reduced column."""

    pairs: tuple[tuple[int, int], ...]
    unpaired: tuple[int, ...]
    cycles: dict
    column_additions: int
    max_column: int


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


def reduce_filtration(fc: FilteredComplex, *, chains: bool = False) -> Reduction:
    """Persistence pairs of the filtration, by the one reduction `_reduce`.

    Cell ids double as row/column indices since the declaration order is
    the filtration order.  Without `chains` the coboundary matrix is
    reduced, anti-transposed: column n-1-i holds the rows n-1-c of the
    cofaces c of cell i, and dimensions go upward, so a pivot n-1-c pairs
    cell i with c and clears the column of c (de Silva, Morozov &
    Vejdemo-Johansson 2011).  With `chains` the boundary matrix is reduced,
    dimensions downward (the twist), and the chains of the unpaired cells
    are their `cycles`.  Both sides give the pairs of the standard
    left-to-right reduction.  A column with no entries vanishes unless it
    is cleared, which is decided outside the loop.
    """
    n, dims = len(fc), fc.dims
    order = sorted(set(dims.tolist()), reverse=chains)
    if chains:
        ptr, flat = fc.indptr, fc.indices
    else:
        flat = n - 1 - _owners(fc.indptr)[np.argsort(fc.indices, kind="stable")[::-1]]
        ptr, dims = _indptr(np.bincount(fc.indices, minlength=n)[::-1]), dims[::-1]
    full = ptr[1:] > ptr[:-1]
    pivots, zeros, reduced, additions = _reduce(
        ptr.tolist(), flat.tolist(),
        (np.flatnonzero(full & (dims == k)).tolist() for k in order), chains)
    low = np.fromiter(pivots, np.int64, len(pivots))
    col = np.fromiter(pivots.values(), np.int64, len(pivots))
    size = np.diff(ptr)  # a kept column's entries: its row count, or its bitset's
    size[np.fromiter(reduced, np.int64, len(reduced))] = [*map(int.bit_count, reduced.values())]
    longest = int(size[col].max()) if len(col) else 0
    free = ~full
    free[low] = False
    unpaired = np.concatenate([np.fromiter(zeros, np.int64, len(zeros)), np.flatnonzero(free)])
    if not chains:  # back from the anti-transpose
        low, col, unpaired = n - 1 - col, n - 1 - low, n - 1 - unpaired
    by_death, unpaired = np.argsort(col), np.sort(unpaired).tolist()
    cycles = {j: z2.rows(zeros[j]) if j in zeros else (j,) for j in unpaired} if chains else {}
    return Reduction(tuple(zip(low[by_death].tolist(), col[by_death].tolist())),
                     tuple(unpaired), cycles, additions, longest)


def barcode(fc: FilteredComplex) -> Barcode:
    """Barcode of the filtration, zero-length pairs dropped: bars are kept and
    sorted on int value ranks and checked on the endpoint arrays at once."""
    red = reduce_filtration(fc)
    n, values, m = len(fc), fc.values, len(red.pairs)
    if (values[1:] < values[:-1]).any():
        raise ValueError("cell values decrease: the complex is not in filtration order")
    rank = np.arange(n + 1)  # a value's rank is the first id holding it; +inf's is n
    rank[1:n][values[1:] == values[:-1]] = 0
    rank = np.maximum.accumulate(rank)
    ids = np.fromiter(chain(chain.from_iterable(red.pairs), red.unpaired), np.int64)
    births = np.concatenate([ids[:2 * m:2], ids[2 * m:]])
    deaths = np.concatenate([ids[1:2 * m:2], np.full(len(ids) - 2 * m, n)])
    order = np.lexsort((rank[deaths], rank[births], fc.dims[births]))
    order = order[rank[births[order]] < rank[deaths[order]]]
    births, ends = births[order], np.append(values, math.inf)
    lo, hi = ends[births], ends[deaths[order]]
    if not ((lo > -math.inf) & (lo < hi)).all():
        list(map(Interval, lo.tolist(), hi.tolist()))  # raises for the first bad bar
    bars = map(tuple.__new__, repeat(Interval), zip(lo.tolist(), hi.tolist()))  # ints stay ints
    return Barcode._ordered(tuple(zip(fc.dims[births].tolist(), bars)))


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
