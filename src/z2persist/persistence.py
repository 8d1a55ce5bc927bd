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
    its line number.  The columns come from one sort of the bars."""
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
        bars.append((d, birth, death))
    bars.sort()
    return Barcode(columns=[*map(list, zip(*bars))])


class Reduction:
    """Outcome of the column reduction: (birth, death) cell pairs in death
    order and the unpaired (never-killed) cells in increasing id, as int64
    arrays `pair_ids` and `unpaired_ids` and, built on first read, as int
    tuples `pairs` and `unpaired`.  `column_additions` counts columns added
    into others."""

    def __init__(self, pairs, unpaired, column_additions: int):
        import numpy as np
        self.pair_ids = np.asarray(pairs, np.int64).reshape(-1, 2)
        self.unpaired_ids, self.column_additions = np.asarray(unpaired, np.int64), column_additions

    pairs = cached_property(lambda self: tuple(map(tuple, self.pair_ids.tolist())))
    unpaired = cached_property(lambda self: tuple(self.unpaired_ids.tolist()))

    def __eq__(self, other) -> bool:
        key = lambda r: (r.pairs, r.unpaired, r.column_additions)
        return isinstance(other, Reduction) and key(self) == key(other)


def _reduce(ptr, flat, columns, chains: bool, settled):
    """The one column reduction, with clearing (Chen & Kerber 2011).

    Column j holds the increasing rows `flat[ptr[j]:ptr[j + 1]]`, at least
    one.  The `columns` are reduced in order, their pivots (last rows) read
    at once, their rows only for an addition, as int bitsets (`z2`); with
    `chains` each carries the set of column ids summed in.  `settled[r]` is
    -1 or a column with pivot r settled before.  The three are int64 arrays,
    as a complex holds, read an entry or row at a time through memoryviews.
    A column whose id is a pivot is skipped (cleared); any other gets the
    column with its pivot added until its pivot is fresh or it vanishes.
    Returns {pivot: column} for the nonzero columns, {column: chain} for the
    vanished ones (None without `chains`), and the column additions.
    """
    pivots: dict[int, int] = {}   # pivot -> the loop's column with that pivot
    reduced: dict[int, int] = {}  # column -> its bitset, once made
    chain: dict[int, set] = {}    # nonzero column with an addition -> its chain
    zeros: dict[int, set] = {}    # vanished column -> its chain
    additions = 0
    lows = flat[ptr[columns + 1] - 1]
    at, rows, owner = memoryview(ptr), memoryview(flat), memoryview(settled)
    for j, low, other in zip(columns.tolist(), lows.tolist(), settled[lows].tolist()):
        if j in pivots:
            continue
        other = pivots.get(low, other)
        if other >= 0:
            col = z2.bitset(rows[at[j]:at[j + 1]])
            v = {j} if chains else None
            while other >= 0:
                if other not in reduced:
                    reduced[other] = z2.bitset(rows[at[other]:at[other + 1]])
                col ^= reduced[other]
                additions += 1
                if chains:
                    v ^= chain.get(other) or {other}
                low = col.bit_length() - 1
                other = pivots.get(low, owner[low]) if col else -1
            if not col:
                zeros[j] = v
                continue
            reduced[j], chain[j] = col, v  # v is None without `chains`
        pivots[low] = j
    return pivots, zeros, additions


def _components(fc: FilteredComplex, settled, seeds):
    """The (vertex, edge) pairs of degree 0, by union-find and the elder rule.  Each edge
    (u, v) of the int64 array `seeds` is the oldest coface of v > u, so v joins u before the
    walk and that pair is left out; the walk takes the edges that the bool mask `settled`
    by cell id leaves, which holds the seeds, and the rest it marks join no components."""
    import numpy as np
    vertices = np.flatnonzero(fc.dims == 0)
    rank = np.cumsum(fc.dims == 0) - 1  # a vertex's place among the vertices
    up = np.arange(len(vertices))
    up[rank[fc.indices[fc.indptr[seeds] + 1]]] = rank[fc.indices[fc.indptr[seeds]]]
    up, pairs, left = up.tolist(), [], len(vertices) - len(seeds)
    edges = np.flatnonzero((fc.dims == 1) & (fc.indptr[1:] - fc.indptr[:-1] == 2) & ~settled
                           & (left > 1))  # no walk once one component is left
    ends = rank[fc.indices[fc.indptr[edges] + [[0], [1]]]].tolist()
    for e, u, v in zip(edges.tolist(), *ends):
        while u != up[u]:  # path halving
            up[u] = u = up[up[u]]
        while v != up[v]:
            up[v] = v = up[up[v]]
        if u != v:
            if u > v:
                u, v = v, u
            up[v] = u
            pairs += (v, e)
            if (left := left - 1) == 1:
                break
    return np.stack([vertices[pairs[::2]], np.array(pairs[1::2], np.int64)], 1)


def reduce_filtration(fc: FilteredComplex) -> Reduction:
    """Persistence pairs of the filtration, by the one reduction `_reduce` of
    the coboundary matrix, anti-transposed.

    Cell ids double as row/column indices since the declaration order is the filtration
    order.  Column n-1-i holds the rows n-1-c of the cofaces c of cell i, found by one
    `_by_major` sort of the keys (n-1-i, n-1-c) in two fresh arrays.  Dimensions go upward,
    so a pivot n-1-c pairs cell i with c and clears the column of c: the pairs of the
    standard left-to-right boundary reduction (de Silva, Morozov & Vejdemo-Johansson 2011).
    i pairs with its oldest coface c if i is c's youngest face (apparent, Bauer 2021: no
    earlier column has n-1-c), in every dimension.  If every 1-cell has 0 or 2 faces,
    union-find seeded with the apparent vertex pairs settles degree 0 over the edges left.
    """
    import numpy as np
    from .complexes import _by_major, _indptr
    n = len(fc)
    flat = _by_major(n - 1 - fc.indices, np.arange(n - 1, -1, -1).repeat(np.diff(fc.indptr)), n)
    ptr, dims = _indptr(np.bincount(fc.indices, minlength=n)[::-1]), fc.dims[::-1]
    cols = np.flatnonzero(ptr[1:] > ptr[:-1])
    lows = flat[ptr[cols + 1] - 1]
    graph = not ((fc.indptr[1:] - fc.indptr[:-1])[fc.dims == 1] & ~2).any()  # 1-cells: 0, 2 faces
    apparent = fc.indices[fc.indptr[n - lows] - 1] == n - 1 - cols
    done = graph & (dims == 0)  # after union-find no vertex column is reduced
    done[cols[apparent]] = done[lows[apparent]] = True
    merges = (_components(fc, done[::-1], n - 1 - lows[apparent & (dims[cols] == 0)]) if graph
              else np.empty((0, 2), np.int64))
    done[n - 1 - merges] = True
    todo, owner = cols[~done[cols]], np.full(n, -1)
    owner[lows[apparent]] = cols[apparent]
    pivots, _, additions = _reduce(  # dimensions upward
        ptr, flat, todo[np.argsort(dims[todo], kind="stable")], False, owner)
    low = np.concatenate([np.fromiter(pivots, np.int64, len(pivots)), lows[apparent]])
    col = np.concatenate([np.fromiter(pivots.values(), np.int64, len(pivots)), cols[apparent]])
    pairs = np.concatenate([n - 1 - np.stack([col, low], 1), merges])  # (birth, death)
    unpaired = np.flatnonzero(np.bincount(pairs.ravel(), minlength=n) == 0)
    return Reduction(pairs[np.argsort(pairs[:, 1])], unpaired, additions)


def barcode(fc: FilteredComplex) -> Barcode:
    """Barcode of the filtration: a pair is kept when its two values differ,
    an unpaired cell always, and the kept bars are sorted on (dimension,
    birth, death) and checked on the endpoint arrays at once."""
    import numpy as np
    red = reduce_filtration(fc)
    n, values, free = len(fc), fc.values, red.unpaired_ids
    if (values[1:] < values[:-1]).any():
        raise ValueError("cell values decrease: the complex is not in filtration order")
    births = np.append(red.pair_ids[:, 0], free)
    deaths = np.append(red.pair_ids[:, 1], np.full(len(free), n))  # id n: the value +inf
    ends = np.append(values, math.inf)
    lo, hi = ends[births], ends[deaths]
    keep = np.flatnonzero((lo != hi) | (deaths == n))
    order = keep[np.lexsort((hi[keep], lo[keep], fc.dims[births[keep]]))]
    births, lo, hi = births[order], lo[order], hi[order]
    del red, free, deaths, ends, keep, order  # only the kept bars' arrays meet the lists
    if not ((lo > -math.inf) & (lo < hi)).all():
        list(map(Interval, lo.tolist(), hi.tolist()))  # raises for the first bad bar
    return Barcode(columns=(fc.dims[births].tolist(), lo.tolist(), hi.tolist()))


def persistent_betti(b: Barcode, k: int, a: float, p: float) -> int:
    """Rank of the map induced by inclusion of level a into level a+p:
    bars born no later than a and still alive at a+p, i.e. the bars
    alive at a among those that outlive a+p."""
    if not p >= 0:  # also true for nan
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
