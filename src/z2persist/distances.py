"""Bottleneck/interleaving distance between finite-type barcodes."""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import FilteredComplex, VertexFunction, lower_star
from .persistence import Barcode, Interval, barcode


def _match_cost(i: Interval, j: Interval) -> float:
    """Sup distance between endpoints; inf - inf counts as 0."""
    db = abs(i.birth - j.birth)
    if i.death == math.inf and j.death == math.inf:
        return db
    return max(db, abs(i.death - j.death))


def _deletion_cost(i: Interval) -> float:
    """Half the length: the cheapest eps-interleaving that kills a bar
    collapses it from both ends."""
    return i.length / 2


def interval_distance(i: Interval, j: Interval) -> float:
    """Interleaving distance between two characteristic intervals: match
    endpoints or delete both, whichever is cheaper."""
    return min(_match_cost(i, j), max(_deletion_cost(i), _deletion_cost(j)))


@dataclass(frozen=True)
class Matching:
    """Partition of two barcodes into matched pairs and deletions."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]


class _PaddedGraph:
    """The degree-k matching graph, padded with one diagonal copy per bar.

    Left vertices are the left bars `u < nl`, then the diagonal copies
    `nl + v` of the right bars; right vertices are the right bars `v < nr`,
    then the diagonal copies `nr + u` of the left bars.  At tolerance eps
    bar u meets bar v when their endpoint cost is <= eps, a bar meets its
    own copy when its half-length is <= eps, and copy `nl + v` meets copy
    `nr + u` exactly when bars u and v meet.  A perfect matching exists iff
    the barcodes are eps-matchable: a matched pair (u, v) also pairs the
    two copies and a deleted bar takes its own copy, so the complete block
    of free copy-copy edges is never needed.  The bar-bar costs are
    computed once and serve the candidates and every probe.
    """

    def __init__(self, left: Sequence[Interval], right: Sequence[Interval]):
        nl, nr = len(left), len(right)
        self.nl, self.nr, self.size = nl, nr, nl + nr
        rb = [j.birth for j in right]
        rd = [j.death for j in right]
        self.costs = costs = []  # costs[u][v] == _match_cost(left[u], right[v])
        for i in left:
            b, d = i.birth, i.death
            row = []
            if d == math.inf:
                for jb, jd in zip(rb, rd):
                    row.append(abs(b - jb) if jd == math.inf else math.inf)
            else:
                for jb, jd in zip(rb, rd):
                    x, y = abs(b - jb), abs(d - jd)
                    row.append(x if x >= y else y)
            costs.append(row)
        self.del_left = [_deletion_cost(i) for i in left]
        self.del_right = [_deletion_cost(j) for j in right]

    def candidates(self) -> tuple[list[float], int]:
        """The finite costs and half-lengths with 0, sorted (the optimum is
        one of them), and the index of the first one at which every bar
        has an edge: no smaller value can be feasible."""
        values = {0.0, *self.del_left, *self.del_right}.union(*self.costs)
        values.discard(math.inf)
        row_min = map(min, self.costs) if self.nr else [math.inf] * self.nl
        col_min = map(min, zip(*self.costs)) if self.nl else [math.inf] * self.nr
        bound = max([*map(min, self.del_left, row_min), *map(min, self.del_right, col_min)])
        values = sorted(values)
        return values, bisect_left(values, bound)

    def adjacency(self, eps: float) -> list[list[int]]:
        nr = self.nr
        adj = [[v for v, c in enumerate(row) if c <= eps] for row in self.costs]
        copies = [[v] if d <= eps else [] for v, d in enumerate(self.del_right)]
        for u, a in enumerate(adj):
            for v in a:
                copies[v].append(nr + u)
            if self.del_left[u] <= eps:
                a.append(nr + u)
        return adj + copies

    def augment(self, eps: float, match_l: list[int], match_r: list[int]) -> bool:
        """Grow the matching in place to a maximum one at eps; whether it
        is perfect.  The matching's edges must be present at eps."""
        return _hopcroft_karp(self.adjacency(eps), match_l, match_r) == 0

    def witness(self, match_l: list[int]) -> Matching:
        nl, nr = self.nl, self.nr
        pairs = tuple((u, v) for u, v in enumerate(match_l[:nl]) if v < nr)
        unmatched_left = tuple(u for u in range(nl) if match_l[u] >= nr)
        unmatched_right = tuple(v for v in range(nr) if match_l[nl + v] == v)
        return Matching(pairs, unmatched_left, unmatched_right)


def _hopcroft_karp(adj: list[list[int]], match_l: list[int], match_r: list[int]) -> int:
    """Grow a bipartite matching in place to a maximum one (Hopcroft & Karp
    1973); returns the number of left vertices left free.

    `adj[u]` lists the right neighbours of left vertex u; `match_l` and
    `match_r` map each side to its partner, -1 when free.  Each phase
    layers the graph by a BFS from the free left vertices, then augments
    along vertex-disjoint shortest paths with an explicit-stack DFS, so
    the depth of a path is bounded by memory, not by the recursion limit.
    """
    n = len(adj)
    while True:
        free = [u for u in range(n) if match_l[u] < 0]
        if not free:
            return 0
        layer = [-1] * n
        for u in free:
            layer[u] = 0
        limit = -1  # layer of the left ends of the shortest augmenting paths
        queue = free[:]
        for u in queue:
            lu = layer[u]
            if limit >= 0 and lu >= limit:
                break
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    limit = lu
                elif limit < 0 and layer[w] < 0:
                    layer[w] = lu + 1
                    queue.append(w)
        if limit < 0:
            return len(free)
        pos = [0] * n
        for root in free:
            us, vs = [root], []
            while us:
                u = us[-1]
                edges, i, lu = adj[u], pos[u], layer[u]
                w = -2
                while i < len(edges):
                    v = edges[i]
                    i += 1
                    w = match_r[v]
                    if (w < 0 and lu == limit) or (w >= 0 and layer[w] == lu + 1):
                        break
                    w = -2
                pos[u] = i
                if w == -2:  # dead end: nothing below u this phase
                    layer[u] = -1
                    us.pop()
                    if vs:
                        vs.pop()
                elif w < 0:  # reached a free vertex: flip the path
                    vs.append(v)
                    for a, b in zip(us, vs):
                        match_l[a] = b
                        match_r[b] = a
                        layer[a] = -1  # keep this phase's paths disjoint
                    break
                else:
                    vs.append(v)
                    us.append(w)


def _infinite_counts_differ(left: Sequence[Interval], right: Sequence[Interval]) -> bool:
    return (sum(1 for iv in left if iv.death == math.inf)
            != sum(1 for iv in right if iv.death == math.inf))


def bottleneck_matching(
    b1: Barcode, b2: Barcode, k: int
) -> tuple[float, Optional[Matching]]:
    """Bottleneck distance in degree k with an optimal matching witness.

    Exact: the optimum is one of the candidate values (endpoint gaps and
    half-lengths).  The m^2 bar-bar costs are computed once and give both
    the candidates and every probe's edges.  No value below the largest
    cheapest-edge cost of any bar is feasible, so the search starts there
    and gallops upward (offsets 1, 2, 4, ..., capped by bisection): O(log m)
    probes, most of them at small eps where the graph is sparse.  Each
    probe is Hopcroft-Karp on the padded graph (see `_PaddedGraph`),
    O(m^2.5) at worst, started from the maximum matching of the last
    infeasible probe, whose edges are all present at any larger eps; the
    last feasible probe's matching is the witness.  Barcodes with
    different numbers of infinite bars are at distance infinity.
    """
    left, right = b1.in_dim(k), b2.in_dim(k)
    if _infinite_counts_differ(left, right):
        return math.inf, None
    if not left and not right:
        return 0.0, Matching((), (), ())
    g = _PaddedGraph(left, right)
    values, lo = g.candidates()
    hi = len(values) - 1
    match_l, match_r = [-1] * g.size, [-1] * g.size
    best = None
    step = 1
    while lo < hi:
        mid = min(lo + step - 1, (lo + hi) // 2)
        trial_l, trial_r = match_l[:], match_r[:]
        if g.augment(values[mid], trial_l, trial_r):
            hi, best = mid, trial_l
        else:
            lo, match_l, match_r = mid + 1, trial_l, trial_r
            step *= 2
    if best is None:  # hi was never lowered, so values[hi] is unprobed
        if not g.augment(values[hi], match_l, match_r):
            return math.inf, None
        best = match_l
    return values[hi], g.witness(best)


def bottleneck(b1: Barcode, b2: Barcode, k: Optional[int] = None) -> float:
    """Bottleneck distance in degree k, or the max over all degrees."""
    if k is not None:
        return bottleneck_matching(b1, b2, k)[0]
    dims = set(b1.dims()) | set(b2.dims())
    return max((bottleneck_matching(b1, b2, d)[0] for d in dims), default=0.0)


def interleaved(b1: Barcode, b2: Barcode, k: int, eps: float) -> bool:
    """Whether the degree-k diagrams are eps-interleaved, by one feasibility
    probe at eps (feasibility is monotone in eps)."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    left, right = b1.in_dim(k), b2.in_dim(k)
    if _infinite_counts_differ(left, right):
        return eps == math.inf  # the distance is infinite
    if not left and not right:
        return True
    g = _PaddedGraph(left, right)
    return g.augment(eps, [-1] * g.size, [-1] * g.size)


# Slack for float rounding in the stability bound's two sides.
_STABILITY_TOL = 1e-9


@dataclass(frozen=True)
class StabilityReport:
    lhs: float
    rhs: float
    ok: bool


def stability_harness(
    skeleton: FilteredComplex,
    f: VertexFunction,
    g: VertexFunction,
    k: Optional[int] = None,
    mode: str = "ordinary",
) -> StabilityReport:
    """Check the stability bound: barcode distance <= sup|f - g|.

    mode 'ordinary' compares lower-star barcodes, 'extended' compares
    extended barcodes built with a common bound M.
    """
    rhs = f.sup_distance(g)
    if mode == "ordinary":
        lhs = bottleneck(barcode(lower_star(skeleton, f)),
                         barcode(lower_star(skeleton, g)), k)
    elif mode == "extended":
        from .extended import BifiltrationSpec, extended_barcode

        M = max(BifiltrationSpec(skeleton, f).M, BifiltrationSpec(skeleton, g).M)
        lhs = bottleneck(
            extended_barcode(BifiltrationSpec(skeleton, f, M=M)),
            extended_barcode(BifiltrationSpec(skeleton, g, M=M)),
            k,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return StabilityReport(lhs=lhs, rhs=rhs, ok=lhs <= rhs + _STABILITY_TOL)
