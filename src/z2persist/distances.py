"""Bottleneck/interleaving distance between finite-type barcodes."""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .persistence import Barcode, Interval, barcode

if TYPE_CHECKING:
    from .complexes import FilteredComplex, VertexFunction


def interval_distance(i: Interval, j: Interval) -> float:
    """Interleaving distance between two characteristic intervals: match
    the endpoints (their sup distance, inf - inf counting as 0) or delete
    both (half the longer length), whichever is cheaper."""
    db = abs(i.birth - j.birth)
    match = db if i.death == j.death == math.inf else max(db, abs(i.death - j.death))
    return min(match, max(h if (h := x.length / 2) < math.inf else x.death / 2 - x.birth / 2
                          for x in (i, j)))


@dataclass(frozen=True)
class Matching:
    """Partition of two barcodes into matched pairs and deletions."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_left: tuple[int, ...]
    unmatched_right: tuple[int, ...]


class _Side:
    """One barcode's degree-k bars as matching-graph vertices, read from its
    columns: the `nf` finite bars, then the infinite ones, each kind in
    birth order; vertex v is bar `index[v]` of `in_dim(k)`.  An infinite
    bar's death is kept as 0, so two infinite bars cost their birth gap."""

    def __init__(self, b: Barcode, k: int):
        if not hasattr(k, "__index__") or operator.index(k) < 0:
            raise ValueError(f"degree must be a nonnegative integer, not {k!r}")
        at = slice(bisect_left(b.degrees, k), bisect_right(b.degrees, k))
        births, deaths = b.births[at], b.deaths[at]
        finite, infinite = [], []  # bar positions in birth order, each kind apart
        for i, d in enumerate(deaths):
            (infinite if d == math.inf else finite).append(i)
        self.index, self.nf, self.infinite = finite + infinite, len(finite), len(infinite)
        self.births = [births[i] for i in self.index]
        self.deaths = [deaths[i] if deaths[i] < math.inf else 0.0 for i in self.index]
        self.half = [h if (h := (deaths[i] - births[i]) / 2) < math.inf  # inf if infinite
                     else deaths[i] / 2 - births[i] / 2 for i in self.index]
        self.partner = [-1] * len(self.index)  # set by _lower_bound

    def kin(self, v: int, other: _Side) -> tuple[int, int]:
        return (0, other.nf) if v < self.nf else (other.nf, len(other.half))

    def window(self, v: int, other: _Side, eps: float) -> range:
        """The bars of `other` of v's kind with birth gap at most eps, found by
        bisecting on the gap as the cost computes it, so exactly."""
        b, (lo, hi) = self.births[v], self.kin(v, other)
        gap = lambda x: x - b
        lo = bisect_left(other.births, -eps, lo, hi, key=gap)
        return range(lo, bisect_right(other.births, eps, lo, hi, key=gap))


def _lower_bound(a: _Side, b: _Side, bound: float) -> float:
    """The larger of `bound` and the largest, over a's bars, min(half-length,
    cheapest edge into b), no smaller eps being feasible.  Longest bars first,
    up to one no longer than the bound, each swept outward in birth order.
    Records in `a.partner` each bar whose figure an edge set, so a bar long
    at any eps >= the final bound lo has a partner edge costing <= lo."""
    births, deaths = b.births, b.deaths
    for v in sorted(range(len(a.half)), key=a.half.__getitem__, reverse=True):
        if (best := a.half[v]) <= bound:
            break
        s, d, (lo, hi) = a.births[v], a.deaths[v], a.kin(v, b)
        mid = bisect_left(births, s, lo, hi)
        for side in (range(mid, hi), range(mid - 1, lo - 1, -1)):
            for w in side:
                if (gap := abs(s - births[w])) >= best or best <= bound:
                    break
                if (cost := max(gap, abs(d - deaths[w]))) < best:
                    best, a.partner[v] = cost, w
        bound = max(bound, best)
    return bound


def _cover(a: _Side, b: _Side, eps: float, long: list[int]) -> Optional[dict[int, int]]:
    """A matching {a vertex: b vertex} at eps that covers a's `long` bars,
    those with half-length above eps, or None; short bars may be deleted."""
    deaths = b.deaths
    adj = [[w for w in a.window(v, b, eps) if abs(d - deaths[w]) <= eps]
           for v, d in zip(long, map(a.deaths.__getitem__, long))]
    mate = [-1] * len(long)
    return None if _hopcroft_karp(adj, mate, [-1] * len(b.half)) else dict(zip(long, mate))


def _matching(a: _Side, b: _Side, eps: float) -> Optional[dict[int, int]]:
    """a's long bars' partners if each has one and no two share it, else `_cover`'s."""
    long = [v for v, h in enumerate(a.half) if h > eps]
    mate = [a.partner[v] for v in long]
    return dict(zip(long, mate)) if len(set(mate) - {-1}) == len(mate) else _cover(a, b, eps, long)


def _probe(a: _Side, b: _Side, eps: float) -> Optional[tuple[dict, dict]]:
    """Both sides' `_matching`s at eps, or None.  By Mendelsohn-Dulmage, one
    matching covers the long bars of both sides iff each side's can be."""
    m1 = _matching(a, b, eps)
    m2 = None if m1 is None else _matching(b, a, eps)
    return None if m2 is None else (m1, m2)


def _candidates(a: _Side, b: _Side, lo: float, hi: float) -> list[float]:
    """The half-lengths and the costs of the edges at bars long at lo that
    lie in (lo, hi], sorted.  Feasibility changes only at one of them: an
    edge matters at its cost only if one of its bars is long there."""
    values = {h for s in (a, b) for h in s.half if lo < h <= hi}
    for s, t in ((a, b), (b, a)):
        for v in (v for v, h in enumerate(s.half) if h > lo):
            x, y = s.births[v], s.deaths[v]
            values.update(max(abs(x - t.births[w]), c) for w in s.window(v, t, hi)
                          if (c := abs(y - t.deaths[w])) <= hi)
    values = sorted(values)
    return values[bisect_right(values, lo):bisect_right(values, hi)]


def _search(a: _Side, b: _Side) -> tuple[float, tuple[dict, dict]]:
    """The least feasible eps and its probe.  Probe the lower bound lo; if it
    fails, gallop up from it by 1/16 of it, doubling each time, to `top`,
    which is feasible: every finite bar deleted and the infinite bars
    matched in birth order.  Then bisect over the last bracket's candidates.
    Every probe is at eps >= lo, so every partner edge is an edge there."""
    lo = _lower_bound(b, a, _lower_bound(a, b, 0.0))
    hit = _probe(a, b, lo)
    if hit:
        return lo, hit
    top = max([*a.half[:a.nf], *b.half[:b.nf],
               *(abs(x - y) for x, y in zip(a.births[a.nf:], b.births[b.nf:]))])
    base, step = lo, (lo or top) / 16 or top  # the step underflows for a subnormal lo
    while base + step < top and not _probe(a, b, base + step):
        lo, step = base + step, 2 * step
    values = _candidates(a, b, lo, min(top, base + step))
    i, j = 0, len(values) - 1
    while i < j:
        mid = (i + j) // 2
        if probe := _probe(a, b, values[mid]):
            j, hit = mid, probe
        else:
            i = mid + 1
    return values[j], hit or _probe(a, b, values[j])


def _witness(a: _Side, b: _Side, m1: dict, m2: dict) -> Matching:
    """One matching covering both sides' long bars, from m1 (covering a's)
    and m2 (covering b's) by the constructive Mendelsohn-Dulmage step, in
    O(m): keep m1 but along each path of m1 + m2 from a b bar that only m2
    covers, which takes m2's edges; the path ends at a bar neither needs."""
    mate = [m1.get(u, -1) for u in range(len(a.half))]
    for v in set(m2).difference(m1.values()):
        while v >= 0 and v in m2:  # v takes its m2 edge; u's m1 partner is next
            u = m2[v]
            mate[u], v = v, mate[u]
    pairs = sorted((a.index[u], b.index[v]) for u, v in enumerate(mate) if v >= 0)
    return Matching(tuple(pairs), tuple(sorted(a.index[u] for u, v in enumerate(mate) if v < 0)),
                    tuple(sorted(set(b.index).difference(v for _, v in pairs))))


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


def _distance(b1: Barcode, b2: Barcode, k: int) -> tuple[float, Optional[tuple]]:
    """The degree-k distance and, when finite, the `_witness` arguments."""
    a, b = _Side(b1, k), _Side(b2, k)
    if a.infinite != b.infinite:
        return math.inf, None
    value, probe = _search(a, b)  # inf if a birth gap overflowed
    return (math.inf, None) if value == math.inf else (value, (a, b, *probe))


def bottleneck_matching(
    b1: Barcode, b2: Barcode, k: int
) -> tuple[float, Optional[Matching]]:
    """Bottleneck distance in degree k with an optimal matching witness.

    Exact: the value is 0, a half-length or a bar-bar cost, and no table of
    costs is kept.  At tolerance eps a bar's edges are the bars of its kind
    in a bisected window of births, within eps in death too.  A bar with
    half-length above eps is long and must be matched; the rest may be
    deleted.  A probe is one matching per side from its long bars: the lower
    bound's own edges when no two share a bar, else Hopcroft-Karp, in
    O(E sqrt(m)) time and O(m + E) memory for the E edges at long bars.
    `_search` probes a lower bound, then gallops and bisects; `_witness`
    joins the last feasible probe's matchings, so a witness pair may be a
    partner edge or Hopcroft-Karp's.  Barcodes with different numbers of
    infinite bars are at distance infinity.
    """
    value, found = _distance(b1, b2, k)
    return value, found and _witness(*found)


def bottleneck(b1: Barcode, b2: Barcode, k: Optional[int] = None) -> float:
    """Bottleneck distance in degree k, or the max over all degrees; no
    witness is built."""
    dims = set(b1.dims()) | set(b2.dims()) if k is None else [k]
    return max((_distance(b1, b2, d)[0] for d in dims), default=0.0)


def interleaved(b1: Barcode, b2: Barcode, k: int, eps: float) -> bool:
    """Whether the degree-k diagrams are eps-interleaved, i.e. at bottleneck
    distance at most eps, by one probe: every bar with half-length above
    eps is matched to a bar of its kind with both ends within eps, and the
    rest are deleted.  At eps = inf every bar may be deleted."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    a, b = _Side(b1, k), _Side(b2, k)
    if a.infinite != b.infinite:
        return eps == math.inf  # the distance is infinite
    return _probe(a, b, eps) is not None


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
        from .complexes import lower_star
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
