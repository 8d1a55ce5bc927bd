"""Independent oracles and random-input generators for the test suite.

Everything here deliberately avoids the library's bitset reduction, its
matching search, its numpy simplex builder, its one-pass star values, its
one-walk validate and its array bar extraction: dense GF(2) elimination,
explicit composite-map matrices, the first sorted-tuple column reduction
and a sorted-tuple reduction with clearing, exhaustive matching
enumeration, the first padded-graph bottleneck search, the first
per-simplex Rips and SPX builders, the first distance matrix, the first
line-at-a-time SPX reader, the closure walk for a cell's vertices, the
first lower-star and cone builders, the four-pass validate and the first
bar walk serve as ground truth.  (The bar walk and the first extended
barcode read the library's reduction, which has its own oracles.)
`simplices_to_complex` is no oracle: it runs the library's closure, for
tests that build a complex from a dict of simplices.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from z2persist import Barcode, Cell, FilteredComplex, Interval, VertexFunction
from z2persist.complexes import _MAX_VERTICES, ComplexError, _close_simplices
from z2persist.distances import Matching, _deletion_cost, _match_cost
from z2persist.extended import BifiltrationSpec
from z2persist.persistence import Reduction, reduce_filtration
from z2persist.rips import PointCloud, RipsParams


def simplices_to_complex(valued: dict, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """The library's simplex closure (`_close_simplices`, which `parse_spx`
    runs) of a dict from increasing label tuples to values."""
    return _close_simplices(np.fromiter(chain.from_iterable(valued), np.int64),
                            np.fromiter(map(len, valued), np.int64),
                            np.fromiter(valued.values(), float), vertex_values)


# ---------------------------------------------------------------------------
# the library's first validate: four passes over the cells, each invariant
# checked for every cell before the next; the one-walk validate must raise
# the same message wherever a single cell offends


def reference_validate(fc: FilteredComplex) -> None:
    """Raise ComplexError on the first violated invariant, in pass order."""
    cells = fc.cells
    for i, c in enumerate(cells):
        if c.id != i:
            raise ComplexError(f"id {c.id} out of declaration order", c.id)
        if c.dim < 0:
            raise ComplexError("negative dimension", c.id)
    for i in range(1, len(cells)):
        a, b = cells[i - 1], cells[i]
        if (b.value, b.dim) < (a.value, a.dim):
            raise ComplexError(
                f"ordering violation: value {b.value} dim {b.dim} after "
                f"value {a.value} dim {a.dim}",
                b.id,
            )
    for c in cells:
        prev = None
        for f in c.boundary:
            if f == prev:
                raise ComplexError(f"repeated face {f}", c.id)
            prev = f
            if f >= c.id:
                raise ComplexError(f"face {f} not previously declared", c.id)
            face = cells[f]
            if face.dim != c.dim - 1:
                raise ComplexError(
                    f"face {f} has dim {face.dim}, expected {c.dim - 1}", c.id
                )
            if face.value > c.value:
                raise ComplexError(
                    f"face {f} enters at {face.value} after cell value {c.value}",
                    c.id,
                )
    for c in cells:
        if c.dim >= 1:
            dd = 0
            for f in c.boundary:
                for g in cells[f].boundary:
                    dd ^= 1 << g
            if dd:
                raise ComplexError("boundary of boundary is nonzero", c.id)


# ---------------------------------------------------------------------------
# the library's first derived filtrations: each cell's vertex set by a walk
# of its closure, lower_star through sort_filtration, and the cone built by
# its own sort and two Cell loops; the one-pass star values and the shared
# renumbering must give the same cells


def reference_cell_vertices(fc: FilteredComplex, cell_id: int) -> frozenset:
    """Vertex ids in the closure of a cell.

    Uses the explicit vertex list when present, otherwise the
    transitive boundary closure (exact for simplicial cells), which
    stops at each face that has its own vertex list.
    """
    c = fc.cells[cell_id]
    if c.vertices is not None:
        return frozenset(c.vertices)
    if c.dim == 0:
        return frozenset((c.id,))
    out: set[int] = set()
    stack = list(c.boundary)
    seen = set(stack)
    while stack:
        f = stack.pop()
        face = fc.cells[f]
        if face.vertices is not None:  # a face's own list closes its branch
            out.update(face.vertices)
            continue
        if face.dim == 0:
            out.add(f)
        for g in face.boundary:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return frozenset(out)


def reference_sort_filtration(cells: Sequence[Cell]) -> FilteredComplex:
    """Re-sort cells by (value, dim, id) and renumber ids accordingly."""
    order = sorted(cells, key=lambda c: (c.value, c.dim, c.id))
    new_id = {c.id: i for i, c in enumerate(order)}
    out = [
        replace(
            c,
            id=i,
            boundary=tuple(new_id[f] for f in c.boundary),
            vertices=None
            if c.vertices is None
            else tuple(new_id[v] for v in c.vertices),
        )
        for i, c in enumerate(order)
    ]
    return FilteredComplex(out)


def reference_lower_star(skeleton: FilteredComplex, f: VertexFunction) -> FilteredComplex:
    """Sublevel filtration of a vertex function: each cell enters at the
    maximum of f over its vertices."""
    valued = []
    for c in skeleton.cells:
        verts = reference_cell_vertices(skeleton, c.id)
        if not verts:
            raise ComplexError("cell has no vertices in its closure", c.id)
        valued.append(replace(c, value=max(f(v) for v in verts)))
    fc = reference_sort_filtration(valued)
    fc.validate()
    return fc


@dataclass(frozen=True)
class ReferenceConeFiltration:
    """Cone filtration with bookkeeping: which cells are original, which
    are cones, and the apex id."""

    complex: FilteredComplex
    apex: int
    cone_of: dict  # original new-id -> cone new-id
    original: frozenset


def reference_build_cone_filtration(spec: BifiltrationSpec) -> ReferenceConeFiltration:
    """Assemble the cone filtration of a bifiltration.

    Ascending phase: each cell enters at max f over its vertices, so the
    whole complex is present by a = M.  The apex is placed at the very
    start of the filtration (value -M, before every other cell): the elder
    rule then makes components die into the apex component, which is what
    matches the relative-pair homology; the apex's own infinite bar is the
    single artifact discarded later.  Descending phase: the cone over a
    cell enters at 2M + lambda - min f over its vertices, mirroring the
    superlevel complement, and everything is coned by a = 3M + lambda.
    """
    skeleton, f = spec.complex, spec.f
    M, lam = spec.M, spec.lam
    n = len(skeleton.cells)
    if n == 0:
        raise ComplexError("empty complex")
    asc = []
    desc = []
    for c in skeleton.cells:
        verts = reference_cell_vertices(skeleton, c.id)
        if not verts:
            raise ComplexError("cell has no vertices in its closure", c.id)
        asc.append(max(f(v) for v in verts))
        desc.append(2 * M + lam - min(f(v) for v in verts))
    # sort keys: (value, dim, phase, original id); apex first via seq -1
    entries = [(-M, 0, -1, -1)]
    entries += [(asc[c.id], c.dim, 0, c.id) for c in skeleton.cells]
    entries += [(desc[c.id], c.dim + 1, 1, c.id) for c in skeleton.cells]
    entries.sort()
    new_orig: dict[int, int] = {}
    new_cone: dict[int, int] = {}
    apex_id = -1
    for i, (_, _, phase, cid) in enumerate(entries):
        if phase == -1:
            apex_id = i
        elif phase == 0:
            new_orig[cid] = i
        else:
            new_cone[cid] = i
    cells = []
    for i, (value, dim, phase, cid) in enumerate(entries):
        if phase == -1:
            cells.append(Cell(i, 0, value, name="apex"))
        elif phase == 0:
            c = skeleton.cells[cid]
            cells.append(
                Cell(i, c.dim, value,
                     boundary=tuple(new_orig[b] for b in c.boundary),
                     name=c.label())
            )
        else:
            c = skeleton.cells[cid]
            if c.dim == 0:
                bdry = (apex_id, new_orig[cid])
            else:
                bdry = tuple([new_orig[cid]] + [new_cone[b] for b in c.boundary])
            cells.append(Cell(i, c.dim + 1, value, boundary=bdry,
                              name=f"cone({c.label()})"))
    fc = FilteredComplex(cells)
    fc.validate()
    return ReferenceConeFiltration(
        complex=fc,
        apex=apex_id,
        cone_of={new_orig[c]: new_cone[c] for c in new_orig},
        original=frozenset(new_orig.values()),
    )


def reference_extended_barcode(spec: BifiltrationSpec) -> Barcode:
    """Extended barcode: all bars finite, contained in [-M, 3M+lambda).

    Bars are reported in the homological degree of the class in the cone
    complex, i.e. the dimension of the cell whose arrival created it.  For
    classes born in the descending phase that is the dimension of a cone
    cell, which matches the degree of the corresponding relative-homology
    class of the pair.
    """
    cone = reference_build_cone_filtration(spec)
    fc = cone.complex
    red = reduce_filtration(fc)
    bars = []
    for i, j in red.pairs:
        b, d = fc.cells[i].value, fc.cells[j].value
        if b >= d:
            continue
        bars.append((fc.cells[i].dim, Interval(b, d)))
    leftovers = set(red.unpaired) - {cone.apex}
    if leftovers:
        raise AssertionError(f"cone filtration left non-apex cells unpaired: {leftovers}")
    return Barcode(bars)



# ---------------------------------------------------------------------------
# the library's first bar extraction: a Python walk over the reduction's
# pairs and unpaired cells, one check per bar and a key sort; `barcode`
# must give the same bars, in the same order, with endpoints of the same type


def reference_barcode(fc: FilteredComplex) -> list[tuple]:
    """(dim, birth, death) of every bar, zero-length pairs dropped, sorted
    by (dim, birth, death)."""
    red = reduce_filtration(fc)
    dims, values = fc.dims.tolist(), fc.values.tolist()
    bars = [(dims[i], values[i], values[j]) for i, j in red.pairs if values[i] < values[j]]
    bars += [(dims[j], values[j], math.inf) for j in red.unpaired]
    for _, birth, death in bars:
        if not -math.inf < birth < death:  # also false for nan
            raise ValueError(f"need -inf < birth < death, got [{birth}, {death})")
    return sorted(bars, key=lambda bar: (bar[0], bar[1], bar[2]))


# ---------------------------------------------------------------------------
# the library's first simplex builders: the SPX closure with a Cell loop and
# the reference lower-star / sort_filtration round trip, and the Rips clique expansion
# with scalar distance lookups; the numpy builder must give the same cells


def reference_simplices_to_complex(valued: dict, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """Close a set of valued simplices and build the filtered complex.

    Missing faces get the minimum value over the declared cofaces that
    contain them; with vertex_values the filtration is the lower-star one
    instead.
    """
    simplices = dict(valued)
    for simplex in sorted(valued, key=len, reverse=True):
        stack = [simplex]
        while stack:
            s = stack.pop()
            if len(s) == 1:
                continue
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                v = simplices[s]
                if face not in simplices or simplices[face] > v:
                    simplices[face] = v
                    stack.append(face)
    cells = []
    ids: dict[tuple, int] = {}
    order = sorted(simplices.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))
    for simplex, value in order:
        cid = len(cells)
        ids[simplex] = cid
        bdry = ()
        if len(simplex) > 1:
            bdry = tuple(
                ids[simplex[:i] + simplex[i + 1 :]] for i in range(len(simplex))
            )
        verts = tuple(ids[(v,)] for v in simplex)
        cells.append(
            Cell(cid, len(simplex) - 1, value, boundary=bdry, vertices=verts,
                 name="-".join(str(v) for v in simplex))
        )
    fc = FilteredComplex(cells)
    if vertex_values is not None:
        f = VertexFunction({ids[(v,)]: x for v, x in vertex_values.items() if (v,) in ids})
        fc = reference_lower_star(fc, f)
    else:
        fc = reference_sort_filtration(fc.cells)
    fc.validate()
    return fc


def reference_parse_spx(text: str, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """The first SPX reader: each line is checked and read on its own into
    a dict of sorted vertex tuples, a repeated simplex keeping its smallest
    value, and the dict is closed by reference_simplices_to_complex.  The
    library must name the same first faulty line with the same message."""
    valued: dict[tuple, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if vertex_values is None:
                value = float(parts[0])
                verts = tuple(sorted(map(int, parts[1:])))
            else:
                value = 0.0
                verts = tuple(sorted(map(int, parts)))
        except (ValueError, IndexError):
            raise ComplexError(f"line {lineno}: malformed simplex line") from None
        if not verts or len(set(verts)) != len(verts):
            raise ComplexError(f"line {lineno}: bad vertex list")
        if verts[0] < -(2**63) or verts[-1] > 2**63 - 1:
            raise ComplexError(f"line {lineno}: vertex id out of range")
        if len(verts) > _MAX_VERTICES:
            raise ComplexError(f"line {lineno}: simplex has {len(verts)} vertices, "
                               f"above the limit of {_MAX_VERTICES}")
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")
        if verts not in valued or valued[verts] > value:
            valued[verts] = value
    if not valued:
        raise ComplexError("no simplices in input")
    return reference_simplices_to_complex(valued, vertex_values)


def reference_snap_up(value: float, step: float) -> float:
    k = math.ceil(value / step - 1e-12)
    return k * step


def reference_distance_matrix(pc: PointCloud) -> np.ndarray:
    """The first distance matrix: one n x n x d array of differences."""
    pts = np.asarray(pc.points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def reference_rips_filtration(pc: PointCloud, params: RipsParams) -> FilteredComplex:
    """Build the Rips filtration up to max_dim and the scale limit.

    Vertices at 0; every higher simplex enters at its diameter (snapped up
    to the next step boundary in stepped mode).  Simplices are enumerated
    by expanding cliques of the threshold graph in vertex order, so the
    output is deterministic.
    """
    dist = reference_distance_matrix(pc)
    n = len(pc)
    limit = params.scale_limit
    if limit == math.inf:
        raise ValueError("need a threshold or steps to bound the scale")
    nbrs = [
        [j for j in range(i + 1, n) if dist[i, j] <= limit] for i in range(n)
    ]
    simplices: list[tuple[tuple[int, ...], float]] = [((i,), 0.0) for i in range(n)]
    frontier = [((i,), 0.0, nbrs[i]) for i in range(n)]
    for _ in range(params.max_dim):
        nxt = []
        for simplex, diam, cands in frontier:
            for idx, j in enumerate(cands):
                d = float(max(diam, max(dist[v, j] for v in simplex)))
                if d > limit:
                    continue
                ext = [u for u in cands[idx + 1 :] if dist[j, u] <= limit]
                nxt.append((simplex + (j,), d, ext))
        simplices.extend((s, d) for s, d, _ in nxt)
        frontier = nxt
    if params.step_size is not None:
        simplices = [
            (s, reference_snap_up(d, params.step_size) if len(s) > 1 else 0.0)
            for s, d in simplices
        ]
    simplices = [(s, d) for s, d in simplices if d <= limit]  # a negative limit keeps nothing
    simplices.sort(key=lambda sd: (sd[1], len(sd[0]), sd[0]))
    ids = {s: i for i, (s, _) in enumerate(simplices)}
    cells = []
    for s, d in simplices:
        cid = ids[s]
        bdry = ()
        if len(s) > 1:
            bdry = tuple(ids[s[:i] + s[i + 1 :]] for i in range(len(s)))
        verts = tuple(ids[(v,)] for v in s)
        cells.append(
            Cell(cid, len(s) - 1, d, boundary=bdry, vertices=verts,
                 name="-".join(str(v) for v in s))
        )
    return FilteredComplex(cells)


# ---------------------------------------------------------------------------
# the library's first sparse GF(2) engine: columns are sorted tuples of row
# indices holding a 1, and the empty tuple is the zero column

Z2Column = tuple  # strictly increasing row indices


def column(rows: Iterable[int]) -> Z2Column:
    """Build a column from row indices, cancelling duplicate pairs (1+1=0)."""
    out: list[int] = []
    for r in sorted(rows):
        if out and out[-1] == r:
            out.pop()
        else:
            out.append(r)
    return tuple(out)


def add_into(target: Z2Column, source: Z2Column) -> Z2Column:
    """GF(2) column addition: symmetric difference of the index sets."""
    out: list[int] = []
    i = j = 0
    n, m = len(target), len(source)
    while i < n and j < m:
        a, b = target[i], source[j]
        if a < b:
            out.append(a)
            i += 1
        elif b < a:
            out.append(b)
            j += 1
        else:
            i += 1
            j += 1
    out.extend(target[i:])
    out.extend(source[j:])
    return tuple(out)


def low(col: Z2Column) -> Optional[int]:
    """Largest row index with a 1, or None for the zero column."""
    return col[-1] if col else None


@dataclass(frozen=True)
class SparseZ2Matrix:
    """Column-major GF(2) matrix."""

    num_rows: int
    columns: tuple[Z2Column, ...]

    def __post_init__(self):
        for col in self.columns:
            if col and (col[-1] >= self.num_rows or col[0] < 0):
                raise ValueError(f"row index out of range in column {col}")

    @property
    def num_cols(self) -> int:
        return len(self.columns)


def rank(m: SparseZ2Matrix) -> int:
    """GF(2) rank by deterministic left-to-right column reduction.

    A column is repeatedly reduced by the earlier column sharing its low
    index until its low is fresh or the column vanishes.
    """
    low_to_col: dict[int, Z2Column] = {}
    r = 0
    for col in m.columns:
        while col:
            pivot = col[-1]
            other = low_to_col.get(pivot)
            if other is None:
                low_to_col[pivot] = col
                r += 1
                break
            col = add_into(col, other)
    return r


def boundary_matrix(fc: FilteredComplex, k: int) -> SparseZ2Matrix:
    """Matrix of the boundary map from k-cells to (k-1)-cells.

    Rows index (k-1)-cells and columns index k-cells, each in
    filtration order.
    """
    rows = [c.id for c in fc.cells if c.dim == k - 1]
    row_of = {cid: i for i, cid in enumerate(rows)}
    cols = tuple(
        tuple(sorted(row_of[f] for f in c.boundary))
        for c in fc.cells
        if c.dim == k
    )
    return SparseZ2Matrix(len(rows), cols)


class OracleReduction(Reduction):
    """A `Reduction` that also keeps the oracle's `cycles`: {positive cell:
    the sorted ids of the cycle its chain gives}.  The library's cycles
    come from `homology`, not from a `Reduction`."""

    def __init__(self, pairs, unpaired, column_additions, max_column, cycles: dict):
        super().__init__(pairs, unpaired, column_additions, max_column)
        self.cycles = cycles


def reference_reduction(fc: FilteredComplex) -> OracleReduction:
    """The library's first reduction, kept as an oracle: the same
    left-to-right order and pivot rule on sorted-tuple columns, with a
    chain kept for every column and a cycle for every positive cell.  It
    counts its column additions and its longest reduced column.
    """
    n = len(fc.cells)
    reduced: dict[int, tuple] = {}      # column id -> reduced column
    chain: dict[int, tuple] = {}        # column id -> cells summed into it
    low_to_col: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    positives: list[int] = []
    cycles: dict[int, tuple] = {}
    additions = longest = 0
    for j in range(n):
        col = fc.cells[j].boundary
        v = (j,)
        while col:
            pivot = col[-1]
            other = low_to_col.get(pivot)
            if other is None:
                break
            col = add_into(col, reduced[other])
            v = add_into(v, chain[other])
            additions += 1
        reduced[j] = col
        longest = max(longest, len(col))
        chain[j] = v
        if col:
            low_to_col[col[-1]] = j
            pairs.append((col[-1], j))
        else:
            positives.append(j)
            cycles[j] = v
    paired_rows = {i for i, _ in pairs}
    unpaired = tuple(j for j in positives if j not in paired_rows)
    return OracleReduction(pairs=tuple(pairs), unpaired=unpaired, cycles=cycles,
                           column_additions=additions, max_column=longest)


def reference_clearing(fc: FilteredComplex, cohomology: bool) -> Reduction:
    """The library's reduction with clearing, kept as an oracle of its work
    counters, on sorted-tuple columns indexed by cell id.

    With `cohomology` a cell's column is its coboundary, the cells are
    taken a dimension at a time upward, in decreasing id within one, and a
    column's pivot is its lowest coface: pivot c pairs cell i with c.
    Otherwise the column is the boundary, dimensions go downward, ids
    increase, the pivot is the highest face and chains are added along
    (the twist; the tests count those additions).  A cell that is already a
    pivot is skipped.  Pairs come back in death order and unpaired cells in
    increasing id.
    """
    cells = fc.cells
    if cohomology:
        columns: dict[int, tuple] = {c.id: () for c in cells}
        for c in cells:
            for face in c.boundary:
                columns[face] += (c.id,)
        order = [c.id for k in sorted({c.dim for c in cells})
                 for c in reversed(cells) if c.dim == k]
    else:
        columns = {c.id: c.boundary for c in cells}
        order = [c.id for k in sorted({c.dim for c in cells}, reverse=True)
                 for c in cells if c.dim == k]
    pivot_at = 0 if cohomology else -1
    owner: dict[int, int] = {}         # pivot -> column with that pivot
    reduced: dict[int, tuple] = {}
    chain: dict[int, tuple] = {}
    zeros: list[int] = []
    additions = longest = 0
    for j in order:
        if j in owner:
            continue
        col, v = columns[j], (j,)
        while col and col[pivot_at] in owner:
            other = owner[col[pivot_at]]
            col = add_into(col, reduced[other])
            if not cohomology:
                v = add_into(v, chain[other])
            additions += 1
        reduced[j], chain[j] = col, v
        if col:
            owner[col[pivot_at]] = j
            longest = max(longest, len(col))
        else:
            zeros.append(j)
    pairs = [(j, p) if cohomology else (p, j) for p, j in owner.items()]
    unpaired = tuple(sorted(zeros))
    return Reduction(pairs=tuple(sorted(pairs, key=lambda pair: pair[1])), unpaired=unpaired,
                     column_additions=additions, max_column=longest)


# ---------------------------------------------------------------------------
# dense GF(2) oracles


def gf2_rank(m: np.ndarray) -> int:
    """Dense Gaussian elimination over GF(2)."""
    a = (np.asarray(m, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i, :] ^= a[r, :]
        r += 1
        if r == rows:
            break
    return r


def gf2_nullspace(m: np.ndarray) -> np.ndarray:
    """Kernel basis (columns) of a GF(2) matrix."""
    a = (np.asarray(m, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i, :] ^= a[r, :]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = a[i, fc]
    return basis


def dense_boundary(fc: FilteredComplex, k: int) -> np.ndarray:
    rows = [c.id for c in fc.cells if c.dim == k - 1]
    cols = [c for c in fc.cells if c.dim == k]
    row_of = {cid: i for i, cid in enumerate(rows)}
    m = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, c in enumerate(cols):
        for f in c.boundary:
            m[row_of[f], j] = 1
    return m


def dense_betti(fc: FilteredComplex, k: int) -> int:
    nk = fc.num_cells(k)
    if nk == 0:
        return 0
    return nk - gf2_rank(dense_boundary(fc, k)) - gf2_rank(dense_boundary(fc, k + 1))


def inclusion_rank(fc: FilteredComplex, k: int, a: float, b: float) -> int:
    """Rank of H_k(sublevel a) -> H_k(sublevel b) by explicit chain-level
    linear algebra: rank[Z_a | B_b] - rank B_b."""
    assert a <= b
    k_ids = [c.id for c in fc.cells if c.dim == k and c.value <= b]
    pos = {cid: i for i, cid in enumerate(k_ids)}
    n = len(k_ids)
    # cycles of the a-sublevel, as vectors in the b-sublevel chain group
    a_ids = [cid for cid in k_ids if fc.cells[cid].value <= a]
    face_ids = [c.id for c in fc.cells if c.dim == k - 1]
    frow = {cid: i for i, cid in enumerate(face_ids)}
    bd = np.zeros((len(face_ids), len(a_ids)), dtype=np.uint8)
    for j, cid in enumerate(a_ids):
        for f in fc.cells[cid].boundary:
            bd[frow[f], j] = 1
    kernel = gf2_nullspace(bd)  # coords in a_ids
    z_cols = np.zeros((n, kernel.shape[1]), dtype=np.uint8)
    for j in range(kernel.shape[1]):
        for i, cid in enumerate(a_ids):
            if kernel[i, j]:
                z_cols[pos[cid], j] = 1
    b_cols_src = [c for c in fc.cells if c.dim == k + 1 and c.value <= b]
    b_cols = np.zeros((n, len(b_cols_src)), dtype=np.uint8)
    for j, c in enumerate(b_cols_src):
        for f in c.boundary:
            b_cols[pos[f], j] = 1
    return int(gf2_rank(np.concatenate([z_cols, b_cols], axis=1)) - gf2_rank(b_cols))


def pair_rank(skeleton: FilteredComplex, f: VertexFunction, M: float,
              lam: float, k: int, a: float, b: float) -> int:
    """Rank of H_k(X_a, A_a) -> H_k(X_b, A_b) over GF(2).

    X_t collects cells entering at max f over their vertices, A_t cells of
    the superlevel complement mirror entering at 2M + lam - min f.  The
    rank is computed directly on quotient chain complexes: relative cycles
    at a modulo boundaries-at-b plus chains in A_b.
    """
    assert a <= b

    def asc(c):
        return max(f(v) for v in reference_cell_vertices(skeleton, c.id))

    def desc(c):
        return 2 * M + lam - min(f(v) for v in reference_cell_vertices(skeleton, c.id))

    k_ids = [c.id for c in skeleton.cells if c.dim == k]
    if not k_ids:
        return 0
    pos = {cid: i for i, cid in enumerate(k_ids)}
    in_xa = {c.id for c in skeleton.cells if asc(c) <= a}
    in_xb = {c.id for c in skeleton.cells if asc(c) <= b}
    in_aa = {c.id for c in skeleton.cells if desc(c) <= a}
    in_ab = {c.id for c in skeleton.cells if desc(c) <= b}
    # relative cycles at a: chains on X_a whose boundary lies in A_a
    a_ids = [cid for cid in k_ids if cid in in_xa]
    face_ids = [c.id for c in skeleton.cells if c.dim == k - 1 and c.id not in in_aa]
    frow = {cid: i for i, cid in enumerate(face_ids)}
    bd = np.zeros((len(face_ids), len(a_ids)), dtype=np.uint8)
    for j, cid in enumerate(a_ids):
        for fa in skeleton.cells[cid].boundary:
            if fa in frow:
                bd[frow[fa], j] = 1
    kernel = gf2_nullspace(bd)
    z_cols = np.zeros((len(k_ids), kernel.shape[1]), dtype=np.uint8)
    for j in range(kernel.shape[1]):
        for i, cid in enumerate(a_ids):
            if kernel[i, j]:
                z_cols[pos[cid], j] = 1
    # null directions at b: boundaries of (k+1)-cells in X_b and chains in A_b
    null_srcs = [c for c in skeleton.cells if c.dim == k + 1 and c.id in in_xb]
    n_cols = np.zeros((len(k_ids), len(null_srcs) + len(in_ab & set(k_ids))), dtype=np.uint8)
    for j, c in enumerate(null_srcs):
        for fa in c.boundary:
            n_cols[pos[fa], j] = 1
    for j, cid in enumerate(sorted(in_ab & set(k_ids))):
        n_cols[pos[cid], len(null_srcs) + j] = 1
    return int(gf2_rank(np.concatenate([z_cols, n_cols], axis=1)) - gf2_rank(n_cols))


def composite_rank(intervals: Sequence[Interval], a: float, p: float) -> int:
    """Rank of the composed interval-module maps from parameter a to a+p,
    built as explicit GF(2) step matrices and multiplied."""
    b = a + p
    cuts = sorted(
        {a, b}
        | {iv.birth for iv in intervals if a < iv.birth < b}
        | {iv.death for iv in intervals if iv.death != math.inf and a < iv.death < b}
    )
    def alive(t):
        return [i for i, iv in enumerate(intervals) if t in iv]
    prod = np.eye(len(alive(a)), dtype=np.uint8)
    prev = alive(a)
    for t in cuts[1:]:
        cur = alive(t)
        step = np.zeros((len(cur), len(prev)), dtype=np.uint8)
        for col, i in enumerate(prev):
            if i in cur:
                step[cur.index(i), col] = 1
        prod = (step @ prod) % 2
        prev = cur
    return gf2_rank(prod) if prod.size else 0


def match_cost(i: Interval, j: Interval) -> float:
    if i.death == math.inf and j.death == math.inf:
        return abs(i.birth - j.birth)
    return max(abs(i.birth - j.birth), abs(i.death - j.death))


def exhaustive_bottleneck(left: Sequence[Interval], right: Sequence[Interval]) -> float:
    """Minimum over all matchings of the max per-bar cost, by recursion."""
    best = math.inf

    def rec(i: int, used: set, acc: float):
        nonlocal best
        if acc >= best:
            return
        if i == len(left):
            rest = max(
                (right[j].length / 2 for j in range(len(right)) if j not in used),
                default=0.0,
            )
            best = min(best, max(acc, rest))
            return
        rec(i + 1, used, max(acc, left[i].length / 2))
        for j in range(len(right)):
            if j not in used:
                rec(i + 1, used | {j}, max(acc, match_cost(left[i], right[j])))

    rec(0, set(), 0.0)
    return best


def _reference_feasible(
    left: Sequence[Interval], right: Sequence[Interval], eps: float
) -> Optional[Matching]:
    """Perfect-matching feasibility at tolerance eps.

    Each side is padded with one slot per opposite bar (deletion targets);
    bar-bar edges need endpoint cost <= eps, bar-slot edges need the bar's
    half-length <= eps, slot-slot edges are free.  A perfect matching on
    the padded graph exists iff the barcodes are eps-matchable.
    """
    nl, nr = len(left), len(right)
    size = nl + nr

    def edges(u: int) -> list[int]:
        out = []
        if u < nl:
            iv = left[u]
            out += [v for v in range(nr) if _match_cost(iv, right[v]) <= eps]
            if _deletion_cost(iv) <= eps:
                out.append(nr + u)
        else:
            sv = u - nl
            if _deletion_cost(right[sv]) <= eps:
                out.append(sv)
            out += [nr + v for v in range(nl)]
        return out

    match_r = [-1] * size

    def augment(u: int, seen: list[bool]) -> bool:
        for v in edges(u):
            if not seen[v]:
                seen[v] = True
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    for u in range(size):
        if not augment(u, [False] * size):
            return None
    pairs = []
    unmatched_left = []
    unmatched_right = []
    for v in range(size):
        u = match_r[v]
        if v < nr and u < nl:
            pairs.append((u, v))
        elif v < nr and u >= nl:
            unmatched_right.append(v)
        elif v >= nr and u < nl:
            unmatched_left.append(u)
    return Matching(tuple(pairs), tuple(unmatched_left), tuple(unmatched_right))


def reference_bottleneck(
    b1: Barcode, b2: Barcode, k: int
) -> tuple[float, Optional[Matching]]:
    """The library's first bottleneck search, kept as a second oracle:
    binary search over the candidate values, each probe matching the
    padded graph (with its complete slot-slot block) from scratch by
    recursive augmenting paths.  Use it up to ~50 bars a side.
    """
    left, right = b1.in_dim(k), b2.in_dim(k)
    n_inf_l = sum(1 for iv in left if iv.death == math.inf)
    n_inf_r = sum(1 for iv in right if iv.death == math.inf)
    if n_inf_l != n_inf_r:
        return math.inf, None
    if not left and not right:
        return 0.0, Matching((), (), ())
    candidates = {0.0}
    for i in left:
        for j in right:
            c = _match_cost(i, j)
            if c != math.inf:
                candidates.add(c)
    for iv in left + right:
        if iv.death != math.inf:
            candidates.add(_deletion_cost(iv))
    values = sorted(candidates)
    lo, hi = 0, len(values) - 1
    if _reference_feasible(left, right, values[hi]) is None:
        return math.inf, None
    while lo < hi:
        mid = (lo + hi) // 2
        if _reference_feasible(left, right, values[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return values[lo], _reference_feasible(left, right, values[lo])


def check_matching(left: Sequence[Interval], right: Sequence[Interval],
                   d: float, m: Matching) -> None:
    """Assert that m is a matching witness for distance d: every bar is
    used exactly once, each matched pair costs <= d and each deleted bar
    has half-length <= d."""
    assert sorted([u for u, _ in m.pairs] + list(m.unmatched_left)) == list(range(len(left)))
    assert sorted([v for _, v in m.pairs] + list(m.unmatched_right)) == list(range(len(right)))
    for u, v in m.pairs:
        assert match_cost(left[u], right[v]) <= d, (left[u], right[v], d)
    for u in m.unmatched_left:
        assert left[u].length / 2 <= d, (left[u], d)
    for v in m.unmatched_right:
        assert right[v].length / 2 <= d, (right[v], d)


def tied_intervals(rng: random.Random, n_finite: int, n_infinite: int) -> list[Interval]:
    """Random bars with many tied endpoints and lengths, some duplicated."""
    grid = [x / 4 for x in range(-8, 9)]

    def point() -> float:
        return rng.choice(grid) if rng.random() < 0.6 else rng.uniform(-2, 2)

    out: list[Interval] = []
    for _ in range(n_finite):
        if out and rng.random() < 0.15:
            out.append(rng.choice(out))
        else:
            b = point()
            out.append(Interval(b, b + rng.choice([0.25, 0.5, 1.0, rng.uniform(0.01, 3.0)])))
    return out + [Interval(point(), math.inf) for _ in range(n_infinite)]


def random_intervals(rng: random.Random, n: int, allow_infinite: bool = True) -> list[Interval]:
    out = []
    for _ in range(n):
        b = rng.uniform(-3, 3)
        if allow_infinite and rng.random() < 0.25:
            out.append(Interval(b, math.inf))
        else:
            out.append(Interval(b, b + rng.uniform(0.1, 4.0)))
    return out


def random_skeleton(rng: random.Random, max_cells: int = 30) -> FilteredComplex:
    """Random small simplicial complex (vertices, edges, some triangles)."""
    nv = rng.randint(3, 7)
    simplices = {(i,): 0.0 for i in range(nv)}
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    rng.shuffle(pairs)
    for e in pairs[: rng.randint(nv - 1, len(pairs))]:
        simplices[e] = 0.0
    tris = [
        (i, j, k)
        for i in range(nv)
        for j in range(i + 1, nv)
        for k in range(j + 1, nv)
        if (i, j) in simplices and (i, k) in simplices and (j, k) in simplices
    ]
    rng.shuffle(tris)
    for t in tris[: rng.randint(0, len(tris))]:
        if len(simplices) >= max_cells:
            break
        simplices[t] = 0.0
    return simplices_to_complex(simplices)


def grid_surface(m: int, twist: bool) -> dict:
    """Triangulated m x m grid with opposite sides glued: a torus, or a
    Klein bottle when one gluing is reversed."""
    def v(i, j):
        if i == m:
            i, j = 0, ((m - 1 - j) % m if twist else j)
        return i * m + j % m

    simplices = {}
    for i in range(m):
        for j in range(m):
            a, b, c, d = v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)
            simplices[tuple(sorted((a, b, c)))] = 0.0
            simplices[tuple(sorted((a, d, c)))] = 0.0
    return simplices


def random_vertex_function(rng: random.Random, fc: FilteredComplex,
                           lo: float = -1.0, hi: float = 1.0) -> VertexFunction:
    vals = {c.id: rng.uniform(lo, hi) for c in fc.cells if c.dim == 0}
    return VertexFunction(vals)


def perturbed(rng: random.Random, f: VertexFunction, radius: float) -> VertexFunction:
    vals = {v: x + rng.uniform(-radius, radius) for v, x in f.values.items()}
    return VertexFunction(vals)
