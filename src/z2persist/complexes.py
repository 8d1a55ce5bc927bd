"""Filtered cell complexes with explicit mod-2 boundaries.

Cells carry a dimension, a filtration value and the set of (dim-1)-cells
appearing in their boundary with odd degree.  The boundary is the one
record of a cell's vertices; a CW cell whose mod-2 boundary cannot say
them (a loop, a disk glued along loops) carries its own vertex list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .text import ComplexError, format_value, text_lines  # re-exported


@dataclass(frozen=True, slots=True)
class Cell:
    id: int
    dim: int
    value: float
    boundary: tuple[int, ...] = ()
    vertices: Optional[tuple[int, ...]] = None
    name: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "boundary", tuple(sorted(self.boundary)))
        if self.vertices is not None:
            object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))

    def label(self) -> str:
        return self.name if self.name is not None else str(self.id)


@dataclass(frozen=True)
class VertexFunction:
    """Real values on vertex ids; the bound M that extended persistence
    needs belongs to `extended.BifiltrationSpec`."""

    values: dict

    def __call__(self, vertex: int) -> float:
        try:
            return self.values[vertex]
        except KeyError:
            raise ComplexError(f"vertex {vertex} has no function value") from None

    def sup_distance(self, other: "VertexFunction") -> float:
        if set(self.values) != set(other.values):
            raise ValueError("vertex functions defined on different vertex sets")
        return max(abs(self.values[v] - other.values[v]) for v in self.values)


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows with these lengths."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _owners(indptr: np.ndarray) -> np.ndarray:
    """The row of each CSR entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions starts[i], ..., starts[i] + counts[i] - 1, run after run."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


# The boundary-of-boundary check sorts this many face-of-face entries at a time.
_BLOCK = 1 << 16


class FilteredComplex:
    """Ordered cells forming a filtration: faces precede cofaces, values
    monotone along boundaries, ties broken by (value, dim, id).

    Arrays are the record: `dims` (int64), `values` (float64, or object if
    a vertex function gave values that are not all floats, so each cell
    keeps its value) and the boundaries in CSR form, the faces of cell j
    being `indices[indptr[j]:indptr[j + 1]]`, sorted.  `name_of(j)` is
    cell j's name or None, and `vertex_lists[j]` a CW cell's own vertex
    list or None; either is None when no cell has one.  `cells` is built
    on first use, and a complex made from cells keeps them.
    """

    def __init__(self, cells: Iterable[Cell]):
        """Convert the cells once, checking nothing: `validate` reports them."""
        cells = tuple(cells)
        n = len(cells)
        counts = np.fromiter(map(len, (c.boundary for c in cells)), np.int64, n)
        dims = np.fromiter((c.dim for c in cells), np.int64, n)
        values = np.fromiter((c.value for c in cells), float, n)
        indices = np.fromiter(chain.from_iterable(c.boundary for c in cells), np.int64,
                              int(counts.sum()))
        names, vertex_lists = [c.name for c in cells], [c.vertices for c in cells]
        self._keep(dims, values, _indptr(counts), indices,
                   names.__getitem__ if any(x is not None for x in names) else None,
                   vertex_lists if any(v is not None for v in vertex_lists) else None, cells)

    @classmethod
    def from_arrays(cls, dims: np.ndarray, values: np.ndarray, indptr: np.ndarray,
                    indices: np.ndarray, name_of: Optional[Callable] = None,
                    vertex_lists: Optional[list] = None) -> "FilteredComplex":
        """The complex these arrays describe, kept as they are."""
        fc = cls.__new__(cls)
        fc._keep(dims, values, indptr, indices, name_of, vertex_lists, None)
        return fc

    def _keep(self, dims, values, indptr, indices, name_of, vertex_lists, cells):
        self.dims, self.values, self.indptr, self.indices = dims, values, indptr, indices
        self.name_of, self.vertex_lists, self._cells = name_of, vertex_lists, cells
        # the first cell whose id is not its position
        self._misnumbered = next((i for i, c in enumerate(cells or ()) if c.id != i), len(dims))

    @property
    def cells(self) -> tuple[Cell, ...]:
        if self._cells is None:
            self._cells = self._build_cells()
        return self._cells

    def _build_cells(self) -> tuple[Cell, ...]:
        ptr, flat, ids = self.indptr.tolist(), self.indices.tolist(), range(len(self))
        return tuple(map(Cell, ids, self.dims.tolist(), self.values.tolist(),
                         [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])],
                         self.vertex_lists or repeat(None),
                         map(self.name_of, ids) if self.name_of else repeat(None)))

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.cells)

    def label(self, j: int) -> str:
        """Cell j's name, or its id when it has none."""
        name = self.name_of(j) if self.name_of else None
        return str(j) if name is None else name

    @property
    def max_dim(self) -> int:
        return int(self.dims.max()) if len(self) else -1

    def validate(self) -> None:
        """Raise ComplexError at the first offending cell in id order.  Array
        masks find it, and `_fault` reads that one cell to name the rule it
        breaks, so no cell is built.  A face then enters no later than its
        cell, since values do not decrease."""
        j = min(self._misnumbered, self._first_fault())
        if j < len(self):
            raise self._fault(j)

    def _fault(self, j: int) -> ComplexError:
        """The first rule that cell j, found by the masks, breaks: id, dim,
        finite value, (value, dim) order, faces, else boundary of boundary."""
        if j == self._misnumbered:
            cid = self._cells[j].id
            return ComplexError(f"id {cid} out of declaration order", cid)
        dim, last_dim = self.dims[[j, j - 1]].tolist()  # cell j - 1 is read only if j > 0
        if dim < 0:
            return ComplexError("negative dimension", j)
        value, last = self.values[[j, j - 1]].tolist()  # Python scalars: an int stays an int
        if not -math.inf < value < math.inf:
            return ComplexError(f"value {value} is not finite", j)
        if j and (value, dim) < (last, last_dim):
            return ComplexError(f"ordering violation: value {value} dim {dim} after "
                                f"value {last} dim {last_dim}", j)
        return self._face_fault(j) or ComplexError("boundary of boundary is nonzero", j)

    def _face_fault(self, j: int) -> Optional[ComplexError]:
        """The first face of cell j, in row order, that is not declared
        before it, above the face before it and one dimension down, if any."""
        dims, prev = self.dims, -1
        for f in self.indices[self.indptr[j]:self.indptr[j + 1]].tolist():
            if not 0 <= f < j:
                return ComplexError(f"face {f} not previously declared", j)
            if f <= prev:
                return ComplexError(f"repeated face {f}" if f == prev else
                                    f"face {f} listed after face {prev}", j)
            if dims[f] != dims[j] - 1:
                return ComplexError(f"face {f} has dim {dims[f]}, expected {dims[j] - 1}", j)
            prev = f
        return None

    def _misplaced_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell of each CSR entry, and whether its face is outside [0,
        cell) or not one dimension down."""
        dims, indices, owner = self.dims, self.indices, _owners(self.indptr)
        wrong = (indices < 0) | (indices >= owner)
        return owner, wrong | (dims[np.where(wrong, 0, indices)] != dims[owner] - 1)

    def _first_fault(self) -> int:
        """The lowest id at which an array mask finds a broken rule, or n."""
        dims, indptr, indices = self.dims, self.indptr, self.indices
        values, n = np.asarray(self.values, dtype=float), len(dims)
        bad = (dims < 0) | ~np.isfinite(values)
        step, tie = values[1:] < values[:-1], values[1:] == values[:-1]
        bad[1:] |= step | (tie & (dims[1:] < dims[:-1]))
        owner, wrong = self._misplaced_faces()
        safe = np.where(wrong, 0, indices)
        # a face repeated, or out of order, within its row
        wrong[1:] |= (owner[1:] == owner[:-1]) & (indices[1:] <= indices[:-1])
        bad[owner[wrong]] = True
        first = int(np.argmax(bad)) if bad.any() else n
        # Boundary of boundary below `first`, where all faces are in range,
        # a block of cells at a time: the keys (cell, face of a face) must
        # pair up once sorted.
        counts = np.diff(indptr)
        below = _indptr(counts[safe])[indptr]  # face-of-face entries before each cell
        lo = 0
        while lo < first:
            hi = int(np.searchsorted(below, below[lo] + _BLOCK, "right")) - 1
            hi = min(first, max(lo + 1, hi))
            faces = indices[indptr[lo]:indptr[hi]]
            keys = np.repeat(owner[indptr[lo]:indptr[hi]] - lo, counts[faces]) * n
            keys = np.sort(keys + indices[_gather(indptr[faces], counts[faces])])
            if len(keys) % 2:
                keys = np.append(keys, keys[-1] + 1)
            odd = np.flatnonzero(keys[0::2] != keys[1::2])
            if len(odd):
                return lo + int(keys[2 * odd[0]] // n)
            lo = hi
        return first

    def sublevel(self, a: float) -> "FilteredComplex":
        """Subcomplex of cells with value <= a (a prefix, by the ordering)."""
        k, vl = int(np.count_nonzero(self.values <= a)), self.vertex_lists
        return FilteredComplex.from_arrays(self.dims[:k], self.values[:k], self.indptr[:k + 1],
                                           self.indices[:self.indptr[k]], self.name_of,
                                           vl and vl[:k])

    def euler_characteristic(self) -> int:
        return len(self) - 2 * int(np.count_nonzero(self.dims % 2))

    def num_cells(self, k: int) -> int:
        return int(np.count_nonzero(self.dims == k))

    def critical_values(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.values.tolist())))


# ---------------------------------------------------------------------------
# the simplex builder shared by Rips and SPX


def simplicial_filtration(simplices: Sequence[np.ndarray], faces: Sequence[np.ndarray],
                          values: Sequence[np.ndarray], labels: Sequence[str]) -> FilteredComplex:
    """The filtered complex of a simplicial complex given by dimension.

    simplices[k] is an (m_k, k+1) integer array of vertex indices, each
    row increasing and the rows in lexicographic order; simplices[0] is
    the column 0..n-1 with n = len(labels).  faces[k][r, i] is the row in
    simplices[k-1] of row r's face without its vertex i, as the caller
    found it; faces[0] is not read.  values[k] holds the rows' entry
    values, which must not decrease from face to coface.  Cells are
    numbered by (value, dim, vertex tuple); a cell is named by its vertex
    labels joined by '-', on first use, and its boundary is its one record
    of its vertices.
    """
    n = len(labels)
    if len(simplices) and not np.array_equal(simplices[0][:, 0], np.arange(n)):
        raise ValueError("simplices[0] must list the vertices 0..n-1")
    for k, s in enumerate(simplices):
        if s.ndim != 2 or s.shape[1] != k + 1 or len(values[k]) != len(s):
            raise ValueError(f"simplices[{k}] must be an (m, {k + 1}) array with m values")
    # The rows are laid out by (dim, lexicographic row), dimension k's from start[k].
    start = np.cumsum([0] + [len(s) for s in simplices])
    dims = np.repeat(np.arange(len(simplices), dtype=np.int64), np.diff(start))
    rows = np.repeat(np.arange(start[-1]), np.where(dims > 0, dims + 1, 0))

    def name_of(r):
        k = dims[r]
        return "-".join(map(labels.__getitem__, simplices[k][r - start[k]].tolist()))

    return _reorder(dims, np.concatenate([np.empty(0), *values], dtype=float), rows,
                    np.concatenate([np.empty(0, np.int64)] + [
                        start[k - 1] + faces[k].ravel() for k in range(1, len(simplices))]),
                    name_of)[0]


def _reorder(dims: np.ndarray, values: np.ndarray, rows: np.ndarray, faces: np.ndarray,
             name_of: Optional[Callable], vertex_lists: Optional[list] = None
             ) -> tuple[FilteredComplex, np.ndarray]:
    """Number provisional rows as a filtration.

    Row r has dimension dims[r] and enters at values[r]; entry e makes row
    faces[e] a face of row rows[e].  Rows are numbered by (value, dim, row
    index), faces and vertex lists are remapped and sorted, names are read
    by row, and the new id of every row is returned with the complex.
    """
    if (values != values).any():
        raise ComplexError("NaN entry value")
    order = np.lexsort((dims, values))
    n = len(order)
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n)
    keys = new_id[rows]  # cell * n + face, sorted in place, then mod n: the faces by cell
    keys *= n
    keys += new_id[faces]
    keys.sort()
    keys %= max(n, 1)
    if vertex_lists is not None:
        remap = new_id.tolist().__getitem__
        vertex_lists = [None if v is None else tuple(sorted(map(remap, v)))
                        for v in map(vertex_lists.__getitem__, order.tolist())]
    fc = FilteredComplex.from_arrays(
        dims[order], values[order], _indptr(np.bincount(rows, minlength=n)[order]), keys,
        None if name_of is None else (lambda j: name_of(int(order[j]))), vertex_lists)
    return fc, new_id


def _star_values(skeleton: FilteredComplex, f: VertexFunction) -> tuple[np.ndarray, np.ndarray]:
    """Minimum and maximum of f over each cell's vertices, by cell id: a
    cell with its own vertex list reads it, a vertex reads itself, and any
    other cell combines its faces' entries, a dimension at a time.  So its
    faces must come before it, one dimension down, and a vertex list may
    name only 0-cells; the first cell in id order that breaks this, has no
    vertices or has a vertex without a value is named."""
    dims, indptr, indices = skeleton.dims, skeleton.indptr, skeleton.indices
    n = len(dims)
    counts = np.diff(indptr)
    own = skeleton.vertex_lists
    combine = dims != 0
    if own is not None:
        combine &= np.fromiter((v is None for v in own), bool, n)
    owner, wrong = skeleton._misplaced_faces()
    fault = combine & (counts == 0)
    fault[owner[wrong & combine[owner]]] = True
    if own is not None:
        vertices = set(np.flatnonzero(dims == 0).tolist())
        fault |= np.fromiter((v is not None and not (v and vertices.issuperset(v))
                              for v in own), bool, n)
    first = int(np.argmax(fault)) if fault.any() else n
    reads = np.flatnonzero(~combine[:first])
    lows, highs = [], []
    for j in reads.tolist():
        vals = [f(v) for v in (own[j] if own and own[j] is not None else (j,))]
        lows.append(min(vals))
        highs.append(max(vals))
    if first < n:
        raise _star_fault(skeleton, first)
    dtype = float if all(type(x) is float for x in chain(lows, highs)) else object
    out = np.empty(n, dtype), np.empty(n, dtype)
    out[0][reads], out[1][reads] = lows, highs
    for k in sorted(set(dims[combine].tolist())):
        sel = np.flatnonzero(combine & (dims == k))
        at = indices[_gather(indptr[sel], counts[sel])]
        starts = _indptr(counts[sel])[:-1]
        out[0][sel] = np.minimum.reduceat(out[0][at], starts)
        out[1][sel] = np.maximum.reduceat(out[1][at], starts)
    return out


def _star_fault(skeleton: FilteredComplex, j: int) -> ComplexError:
    """Why cell j's star values cannot be read: its vertex list, or `validate`'s face rule."""
    own = skeleton.vertex_lists[j] if skeleton.vertex_lists else None
    dims = skeleton.dims
    if own:
        v = next(v for v in own if not (0 <= v < len(dims) and dims[v] == 0))
        return ComplexError(f"vertex {v} is not a vertex of the complex", j)
    if own is not None or skeleton.indptr[j] == skeleton.indptr[j + 1]:
        return ComplexError("cell has no vertices in its closure", j)
    return skeleton._face_fault(j)


def lower_star(skeleton: FilteredComplex, f: VertexFunction) -> FilteredComplex:
    """Sublevel filtration of a vertex function: each cell enters at the
    maximum of f over its vertices."""
    fc, _ = _reorder(skeleton.dims, _star_values(skeleton, f)[1], _owners(skeleton.indptr),
                     skeleton.indices, skeleton.name_of, skeleton.vertex_lists)
    fc.validate()
    return fc


# ---------------------------------------------------------------------------
# built-in generators


def ng_cw(g: int) -> FilteredComplex:
    """CW structure on the non-orientable genus-g surface: one vertex,
    g one-cells, one two-cell, all mod-2 boundary maps zero."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    cells = [Cell(0, 0, 0.0, name="v")]
    for i in range(g):
        cells.append(Cell(1 + i, 1, 0.0, vertices=(0,), name=f"a{i}"))
    cells.append(Cell(1 + g, 2, 0.0, vertices=(0,), name="F"))
    return FilteredComplex(cells)


def klein_delta() -> FilteredComplex:
    """Delta-complex Klein bottle: one vertex, edges a,b,c, triangles U,L
    with boundary a+b+c each; edge boundaries vanish mod 2."""
    return FilteredComplex(
        [
            Cell(0, 0, 0.0, name="v"),
            Cell(1, 1, 0.0, vertices=(0,), name="a"),
            Cell(2, 1, 0.0, vertices=(0,), name="b"),
            Cell(3, 1, 0.0, vertices=(0,), name="c"),
            Cell(4, 2, 0.0, boundary=(1, 2, 3), vertices=(0,), name="U"),
            Cell(5, 2, 0.0, boundary=(1, 2, 3), vertices=(0,), name="L"),
        ]
    )


def torus_delta() -> FilteredComplex:
    """Delta-complex torus; over Z/2 its chain complex coincides with the
    Klein bottle's (orientation signs vanish), cell for cell."""
    return klein_delta()


def klein_height_skeleton(M: float, A: float) -> tuple[FilteredComplex, VertexFunction]:
    """Klein bottle with a height function: vertices at heights -M, -A, M.

    A homology-level CW model of the immersed bottle: sublevel sets run
    point -> circle (extra loop at height -A) -> closed bottle at M, and
    the superlevel sets seen by the descending phase are a disk-like cap
    carrying the one-cycle born at M.
    """
    if not (0 < A < M):
        raise ValueError("need 0 < A < M")
    cells = [
        Cell(0, 0, 0.0, name="v0"),
        Cell(1, 0, 0.0, name="v1"),
        Cell(2, 0, 0.0, name="v2"),
        Cell(3, 1, 0.0, boundary=(0, 1), vertices=(0, 1), name="p"),
        Cell(4, 1, 0.0, vertices=(1,), name="a"),
        Cell(5, 1, 0.0, boundary=(1, 2), vertices=(1, 2), name="q"),
        Cell(6, 1, 0.0, vertices=(2,), name="b"),
        Cell(7, 1, 0.0, boundary=(1, 2), vertices=(1, 2), name="c"),
        Cell(8, 2, 0.0, boundary=(4, 5, 6, 7), vertices=(1, 2), name="U"),
        Cell(9, 2, 0.0, boundary=(4, 5, 6, 7), vertices=(0, 1, 2), name="L"),
    ]
    f = VertexFunction({0: -M, 1: -A, 2: M})
    return FilteredComplex(cells), f


def klein_height(M: float, A: float) -> FilteredComplex:
    """Height filtration of the Klein bottle model (lower-star of the
    height function)."""
    skeleton, f = klein_height_skeleton(M, A)
    return lower_star(skeleton, f)


def torus_height_skeleton(M: float, A: float) -> tuple[FilteredComplex, VertexFunction]:
    """Vertical torus with heights -M, -A, A, M: the hole opens at -A and
    closes at A; sublevels run point -> circle -> two circles -> torus."""
    if not (0 < A < M):
        raise ValueError("need 0 < A < M")
    cells = [
        Cell(0, 0, 0.0, name="w0"),
        Cell(1, 0, 0.0, name="w1"),
        Cell(2, 0, 0.0, name="w2"),
        Cell(3, 0, 0.0, name="w3"),
        Cell(4, 1, 0.0, boundary=(0, 1), vertices=(0, 1), name="p01"),
        Cell(5, 1, 0.0, vertices=(1,), name="alpha"),
        Cell(6, 1, 0.0, boundary=(1, 2), vertices=(1, 2), name="p12"),
        Cell(7, 1, 0.0, vertices=(2,), name="beta"),
        Cell(8, 1, 0.0, boundary=(2, 3), vertices=(2, 3), name="p23"),
        Cell(9, 2, 0.0, vertices=(0, 1, 2, 3), name="T"),
    ]
    f = VertexFunction({0: -M, 1: -A, 2: A, 3: M})
    return FilteredComplex(cells), f


# ---------------------------------------------------------------------------
# text formats


def write_fcx(fc: FilteredComplex) -> str:
    """FCX v1: one `cell <id> <dim> <value> [<face>...]` line per cell."""
    lines = []
    for c in fc.cells:
        parts = ["cell", str(c.id), str(c.dim), format_value(c.value)]
        parts.extend(str(f) for f in c.boundary)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# An SPX simplex of w vertices closes to 2^w - 1 cells, 65,535 at this limit.
_MAX_VERTICES = 16


def parse_fcx(text: str) -> FilteredComplex:
    cells = []
    for lineno, line in text_lines(text):
        parts = line.split()
        if parts[0] != "cell" or len(parts) < 4:
            raise ComplexError(f"line {lineno}: expected `cell <id> <dim> <value> ...`")
        try:
            cid, dim = int(parts[1]), int(parts[2])
            value = float(parts[3])
            faces = tuple(int(p) for p in parts[4:])
        except ValueError:
            raise ComplexError(f"line {lineno}: malformed number") from None
        if min(cid, dim, *faces) < 0 or max(cid, dim, *faces) > _INT64_MAX:
            raise ComplexError(
                f"line {lineno}: ids, dimensions and faces must be nonnegative 64-bit integers")
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")
        if len(set(faces)) != len(faces):
            raise ComplexError(f"line {lineno}: repeated face id")
        cells.append(Cell(cid, dim, value, boundary=faces))
    fc = FilteredComplex(cells)
    fc.validate()
    return fc


def _close_simplices(labels: np.ndarray, widths: np.ndarray, values: np.ndarray,
                     vertex_values: Optional[dict] = None) -> FilteredComplex:
    """The filtered complex of valued simplices and their faces: simplex i
    is the next widths[i] of `labels`, increasing, at values[i].  A simplex
    takes its smallest value over repeats and cofaces, or with
    vertex_values the maximum of the function over its vertices."""
    starts, top = _indptr(widths)[:-1], int(widths.max())
    rows, vals, faces = [None] * top, [None] * top, [None] * top
    for w in range(top, 0, -1):
        sel = np.flatnonzero(widths == w)
        r, v = labels[_gather(starts[sel], widths[sel])].reshape(-1, w), values[sel]
        if w < top:  # with the faces of the simplices above, each missing a vertex
            drop = [[j for j in range(w + 1) if j != i] for i in range(w + 1)]
            r = np.concatenate([r, rows[w][:, drop].reshape(-1, w)])
            v = np.concatenate([v, np.repeat(vals[w], w + 1)])
        order = np.lexsort((v, *r.T[::-1]))  # by (row, value): a run's first is its minimum
        r, v = r[order], v[order]
        first = np.append(True, (r[1:] != r[:-1]).any(axis=1))
        rows[w - 1], vals[w - 1] = r[first], v[first]
        if w < top:  # each generated face's row: the run it was sorted into
            run = np.empty(len(order), dtype=np.int64)
            run[order] = np.cumsum(first) - 1
            faces[w] = run[len(sel):].reshape(-1, w + 1)
    # Vertex labels become their ranks 0..n-1, which keeps their order.
    vertices = rows[0][:, 0]
    rows = [np.searchsorted(vertices, r) for r in rows]
    labels = vertices.tolist()
    if vertex_values is not None:
        try:
            f = np.array([vertex_values[v] for v in labels], dtype=float)
        except KeyError as e:
            raise ComplexError(f"vertex {e.args[0]} has no function value") from None
        bad = np.flatnonzero(~np.isfinite(f))
        if len(bad):
            raise ComplexError(f"vertex {labels[bad[0]]} has a non-finite function value")
        vals = [f[r].max(axis=1) for r in rows]
    fc = simplicial_filtration(rows, faces, vals, [str(v) for v in labels])
    fc.validate()
    return fc


def parse_spx(text: str, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """SPX v1: one `<value> <v1> ... <vk>` top simplex per line; in vertexfn
    mode lines hold bare vertex lists and values come from vertex_values.
    Array masks look for faults, and a walk from the top names the first."""
    lines = text_lines(text)
    if not lines:
        raise ComplexError("no simplices in input")
    parts = [line.split() for _, line in lines]
    lead, n = int(vertex_values is None), len(parts)  # a valued line's value comes first
    try:  # and is popped off, leaving the vertex list
        values = np.fromiter(map(float, [p.pop(0) for p in parts]), float, n) if lead \
            else np.zeros(n)
        labels = np.fromiter(map(int, chain.from_iterable(parts)), np.int64)
    except (ValueError, OverflowError):
        pass
    else:
        widths = np.fromiter(map(len, parts), np.int64, n)
        owner = np.repeat(np.arange(n), widths)
        labels = labels[np.lexsort((labels, owner))]  # increasing within each line
        bad = (widths < 1) | (widths > _MAX_VERTICES) | ~np.isfinite(values)
        bad[owner[1:][(labels[1:] == labels[:-1]) & (owner[1:] == owner[:-1])]] = True
        if not bad.any():
            return _close_simplices(labels, widths, values, vertex_values)
    for lineno, line in lines:
        parts = line.split()
        try:
            value = float(parts[0]) if lead else 0.0
            verts = sorted(map(int, parts[lead:]))
        except ValueError:
            raise ComplexError(f"line {lineno}: malformed simplex line") from None
        if not verts or len(set(verts)) != len(verts):
            raise ComplexError(f"line {lineno}: bad vertex list")
        if verts[0] < _INT64_MIN or verts[-1] > _INT64_MAX:
            raise ComplexError(f"line {lineno}: vertex id out of range")
        if len(verts) > _MAX_VERTICES:
            raise ComplexError(f"line {lineno}: simplex has {len(verts)} vertices, "
                               f"above the limit of {_MAX_VERTICES}")
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")


def parse_vertex_values(text: str) -> dict:
    """`<vertex-id> <value>` lines."""
    out: dict[int, float] = {}
    for lineno, line in text_lines(text):
        try:
            vertex, value = line.split()  # exactly two fields
            vertex, value = int(vertex), float(value)
        except ValueError:
            raise ComplexError(f"line {lineno}: expected `<vertex-id> <value>`") from None
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")
        if vertex in out:
            raise ComplexError(f"line {lineno}: repeated vertex id {vertex}")
        out[vertex] = value
    return out
