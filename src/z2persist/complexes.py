"""Filtered cell complexes with explicit mod-2 boundaries.

Cells carry a dimension, a filtration value and the set of (dim-1)-cells
appearing in their boundary with odd degree.  The boundary is the one
record of a cell's vertices; a CW cell whose mod-2 boundary cannot say
them (a loop, a disk glued along loops) carries its own vertex list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .text import ComplexError, as_float, format_value, text_lines, uncommented  # re-exported


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
    """Real values on vertex ids, held as Python floats: f enters here, converted by one
    `map(float, ...)` (an int past the floats names its vertex), so every complex built from
    it is float64.  The bound M belongs to `extended.BifiltrationSpec`."""

    values: dict

    def __post_init__(self):
        try:
            values = dict(zip(self.values, map(float, self.values.values())))
        except OverflowError:
            values = {v: as_float(x, f"vertex {v} has a value beyond the float range")
                      for v, x in self.values.items()}
        object.__setattr__(self, "values", values)

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


def _sort_keys(keys: np.ndarray, bound: int) -> np.ndarray:
    """Sort int64 `keys` in [0, bound) in their buffer, as int32 (faster) if bound <= 2^31."""
    small = keys.astype(np.int32) if bound <= 1 << 31 else keys
    small.sort()
    keys[:] = small  # a no-op when small is keys
    return keys


def _by_major(major: np.ndarray, minor: np.ndarray, n: int) -> np.ndarray:
    """`minor` sorted by (major, minor), ids in [0, n): one `_sort_keys` of major << b | minor
    in major, as int32 while 2b <= 31, that is n <= 32768."""
    b = max(n - 1, 0).bit_length()
    major <<= b
    major |= minor
    _sort_keys(major, 1 << 2 * b)
    major &= (1 << b) - 1
    return major


def _gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions starts[i], ..., starts[i] + counts[i] - 1, run after run."""
    out = (starts - counts.cumsum() + counts).repeat(counts)
    out += np.arange(len(out))
    return out


# `validate` walks blocks of at most this many cells and entries, then face-of-face entries:
# 64 KiB an int64 array, under glibc's 128 KiB mmap threshold, so none faults in fresh pages.
_BLOCK = 1 << 13


class FilteredComplex:
    """Ordered cells forming a filtration: faces precede cofaces, values
    monotone along boundaries, ties broken by (value, dim, id).

    A complex is its arrays, converted where they enter: `dims` int64, `values` float64
    and the boundaries in CSR form, int64 `indptr` and `indices`, the faces of cell j being
    `indices[indptr[j]:indptr[j + 1]]`, sorted.  `name_of(ids)` lists the names of the
    cells of an int64 id array, None for a cell without one, and `vertex_lists[j]` is a
    CW cell's own vertex list or None; either is None when no cell has one.  A cell's id
    is its position, so `cells` is built from the arrays when first read.
    """

    def __init__(self, cells: Iterable[Cell]):
        """Convert the cells once, as lists for `_keep`: ComplexError if a cell's id is not its
        position, or an id (an int past int64 too) is not safely int64; `validate` does the rest."""
        cells = tuple(cells)
        for i, c in enumerate(cells):
            if c.id != i:
                raise ComplexError(f"id {c.id} out of declaration order", c.id)
        counts = np.fromiter(map(len, (c.boundary for c in cells)), np.int64, len(cells))
        names, vertex_lists = [c.name for c in cells], [c.vertices for c in cells]
        self._keep([c.dim for c in cells], [c.value for c in cells], _indptr(counts),
                   [*chain.from_iterable(c.boundary for c in cells)],
                   (lambda ids: [*map(names.__getitem__, ids.tolist())])
                   if any(x is not None for x in names) else None,
                   vertex_lists if any(v is not None for v in vertex_lists) else None)

    @classmethod
    def from_arrays(cls, dims: np.ndarray, values: np.ndarray, indptr: np.ndarray,
                    indices: np.ndarray, name_of: Optional[Callable] = None,
                    vertex_lists: Optional[list] = None) -> "FilteredComplex":
        """The complex these arrays describe, kept as they are but for int64 ids and
        float64 values; ComplexError if an id array is not safely int64 or they do not fit."""
        fc = cls.__new__(cls)
        fc._keep(dims, values, indptr, indices, name_of, vertex_lists)
        return fc

    def _keep(self, dims, values, indptr, indices, name_of, vertex_lists):
        values = np.asarray(values)
        if values.dtype == object:  # an int past int64 makes them: name the first past the floats
            values = [as_float(x, "value is beyond the float range", j) if isinstance(x, int)
                      else x for j, x in enumerate(values)]
        try:  # native int64 whatever integer dtype, byte order or stride they come in
            dims, indptr, indices = [  # an empty one holds no id: numpy reads [] as float64
                a.astype(np.int64, casting="safe" if a.size else "unsafe", copy=False)
                for a in map(np.asarray, (dims, indptr, indices))]
        except TypeError:  # a float array, or a uint64 one whose ids could wrap
            raise ComplexError("dims, indptr and indices must be integer arrays that cast"
                               " safely to int64") from None
        values, n = np.asarray(values, float), dims.size
        if ((dims.ndim, indices.ndim, values.shape, indptr.shape) != (1, 1, (n,), (n + 1,))
                or indptr[0] or indptr[-1] != indices.size or (indptr[1:] < indptr[:-1]).any()
                or vertex_lists is not None and len(vertex_lists) != n):
            raise ComplexError(f"the arrays do not fit together: 1-D dims and indices, {n} values"
                               f" and {n + 1} indptr entries from 0 to len(indices) are needed,"
                               f" and {n} vertex lists if any")
        self.dims, self.values, self.indptr, self.indices = dims, values, indptr, indices
        self.name_of, self.vertex_lists = name_of, vertex_lists

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        ptr, flat, ids = self.indptr.tolist(), self.indices.tolist(), range(len(self))
        return tuple(map(Cell, ids, self.dims.tolist(), self.values.tolist(),
                         [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])],
                         self.vertex_lists or repeat(None),
                         self.name_of(np.arange(len(self))) if self.name_of else repeat(None)))

    def __len__(self) -> int:
        return len(self.dims)

    def labels(self, ids: np.ndarray) -> list[str]:
        """The name of each cell of an int64 id array, or its id when it has none."""
        if len(ids) and not 0 <= ids.min() <= ids.max() < len(self):  # numpy would wrap -1
            raise IndexError(f"cell ids must lie in [0, {len(self)})")
        names = self.name_of(ids) if self.name_of else repeat(None)
        return [str(j) if x is None else x for j, x in zip(ids.tolist(), names)]

    @property
    def max_dim(self) -> int:
        return int(self.dims.max()) if len(self) else -1

    def validate(self) -> None:
        """Raise ComplexError at the first offending cell in id order, naming the first rule
        it breaks.  One walk over blocks of `_BLOCK` cells and entries, each rule one mask:
        per cell `negative` dim, `infinite` value and `disorder`, (value, dim) below the cell
        before; per entry `outside` [0, cell), `unsorted`, not above the entry before it in
        its row, and a dim not one down.  OR-ed, they find a block's first bad cell, below
        which (cell, face of a face) keys, sorted by `_sort_keys` (as int32 while a sub-block's
        cells times n fit), must pair up (boundary of boundary is zero); then they name its
        rule, cell rules first, then its row's first faulty entry.  A few 64 KiB arrays are
        held, no cell is built; ids are checked where they are written."""
        dims, values, indptr, indices = self.dims, self.values, self.indptr, self.indices
        n, lo = len(dims), 0
        while lo < n:
            hi = int(indptr.searchsorted(indptr[lo] + _BLOCK, "right")) - 1
            hi = min(n, lo + _BLOCK, max(lo + 1, hi))
            s = lo or 1  # cells s.. against the cells before them
            negative, infinite = dims[lo:hi] < 0, ~np.isfinite(values[lo:hi])
            disorder = values[s:hi] < values[s - 1:hi - 1]
            disorder |= (values[s:hi] == values[s - 1:hi - 1]) & (dims[s:hi] < dims[s - 1:hi - 1])
            bad = negative | infinite
            bad[s - lo:] |= disorder
            rows = indices[indptr[lo]:indptr[hi]]
            owner = np.arange(lo, hi).repeat(indptr[lo + 1:hi + 1] - indptr[lo:hi])
            outside = (rows < 0) | (rows >= owner)
            unsorted = (owner[1:] == owner[:-1]) & (rows[1:] <= rows[:-1])  # entry e at e - 1
            wrong = dims[np.where(outside, 0, rows)] != dims[owner] - 1
            wrong |= outside
            wrong[1:] |= unsorted
            bad[owner[wrong] - lo] = True
            first = lo + int(bad.argmax()) if bad.any() else hi
            # boundary of boundary below the first bad cell: (cell, face of a face) keys pair up
            faces = rows[:indptr[first] - indptr[lo]]
            counts = indptr[faces + 1] - indptr[faces]
            below = _indptr(counts)[indptr[lo:first + 1] - indptr[lo]]  # before each cell
            a = lo
            while a < first:
                b = lo + int(below.searchsorted(below[a - lo] + _BLOCK, "right")) - 1
                b = min(first, max(a + 1, b))
                at = slice(indptr[a] - indptr[lo], indptr[b] - indptr[lo])
                keys = indices[_gather(indptr[faces[at]], counts[at])]
                keys += (owner[at] - a).repeat(counts[at]) * n
                _sort_keys(keys, (b - a) * n)
                if len(keys) % 2:
                    keys = np.append(keys, keys[-1] + 1)
                odd = keys[0::2] != keys[1::2]
                if odd.any():
                    raise ComplexError("boundary of boundary is nonzero",
                                       a + int(keys[2 * odd.argmax()] // n))
                a = b
            if first < hi:
                j, dim, value = first, dims[first].item(), values[first].item()
                if negative[j - lo]:
                    raise ComplexError("negative dimension", j)
                if infinite[j - lo]:
                    raise ComplexError(f"value {value} is not finite", j)
                if j and disorder[j - s]:
                    raise ComplexError(f"ordering violation: value {value} dim {dim} after value"
                                       f" {values[j - 1].item()} dim {dims[j - 1].item()}", j)
                e = int(wrong.argmax())  # in row j, as no cell before it has a faulty entry
                f = rows[e].item()
                if outside[e]:
                    raise ComplexError(f"face {f} not previously declared", j)
                if e and unsorted[e - 1]:
                    raise ComplexError(f"repeated face {f}" if f == rows[e - 1] else
                                       f"face {f} listed after face {rows[e - 1]}", j)
                raise ComplexError(f"face {f} has dim {dims[f]}, expected {dim - 1}", j)
            lo = hi

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
    labels joined by '-' when read, and its boundary is its one record of its vertices.
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
    labels = np.asarray(labels, object)

    def name_of(ids):  # a dimension at a time, its rows' labels gathered by numpy
        of, out = dims[ids], np.empty(len(ids), object)
        for k in np.flatnonzero(np.bincount(of)).tolist():
            at = of == k
            out[at] = [*map("-".join, labels[simplices[k][ids[at] - start[k]]].tolist())]
        return out.tolist()

    return _reorder(dims, np.concatenate([np.empty(0), *values], dtype=float), rows,
                    np.concatenate([np.empty(0, np.int64)] + [
                        start[k - 1] + faces[k].ravel() for k in range(1, len(simplices))]),
                    name_of)[0]


def _reorder(dims: np.ndarray, values: np.ndarray, rows: np.ndarray, faces: np.ndarray,
             name_of: Optional[Callable], vertex_lists: Optional[list] = None
             ) -> tuple[FilteredComplex, np.ndarray]:
    """Number provisional rows as a filtration.

    Row r has dimension dims[r] and enters at values[r]; entry e makes row faces[e] a face of
    row rows[e].  Rows are numbered by (value, dim, row index), `np.lexsort`'s order, from one
    unstable argsort of the values and one `_sort_keys` of packed (run of equal values, dim,
    row) keys, dims ranked if one passes n; faces and vertex lists are remapped and sorted,
    names are read by row, and each row's new id is returned with the complex.  `rows`, a
    fresh int64 array, is counted, then overwritten by new ids that `_by_major` sorts into
    `indices`; `faces` is only read.
    """
    if (values != values).any():
        raise ComplexError("NaN entry value")
    order, n, top = np.argsort(values), len(dims), int(dims.max(initial=0)) + 1
    tie, top = (dims, top) if top <= n else (np.unique(dims, return_inverse=True)[1], n)
    keys = tie[order] * n + order  # plus the run of equal values (-0.0 == 0.0, inf == inf):
    keys[1:] += np.cumsum(values[order[1:]] != values[order[:-1]]) * (top * n)
    np.remainder(_sort_keys(keys, int(keys.max(initial=0)) + 1), n, out=order)
    new_id, counts = keys, np.bincount(rows, minlength=n)[order]  # keys' buffer reused
    new_id[order] = np.arange(n)
    # `clip` (rows are in range) writes in place: `raise` would buffer a copy of the output
    keys = _by_major(np.take(new_id, rows, out=rows, mode="clip"), new_id[faces], n)
    if vertex_lists is not None:
        remap = new_id.tolist().__getitem__
        vertex_lists = [None if v is None else tuple(sorted(map(remap, v)))
                        for v in map(vertex_lists.__getitem__, order.tolist())]
    fc = FilteredComplex.from_arrays(
        dims[order], values[order], _indptr(counts), keys,
        None if name_of is None else (lambda ids: name_of(order[ids])), vertex_lists)
    return fc, new_id


def _star_values(skeleton: FilteredComplex, f: VertexFunction) -> np.ndarray:
    """Min and max of f over each cell's vertices, the rows of a (2, n) array
    by cell id: a cell with its own vertex list reads it, the other vertices are read at
    once, each its value in both rows, and any other cell combines its faces' entries, a
    dimension at a time.  So the skeleton must pass `validate`, which the callers run
    first; a vertex list may name only 0-cells, and the first cell in id order that breaks
    this or has no vertices is named, once the vertices before it have been read."""
    dims, indptr, indices = skeleton.dims, skeleton.indptr, skeleton.indices
    n, counts = len(dims), np.diff(indptr)
    own = skeleton.vertex_lists
    listed = np.fromiter((v is not None for v in own), bool, n) if own else np.zeros(n, bool)
    combine = (dims != 0) & ~listed
    fault = combine & (counts == 0)
    if own is not None:
        vertices = set(np.flatnonzero(dims == 0).tolist())
        fault |= np.fromiter((v is not None and not (v and vertices.issuperset(v))
                              for v in own), bool, n)
    first = int(np.argmax(fault)) if fault.any() else n
    plain, reads = (np.flatnonzero(m[:first]) for m in ((dims == 0) & ~listed, listed))
    values = np.fromiter(map(f, plain.tolist()), float, len(plain))
    vals = [[*map(f, own[j])] for j in reads.tolist()]
    if first < n:
        bad = [v for v in own and own[first] or () if not (0 <= v < n and dims[v] == 0)]
        raise ComplexError(f"vertex {bad[0]} is not a vertex of the complex" if bad
                           else "cell has no vertices in its closure", first)
    out = np.empty((2, n))
    out[:, plain] = values
    out[:, reads] = [*map(min, vals)], [*map(max, vals)]
    for k in sorted(set(dims[combine].tolist())):
        sel = np.flatnonzero(combine & (dims == k))
        at, starts = indices[_gather(indptr[sel], counts[sel])], _indptr(counts[sel])[:-1]
        out[0, sel] = np.minimum.reduceat(out[0, at], starts)
        out[1, sel] = np.maximum.reduceat(out[1, at], starts)
    return out


def _skeleton_star(skeleton: FilteredComplex, f: VertexFunction, cone: bool) -> np.ndarray:
    """`_star_values` of a skeleton that passes `validate`, with the one rule that
    `_reorder` cannot keep checked in skeleton ids: no face's max of f above its cell's, nor,
    for the cone, its min below.  Only a cell with its own vertex list can break it."""
    skeleton.validate()
    star = _star_values(skeleton, f)
    if skeleton.vertex_lists is not None:
        owner, faces = _owners(skeleton.indptr), skeleton.indices
        above = star[1, faces] > star[1, owner]
        if (bad := above | cone & (star[0, faces] < star[0, owner])).any():
            j, face, r = (int(a[bad.argmax()]) for a in (owner, faces, above))
            raise ComplexError(f"face {face} has {('min', 'max')[r]} f {star[r, face]}, "
                               f"{('below', 'above')[r]} the cell's {star[r, j]}: its "
                               "vertex list leaves out a vertex of the face", j)
    return star


def lower_star(skeleton: FilteredComplex, f: VertexFunction) -> FilteredComplex:
    """Sublevel filtration of a vertex function: each cell enters at the maximum of f over
    its vertices.  The skeleton is validated, not the filtration made from it: `_reorder`
    sorts by (value, dim) and maps faces one to one, and `_skeleton_star` checks the rest."""
    highs = _skeleton_star(skeleton, f, cone=False)[1]
    if (bad := ~np.isfinite(highs)).any():
        raise ComplexError(f"value {highs[bad.argmax()]} is not finite", int(bad.argmax()))
    return _reorder(skeleton.dims, highs, _owners(skeleton.indptr), skeleton.indices,
                    skeleton.name_of, skeleton.vertex_lists)[0]


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
    """FCX v1: one `cell <id> <dim> <value> [<face>...]` line per cell, read from the
    arrays; FCX carries no names and no vertex lists."""
    ptr, flat = fc.indptr.tolist(), fc.indices.tolist()
    lines = [" ".join(["cell", str(j), str(d), format_value(x), *map(str, flat[a:b])])
             for j, d, x, a, b in zip(range(len(fc)), fc.dims.tolist(), fc.values.tolist(),
                                      ptr, ptr[1:])]
    return "\n".join(lines) + "\n"


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# An SPX simplex of w vertices closes to 2^w - 1 cells, 65,535 at this limit.
_MAX_VERTICES = 16
# Most cells a Rips complex may have, about 2.3 GB at ~0.55 KB a cell, and most vertex
# entries an SPX closure may hold, each face counted once for each simplex above it.
_MAX_CELLS = 1 << 22


def parse_fcx(text: str) -> FilteredComplex:
    """FCX v1, line by line into the arrays, each row's faces sorted; every fault names its line."""
    dims, values, ptr, faces = [], [], [0], []
    for lineno, line in text_lines(text):
        parts = line.split()
        if parts[0] != "cell" or len(parts) < 4:
            raise ComplexError(f"line {lineno}: expected `cell <id> <dim> <value> ...`")
        try:
            cid, dim, value = int(parts[1]), int(parts[2]), float(parts[3])
            row = sorted(map(int, parts[4:]))
        except ValueError:
            raise ComplexError(f"line {lineno}: malformed number") from None
        if min(cid, dim, *row) < 0 or max(cid, dim, *row) > _INT64_MAX:
            raise ComplexError(
                f"line {lineno}: ids, dimensions and faces must be nonnegative 64-bit integers")
        if cid != len(dims):
            raise ComplexError(f"line {lineno}: id {cid} out of declaration order, expected "
                               f"{len(dims)}")
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")
        if len(set(row)) != len(row):
            raise ComplexError(f"line {lineno}: repeated face id")
        dims.append(dim), values.append(value), faces.extend(row), ptr.append(ptr[-1] + len(row))
    fc = FilteredComplex.from_arrays(dims, values, ptr, faces)
    try:
        fc.validate()
    except ComplexError as e:  # cell j is on the j-th line with content; `cell_id` stays j
        e.args = (f"line {text_lines(text)[e.cell_id][0]}: {e}",)
        raise
    return fc


def _close_simplices(ranks: np.ndarray, widths: np.ndarray, values: np.ndarray,
                     labels: np.ndarray, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """The filtered complex of valued simplices and their faces: simplex i is the next
    widths[i] of `ranks` (increasing indices into the sorted `labels`, each used) at
    values[i], and takes its smallest value over repeats and cofaces, or with vertex_values
    the maximum of the function over its vertices.  Before making faces that would pass
    `_MAX_CELLS` vertex entries, rows times width, in the rows kept and made, this raises."""
    starts, top, nv = _indptr(widths)[:-1], int(widths.max()), len(labels)
    rows, vals, faces = [None] * top, [None] * top, [None] * (top + 1)  # faces[top] is empty
    for w in range(top, 0, -1):
        sel = np.flatnonzero(widths == w)
        r, v = ranks[_gather(starts[sel], widths[sel])].reshape(-1, w), values[sel]
        if w < top:  # with the faces of the simplices above, each missing a vertex
            if (made := sum(x.size for x in rows[w:]) + (len(sel) + rows[w].size) * w) > _MAX_CELLS:
                raise ComplexError(f"the SPX complex passes {_MAX_CELLS} vertex entries in "
                                   f"dimension {w - 1} ({made} so far)")
            drop = [[j for j in range(w + 1) if j != i] for i in range(w + 1)]
            more = rows[w][:, drop].reshape(-1, w), np.repeat(vals[w], w + 1)
            r, v = (np.vstack([r, more[0]]), np.append(v, more[1])) if len(sel) else more
        # One int64 key a row, its vertices as digits in base nv, ranked before a
        # digit would take it past 2^63; equal rows form a run, each vertex its own.
        keys = r[:, 0]
        for column in r.T[1:]:
            keys = (np.unique(keys, return_inverse=True)[1] if int(keys.max()) >= (1 << 63) // nv
                    else keys) * nv + column
        keys, run = np.unique(keys, return_inverse=True) if w > 1 else (np.arange(nv), keys)
        low = np.full(len(keys), np.inf)
        np.minimum.at(low, run, v)
        hit = np.flatnonzero(v == low[run])  # rows at their run's minimum, 0.0 == -0.0
        pick = np.full(len(keys), len(v))
        np.minimum.at(pick, run[hit], hit)  # the first of them
        rows[w - 1], vals[w - 1], faces[w] = r[pick], v[pick], run[len(sel):].reshape(-1, w + 1)
    labels = labels.tolist()
    if vertex_values is not None:
        f = np.fromiter(map(VertexFunction(vertex_values), labels), float, len(labels))
        if not (finite := np.isfinite(f)).all():
            raise ComplexError(f"vertex {labels[finite.argmin()]} has a non-finite function value")
        vals = [f[r].max(axis=1) for r in rows]
    return simplicial_filtration(rows, faces, vals, [str(v) for v in labels])


def parse_spx(text: str, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """SPX v1: one `<value> <v1> ... <vk>` top simplex per line; in vertexfn mode
    lines hold bare vertex lists and values come from vertex_values.  Tokens
    convert a kind at a time; only one that fails is looked for line by line.  Every fault
    is named by its line here, so the closure, valid by construction, is not walked."""
    parts = [*filter(None, map(str.split, uncommented(text)))]  # the tokens of each line with any
    counts = np.fromiter(map(len, parts), np.int64, len(parts))
    if not len(counts):
        raise ComplexError("no simplices in input")
    tokens, lead = np.fromiter(chain.from_iterable(parts), object), int(vertex_values is None)
    ptr, f, fault = _indptr(counts), len(counts), None
    while True:  # read the lines above f; a valued line's first token is its value
        try:
            values = tokens[ptr[:f]].astype(float) if lead else np.zeros(f)
            labels = np.delete(tokens[:ptr[f]], ptr[:f * lead]).astype(np.int64)
            break
        except (ValueError, OverflowError):  # f becomes the first line with a bad token
            f, fault = next((f, why) for f, p in enumerate(parts) if (why := _token_fault(p, lead)))
    widths = counts[:f] - lead
    labels, rank = np.unique(labels, return_inverse=True)  # ranks, then sorted in each line
    keys = np.sort(np.repeat(np.arange(f) * len(labels), widths) + rank)
    repeats = widths < 1  # no vertex, or one vertex twice
    repeats[keys[1:][keys[1:] == keys[:-1]] // len(labels)] = True
    bad = repeats | (widths > _MAX_VERTICES) | ~np.isfinite(values)
    if bad.any():  # a line above f; its rules go vertex list, then size, then value
        f = int(bad.argmax())
        fault = ("bad vertex list" if repeats[f] else "value must be finite"
                 if widths[f] <= _MAX_VERTICES else
                 f"simplex has {widths[f]} vertices, above the limit of {_MAX_VERTICES}")
    if fault:
        raise ComplexError(f"line {text_lines(text)[f][0]}: {fault}")
    return _close_simplices(keys % len(labels), widths, values, labels, vertex_values)


def _token_fault(parts: list[str], lead: int) -> Optional[str]:
    """The first rule that an SPX line's tokens break in converting, if any."""
    try:
        verts = [*map(int, parts[lead:])]
        if lead:
            float(parts[0])
    except ValueError:
        return "malformed simplex line"
    if not _INT64_MIN <= min(verts, default=0) <= max(verts, default=0) <= _INT64_MAX:
        return "bad vertex list" if len(set(verts)) < len(verts) else "vertex id out of range"
    return None


def parse_vertex_values(text: str) -> dict:
    """`<vertex-id> <value>` lines, converted in one pass; only a text with a fault is
    read line by line, to name the first line that has it."""
    parts = [*filter(None, map(str.split, uncommented(text)))]
    try:  # a line without two fields fails to unpack
        out = {int(vertex): float(value) for vertex, value in parts}
        if len(out) == len(parts) and all(map(math.isfinite, out.values())):
            return out
    except ValueError:
        pass
    out = {}
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
