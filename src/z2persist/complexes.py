"""Filtered cell complexes with explicit mod-2 boundaries.

Cells carry a dimension, a filtration value and the set of (dim-1)-cells
appearing in their boundary with odd degree.  The boundary is the one
record of a cell's vertices; a CW cell whose mod-2 boundary cannot say
them (a loop, a disk glued along loops) carries its own vertex list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class ComplexError(ValueError):
    """Invariant violation, pointing at the first offending cell."""

    def __init__(self, message: str, cell_id: Optional[int] = None):
        super().__init__(message if cell_id is None else f"cell {cell_id}: {message}")
        self.cell_id = cell_id


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


class FilteredComplex:
    """Ordered cells forming a filtration: faces precede cofaces, values
    monotone along boundaries, ties broken by (value, dim, id)."""

    def __init__(self, cells: Iterable[Cell]):
        self.cells: tuple[Cell, ...] = tuple(cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def max_dim(self) -> int:
        return max((c.dim for c in self.cells), default=-1)

    def validate(self) -> None:
        """Raise ComplexError at the first offending cell in id order: one
        walk checks each cell against the cells before it (its id, dimension,
        finite value and (value, dim) order; each face distinct, declared
        earlier and one dimension down; boundary of boundary 0).  A face
        then enters no later than its cell, since values do not decrease."""
        cells, inf = self.cells, math.inf
        last_value, last_dim = -inf, -1
        for cid, c in enumerate(cells):
            dim, value, boundary = c.dim, c.value, c.boundary
            if c.id != cid:
                raise ComplexError(f"id {c.id} out of declaration order", c.id)
            if dim < 0:
                raise ComplexError("negative dimension", cid)
            if not -inf < value < inf:
                raise ComplexError(f"value {value} is not finite", cid)
            if value <= last_value and (value < last_value or dim < last_dim):
                raise ComplexError(f"ordering violation: value {value} dim {dim} after "
                                   f"value {last_value} dim {last_dim}", cid)
            last_value, last_dim = value, dim
            if not boundary:
                continue
            prev, dd, face_dim = -1, 0, dim - 1
            for f in boundary:
                if not 0 <= f < cid:
                    raise ComplexError(f"face {f} not previously declared", cid)
                if f == prev:
                    raise ComplexError(f"repeated face {f}", cid)
                prev, face = f, cells[f]
                if face.dim != face_dim:
                    raise ComplexError(f"face {f} has dim {face.dim}, expected {face_dim}", cid)
                for g in face.boundary:
                    dd ^= 1 << g
            if dd:
                raise ComplexError("boundary of boundary is nonzero", cid)

    def sublevel(self, a: float) -> "FilteredComplex":
        """Subcomplex of cells with value <= a (a prefix, by the ordering)."""
        return FilteredComplex(c for c in self.cells if c.value <= a)

    def euler_characteristic(self) -> int:
        return sum((-1) ** c.dim for c in self.cells)

    def num_cells(self, k: int) -> int:
        return sum(1 for c in self.cells if c.dim == k)

    def critical_values(self) -> tuple[float, ...]:
        return tuple(sorted({c.value for c in self.cells}))


# ---------------------------------------------------------------------------
# the simplex builder shared by Rips and SPX

# Rows turned into Python objects at a time, so list and int temporaries
# stay small next to the cells they build.
_CHUNK = 1 << 11

_new_cell = object.__new__
_set_fields = tuple(
    Cell.__dict__[f].__set__ for f in ("id", "dim", "value", "boundary", "vertices", "name")
)


def _presorted_cell(cid, dim, value, boundary, vertices, name):
    """A Cell whose boundary and vertices are already sorted tuples; skips
    the normalising __post_init__, which would more than double its cost."""
    c = _new_cell(Cell)
    s_id, s_dim, s_value, s_boundary, s_vertices, s_name = _set_fields
    s_id(c, cid)
    s_dim(c, dim)
    s_value(c, value)
    s_boundary(c, boundary)
    s_vertices(c, vertices)
    s_name(c, name)
    return c


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of `wanted` in the increasing array `keys`; every one must
    be present."""
    pos = np.searchsorted(keys, wanted)
    if len(wanted) and (pos.max() >= len(keys) or not np.array_equal(keys[pos], wanted)):
        raise ComplexError("a face of a simplex is not in the complex")
    return pos


def simplicial_filtration(simplices: Sequence[np.ndarray], values: Sequence[np.ndarray],
                          labels: Sequence[str]) -> FilteredComplex:
    """The filtered complex of a simplicial complex given by dimension.

    simplices[k] is an (m_k, k+1) integer array of vertex indices, each
    row increasing and the rows in lexicographic order; simplices[0] is
    the column 0..n-1 with n = len(labels), and every face of a row is a
    row one dimension down.  values[k] holds the rows' entry values, which
    must not decrease from face to coface.  Cells are numbered by (value,
    dim, vertex tuple); a cell is named by its vertex labels joined by
    '-', its boundary is its one record of its vertices, and each Cell is
    built once.
    """
    n = len(labels)
    if len(simplices) and not np.array_equal(simplices[0][:, 0], np.arange(n)):
        raise ValueError("simplices[0] must list the vertices 0..n-1")
    # A row of dimension k is keyed by (row of its prefix face, last
    # vertex) as prefix * n + last; rows in lexicographic order give
    # increasing keys, so a face is found by binary search.  faces[k][r, i]
    # is the row of row r's face without its vertex i.
    keys: list[np.ndarray] = []
    faces: list[np.ndarray] = []
    for k, s in enumerate(simplices):
        if s.ndim != 2 or s.shape[1] != k + 1 or len(values[k]) != len(s):
            raise ValueError(f"simplices[{k}] must be an (m, {k + 1}) array with m values")
        prefix = np.zeros(len(s), dtype=np.int64)
        for c in range(k):
            prefix = _lookup(keys[c], prefix * n + s[:, c])
        key = prefix * n + s[:, k]
        if np.any(key[1:] <= key[:-1]) or np.any(s[:, 1:] <= s[:, :-1]):
            raise ValueError(f"rows of simplices[{k}] must increase and be in lexicographic order")
        keys.append(key)
        if k == 0:
            faces.append(np.zeros((len(s), 1), dtype=np.int64))  # the empty face
            continue
        face = np.empty_like(s)
        face[:, k] = prefix
        for i in range(k):
            face[:, i] = _lookup(keys[k - 1], faces[k - 1][prefix, i] * n + s[:, k])
        faces.append(face)
    sizes = [len(s) for s in simplices]
    offsets = np.cumsum([0] + sizes)
    total = int(offsets[-1])
    flat = np.concatenate([np.asarray(v, dtype=float) for v in values]) if total else np.empty(0)
    if np.isnan(flat).any():
        raise ValueError("NaN entry value")
    # Rows are laid out by (dim, lexicographic row), so a stable sort by
    # value orders them by (value, dim, vertex tuple).
    order = np.argsort(flat, kind="stable")
    id_of = np.empty(total, dtype=np.int64)
    id_of[order] = np.arange(total)
    # Equal values share one float object: a Rips simplex takes the length
    # of one of its edges.  Bits are compared, so -0.0 stays apart from 0.0.
    sorted_values = flat[order]
    starts = np.ones(total, dtype=bool)
    bits = sorted_values.view(np.int64)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    distinct = sorted_values[starts].tolist()
    value_of = np.cumsum(starts) - 1
    dim_of = np.repeat(np.arange(len(sizes)), sizes)
    del flat, sorted_values, starts, bits

    # Cells are built in id order, each with its tuples, so the cells that
    # later passes walk in id order also lie in memory in that order.
    ids = list(range(total))  # the one int object of each id, shared
    shared = ids.__getitem__
    label = labels.__getitem__
    cells: list[Cell] = []
    for lo in range(0, total, _CHUNK):
        hi = lo + _CHUNK
        rows = order[lo:hi]
        dims = dim_of[rows]
        boundaries, names = [], []
        for k, s in enumerate(simplices):
            sel = rows[dims == k] - offsets[k]  # this chunk's rows of dim k, by id
            if k:
                bnd = np.sort(id_of[offsets[k - 1] + faces[k][sel]], axis=1)
                bnd = zip(*[map(shared, col) for col in bnd.T.tolist()])
            else:
                bnd = repeat(())
            boundaries.append(bnd)
            names.append(map("-".join, zip(*[map(label, col) for col in s[sel].T.tolist()])))
        pick = dims.tolist()
        cells.extend(map(
            _presorted_cell,
            ids[lo:hi],
            pick,
            map(distinct.__getitem__, value_of[lo:hi].tolist()),
            map(next, map(boundaries.__getitem__, pick)),
            repeat(None),
            map(next, map(names.__getitem__, pick)),
        ))
    return FilteredComplex(cells)


def _reorder(rows: Sequence[tuple], values: Sequence[float]) -> tuple[FilteredComplex, list[int]]:
    """Number provisional rows as a filtration and build their cells.

    Row r is (dim, boundary, vertices, name), its faces and vertices given
    as row indices, and enters at values[r].  Rows are numbered by (value,
    dim, row index); boundaries and vertices are remapped, each Cell is
    built once, and the new id of every row is returned with the complex.
    """
    key = np.asarray(values, dtype=float)
    if np.isnan(key).any():
        raise ComplexError("NaN entry value")
    order = np.lexsort((np.fromiter((r[0] for r in rows), np.int64, len(rows)), key))
    new_id = np.empty(len(rows), dtype=np.int64)
    new_id[order] = np.arange(len(rows))
    new_id = new_id.tolist()
    remap = new_id.__getitem__
    cells = []
    for r in order.tolist():
        dim, boundary, vertices, name = rows[r]
        cells.append(_presorted_cell(
            new_id[r], dim, values[r], tuple(sorted(map(remap, boundary))),
            None if vertices is None else tuple(sorted(map(remap, vertices))), name))
    return FilteredComplex(cells), new_id


def _star_values(skeleton: FilteredComplex, f: VertexFunction) -> tuple[list, list]:
    """Minimum and maximum of f over each cell's vertices, by cell id, in
    one pass: a cell with its own vertex list reads it, a vertex reads
    itself, and any other cell combines its faces' entries, which come
    before it."""
    lows, highs = [], []
    low_of, high_of = lows.__getitem__, highs.__getitem__
    for cid, c in enumerate(skeleton.cells):
        boundary, vertices = c.boundary, c.vertices
        if vertices is None and c.dim and boundary:
            if boundary[0] < 0 or boundary[-1] >= cid:  # boundaries are sorted
                bad = boundary[0] if boundary[0] < 0 else boundary[-1]
                raise ComplexError(f"face {bad} not previously declared", cid)
            lows.append(min(map(low_of, boundary)))
            highs.append(max(map(high_of, boundary)))
            continue
        if vertices is None:
            vertices = () if c.dim else (c.id,)
        if not vertices:
            raise ComplexError("cell has no vertices in its closure", cid)
        values = [f(v) for v in vertices]
        lows.append(min(values))
        highs.append(max(values))
    return lows, highs


def lower_star(skeleton: FilteredComplex, f: VertexFunction) -> FilteredComplex:
    """Sublevel filtration of a vertex function: each cell enters at the
    maximum of f over its vertices."""
    fc, _ = _reorder([(c.dim, c.boundary, c.vertices, c.name) for c in skeleton.cells],
                     _star_values(skeleton, f)[1])
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


def format_value(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line of an input text, numbered from
    1, with `#` comments and surrounding blanks stripped and empty lines
    skipped; every text format reads its lines through this."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def write_fcx(fc: FilteredComplex) -> str:
    """FCX v1: one `cell <id> <dim> <value> [<face>...]` line per cell."""
    lines = []
    for c in fc.cells:
        parts = ["cell", str(c.id), str(c.dim), format_value(c.value)]
        parts.extend(str(f) for f in c.boundary)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


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
        if min(cid, dim, *faces) < 0:
            raise ComplexError(f"line {lineno}: ids, dimensions and faces must be nonnegative")
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")
        if len(set(faces)) != len(faces):
            raise ComplexError(f"line {lineno}: repeated face id")
        cells.append(Cell(cid, dim, value, boundary=faces))
    fc = FilteredComplex(cells)
    fc.validate()
    return fc


def _simplices_to_complex(valued: dict, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """Close a set of valued simplices (increasing tuples of vertex labels)
    and build the filtered complex.

    Missing faces get the minimum value over the declared cofaces that
    contain them; with vertex_values each simplex enters at the maximum of
    the function over its vertices instead (the lower-star filtration).
    """
    # One walk down the dimensions: each face of a k-simplex takes the
    # smaller of its value and the simplex's, and a new face joins k-1.
    by_dim: list[dict] = [{} for _ in range(max(map(len, valued), default=0))]
    for simplex, value in valued.items():
        by_dim[len(simplex) - 1][simplex] = value
    for k in range(len(by_dim) - 1, 0, -1):
        below = by_dim[k - 1]
        for simplex, value in by_dim[k].items():
            for i in range(k + 1):
                face = simplex[:i] + simplex[i + 1 :]
                if face not in below or below[face] > value:
                    below[face] = value
    # Vertex labels become their ranks 0..n-1, which keeps their order.
    vertices = np.sort(np.array(list(by_dim[0]), dtype=np.int64).ravel())
    rows, values = [], []
    for k, group in enumerate(by_dim):
        ranks = np.searchsorted(vertices, np.array(list(group), dtype=np.int64).reshape(-1, k + 1))
        lex = np.lexsort(ranks.T[::-1])
        rows.append(ranks[lex])
        if vertex_values is None:
            values.append(np.fromiter(group.values(), float, len(group))[lex])
    labels = vertices.tolist()
    if vertex_values is not None:
        try:
            f = np.array([vertex_values[v] for v in labels], dtype=float)
        except KeyError as e:
            raise ComplexError(f"vertex {e.args[0]} has no function value") from None
        bad = np.flatnonzero(~np.isfinite(f))
        if len(bad):
            raise ComplexError(f"vertex {labels[bad[0]]} has a non-finite function value")
        values = [f[r].max(axis=1) for r in rows]
    fc = simplicial_filtration(rows, values, [str(v) for v in labels])
    fc.validate()
    return fc


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def parse_spx(text: str, vertex_values: Optional[dict] = None) -> FilteredComplex:
    """SPX v1: one `<value> <v1> ... <vk>` top simplex per line; in vertexfn
    mode lines hold bare vertex lists and values come from vertex_values."""
    valued: dict[tuple, float] = {}
    for lineno, line in text_lines(text):
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
        if verts[0] < _INT64_MIN or verts[-1] > _INT64_MAX:
            raise ComplexError(f"line {lineno}: vertex id out of range")
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")
        if verts not in valued or valued[verts] > value:
            valued[verts] = value
    if not valued:
        raise ComplexError("no simplices in input")
    return _simplices_to_complex(valued, vertex_values)


def parse_vertex_values(text: str) -> dict:
    """`<vertex-id> <value>` lines."""
    out: dict[int, float] = {}
    for lineno, line in text_lines(text):
        parts = line.split()
        try:
            vertex, value = int(parts[0]), float(parts[1])
        except (ValueError, IndexError):
            raise ComplexError(f"line {lineno}: expected `<vertex-id> <value>`") from None
        if not math.isfinite(value):
            raise ComplexError(f"line {lineno}: value must be finite")
        if vertex in out:
            raise ComplexError(f"line {lineno}: repeated vertex id {vertex}")
        out[vertex] = value
    return out
