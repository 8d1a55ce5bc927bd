"""Vietoris-Rips filtrations of Euclidean point clouds (Betti curves are
re-exported from `persistence`).

Scale is the simplex diameter: two balls of radius r intersect iff the
centre distance is at most 2r, so a radius step s is a diameter step 2s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .complexes import _MAX_CELLS, FilteredComplex, as_float, simplicial_filtration, text_lines
from .persistence import betti_curve, betti_curve_csv  # re-exported


@dataclass(frozen=True)
class PointCloud:
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("point cloud is empty")
        d = len(self.points[0])
        for p in self.points:
            if len(p) != d:
                raise ValueError("points have mixed dimensions")
            if not all(math.isfinite(as_float(x, "non-finite coordinate")) for x in p):
                raise ValueError("non-finite coordinate")

    def __len__(self) -> int:
        return len(self.points)

    def distance_matrix(self) -> np.ndarray:
        """Euclidean distances, summed a coordinate at a time in place: no n x n x d array."""
        pts = np.asarray(self.points, dtype=float)
        out, diff = np.zeros((len(pts), len(pts))), np.empty((len(pts), len(pts)))
        for x in pts.T:  # squared differences go through one scratch array
            out += np.square(np.subtract(x[:, None], x, out=diff), out=diff)
        return np.sqrt(out, out=out)

    @classmethod
    def from_csv(cls, text: str) -> "PointCloud":
        """One comma-separated point per line; a bad line is named by number."""
        pts = []
        for lineno, line in text_lines(text):
            try:
                p = tuple(float(x) for x in line.split(","))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed number in `{line}`") from None
            if pts and len(p) != len(pts[0]):
                raise ValueError(f"line {lineno}: {len(p)} coordinates, expected {len(pts[0])}")
            if not all(map(math.isfinite, p)):
                raise ValueError(f"line {lineno}: non-finite coordinate")
            pts.append(p)
        return cls(tuple(pts))

    def to_csv(self) -> str:
        return "\n".join(",".join(repr(x) for x in p) for p in self.points) + "\n"


@dataclass(frozen=True)
class RipsParams:
    max_dim: int
    steps: Optional[int] = None          # number N of filtration steps
    step_size: Optional[float] = None    # diameter increase per step
    threshold: Optional[float] = None

    def __post_init__(self):
        if self.max_dim < 0:
            raise ValueError("max_dim must be nonnegative")
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size is not None and not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if self.threshold is not None and not math.isfinite(
                as_float(self.threshold, "threshold must be finite")):
            raise ValueError("threshold must be finite")
        if (self.steps is None) != (self.step_size is None):
            raise ValueError("steps and step_size go together")
        if self.steps is not None:
            fault = f"steps * step_size = {self.steps} * {self.step_size!r} is not finite"
            if as_float(self.steps, fault) * as_float(self.step_size, fault) == math.inf:
                raise ValueError(fault)

    @property
    def scale_limit(self) -> float:
        if self.threshold is not None:
            return self.threshold
        if self.steps is not None:
            return self.steps * self.step_size
        return math.inf


# Candidates are tested this many at a time, in a few int64 arrays as long.
_MASK_ENTRIES = 1 << 15


def _cofaces(adj: np.ndarray, nbrs: np.ndarray, indptr: np.ndarray, rows: np.ndarray,
             cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's extensions (row, new vertex) in lexicographic order: the upper
    neighbours nbrs[indptr[v]:indptr[v + 1]] of its last vertex v that adj
    holds against its other vertices, tested `_MASK_ENTRIES` at a time.  Past
    `_MAX_CELLS` cells in all, the `cells` of lower dimensions included, this raises."""
    first, stop = indptr[rows[:, -1]], indptr[rows[:, -1] + 1]
    ends = np.cumsum(stop - first)  # where each row's candidates end in the walk
    starts, shift, lead = ends - (stop - first), stop - ends, rows[:, :-1].T * len(adj)
    found = [(np.empty(0, dtype=np.int64),) * 2]
    for lo in range(0, int(ends[-1]), _MASK_ENTRIES):
        hi = min(lo + _MASK_ENTRIES, int(ends[-1]))
        r = np.arange(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi))
        parent = np.repeat(r, np.minimum(ends[r], hi) - np.maximum(starts[r], lo))
        last = nbrs[np.arange(lo, hi) + shift[parent]]
        keep = np.flatnonzero(reduce(np.logical_and, (adj.ravel()[c[parent] + last] for c in lead)))
        found.append((parent[keep], last[keep]))
        cells += len(keep)
        if cells > _MAX_CELLS:
            raise ValueError(f"the Rips complex passes {_MAX_CELLS} cells in dimension "
                             f"{rows.shape[1]} ({cells} so far)")
    return tuple(map(np.concatenate, zip(*found)))


def rips_filtration(pc: PointCloud, params: RipsParams) -> FilteredComplex:
    """Build the Rips filtration up to max_dim and the scale limit.

    Vertices at 0; every higher simplex enters at its diameter (snapped up
    to the next step boundary in stepped mode).  Simplices are the cliques
    of the threshold graph, expanded a dimension at a time in lexicographic
    order, so the output is deterministic.
    """
    limit = params.scale_limit
    if limit == math.inf:
        raise ValueError("need a threshold or steps to bound the scale")
    n = len(pc) if limit >= 0 else 0  # no cell enters above the limit, not even a vertex
    return simplicial_filtration(*_cliques(pc, params, n), [str(v) for v in range(n)])


def _cliques(pc: PointCloud, params: RipsParams, n: int) -> tuple[list, list, list]:
    """The Rips simplices, faces and values; the expansion's temporaries die with this frame."""
    limit, max_dim = params.scale_limit, params.max_dim if n else 0  # no vertex: no distance
    simplices, values = [np.arange(n, dtype=np.int64).reshape(n, 1)], [np.zeros(n)]
    faces = [np.zeros((n, 1), dtype=np.int64)]  # the empty face
    key = np.arange(n)  # each row's (parent row) * n + last vertex, increasing
    if max_dim:  # the edges (parent, last) in order, and so each vertex's upper neighbours
        dist = pc.distance_matrix()[:n, :n]
        adj = dist <= limit  # the threshold graph; only entries above the diagonal are read
        i, j = np.divmod(np.flatnonzero(adj), n)
        parent, last = i[i < j], j[i < j]
        length = dist[parent, last]
        del dist
        if params.step_size is not None:
            # Snap lengths up to the next step boundary: an edge, and so a clique, enters iff
            # its raw and snapped lengths are both at or under the limit (`+ 0.0`: no -0.0).
            length = np.ceil(length / params.step_size - 1e-12) * params.step_size + 0.0
            adj[parent, last] = keep = length <= limit
            parent, last, length = parent[keep], last[keep], length[keep]
        if n + len(last) > _MAX_CELLS:
            raise ValueError(f"the Rips complex passes {_MAX_CELLS} cells in dimension 1 "
                             f"({n + len(last)} so far)")
        nbrs, indptr = last, np.searchsorted(parent, np.arange(n + 1))  # the upper neighbours
    for k in range(1, max_dim + 1):
        if k > 1:
            parent, last = _cofaces(adj, nbrs, indptr, simplices[-1], sum(map(len, simplices)))
        if not len(parent):  # no clique extends: every higher dimension is empty
            break
        # The face without the last vertex is the parent; the face without an
        # earlier vertex is the parent's face without it plus the last, by key:
        face = np.take(faces[-1], parent, axis=0) * n + last[:, None]
        if k == 2:  # an edge, read from an n * n table of edge ids (a clique's pairs are edges)
            table = np.zeros(n * n, dtype=np.int32)
            table[key] = np.arange(len(key))
            face = table[face]
        else:  # a row found by bisecting the keys
            face = np.searchsorted(key, face)
        simplices.append(np.column_stack((np.take(simplices[-1], parent, axis=0), last)))
        faces.append(np.column_stack((face, parent)))
        if k > 1:  # a simplex of two or more edges is as long as its longest facet
            length = reduce(np.maximum, (values[-1][f] for f in faces[-1].T))
        values.append(length)
        key = parent * n + last
    return simplices, faces, values
