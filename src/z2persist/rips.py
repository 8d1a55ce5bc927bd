"""Vietoris-Rips filtrations of Euclidean point clouds (Betti curves are
re-exported from `persistence`).

Scale is the simplex diameter: two balls of radius r intersect iff the
centre distance is at most 2r, so a radius step s is a diameter step 2s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .complexes import FilteredComplex, simplicial_filtration, text_lines
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
            if not all(math.isfinite(x) for x in p):
                raise ValueError("non-finite coordinate")

    def __len__(self) -> int:
        return len(self.points)

    def distance_matrix(self) -> np.ndarray:
        pts = np.asarray(self.points, dtype=float)
        out = np.zeros((len(pts), len(pts)))
        for x in pts.T:  # a coordinate at a time: no n x n x d array
            out += np.square(x[:, None] - x)
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
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if (self.steps is None) != (self.step_size is None):
            raise ValueError("steps and step_size go together")
        if self.steps is not None:
            try:
                product = self.steps * self.step_size
            except OverflowError:  # an int steps too large for a float
                product = math.inf
            if product == math.inf:
                raise ValueError(f"steps * step_size = {self.steps} * {self.step_size!r} "
                                 "is not finite")

    @property
    def scale_limit(self) -> float:
        if self.threshold is not None:
            return self.threshold
        if self.steps is not None:
            return self.steps * self.step_size
        return math.inf


# Candidate masks are built for this many (row, vertex) entries at a time.
_MASK_ENTRIES = 1 << 18
# Most cells a Rips filtration may have: about 2.3 GB at ~0.55 KB a cell.
_MAX_CELLS = 1 << 22


def _cofaces(adj: np.ndarray, rows: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Every extension of a row by a larger vertex adjacent to all of its
    vertices, as (row, new vertex) in lexicographic order.  adj is the
    strictly upper-triangular adjacency of the threshold graph, and `cells`
    the count of lower cells: past `_MAX_CELLS` in all, this raises."""
    n = adj.shape[0]
    block = max(1, _MASK_ENTRIES // max(n, 1))
    parents, lasts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(rows), block):
        chunk = rows[lo:lo + block]
        mask = adj[chunk[:, 0]]
        for c in range(1, chunk.shape[1]):
            mask &= adj[chunk[:, c]]
        parent, last = np.nonzero(mask)
        parents.append(parent + lo)
        lasts.append(last)
        cells += len(parent)
        if cells > _MAX_CELLS:
            raise ValueError(f"the Rips complex passes {_MAX_CELLS} cells in dimension "
                             f"{rows.shape[1]} ({cells} so far)")
    return np.concatenate(parents), np.concatenate(lasts)


def rips_filtration(pc: PointCloud, params: RipsParams) -> FilteredComplex:
    """Build the Rips filtration up to max_dim and the scale limit.

    Vertices at 0; every higher simplex enters at its diameter (snapped up
    to the next step boundary in stepped mode).  Simplices are the cliques
    of the threshold graph, expanded a dimension at a time in lexicographic
    order, so the output is deterministic.
    """
    dist = pc.distance_matrix()
    limit = params.scale_limit
    if limit == math.inf:
        raise ValueError("need a threshold or steps to bound the scale")
    n = len(pc) if limit >= 0 else 0  # no cell enters above the limit, not even a vertex
    adj = np.triu(dist[:n, :n] <= limit, 1)
    if params.step_size is not None:
        # Snap the lengths at or under the limit up to the next step
        # boundary: an edge, and so a clique, enters iff its raw and its
        # snapped length are both at or under the limit.  `+ 0.0` turns the
        # -0.0 that np.ceil gives for a zero length into 0.0, as math.ceil does.
        i, j = np.nonzero(adj)
        step = params.step_size
        dist[i, j] = np.ceil(dist[i, j] / step - 1e-12) * step + 0.0
        adj[i, j] = dist[i, j] <= limit
    simplices = [np.arange(n, dtype=np.int64).reshape(n, 1)]
    values = [np.zeros(n)]
    faces = [np.zeros((n, 1), dtype=np.int64)]  # the empty face
    key = np.arange(n)  # each row's (parent row) * n + last vertex, increasing
    for _ in range(params.max_dim):
        parent, last = _cofaces(adj, simplices[-1], sum(map(len, simplices)))
        if not len(parent):  # no clique extends: every higher dimension is empty
            break
        rows = np.column_stack((simplices[-1][parent], last))
        diam = values[-1][parent]
        for c in range(rows.shape[1] - 1):
            diam = np.maximum(diam, dist[rows[:, c], last])
        # The face without the last vertex is the parent; the face without
        # an earlier vertex is the parent's face without it, plus the last.
        face = np.searchsorted(key, faces[-1][parent] * n + last[:, None])
        simplices.append(rows)
        values.append(diam)
        faces.append(np.column_stack((face, parent)))
        key = parent * n + last
    del adj, dist
    return simplicial_filtration(simplices, faces, values, [str(v) for v in range(n)])

