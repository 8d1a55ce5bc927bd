"""Extended persistence via a single cone filtration.

The two-phase family of pairs (ascending sublevel sets, then pairs of the
whole space with superlevel complements) is realized by coning: relative
homology of (X, A) is the reduced homology of X with A coned off.  Running
the ordinary reduction on the cone filtration therefore yields the
extended barcode, with every bar finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .complexes import (
    ComplexError, FilteredComplex, VertexFunction, _owners, _reorder, _skeleton_star, as_float,
)
from .persistence import Barcode, Interval, barcode, persistent_betti


@dataclass(frozen=True)
class BifiltrationSpec:
    """Skeleton plus vertex function, bound M and spacing lambda.

    M is the one bound of f: it defaults to max|f| + 1, and any M >= max|f|
    (M = 0 for f = 0) with 2M + lambda above 2M and 2M + lambda - f finite
    and one to one on f's values is accepted.  The spacing separates the two phases.
    """

    complex: FilteredComplex
    f: VertexFunction
    M: Optional[float] = None
    lam: float = 1.0

    def __post_init__(self):
        for name, x in (("bound M", self.M), ("spacing lambda", self.lam)):
            as_float(0.0 if x is None else x, f"the {name} is beyond the float range")
        if not 0 < self.lam < math.inf:  # also false for nan
            raise ValueError("spacing lambda must be positive and finite")
        values = self.f.values.values()
        if not values or not all(map(math.isfinite, values)):
            raise ValueError("the vertex function f must have at least one value, all finite")
        sup = max(map(abs, values))
        if self.M is None:
            object.__setattr__(self, "M", sup + 1.0)
        elif not sup <= self.M < math.inf:
            raise ValueError(f"the bound M={self.M} must be finite and at least max|f| = {sup}")
        top = 2 * self.M + self.lam  # the descending phase enters at top - f
        if not top - min(values) < math.inf:  # the cone's top value
            raise ValueError(f"the bound M={self.M} and spacing lambda={self.lam} make the "
                             "cone's top value 2M + lambda - min f not finite")
        if not top > 2 * self.M:  # so 2M + lambda - max f > max f too
            raise ValueError(f"the bound M={self.M} and spacing lambda={self.lam} round "
                             "2M + lambda to 2M")
        ordered = sorted(values)  # top - v is monotone in v, so a tie shows between neighbours
        if any(a != b and top - a == top - b for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"the bound M={self.M} and spacing lambda={self.lam} round "
                             "2M + lambda - f to one value for two values of f")


@dataclass(frozen=True)
class ConeFiltration:
    """Cone filtration and the id of its apex."""

    complex: FilteredComplex
    apex: int


def build_cone_filtration(spec: BifiltrationSpec) -> ConeFiltration:
    """Assemble the cone filtration of a bifiltration.

    Ascending phase: each cell enters at max f over its vertices, so the
    whole complex is present by a = M.  The apex is placed at the very
    start of the filtration (value -M, before every other cell): the elder
    rule then makes components die into the apex component, which is what
    matches the relative-pair homology; the apex's own infinite bar is the
    single artifact discarded later.  Descending phase: the cone over a
    cell enters at 2M + lambda - min f over its vertices, mirroring the
    superlevel complement, and everything is coned by a = 3M + lambda.
    Ties are broken by dimension, phase (apex, cell, cone) and skeleton id, ascending for
    cells and descending for cones: the descending phase runs the ascending one backwards,
    so `reduce_filtration`'s apparent-pair rule settles as much of it.

    The skeleton is validated, not the cone: `_reorder` keeps each rule of `validate` but
    faces before cofaces, which |f| <= M keeps between a cell and its cone and
    `_skeleton_star` checks between two cells and between their cones.
    """
    skeleton, f, M, lam, n = spec.complex, spec.f, spec.M, spec.lam, len(spec.complex)
    if n == 0:
        raise ComplexError("empty complex")
    lows, highs = _skeleton_star(skeleton, f, cone=True)
    dims, faces, owner = skeleton.dims, skeleton.indices, _owners(skeleton.indptr)
    # Provisional rows: the apex at 0, cell c at 1 + c, its cone at 2n - c.
    # The cone's faces are c and the apex (c a vertex) or the cones of c's faces.
    cell, vertex = np.arange(n), dims == 0
    up = ~vertex[owner]  # the entries of the cells that are not vertices

    def name_of(rows):  # row 0 reads the label of cell n - 1 and drops it
        names = skeleton.labels(np.where(rows <= n, rows - 1, 2 * n - rows) % n)
        return ["apex" if r == 0 else x if r <= n else f"cone({x})"
                for r, x in zip(rows.tolist(), names)]

    fc, new_id = _reorder(
        np.concatenate([np.zeros(1, np.int64), dims, dims[::-1] + 1]),
        np.concatenate([np.array([-M], float), highs, 2 * M + lam - lows[::-1]]),
        np.concatenate([1 + owner, 2 * n - cell, 2 * n - cell[vertex], 2 * n - owner[up]]),
        np.concatenate([1 + faces, 1 + cell, np.zeros(np.count_nonzero(vertex), np.int64),
                        2 * n - faces[up]]),
        name_of)
    return ConeFiltration(complex=fc, apex=int(new_id[0]))


def extended_barcode(spec: BifiltrationSpec) -> Barcode:
    """Extended barcode: all bars finite, contained in [-M, 3M+lambda).

    Bars are reported in the homological degree of the class in the cone
    complex, i.e. the dimension of the cell whose arrival created it.  For
    classes born in the descending phase that is the dimension of a cone
    cell, which matches the degree of the corresponding relative-homology
    class of the pair.  The cone is contractible, so the apex's bar is the
    one infinite bar of its barcode, and it is dropped.
    """
    b = barcode(build_cone_filtration(spec).complex)
    if (essential := b.deaths.count(math.inf)) != 1:
        raise AssertionError(f"the cone has {essential} infinite bars, not the apex's one")
    i = b.deaths.index(math.inf)
    return Barcode(columns=[c[:i] + c[i + 1:] for c in (b.degrees, b.births, b.deaths)])


def extended_rank(b: Barcode, k: int, a: float, p: float) -> int:
    """Rank of the extended persistence map: bars born no later than a
    that survive past a + p, counted as persistent_betti counts them."""
    return persistent_betti(b, k, a, p)


def single_interval_rank(s: float, t: float, a: float, p: float) -> int:
    """Extended rank of a single characteristic interval [s, t)."""
    if t == math.inf:
        raise ValueError("need s < t with t finite")
    return persistent_betti(Barcode([(0, Interval(s, t))]), 0, a, p)
