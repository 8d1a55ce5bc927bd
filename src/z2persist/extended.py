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

from .complexes import Cell, ComplexError, FilteredComplex, VertexFunction
from .persistence import Barcode, Interval, persistent_betti, reduce_filtration


@dataclass(frozen=True)
class BifiltrationSpec:
    """Skeleton plus vertex function, bound M and spacing lambda.

    The bound may be attained (|f| <= M); the spacing separates the
    ascending phase from the descending one.
    """

    complex: FilteredComplex
    f: VertexFunction
    M: Optional[float] = None
    lam: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("spacing lambda must be positive")
        sup = max(abs(x) for x in self.f.values.values())
        if self.M is None:
            object.__setattr__(self, "M", sup + 1.0)
        elif self.M < sup:
            raise ValueError(f"|f| reaches {sup}, above the bound M={self.M}")


@dataclass(frozen=True)
class ConeFiltration:
    """Cone filtration with bookkeeping: which cells are original, which
    are cones, and the apex id."""

    complex: FilteredComplex
    apex: int
    cone_of: dict  # original new-id -> cone new-id
    original: frozenset


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
    """
    skeleton, f = spec.complex, spec.f
    M, lam = spec.M, spec.lam
    n = len(skeleton.cells)
    if n == 0:
        raise ComplexError("empty complex")
    asc = []
    desc = []
    for c in skeleton.cells:
        verts = skeleton.cell_vertices(c.id)
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
    return ConeFiltration(
        complex=fc,
        apex=apex_id,
        cone_of={new_orig[c]: new_cone[c] for c in new_orig},
        original=frozenset(new_orig.values()),
    )


def extended_barcode(spec: BifiltrationSpec) -> Barcode:
    """Extended barcode: all bars finite, contained in [-M, 3M+lambda).

    Bars are reported in the homological degree of the class in the cone
    complex, i.e. the dimension of the cell whose arrival created it.  For
    classes born in the descending phase that is the dimension of a cone
    cell, which matches the degree of the corresponding relative-homology
    class of the pair.
    """
    cone = build_cone_filtration(spec)
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


def extended_rank(b: Barcode, k: int, a: float, p: float) -> int:
    """Rank of the extended persistence map: bars born no later than a
    that survive past a + p, counted as persistent_betti counts them."""
    return persistent_betti(b, k, a, p)


def single_interval_rank(s: float, t: float, a: float, p: float) -> int:
    """Extended rank of a single characteristic interval [s, t)."""
    if not s < t or t == math.inf:
        raise ValueError("need s < t with t finite")
    if p < 0:
        raise ValueError("lifespan p must be nonnegative")
    return 1 if s <= a and a + p < t else 0
