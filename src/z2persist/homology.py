"""Absolute Z/2 homology: Betti numbers, cycle generators, duality check.

Betti numbers count the unpaired cells of `persistence.reduce_filtration`,
and cycles come from one plain twist over its engine, which carries each
chain as the set of cell ids summed into a column: the form a generator has.
The apparent-pair rule is `reduce_filtration`'s alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import persistence
from .complexes import ComplexError, FilteredComplex
from .persistence import _MAX_DIM


def _degrees(fc: FilteredComplex) -> range:
    """The degrees 0..max_dim of a Betti table."""
    if fc.max_dim > _MAX_DIM:
        raise ComplexError(f"dimension {fc.max_dim} is above {_MAX_DIM}, the top of a Betti table")
    return range(fc.max_dim + 1)


def betti(fc: FilteredComplex, k: int) -> int:
    """dim ker of the k-th boundary map minus rank of the (k+1)-st."""
    return dict(enumerate(betti_numbers(fc))).get(k, 0)


def betti_numbers(fc: FilteredComplex) -> tuple[int, ...]:
    unpaired = persistence.reduce_filtration(fc).unpaired_ids
    return tuple(np.bincount(fc.dims[unpaired], minlength=len(_degrees(fc))).tolist())


def _cycles(fc: FilteredComplex, cells) -> dict:
    """The twist (Chen & Kerber 2011) in one engine call: the boundary columns
    of the int64 `cells`, top dimension first and ids increasing within one,
    carry chains, and each clears the columns of its pivots.  Nothing is settled
    first: an apparent coface's column meets a fresh pivot and adds nothing.
    Returns {cell: cycle} in increasing id for the cells left unpaired: the chain
    its column vanished with, or the cell itself if its column is empty and no pivot."""
    dims = fc.dims[cells]
    top, low = dims.max(initial=0), dims.min(initial=0)
    cells = np.concatenate([cells[dims == k] for k in range(top, low - 1, -1)])
    ptr, flat = fc.indptr, fc.indices
    full = ptr[cells + 1] > ptr[cells]
    pivots, zeros, _ = persistence._reduce(ptr, flat, cells[full], True, np.full(len(fc), -1))
    empty = [j for j in cells[~full].tolist() if j not in pivots]
    return {j: frozenset(zeros.get(j, (j,))) for j in sorted([*zeros, *empty])}


def generators(fc: FilteredComplex, k: int) -> list[frozenset]:
    """Cycle representatives for a basis of H_k, as sets of cell ids: the
    k-cells alone are reduced, less the `births` of `reduce_filtration`'s pairs
    (in any order).  Any basis of cycles modulo boundaries is equally valid."""
    cells = fc.dims == k
    cells[persistence.reduce_filtration(fc).births] = False
    return [*_cycles(fc, np.flatnonzero(cells)).values()]


@dataclass(frozen=True)
class HomologySummary:
    betti: dict
    generators: dict


def summarize(fc: FilteredComplex) -> HomologySummary:
    """Betti numbers and generators by one `_cycles` call over every cell."""
    gens = {k: [] for k in _degrees(fc)}
    cycles = _cycles(fc, np.arange(len(fc)))
    for k, cycle in zip(fc.dims[[*cycles]].tolist(), cycles.values()):
        gens[k].append(cycle)
    return HomologySummary(betti={k: len(g) for k, g in gens.items()}, generators=gens)


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    mismatches: tuple[tuple[int, int, int], ...]  # (k, betti_k, betti_n_minus_k)


def duality_check(fc: FilteredComplex, n: int) -> DualityReport:
    """Betti-number symmetry b_k == b_{n-k} for a closed n-manifold.

    Over the field Z/2 every closed manifold is orientable, and cohomology
    ranks equal homology ranks, so duality reduces to this palindrome
    test.  The manifold hypothesis is the caller's responsibility.
    """
    b = (*betti_numbers(fc), *(0,) * (n + 1))  # 0 past the top dimension
    mismatches = [(k, b[k], b[n - k]) for k in range(n + 1) if b[k] != b[n - k]]
    return DualityReport(ok=not mismatches, mismatches=tuple(mismatches))
