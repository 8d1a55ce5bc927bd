"""Absolute Z/2 homology: Betti numbers, cycle generators, duality check.

Betti numbers count the unpaired cells of `persistence.reduce_filtration`,
and cycles come from boundary passes over its engine, which carries each
chain as the set of cell ids summed into a column: the form a generator has.
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


def _cycles(fc: FilteredComplex, k: int, cleared) -> tuple[list, list]:
    """Degree k of the twist (Chen & Kerber 2011): the boundary columns of the
    k-cells not `cleared` are reduced in increasing id, carrying chains.
    Returns the (k-1)-cells they pair with, which clear degree k-1, and a
    cycle for each k-cell left unpaired, in increasing id: the chain its
    column vanished with, or itself if its column is empty."""
    cells = np.flatnonzero(fc.dims == k)
    cells = cells[~np.isin(cells, cleared)]
    full = fc.indptr[cells + 1] > fc.indptr[cells]
    pivots, zeros, _, _ = persistence._reduce(fc.indptr, fc.indices, cells[full], True,
                                              np.full(len(fc), -1))
    unpaired = sorted([*zeros, *cells[~full].tolist()])
    return list(pivots), [frozenset(zeros.get(j, (j,))) for j in unpaired]


def generators(fc: FilteredComplex, k: int) -> list[frozenset]:
    """Cycle representatives for a basis of H_k, as sets of cell ids: degree k
    alone is reduced, cleared by the births of `reduce_filtration`'s pairs.
    Any basis of cycles modulo boundaries is equally valid."""
    return _cycles(fc, k, persistence.reduce_filtration(fc).pair_ids[:, 0])[1]


@dataclass(frozen=True)
class HomologySummary:
    betti: dict
    generators: dict


def summarize(fc: FilteredComplex) -> HomologySummary:
    """Betti numbers and generators by `_cycles` from the top dimension down."""
    degrees, cleared, found = _degrees(fc), [], {}
    for k in sorted(set(fc.dims.tolist()), reverse=True):
        cleared, found[k] = _cycles(fc, k, cleared)
    gens = {k: found.get(k, []) for k in degrees}
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
