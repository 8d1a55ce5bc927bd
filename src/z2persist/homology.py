"""Absolute Z/2 homology: Betti numbers, cycle generators, duality check.

Everything here reads one boundary-matrix reduction: the k-th Betti number
is the number of unpaired k-cells, and their cycles are the generators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import persistence
from .complexes import ComplexError, FilteredComplex

_MAX_DIM = 10_000  # the top degree a Betti table lists


def _betti_of(fc: FilteredComplex, red: persistence.Reduction) -> list[int]:
    """Betti numbers in degrees 0..max_dim: unpaired cells per dimension."""
    if fc.max_dim > _MAX_DIM:
        raise ComplexError(f"dimension {fc.max_dim} is above {_MAX_DIM}, the top of a Betti table")
    return np.bincount(fc.dims[red.unpaired_ids], minlength=fc.max_dim + 1).tolist()


def betti(fc: FilteredComplex, k: int) -> int:
    """dim ker of the k-th boundary map minus rank of the (k+1)-st."""
    return dict(enumerate(betti_numbers(fc))).get(k, 0)


def betti_numbers(fc: FilteredComplex) -> tuple[int, ...]:
    return tuple(_betti_of(fc, persistence.reduce_filtration(fc)))


def _generators_of(fc: FilteredComplex, red: persistence.Reduction,
                   k: int) -> list[frozenset]:
    return [frozenset(red.cycles[j]) for j in red.unpaired_ids.tolist() if fc.dims[j] == k]


def generators(fc: FilteredComplex, k: int) -> list[frozenset]:
    """Cycle representatives for a basis of H_k, as sets of cell ids.

    Representatives come from the boundary-matrix reduction and are not
    canonical; any basis of cycles modulo boundaries is equally valid.
    """
    return _generators_of(fc, persistence.reduce_filtration(fc, chains=True), k)


@dataclass(frozen=True)
class HomologySummary:
    betti: dict
    generators: dict


def summarize(fc: FilteredComplex) -> HomologySummary:
    red = persistence.reduce_filtration(fc, chains=True)
    degrees = range(fc.max_dim + 1)
    return HomologySummary(
        betti=dict(zip(degrees, _betti_of(fc, red))),
        generators={k: _generators_of(fc, red, k) for k in degrees},
    )


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
