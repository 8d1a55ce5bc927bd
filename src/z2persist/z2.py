"""Columns over GF(2) as Python int bitsets.

Bit i of a column is set when row i holds a 1, and 0 is the zero column.
Column addition is `a ^ b`, and the column's low (its largest row index
holding a 1, the reduction's pivot) is `col.bit_length() - 1`; the
reduction in `persistence` works on these directly.  Chains, the sums of
columns that homology reads as cycles, are sets of column ids instead.
"""
from __future__ import annotations


def bitset(rows) -> int:
    """Column with a 1 in each row listed an odd number of times in `rows`,
    an integer array or memoryview read as Python ints, so that `1 << r`
    cannot wrap."""
    col = 0
    for r in rows.tolist():
        col ^= 1 << r
    return col
