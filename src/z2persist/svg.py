"""Minimal static SVG rendering of a barcode: one horizontal segment per
bar, rows grouped by dimension, infinite bars drawn to the right edge."""
from __future__ import annotations

import math

from .persistence import Barcode

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_WIDTH = 640  # pixels
_ROW_HEIGHT = 14  # pixels per bar


def barcode_svg(b: Barcode) -> str:
    if not len(b):
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="20">'
            "<text x='4' y='14' font-size='10'>empty barcode</text></svg>"
        )
    lo, hi = min(b.births), max(t for t in (*b.births, *b.deaths) if t != math.inf)
    span = hi - lo if hi > lo else 1.0
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    margin = 60

    def x(t: float) -> float:
        if t == math.inf:
            return _WIDTH - 2
        return margin + (t - lo) / (hi - lo) * (_WIDTH - margin - 10)

    height = _ROW_HEIGHT * (len(b) + 1)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}">']
    labelled = None
    for row, (dim, s, e) in enumerate(zip(b.degrees, b.births, b.deaths), start=1):
        y = _ROW_HEIGHT * row
        if dim != labelled:  # bars are sorted by degree: label the first of each
            out.append(f'<text x="4" y="{y + 4}" font-size="10">H{dim}</text>')
            labelled = dim
        out.append(
            f'<line x1="{x(s):.2f}" y1="{y}" x2="{x(e):.2f}" '
            f'y2="{y}" stroke="{_COLORS[dim % len(_COLORS)]}" stroke-width="4"/>'
        )
    out.append("</svg>")
    return "\n".join(out)
