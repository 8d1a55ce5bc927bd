"""The text side shared by every format and the CLI, with no numpy: the
input error type, value formatting and line splitting."""
from __future__ import annotations

import math
from typing import Optional


class ComplexError(ValueError):
    """Invariant violation, pointing at the first offending cell."""

    def __init__(self, message: str, cell_id: Optional[int] = None):
        super().__init__(message if cell_id is None else f"cell {cell_id}: {message}")
        self.cell_id = cell_id


def format_value(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def text_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) of each line of an input text, numbered from
    1, with `#` comments and surrounding blanks stripped and empty lines
    skipped; every text format reads its lines through this."""
    raw = text.splitlines()
    if "#" in text:
        raw = [r.split("#", 1)[0] for r in raw]
    return [(i, line) for i, line in enumerate(map(str.strip, raw), start=1) if line]
