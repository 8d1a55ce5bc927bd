"""The text side shared by every format and the CLI, with no numpy: the
input error type, the one float conversion, value formatting and line splitting."""
from __future__ import annotations

import math
from typing import Optional


class ComplexError(ValueError):
    """Invariant violation, pointing at the first offending cell."""

    def __init__(self, message: str, cell_id: Optional[int] = None):
        super().__init__(message if cell_id is None else f"cell {cell_id}: {message}")
        self.cell_id = cell_id


def as_float(x, fault: str, cell_id: Optional[int] = None) -> float:
    """float(x), or ComplexError(fault, cell_id) for an int past the float range."""
    try:
        return float(x)
    except OverflowError:
        raise ComplexError(fault, cell_id) from None


def format_value(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def uncommented(text: str) -> list[str]:
    """The lines of an input text with `#` comments cut off: the one place
    that decides which lines every text format has."""
    return [r.split("#", 1)[0] for r in text.splitlines()] if "#" in text else text.splitlines()


def text_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) of each nonblank `uncommented` line, numbered from 1 and stripped."""
    return [(i, line) for i, line in enumerate(map(str.strip, uncommented(text)), start=1) if line]
