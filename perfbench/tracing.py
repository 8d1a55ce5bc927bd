"""Spans and work counters recorded from outside the library.

For the length of a pass, every module binding of each target function
(and the class attribute of each target method) is replaced by a
wrapper, and the originals are put back afterwards.  Nothing under
``src/`` changes.  A target that a later version of the library no longer
has is skipped, and the metrics fed by it read zero.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute) of every timed function; its span is "<module>.<attribute>".
SPAN_TARGETS = (
    ("cli", "main"),
    ("rips", "rips_filtration"),
    ("complexes", "parse_spx"),
    ("complexes", "parse_vertex_values"),
    ("complexes", "parse_fcx"),
    ("complexes", "lower_star"),
    ("complexes", "sort_filtration"),
    ("complexes", "FilteredComplex.validate"),
    ("extended", "build_cone_filtration"),
    ("extended", "extended_barcode"),
    ("persistence", "reduce_filtration"),
    ("persistence", "barcode"),
    ("persistence", "parse_bcx"),
    ("persistence", "Barcode.to_bcx"),
    ("homology", "summarize"),
    ("homology", "betti"),
    ("homology", "generators"),
    ("z2", "rank"),
    ("distances", "bottleneck"),
)

# Per-layer time metric -> spans whose self time it sums.
SELF_TIME = {
    "rips.build_s": ("rips.rips_filtration",),
    "complexes.parse_s": ("complexes.parse_spx", "complexes.parse_vertex_values",
                          "complexes.parse_fcx"),
    "complexes.lower_star_s": ("complexes.lower_star", "complexes.sort_filtration"),
    "complexes.validate_s": ("complexes.FilteredComplex.validate",),
    "extended.cone_s": ("extended.build_cone_filtration",),
    "persistence.reduce_s": ("persistence.reduce_filtration",),
    "persistence.bars_s": ("persistence.barcode", "extended.extended_barcode"),
    "homology.self_s": ("homology.summarize", "homology.betti", "homology.generators"),
    "z2.rank_s": ("z2.rank",),
    "distances.bottleneck_s": ("distances.bottleneck",),
    "persistence.parse_bcx_s": ("persistence.parse_bcx",),
    "persistence.emit_s": ("persistence.Barcode.to_bcx",),
    "cli.self_s": ("cli.main",),
}

# Per-layer call-count metric -> span it counts.
CALLS = {
    "complexes.validate_calls": "complexes.FilteredComplex.validate",
    "persistence.reduce_calls": "persistence.reduce_filtration",
    "z2.rank_calls": "z2.rank",
}

# Functions whose results the counting pass inspects.  z2.add_into is
# counted here and never timed: it runs ~10^5 times per large reduction,
# and a wrapper around it would swamp persistence.reduce_s.
BUILDERS = (
    ("rips", "rips_filtration"),
    ("complexes", "parse_spx"),
    ("complexes", "parse_fcx"),
    ("complexes", "lower_star"),
    ("extended", "build_cone_filtration"),
)
COUNT_TARGETS = BUILDERS + (
    ("z2", "add_into"),
    ("persistence", "reduce_filtration"),
    ("distances", "bottleneck"),
)


@contextlib.contextmanager
def wrapped(targets, wrap):
    """Within the block, every binding of each target `fn` is `wrap(name, fn)`."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "z2persist" or name.startswith("z2persist."))]
    undo = []
    try:
        for mod, attr in targets:
            home = importlib.import_module(f"z2persist.{mod}")
            cls_name, _, fn_name = attr.rpartition(".")
            owner = getattr(home, cls_name, None) if cls_name else home
            fn = vars(owner).get(fn_name) if owner is not None else None
            if fn is None:
                continue
            new = wrap(f"{mod}.{attr}", fn)
            owners = [owner] if cls_name else modules
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is fn:
                        setattr(o, key, new)
                        undo.append((o, key, value))
        yield
    finally:
        for o, key, value in reversed(undo):
            setattr(o, key, value)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, self.job]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def self_times(self, scales) -> Counter:
        """Span name -> summed duration minus the durations of child spans,
        each span scaled by its job's entry in `scales` (speed.py)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, job), c in zip(self.spans, child):
            out[name] += (end - start - c) * scales[job]
        return out

    def layer_metrics(self, scales) -> dict:
        own = self.self_times(scales)
        calls = Counter(s[0] for s in self.spans)
        out = {m: float(sum(own[n] for n in names)) for m, names in SELF_TIME.items()}
        out.update({m: calls[n] for m, n in CALLS.items()})
        return out


class Counts:
    """Work counters filled during the counting pass."""

    def __init__(self):
        self.c = Counter()
        self._building = 0

    def wrap(self, name, fn):
        c = self.c
        if name == "z2.add_into":
            def counted(a, b):
                c["persistence.column_additions"] += 1
                c["persistence.entries_touched"] += len(a) + len(b)
                return fn(a, b)
        elif name == "persistence.reduce_filtration":
            def counted(fc, *args, **kwargs):
                red = fn(fc, *args, **kwargs)
                cells = fc.cells
                c["persistence.pairs"] += len(red.pairs)
                c["persistence.zero_length_pairs"] += sum(
                    1 for i, j in red.pairs if cells[i].value == cells[j].value)
                c["persistence.essential"] += len(red.unpaired)
                return red
        elif name == "distances.bottleneck":
            def counted(b1, b2, *args, **kwargs):
                c["distances.bars"] += len(b1) + len(b2)
                return fn(b1, b2, *args, **kwargs)
        else:
            def counted(*args, **kwargs):
                # Only the outermost builder counts: parse_spx builds
                # through lower_star, and that is one complex.
                self._building += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._building -= 1
                if not self._building:
                    self._add_complex(name, out, args)
                return out
        return functools.wraps(fn)(counted)

    def _add_complex(self, name, out, args):
        c = self.c
        fc = out.complex if name == "extended.build_cone_filtration" else out
        dims = Counter(cell.dim for cell in fc.cells)
        c["cells"] += len(fc.cells)
        for k in range(4):
            c[f"cells.dim{k}"] += dims[k]
        if name == "extended.build_cone_filtration":
            c["extended.cone_cells"] += len(fc.cells)
        if name == "rips.rips_filtration":
            c["rips.cells"] += len(fc.cells)
            c["rips.top_dim_cells"] += dims[args[1].max_dim]

    def layer_metrics(self) -> dict:
        c = self.c
        out = {k: c[k] for k in (
            "cells", "cells.dim0", "cells.dim1", "cells.dim2", "cells.dim3",
            "extended.cone_cells", "persistence.pairs", "persistence.zero_length_pairs",
            "persistence.essential", "persistence.column_additions",
            "persistence.entries_touched", "distances.bars")}
        out["rips.top_dim_frac"] = (
            c["rips.top_dim_cells"] / c["rips.cells"] if c["rips.cells"] else 0.0)
        pairs = c["persistence.pairs"]
        out["persistence.useful_pair_frac"] = (
            (pairs - c["persistence.zero_length_pairs"]) / pairs if pairs else 0.0)
        return out
