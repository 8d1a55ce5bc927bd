"""Every function perfbench/tracing.py times or counts is still in the
library.  The tracer skips a target it cannot find, and the metrics fed by
it then read zero, so a rename (say of `parse_spx`) would silently empty a
per-layer figure such as `complexes.parse_s`."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from z2persist import BifiltrationSpec, klein_height, klein_height_skeleton
from z2persist import extended, persistence

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# Targets the library no longer has; their metrics read zero.
GONE = {("complexes", "sort_filtration"), ("z2", "rank"), ("z2", "add_into")}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod, attr):
    """The function `tracing.wrapped` would wrap for this target, or None."""
    owner = importlib.import_module(f"z2persist.{mod}")
    cls_name, _, fn_name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name, None)
    return vars(owner).get(fn_name) if owner is not None else None


tracing = _tracing()
TARGETS = sorted(set(tracing.SPAN_TARGETS) | set(tracing.COUNT_TARGETS))


@pytest.mark.parametrize("target", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_trace_target_resolves_unless_listed_as_gone(target):
    fn = _resolve(*target)
    if target in GONE:
        assert fn is None, f"{target} is back: take it off GONE"
    else:
        assert callable(fn), f"perfbench/tracing.py would skip {target}"


def test_bar_extraction_reduces_once_through_the_traced_binding(monkeypatch):
    # The tracer times persistence.reduce_filtration apart from the bar
    # extraction around it; a private path to the engine would move the
    # reduction's time into persistence.bars_s.
    engine = []
    real = persistence._reduce
    monkeypatch.setattr(persistence, "_reduce", lambda *args: engine.append(1) or real(*args))
    tracer = tracing.Tracer()
    targets = [("persistence", "barcode"), ("extended", "extended_barcode"),
               ("persistence", "reduce_filtration")]
    sk, f = klein_height_skeleton(2.0, 1.0)
    with tracing.wrapped(targets, tracer.wrap):
        persistence.barcode(klein_height(2.0, 1.0))
        extended.extended_barcode(BifiltrationSpec(sk, f, M=2.0, lam=1.0))
    spans = [(name, tracer.spans[parent][0] if parent >= 0 else None)
             for name, _, _, parent, _ in tracer.spans]
    assert spans == [
        ("persistence.barcode", None),
        ("persistence.reduce_filtration", "persistence.barcode"),
        ("extended.extended_barcode", None),
        ("persistence.barcode", "extended.extended_barcode"),
        ("persistence.reduce_filtration", "persistence.barcode"),
    ]
    assert len(engine) == 2
