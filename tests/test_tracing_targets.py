"""Every function perfbench/tracing.py times or counts is still in the
library.  The tracer skips a target it cannot find, and the metrics fed by
it then read zero, so a rename (say of `parse_spx`) would silently empty a
per-layer figure such as `complexes.parse_s`."""
import importlib
import importlib.util
from pathlib import Path

import pytest

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

