"""Z/2 persistent homology toolkit: filtered complexes, barcodes, extended
persistence, bottleneck distances and Vietoris-Rips filtrations.

Submodules are imported on first use (PEP 562), so `import z2persist`
loads none of them, and numpy only comes with the array modules."""

from importlib import import_module as _import_module

# Each public name by the submodule it is read from; a submodule is its own.
_HOMES = {
    "complexes": "Cell FilteredComplex VertexFunction klein_delta klein_height "
                 "klein_height_skeleton lower_star ng_cw torus_delta torus_height_skeleton",
    "distances": "Matching bottleneck bottleneck_matching interleaved interval_distance "
                 "stability_harness",
    "extended": "BifiltrationSpec build_cone_filtration extended_barcode extended_rank "
                "single_interval_rank",
    "homology": "betti betti_numbers duality_check generators summarize",
    "persistence": "Barcode Interval barcode barcode_dimension_function betti_curve "
                   "betti_curve_csv characteristic_sum_identity_check dimension_function "
                   "parse_bcx persistent_betti reduce_filtration",
    "rips": "PointCloud RipsParams rips_filtration",
    "text": "ComplexError",
    "z2": "",
}
_HOME = {name: mod for mod, names in _HOMES.items() for name in (mod, *names.split())}
__all__ = sorted(_HOME.keys() - {"text"})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
