"""Z/2 persistent homology toolkit: filtered complexes, barcodes, extended
persistence, bottleneck distances and Vietoris-Rips filtrations."""

from .complexes import (
    Cell,
    ComplexError,
    FilteredComplex,
    VertexFunction,
    klein_delta,
    klein_height,
    klein_height_skeleton,
    lower_star,
    ng_cw,
    torus_delta,
    torus_height_skeleton,
)
from .distances import (
    Matching,
    bottleneck,
    bottleneck_matching,
    interleaved,
    interval_distance,
    stability_harness,
)
from .extended import (
    BifiltrationSpec,
    build_cone_filtration,
    extended_barcode,
    extended_rank,
    single_interval_rank,
)
from .homology import betti, betti_numbers, duality_check, generators, summarize
from .persistence import (
    Barcode,
    Interval,
    barcode,
    barcode_dimension_function,
    characteristic_sum_identity_check,
    dimension_function,
    parse_bcx,
    persistent_betti,
    reduce_filtration,
)
from .rips import PointCloud, RipsParams, betti_curve, betti_curve_csv, rips_filtration

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
