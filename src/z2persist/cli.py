"""Command-line surface: homology, persistence, extended persistence,
Rips, distances, Betti curves, bundled fixtures.

Exit codes: 0 success, 1 usage error, 2 input parse/validation failure.
Diagnostics go to stderr, data to stdout.  Each subcommand imports the
modules it needs, so `distance` and `betti-curve` never load numpy.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .text import ComplexError, format_value, text_lines

if TYPE_CHECKING:
    from .complexes import FilteredComplex
    from .persistence import Barcode


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path) as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ComplexError(f"cannot read {path}: {e}") from None


def _load_complex(path: str, fmt: str,
                  vertex_values: Optional[str] = None) -> FilteredComplex:
    from . import complexes
    text = _read(path)
    if fmt == "fcx":
        return complexes.parse_fcx(text)
    if vertex_values is None:
        return complexes.parse_spx(text)
    vv_text = _read(vertex_values)
    vv = complexes.parse_vertex_values(vv_text)
    fc = complexes.parse_spx(text, vv)
    # parse_spx needs a value for each vertex and takes more; a file pair
    # that gives a value to a vertex the complex lacks does not match.
    if len(vv) > fc.num_cells(0):
        present = {*map(int, fc.labels((fc.dims == 0).nonzero()[0]))}
        for (lineno, _), vertex in zip(text_lines(vv_text), vv):  # a value per line
            if vertex not in present:
                raise ComplexError(f"line {lineno}: vertex {vertex} is not in the complex")
    return fc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ComplexError(f"cannot write {path}: {e}") from None


def _emit_barcode(b: Barcode, svg_path: Optional[str]) -> None:
    sys.stdout.write(b.to_bcx())
    if svg_path:
        from . import svg
        _write(svg_path, svg.barcode_svg(b))


# Most values a Betti-curve grid may have.
_MAX_GRID = 100_000


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise UsageError("grid must be <start>:<stop>:<step>") from None
    if not (math.isfinite(start) and start <= stop < math.inf and 0 < step < math.inf):
        raise UsageError("grid needs finite start <= stop and finite step > 0")
    if (stop + 1e-12 - start) / step >= _MAX_GRID:  # the same slack as the loop below
        raise UsageError(f"grid would have more than {_MAX_GRID} values")
    out, i = [], 0
    while start + i * step <= stop + 1e-12:
        out.append(round(start + i * step, 12))
        i += 1
    return out


# Each fixture's text, made from the complexes and rips modules `c` and `r`.
EXAMPLES = {
    "klein_delta.fcx": lambda c, r: c.write_fcx(c.klein_delta()),
    "torus_delta.fcx": lambda c, r: c.write_fcx(c.torus_delta()),
    "ng3.fcx": lambda c, r: c.write_fcx(c.ng_cw(3)),
    "klein_height.fcx": lambda c, r: c.write_fcx(c.klein_height(2.0, 1.0)),
    "circle20.csv": lambda c, r: r.PointCloud(tuple(
        (math.cos(2 * math.pi * i / 20), math.sin(2 * math.pi * i / 20)) for i in range(20)
    )).to_csv(),
    "sample_points.csv": lambda c, r: resources.files("z2persist").joinpath(
        "data/sample_points.csv").read_text(),
}


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls
    (parsing keeps no state in it)."""
    p = _Parser(prog="z2persist", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("homology", help="Betti table and generators (FCX or SPX input)")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("fcx", "spx"), default="fcx")

    sp = sub.add_parser("persist", help="barcode of a filtered complex (BCX output)")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("fcx", "spx"), default="fcx")
    sp.add_argument("--svg")

    sp = sub.add_parser("extended", help="extended-persistence barcode (BCX output)")
    sp.add_argument("file", help="SPX simplex list (bare vertex lists)")
    sp.add_argument("--vertex-values", required=True,
                    help="file of `<vertex-id> <value>` lines")
    sp.add_argument("--spacing", type=float, default=1.0)
    sp.add_argument("--bound", type=float, default=None,
                    help="bound M (default max|f| + 1)")
    sp.add_argument("--svg")

    sp = sub.add_parser("rips", help="Rips barcode of a point-cloud CSV")
    sp.add_argument("points")
    sp.add_argument("--max-dim", type=int, required=True)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--step-size", type=float)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--radius-axis", action="store_true",
                    help="print scales halved (ball-radius convention)")
    sp.add_argument("--svg")

    sp = sub.add_parser("distance", help="bottleneck distance between two BCX files")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--dim", type=int, default=None)

    sp = sub.add_parser("betti-curve", help="Betti curves of a BCX file as CSV")
    sp.add_argument("file")
    sp.add_argument("--grid", required=True, help="<start>:<stop>:<step>")

    sp = sub.add_parser("example", help="write a bundled fixture file")
    sp.add_argument("name", choices=sorted(EXAMPLES))
    sp.add_argument("--out", default=None, help="output path (default: the name)")
    return p


def run(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "homology":
        import numpy as np
        from . import homology
        fc = _load_complex(args.file, args.format)  # validated by the parser
        summary = homology.summarize(fc)
        for k in sorted(summary.betti):
            print(f"betti {k} {summary.betti[k]}")
        for k in sorted(summary.generators):
            for cyc in summary.generators[k]:
                names = "+".join(sorted(fc.labels(np.fromiter(cyc, np.int64, len(cyc)))))
                print(f"generator {k} {names}")
        return 0

    if args.command == "persist":
        from . import persistence
        fc = _load_complex(args.file, args.format)  # validated by the parser
        _emit_barcode(persistence.barcode(fc), args.svg)
        return 0

    if args.command == "extended":
        from . import complexes, extended
        skeleton = _load_complex(args.file, "spx", args.vertex_values)
        vertices = (skeleton.dims == 0).nonzero()[0].tolist()
        f = complexes.VertexFunction(dict(zip(vertices, skeleton.values[vertices].tolist())))
        spec = extended.BifiltrationSpec(skeleton, f, M=args.bound, lam=args.spacing)
        _emit_barcode(extended.extended_barcode(spec), args.svg)
        return 0

    if args.command == "rips":
        from . import persistence, rips
        pc = rips.PointCloud.from_csv(_read(args.points))
        params = rips.RipsParams(
            max_dim=args.max_dim, steps=args.steps,
            step_size=args.step_size, threshold=args.threshold,
        )
        if params.scale_limit == math.inf:
            raise UsageError("give --threshold or --steps/--step-size")
        fc = rips.rips_filtration(pc, params)
        fc.validate()
        b = persistence.barcode(fc)
        if args.radius_axis:
            b = persistence.Barcode(columns=(  # halving keeps the bar order
                b.degrees, [s / 2 for s in b.births], [e / 2 for e in b.deaths]))
        _emit_barcode(b, args.svg)
        return 0

    if args.command == "distance":
        if args.dim is not None and args.dim < 0:
            raise UsageError("--dim must be nonnegative")
        from . import distances, persistence
        b1 = persistence.parse_bcx(_read(args.left))
        b2 = persistence.parse_bcx(_read(args.right))
        print(format_value(distances.bottleneck(b1, b2, args.dim)))
        return 0

    if args.command == "betti-curve":
        from . import persistence
        grid = _parse_grid(args.grid)
        b = persistence.parse_bcx(_read(args.file))
        sys.stdout.write(persistence.betti_curve_csv(b, grid))
        return 0

    if args.command == "example":
        from . import complexes, rips
        out = args.out if args.out else args.name
        _write(out, EXAMPLES[args.name](complexes, rips))
        print(f"wrote {out}", file=sys.stderr)
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else list(argv))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ComplexError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
