"""The at-scale figures CI tracks (README, "Tracked figures").  Usage: python tests/scale.py"""
import contextlib
import io
import multiprocessing
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # nothing is written under perfbench/

import numpy as np
import workloads as w
from helpers import noisy_circle
from z2persist import (
    BifiltrationSpec, RipsParams, build_cone_filtration, cli, complexes, distances,
    persistence, rips, rips_filtration, summarize,
)


def best(k, run):
    """The least wall time of k calls of run, and the last call's result; each result is
    dropped before the next call."""
    times = []
    for _ in range(k):
        out = None
        start, out = time.perf_counter(), run()
        times.append(time.perf_counter() - start)
    return min(times), out


def shown(wall, digits=2, unit="s"):
    """A wall time from `best`, in s or ms."""
    return f"{wall * (1e3 if unit == 'ms' else 1):.{digits}f} {unit}"


def peak_rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # MB


def traced_peak(run):
    """The most memory, in MiB, that run's allocations held at once, under tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def union_find_merges(fc):
    """The degree-0 merges of `reduce_filtration`'s union-find: those it takes from the
    apparent vertex pairs before its walk, and those the walk finds.  Machine-independent."""
    real, seen = persistence._components, []
    persistence._components = lambda fc, settled, seeds: seen.append(
        (len(seeds), len(out := real(fc, settled, seeds)))) or out
    try:
        persistence.reduce_filtration(fc)
    finally:
        persistence._components = real
    [(seeded, walked)] = seen
    return f"union-find {seeded} merges seeded, {walked} walked"


def lower_star_spx(surface, m):
    """Every simplex of the m x m grid with its lower-star value, as the benchmark writes it."""
    tris, h = w.surface_triangles(surface, m), w.surface_heights(m, np.random.default_rng(0))
    return "".join(f"{w.fmt(max(h[v] for v in s))} {' '.join(map(str, s))}\n"
                   for _, cells in sorted(w.closure(tris).items()) for s in sorted(cells))


def probes_and_covers(b1, b2):
    """The `_probe` and `_cover` calls of one `bottleneck`, over all degrees.
    Machine-independent."""
    calls, real = [], {name: getattr(distances, name) for name in ("_probe", "_cover")}
    for name, f in real.items():
        setattr(distances, name, lambda *args, name=name, f=f: calls.append(name) or f(*args))
    try:
        distances.bottleneck(b1, b2)
    finally:
        for name, f in real.items():
            setattr(distances, name, f)
    return f"{calls.count('_probe')} probes, {calls.count('_cover')} covers"


def distance():
    """A benchmark diagram of 2,000 bars a degree against an unrelated one and against a
    jittered copy of it: the wall time of one whole `distance` process, run in src/, each,
    then the probes and covers of `bottleneck` on the same pair, in process."""
    rng = np.random.default_rng(0)
    a, b = (w.random_diagram(rng, 2000, 2000, scale) for scale in (1.0, 2.0))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"{name}.bcx") for name in "abj"]
        for path, bars in zip(paths, (a, b, w.jitter(rng, a))):
            path.write_text(w.bcx(bars))
        first = persistence.parse_bcx(paths[0].read_text())
        for name, other in zip(("unrelated", "jittered"), paths[1:]):
            print(f"{name} pair", flush=True)
            argv = [sys.executable, "-m", "z2persist.cli", "distance", paths[0], other]
            wall, _ = best(1, lambda: subprocess.run(argv, cwd=ROOT / "src", check=True))
            counts = probes_and_covers(first, persistence.parse_bcx(other.read_text()))
            print(f"wall {shown(wall, 3)}, {counts}")


def spx_reader():
    text = lower_star_spx("klein", 60)
    wall, fc = best(5, lambda: complexes.parse_spx(text))
    print(f"parse_spx klein m=60 lower-star: {len(fc)} cells, best of 5 {shown(wall, 1, 'ms')}")


def fcx_reader():
    text = complexes.write_fcx(complexes.parse_spx(lower_star_spx("klein", 120)))
    wall, fc = best(5, lambda: complexes.parse_fcx(text))
    print(f"parse_fcx klein m=120 lower-star: {len(fc)} cells, best of 5 {shown(wall, 1, 'ms')}")


def klein_200_lower_star():
    """On the Klein m=200 lower star: union-find's merges, then `summarize`'s wall time beside
    `reduce_filtration`'s, one call each, and the ratio of the two wall times."""
    fc = complexes.parse_spx(lower_star_spx("klein", 200))
    print(f"reduce_filtration klein m=200 lower-star: {len(fc)} cells, {union_find_merges(fc)}")
    pairs, _ = best(1, lambda: persistence.reduce_filtration(fc))
    cycles, _ = best(1, lambda: summarize(fc))
    print(f"summarize {shown(cycles)}, reduce_filtration {shown(pairs)}, "
          f"ratio {cycles / pairs:.2f}")


def summarized(name):
    fc = (rips_filtration(noisy_circle(300), RipsParams(max_dim=2, threshold=0.5)) if name == "rips"
          else complexes.parse_spx(lower_star_spx("klein", 60)))
    wall, gens = best(1, lambda: summarize(fc).generators)
    print(f"summarize {name}: {len(fc)} cells, wall {shown(wall)}, peak RSS {peak_rss():.0f} MB, "
          f"{sum(map(len, gens.values()))} generators")


def cli_homology():
    """The benchmark's p90 job; each of the five runs prints the same lines."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        (path := Path(tmp, "torus16.spx")).write_text(lower_star_spx("torus", 16))
        wall, code = best(5, lambda: cli.main(["homology", str(path), "--format", "spx"]))
    print(f"cli homology torus m=16 lower-star: exit {code}, "
          f"{len(out.getvalue().splitlines()) // 5} lines, best of 5 {shown(wall, 2, 'ms')}")


def rips_600():
    pc, params = noisy_circle(600), RipsParams(max_dim=2, threshold=0.35)
    wall, bars = best(1, lambda: persistence.barcode(rips_filtration(pc, params)))
    print(f"rips n=600 thr 0.35: wall {shown(wall)}, {len(bars)} bars, "
          f"peak RSS {peak_rss():.0f} MB")
    build, fc = best(1, lambda: rips_filtration(pc, params))
    reduce, red = best(1, lambda: persistence.reduce_filtration(fc))
    print(f"build {shown(build)}, reduce_filtration {shown(reduce)}, "
          f"column_additions {red.column_additions}")


def rips_1000():
    """The triangle candidates the clique expansion examines (each edge's last vertex's
    upper neighbours) against the edges x n row-wise adjacency masks would take, and the
    renumbering alone: `simplicial_filtration` on the clique arrays, without the expansion."""
    pc = noisy_circle(1000)
    adj = np.triu(pc.distance_matrix() <= 0.3, 1)
    edges, candidates = int(adj.sum()), int(adj.sum(axis=1)[np.nonzero(adj)[1]].sum())
    del adj
    params = RipsParams(max_dim=2, threshold=0.3)
    build, fc = best(3, lambda: rips_filtration(pc, params))
    reduce, red = best(3, lambda: persistence.reduce_filtration(fc))
    rss = peak_rss()
    bars, _ = best(3, lambda: persistence.barcode(fc))  # after the peak RSS, as it holds lists
    built = traced_peak(lambda: rips_filtration(pc, params))  # a second complex, traced whole
    cliques = rips._cliques(pc, params, len(pc))  # only read by the renumbering
    labels = [*map(str, range(len(pc)))]
    renumber, _ = best(3, lambda: complexes.simplicial_filtration(*cliques, labels))
    del cliques
    print(f"rips n=1000 thr 0.3: {len(fc)} cells, build best of 3 {shown(build)}, tracemalloc "
          f"peak {built:.1f} MiB with the complex, {candidates} triangle candidates ({edges} "
          f"edges x n = {edges * 1000}), reduce_filtration best of 3 {shown(reduce)}, barcode "
          f"best of 3 {shown(bars)}, column_additions {red.column_additions}, "
          f"{union_find_merges(fc)}, peak RSS {rss:.0f} MB, renumbering (simplicial_filtration "
          f"on the clique arrays) best of 3 {shown(renumber)}", flush=True)
    check, _ = best(5, fc.validate)
    peak = traced_peak(fc.validate)  # the complex is not traced, only what validate allocates
    print(f"validate best of 5 {shown(check, 3)}, tracemalloc peak {peak:.1f} MiB above the "
          f"complex")


def klein_100_validate():
    """`validate` on the Klein m=100 lower star (60,000 cells): the best of five times and
    its `tracemalloc` peak above the complex, which is not traced."""
    fc = complexes.parse_spx(lower_star_spx("klein", 100))
    check, _ = best(5, fc.validate)
    peak = traced_peak(fc.validate)
    print(f"validate klein m=100 lower-star: {len(fc)} cells, best of 5 {shown(check, 2, 'ms')}, "
          f"tracemalloc peak {peak:.2f} MiB above the complex")


def klein_argv(command, m, tmp):
    """The CLI arguments of the benchmark's `extended` or `homology` job (variant 0) on the
    Klein m x m grid, its input files written under tmp."""
    spec = w.Spec(f"{command}-klein{m}", command, w.VARIANTS, (("surface", "klein"), ("m", m)),
                  input_key=f"klein{m}")
    return w.prepare(spec, 0, Path(tmp)).argv


def klein_100_cone():
    """The columns `reduce_filtration`'s loop gets and the column additions it makes on the
    cone of the benchmark's `extended` job (variant 0) on the Klein m=100 grid, read as the
    CLI reads it.  Machine-independent."""
    with tempfile.TemporaryDirectory() as tmp:
        _, spx, _, values = klein_argv("extended", 100, tmp)
        skeleton = cli._load_complex(spx, "spx", values)
    vertices = np.flatnonzero(skeleton.dims == 0).tolist()
    f = complexes.VertexFunction(dict(zip(vertices, skeleton.values[vertices].tolist())))
    cone = build_cone_filtration(BifiltrationSpec(skeleton, f)).complex
    real, seen = persistence._reduce, []
    persistence._reduce = lambda ptr, flat, columns, *rest: (
        seen.append(len(columns)) or real(ptr, flat, columns, *rest))
    try:
        red = persistence.reduce_filtration(cone)
    finally:
        persistence._reduce = real
    print(f"reduce_filtration cone of klein m=100 extended: {len(cone)} cells, {seen[0]} loop "
          f"columns, column_additions {red.column_additions}")


def klein_200(command):
    """One whole CLI process of the benchmark's `extended` or `homology` job (variant 0) on
    the Klein m=200 grid, run in src/: its wall time and peak RSS."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sys.executable, "-m", "z2persist.cli", *klein_argv(command, 200, tmp)]
        wall, out = best(1, lambda: subprocess.run(argv, cwd=ROOT / "src", check=True,
                                                   stdout=subprocess.PIPE))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # MB, the CLI's
    print(f"cli {command} klein m=200: {len(out.stdout.splitlines())} lines, wall {shown(wall)}, "
          f"peak RSS {rss:.0f} MB")


def fcx_homology():
    """One whole CLI `homology` process, run in src/, on the FCX file, the CLI's default
    format, that `write_fcx` makes of the Klein m=120 lower star: its wall time and peak RSS."""
    fc = complexes.parse_spx(lower_star_spx("klein", 120))
    with tempfile.TemporaryDirectory() as tmp:
        (path := Path(tmp, "klein120.fcx")).write_text(complexes.write_fcx(fc))
        argv = [sys.executable, "-m", "z2persist.cli", "homology", str(path)]
        wall, out = best(1, lambda: subprocess.run(argv, cwd=ROOT / "src", check=True,
                                                   stdout=subprocess.PIPE))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # MB, the CLI's
    print(f"cli homology fcx klein m=120 lower-star: {len(fc)} cells, "
          f"{len(out.stdout.splitlines())} lines, wall {shown(wall)}, peak RSS {rss:.0f} MB")


def spx_cap():
    """One whole CLI `persist --format spx` process, run in src/, on 300 lines of 16 distinct
    vertices each (19,660,500 cells closed): it must stop at the cell cap, with exit 2 and
    no traceback.  Its exit code, wall time and peak RSS."""
    text = "".join(f"0 {' '.join(map(str, range(16 * i, 16 * i + 16)))}\n" for i in range(300))
    with tempfile.TemporaryDirectory() as tmp:
        (path := Path(tmp, "cap.spx")).write_text(text)
        argv = [sys.executable, "-m", "z2persist.cli", "persist", str(path), "--format", "spx"]
        wall, out = best(1, lambda: subprocess.run(argv, cwd=ROOT / "src", capture_output=True,
                                                   text=True))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # MB, the CLI's
    if out.returncode != 2 or not out.stderr.startswith("error: the SPX complex passes "):
        raise RuntimeError(f"the cell cap did not stop the closure: {out}")
    print(f"cli persist spx 300 lines of 16 vertices: exit {out.returncode}, wall {shown(wall)}, "
          f"peak RSS {rss:.0f} MB")


if __name__ == "__main__":
    spawn, failed = multiprocessing.get_context("spawn"), False  # a fresh interpreter per figure
    for figure, *args in ((distance,), (spx_reader,), (fcx_reader,), (summarized, "rips"),
                          (summarized, "klein"), (cli_homology,), (rips_600,), (rips_1000,),
                          (klein_100_validate,), (klein_200_lower_star,), (fcx_homology,),
                          (klein_100_cone,), (klein_200, "extended"), (klein_200, "homology"),
                          (spx_cap,)):
        (process := spawn.Process(target=figure, args=args)).start()
        process.join()
        failed |= process.exitcode != 0
    sys.exit(failed)
