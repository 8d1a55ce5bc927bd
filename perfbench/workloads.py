"""Seeded inputs and jobs of the benchmark workloads.

Every job is one spec (a shape and size) in one of VARIANTS seeded
variants.  A variant's input depends only on the spec's input key and the
variant number, so the references in ``refs/`` cover every input any run
can draw; the run seed deals the variants to jobs and orders the jobs.
The library only sees the generated point clouds and files.
"""
from __future__ import annotations

import contextlib
import io
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from z2persist import cli, persistence, rips

VARIANTS = 2

# Heights and bar endpoints are multiples of 2**-8, so every value the
# library prints is exact and the outputs do not depend on the order of
# floating-point operations.
QUANTUM = 1.0 / 256


@dataclass(frozen=True)
class Spec:
    name: str            # unique; the reference key is "<name>#<variant>"
    kind: str            # rips | extended | persist | homology | distance
    count: int           # jobs of this spec in a run, a multiple of VARIANTS
    params: tuple = ()   # (key, value) pairs
    input_key: str = ""  # specs sharing an input key share their inputs
    baseline: str = ""   # ROADMAP baseline row this spec reproduces

    def p(self, key):
        return dict(self.params)[key]


def _rips(shape, n, threshold, count, baseline=""):
    return Spec(f"rips-{shape}-n{n}-t{threshold}", "rips", count,
                (("shape", shape), ("n", n), ("threshold", threshold)),
                baseline=baseline)


def _surfaces(surface, m, counts):
    return [
        Spec(f"{kind}-{surface}{m}", kind, c, (("surface", surface), ("m", m)),
             input_key=f"{surface}{m}")
        for kind, c in zip(("extended", "persist", "homology"), counts)
        if c
    ]


def _pair(relation, n0, n1, count):
    return Spec(f"distance-{relation}-{n0}+{n1}", "distance", count,
                (("relation", relation), ("n0", n0), ("n1", n1)))


# A run is 112 jobs, so more than ten lie beyond p90.  Sorted by run
# time, the top eight are the largest jobs, the next eight or sixteen are
# one spec (p90 falls in the middle of them), and jobs of about one size
# surround the median, so neither quantile sits on a jump between two
# sizes.  Each input of that spec is in the list four or eight times, so
# p90 is one input's median of 16 or 32 runs (see run.py).
WORKLOADS: dict[str, list[Spec]] = {
    "rips-clouds": [
        _rips("circle", 40, 0.8, 16),
        _rips("figure8", 80, 0.5, 16),
        _rips("torus", 80, 0.7, 16),
        _rips("circle", 60, 0.6, 12),
        _rips("torus", 120, 0.6, 12),
        _rips("figure8", 120, 0.45, 8),
        _rips("torus", 200, 0.45, 8),
        _rips("circle", 80, 0.5, 8),
        _rips("torus", 200, 0.5, 8),
        _rips("circle", 100, 0.8, 4, baseline="Rips n=100, thr 0.8"),
        _rips("circle", 150, 0.6, 4, baseline="Rips n=150, thr 0.6"),
    ],
    "surface-cli": [
        *_surfaces("torus", 8, (12, 12, 12)),
        *_surfaces("klein", 12, (16, 8, 24)),
        *_surfaces("torus", 16, (4, 12, 8)),
        *_surfaces("klein", 16, (4, 0, 0)),
    ],
    "bottleneck-pairs": [
        _pair("jitter", 6, 4, 16),
        _pair("unrelated", 6, 4, 16),
        _pair("jitter", 14, 10, 16),
        _pair("unrelated", 14, 10, 16),
        _pair("jitter", 20, 16, 8),
        _pair("unrelated", 17, 13, 8),
        _pair("jitter", 24, 18, 8),
        _pair("unrelated", 20, 16, 8),
        _pair("jitter", 36, 28, 8),
        _pair("unrelated", 36, 28, 8),
    ],
}


def input_rng(spec: Spec, variant: int) -> np.random.Generator:
    key = spec.input_key or spec.name
    return np.random.default_rng([zlib.crc32(key.encode()), variant])


def quantize(x):
    return np.round(np.asarray(x, dtype=float) / QUANTUM) * QUANTUM


# ---------------------------------------------------------------------------
# point clouds


def point_cloud(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Noisy circle (sigma 0.05, as in the ROADMAP baseline), two touching
    circles, or a torus sample in R^3."""
    t = rng.uniform(0.0, 2 * math.pi, n)
    if shape == "circle":
        pts = np.column_stack([np.cos(t), np.sin(t)])
        return pts + rng.normal(0.0, 0.05, pts.shape)
    if shape == "figure8":
        side = 2.0 * rng.integers(0, 2, n) - 1.0
        pts = np.column_stack([side + side * np.cos(t), np.sin(t)])
        return pts + rng.normal(0.0, 0.03, pts.shape)
    if shape == "torus":
        u = rng.uniform(0.0, 2 * math.pi, n)
        r = 1.0 + 0.45 * np.cos(u)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t), 0.45 * np.sin(u)])
        return pts + rng.normal(0.0, 0.03, pts.shape)
    raise ValueError(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# triangulated surfaces


def surface_triangles(surface: str, m: int) -> list[tuple[int, int, int]]:
    """m x m grid triangulation of the torus, or of the Klein bottle when
    crossing the i-seam reflects j."""
    def vid(i, j):
        wraps, i = divmod(i, m)
        if surface == "klein" and wraps % 2:
            j = -j
        return i * m + j % m

    tris = []
    for i in range(m):
        for j in range(m):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [tuple(sorted((a, b, c))), tuple(sorted((a, c, d)))]
    return tris


def surface_heights(m: int, rng: np.random.Generator) -> np.ndarray:
    """Height of a standing torus, (2 + cos phi) cos theta, plus noise.
    cos phi is even, so the values are continuous across the Klein seam."""
    theta = 2 * math.pi * np.arange(m) / m
    phi = 2 * math.pi * np.arange(m) / m
    h = np.outer(np.cos(theta), 2.0 + np.cos(phi)).ravel()
    return quantize(h + rng.normal(0.0, 0.15, h.shape))


def faces(simplex: tuple) -> list[tuple]:
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


def closure(tris) -> dict[int, set]:
    out = {0: set(), 1: set(), 2: set(tris)}
    for t in tris:
        for e in faces(t):
            out[1].add(e)
            out[0].update(faces(e))
    return out


def euler_characteristic(tris) -> int:
    cells = closure(tris)
    return len(cells[0]) - len(cells[1]) + len(cells[2])


def fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# barcodes for the distance workload


def random_diagram(rng, n0, n1, scale):
    """Degree 0: one essential bar and n0-1 finite; degree 1: n1 finite.
    Seven bars in ten are short, so most sit near the diagonal; `scale`
    stretches all lengths.  Endpoints are quantized."""
    bars = [(0, float(quantize(rng.uniform(0, 0.5))), math.inf)]
    for d, n, lo, hi in ((0, n0 - 1, 0.0, 1.0), (1, n1, 0.5, 2.0)):
        births = quantize(rng.uniform(lo, hi, n))
        mean = np.where(rng.random(n) < 0.7, 0.04, 0.5) * scale
        lengths = quantize(rng.exponential(mean)) + QUANTUM
        bars += [(d, float(b), float(b + l)) for b, l in zip(births, lengths)]
    return bars


def jitter(rng, bars, sigma=0.02):
    out = []
    for d, b, e in bars:
        nb = float(quantize(b + rng.normal(0.0, sigma)))
        ne = e if e == math.inf else float(quantize(e + rng.normal(0.0, sigma)))
        out.append((d, nb, max(ne, nb + QUANTUM)))
    return out


def bcx(bars) -> str:
    return "".join(
        f"{d} {fmt(b)} {'inf' if e == math.inf else fmt(e)}\n" for d, b, e in bars
    )


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    spec: Spec
    variant: int
    argv: list = field(default_factory=list)    # CLI jobs
    cloud: object = None                        # rips jobs
    size: dict = field(default_factory=dict)    # input sizes for the record
    euler: int = 0                              # of a surface, for the checks

    @property
    def key(self) -> str:
        return f"{self.spec.name}#{self.variant}"

    def run(self):
        """Run the job; return a Barcode (rips) or (exit code, stdout)."""
        if self.spec.kind == "rips":
            params = rips.RipsParams(max_dim=2, threshold=self.spec.p("threshold"))
            fc = rips.rips_filtration(self.cloud, params)
            fc.validate()
            return persistence.barcode(fc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue()


def prepare(spec: Spec, variant: int, workdir: Path) -> Job:
    """Generate the job's input; CLI inputs are written under workdir."""
    rng = input_rng(spec, variant)
    job = Job(spec, variant)
    if spec.kind == "rips":
        pts = point_cloud(spec.p("shape"), spec.p("n"), rng)
        job.cloud = rips.PointCloud(tuple(map(tuple, pts.tolist())))
        job.size = {"points": spec.p("n")}
        return job
    if spec.kind == "distance":
        n0, n1 = spec.p("n0"), spec.p("n1")
        left = random_diagram(rng, n0, n1, 1.0)
        if spec.p("relation") == "jitter":
            right = jitter(rng, left)
        else:
            right = random_diagram(rng, n0, n1, 2.0)
        a = workdir / f"{job.key}-a.bcx"
        b = workdir / f"{job.key}-b.bcx"
        a.write_text(bcx(left))
        b.write_text(bcx(right))
        job.argv = ["distance", str(a), str(b)]
        job.size = {"bars": len(left) + len(right)}
        return job
    surface, m = spec.p("surface"), spec.p("m")
    tris = surface_triangles(surface, m)
    heights = surface_heights(m, rng)
    stem = workdir / f"{spec.input_key}#{variant}"
    if spec.kind == "extended":
        spx, vals = stem.with_suffix(".spx"), stem.with_suffix(".vals")
        spx.write_text("".join(f"{a} {b} {c}\n" for a, b, c in tris))
        vals.write_text("".join(f"{v} {fmt(h)}\n" for v, h in enumerate(heights)))
        job.argv = ["extended", str(spx), "--vertex-values", str(vals)]
    else:
        # Every simplex is listed with its lower-star value: the SPX parser
        # would otherwise give a missing face the minimum of its cofaces.
        path = stem.with_suffix(".ls.spx")
        if not path.exists():
            lines = []
            for dim, simplices in sorted(closure(tris).items()):
                for s in sorted(simplices):
                    value = max(heights[v] for v in s)
                    lines.append(f"{fmt(value)} {' '.join(map(str, s))}\n")
            path.write_text("".join(lines))
        job.argv = [spec.kind, str(path), "--format", "spx"]
    job.size = {"vertices": m * m, "triangles": len(tris)}
    job.euler = euler_characteristic(tris)
    return job


def job_list(workload: str, seed: int, scale: int = 1) -> list[tuple[Spec, int]]:
    """The run's jobs, `scale` times each spec's count, in a seeded order.

    Each spec's variants are dealt from seed-shuffled decks of all
    VARIANTS, so every input appears equally often and runs with
    different seeds do the same work in a different order.  The spread
    between seeds is then measurement noise, not a different draw of
    inputs.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for spec in WORKLOADS[workload]:
        decks = [rng.permutation(VARIANTS) for _ in range(spec.count * scale // VARIANTS)]
        jobs += [(spec, int(v)) for v in np.concatenate(decks)]
    return [jobs[i] for i in rng.permutation(len(jobs))]
