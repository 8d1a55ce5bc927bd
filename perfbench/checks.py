"""Output checks: every job's output against the references recorded in
``refs/``, plus properties the benchmark verifies with its own code."""
from __future__ import annotations

import math
from collections import Counter

TOL = 1e-9

# Rips jobs build the 2-skeleton; its H2 bars carry no information and a
# later engine may stop computing them, so only degrees <= 1 are compared.
RIPS_MAX_DEGREE = 1


class CheckError(Exception):
    pass


def bars_by_degree(bars, max_degree=None) -> dict:
    """{"<degree>": sorted [[birth, death or None], ...]} for JSON."""
    out: dict[str, list] = {}
    for d, b, e in bars:
        if max_degree is None or d <= max_degree:
            out.setdefault(str(d), []).append([b, None if e == math.inf else e])
    for v in out.values():
        v.sort(key=lambda bar: (bar[0], math.inf if bar[1] is None else bar[1]))
    return dict(sorted(out.items()))


def parse_bcx_text(text: str) -> list[tuple[int, float, float]]:
    bars = []
    for line in text.splitlines():
        d, b, e = line.split()
        bars.append((int(d), float(b), math.inf if e == "inf" else float(e)))
    return bars


def parse_homology(text: str) -> tuple[dict, dict]:
    """Betti numbers and generators (lists of vertex tuples) by degree."""
    betti, gens = {}, {}
    for line in text.splitlines():
        tag, k, rest = line.split(" ", 2)
        if tag == "betti":
            betti[k] = int(rest)
        elif tag == "generator":
            gens.setdefault(k, []).append(
                [tuple(int(v) for v in name.split("-")) for name in rest.split("+")])
        else:
            raise CheckError(f"unexpected homology line {line!r}")
    return betti, gens


def canonical(kind: str, out) -> dict:
    """The part of a job's output that is compared with its reference."""
    if kind == "rips":
        bars = ((d, iv.birth, iv.death) for d, iv in out)
        return {"bars": bars_by_degree(bars, RIPS_MAX_DEGREE)}
    code, text = out
    if code != 0:
        raise CheckError(f"exit code {code}")
    if kind in ("extended", "persist"):
        return {"bars": bars_by_degree(parse_bcx_text(text))}
    if kind == "homology":
        return {"betti": parse_homology(text)[0]}
    if kind == "distance":
        return {"distance": float(text)}
    raise CheckError(f"unknown job kind {kind!r}")


def _same_bars(got: dict, want: dict) -> str:
    if sorted(got) != sorted(want):
        return f"degrees {sorted(got)} != {sorted(want)}"
    for d in want:
        if len(got[d]) != len(want[d]):
            return f"degree {d}: {len(got[d])} bars, expected {len(want[d])}"
        for g, w in zip(got[d], want[d]):
            for x, y in zip(g, w):
                if (x is None) != (y is None) or (x is not None and abs(x - y) > TOL):
                    return f"degree {d}: bar {g} != {w}"
    return ""


def _is_cycle(chain) -> bool:
    boundary = Counter(s[:i] + s[i + 1:] for s in chain if len(s) > 1
                       for i in range(len(s)))
    return all(n % 2 == 0 for n in boundary.values())


def problems(job, out, ref: dict) -> list[str]:
    """Everything wrong with one job's output; empty when it passes."""
    kind = job.spec.kind
    try:
        got = canonical(kind, out)
    except (CheckError, ValueError) as e:
        return [f"unreadable output: {e}"]
    found = []
    if "bars" in got:
        bad = _same_bars(got["bars"], ref["bars"])
        if bad:
            found.append(bad)
        essential = {d: sum(1 for _, e in v if e is None) for d, v in got["bars"].items()}
        if kind == "extended" and any(essential.values()):
            found.append(f"extended barcode has infinite bars {essential}")
        if kind == "persist":
            chi = sum((-1) ** int(d) * n for d, n in essential.items())
            if chi != job.euler:
                found.append(f"essential bars give Euler characteristic {chi}, "
                             f"expected {job.euler}")
    if kind == "homology":
        betti, gens = parse_homology(out[1])
        if betti != ref["betti"]:
            found.append(f"betti {betti} != {ref['betti']}")
        chi = sum((-1) ** int(k) * b for k, b in betti.items())
        if chi != job.euler:
            found.append(f"Betti numbers give Euler characteristic {chi}, "
                         f"expected {job.euler}")
        for k, b in betti.items():
            if len(gens.get(k, [])) != b:
                found.append(f"{len(gens.get(k, []))} generators in degree {k}, betti {b}")
        for k, chains in gens.items():
            for chain in chains:
                if any(len(s) != int(k) + 1 for s in chain) or not _is_cycle(chain):
                    found.append(f"degree-{k} generator is not a cycle")
                    break
    if kind == "distance" and got["distance"] != ref["distance"]:
        found.append(f"distance {got['distance']!r} != {ref['distance']!r}")
    return found
