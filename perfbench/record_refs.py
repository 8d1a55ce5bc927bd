#!/usr/bin/env python3
"""Record the reference outputs in ``perfbench/refs/`` from the library as
it is now, for every spec and variant a run can draw.

    python3 perfbench/record_refs.py [workload ...]

The references were recorded once, at the commit that defined the
benchmark; re-recording them at a later commit would hide a change in
the library's answers.  Each recorded output must also pass the
property checks in checks.py.
"""
from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict:
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in workloads.WORKLOADS[workload]:
            for variant in range(workloads.VARIANTS):
                job = workloads.prepare(spec, variant, Path(tmp))
                out = job.run()
                ref = checks.canonical(spec.kind, out)
                bad = checks.problems(job, out, ref)
                if bad:
                    raise SystemExit(f"{job.key}: {bad}")
                refs[job.key] = ref
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "jobs": refs}


def main(names) -> int:
    (BENCH / "refs").mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        path = BENCH / "refs" / f"{name}.json"
        rec = record(name)
        jobs = ",\n".join(f"{json.dumps(key)}: {json.dumps(ref, separators=(',', ':'))}"
                           for key, ref in sorted(rec.pop("jobs").items()))
        head = json.dumps(rec)[:-1]
        path.write_text(f'{head}, "jobs": {{\n{jobs}\n}}}}\n')
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
