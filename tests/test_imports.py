"""The package's import graph: `import z2persist` loads no submodule, the
CLI's text-only subcommands never load numpy, and every public name
resolves on first use to the same object as in its home module."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z2persist

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names and the module each was defined in before the package
# imported its submodules on first use; a submodule is its own home.
HOMES = {
    "complexes": "Cell ComplexError FilteredComplex VertexFunction klein_delta klein_height "
                 "klein_height_skeleton lower_star ng_cw torus_delta torus_height_skeleton",
    "distances": "Matching bottleneck bottleneck_matching interleaved interval_distance "
                 "stability_harness",
    "extended": "BifiltrationSpec build_cone_filtration extended_barcode extended_rank "
                "single_interval_rank",
    "homology": "betti betti_numbers duality_check generators summarize",
    "persistence": "Barcode Interval barcode barcode_dimension_function "
                   "characteristic_sum_identity_check dimension_function parse_bcx "
                   "persistent_betti reduce_filtration",
    "rips": "PointCloud RipsParams betti_curve betti_curve_csv rips_filtration",
    "z2": "",
}
HOME = {name: mod for mod, names in HOMES.items() for name in (mod, *names.split())}


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports the package from src/."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)


TEXT_ONLY = """
import json, sys
loaded = lambda: ["numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("z2persist."))]
seen = []
import z2persist
seen.append(loaded())
import z2persist.cli as cli
seen.append(loaded())
codes = [cli.main(["distance", sys.argv[1], sys.argv[2]])]
seen.append(loaded())
codes.append(cli.main(["betti-curve", sys.argv[1], "--grid", "0:1:0.5"]))
seen.append(loaded())
print(json.dumps([codes, seen]), file=sys.stderr)
"""


def test_text_only_subcommands_load_no_numpy(tmp_path):
    left, right = tmp_path / "a.bcx", tmp_path / "b.bcx"
    left.write_text("0 0 1\n0 0 inf\n")
    right.write_text("0 0.25 1\n0 0 inf\n")
    proc = fresh_python(TEXT_ONLY, str(left), str(right))
    assert proc.returncode == 0, proc.stderr
    codes, seen = json.loads(proc.stderr)
    assert codes == [0, 0]
    assert proc.stdout == "0.25\nt,b0\n0.0,2\n0.5,2\n1.0,1\n"
    assert [numpy for numpy, _ in seen] == [False] * 4
    assert seen[0][1] == []  # `import z2persist` loads no submodule
    assert seen[1][1] == ["z2persist.cli", "z2persist.text"]


def test_malformed_bcx_to_distance_exits_2_in_a_fresh_process(tmp_path):
    good, bad = tmp_path / "good.bcx", tmp_path / "bad.bcx"
    good.write_text("0 0 inf\n")
    bad.write_text("0 0 1\n0 x 1\n")
    proc = fresh_python("import sys; from z2persist.cli import main; sys.exit(main())",
                        "distance", str(good), str(bad))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: line 2: malformed number in `0 x 1`\n"


def test_public_names_are_those_of_their_home_modules():
    assert sorted(z2persist.__all__) == sorted(HOME) and len(HOME) == 48
    for name, mod in HOME.items():
        home = importlib.import_module(f"z2persist.{mod}")
        expected = home if name == mod else getattr(home, name)
        assert getattr(z2persist, name) is expected, name
    assert set(HOME) <= set(dir(z2persist))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from z2persist import *", namespace)
    assert set(HOME) <= namespace.keys()
    assert all(namespace[name] is getattr(z2persist, name) for name in HOME)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        z2persist.nope
    assert not hasattr(z2persist, "nope")
