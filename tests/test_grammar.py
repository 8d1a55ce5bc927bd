"""Every source and test file must parse under the Python 3.10 grammar,
the oldest version the package supports (pyproject.toml)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def parses_as_310(text: str, name: str = "<text>") -> bool:
    try:
        ast.parse(text, filename=name, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_file_parses_as_python_310(path):
    assert parses_as_310(path.read_text(), str(path))


def test_the_check_rejects_newer_grammar():
    assert parses_as_310("try:\n    pass\nexcept ValueError:\n    pass\n")
    assert not parses_as_310("try:\n    pass\nexcept* ValueError:\n    pass\n")
