"""Every source file keeps to the oldest Python that pyproject allows."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_parses_as_python_3_10():
    sources = sorted(path for tree in ("src", "tests", "perfbench") for path in (ROOT / tree).rglob("*.py"))
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
