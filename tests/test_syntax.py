"""Every source file parses as Python 3.10, the oldest version CI runs."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_every_python_file_parses_as_3_10():
    assert len(FILES) > 30
    for path in FILES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
