"""The package, its tests and the benchmark parse as Python 3.10.

This checks grammar only (``ast.parse`` with ``feature_version``), not
that every standard-library name used exists in 3.10.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_as_python_3_10():
    paths = sorted(
        path
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert {"montecarlo.py", "test_python_floor.py", "run.py"} <= {
        path.name for path in paths
    }
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)
