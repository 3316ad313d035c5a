"""Every Python file parses with the grammar of the oldest supported Python.

pyproject.toml declares Python >= 3.10 and the CI runs the tests on 3.10 too,
but a host without NumPy for 3.10 cannot.  Parsing each file here with
`feature_version=(3, 10)` finds syntax that needs a later Python (such as
`except*`) on any interpreter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    files = sorted(path for top in ("src", "tests", "perfbench", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert {path.parent.name for path in files} >= {"sgsurrogate", "tests", "perfbench",
                                                     "demos"}
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
