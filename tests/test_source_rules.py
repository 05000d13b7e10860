"""Rules on the library's source text."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "okmod")


def test_library_has_no_assert_statements():
    # python -O strips assert, so a runtime invariant must raise an exception
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
