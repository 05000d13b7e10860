"""Rules on the library's source text and on the README that documents it."""

import ast
import glob
import os
import re

from okmod import cli

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


def test_readme_usage_names_exactly_the_cli_options():
    # the usage block of the README lists every option of the parser, and
    # no option the parser lacks
    readme = os.path.join(os.path.dirname(os.path.dirname(SRC)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```\nokmod <command>")
    block = text[start:text.index("```", start + 3)]
    named = set(re.findall(r"--[a-z][a-z-]*", block))
    options = {opt for action in cli._build_argparser()._actions
               for opt in action.option_strings if opt not in ("-h", "--help")}
    assert options
    assert named == options


def test_trusted_element_constructor_stays_in_the_arithmetic():
    # numberfield._make builds elements without validating them; only the
    # arithmetic that produced the coefficients may call it, never code that
    # handles outside input
    allowed = {"numberfield.py", "reduction.py"}
    users = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            if re.search(r"\b_make\b", fh.read()):
                users.add(os.path.basename(path))
    assert "numberfield.py" in users
    assert users <= allowed, sorted(users - allowed)


def test_determinant_takes_no_integer_solve():
    # the minors next to the witness come from the multi-modular
    # elimination, so determinant.py needs neither the rational solve nor
    # the identity matrix that the block system over Z was built with
    path = os.path.join(SRC, "determinant.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("zlinalg")
                for alias in node.names}
    assert "hnf_with_modulus" in imported
    assert not imported & {"solve_left", "identity"}, sorted(imported)
    assert not any(isinstance(node, ast.Attribute) and node.attr in ("solve_left", "identity")
                   for node in ast.walk(tree))
