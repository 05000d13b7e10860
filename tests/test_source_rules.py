"""Rules on the library's source text and on the README that documents it."""

import ast
import glob
import os
import re

from okmod import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "okmod")


def modules_naming(pattern):
    """Base names of the library modules whose source matches ``pattern``."""
    users = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            if re.search(pattern, fh.read()):
                users.add(os.path.basename(path))
    return users


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
    users = modules_naming(r"\b_make\b")
    assert "numberfield.py" in users
    assert users <= allowed, sorted(users - allowed)


def test_exec_stays_in_the_compiled_product():
    # build_field compiles the coefficient product from integer indices and
    # structure constants; no other module runs generated source
    assert modules_naming(r"\bexec\b") == {"numberfield.py"}


def test_trusted_ideal_constructor_stays_in_the_ideal_arithmetic():
    # ideals._make_ideal builds ideals from Hermite forms without checking
    # them; only the ideal arithmetic that computed those forms may call it
    assert modules_naming(r"\b_make_ideal\b") == {"ideals.py"}


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


def test_inverses_and_norms_take_no_general_solve():
    # element inverses and norms come from Newton's identities on traces of
    # powers, and an ideal inverse from back substitution against a Hermite
    # basis: ideals.py imports neither the rational solve nor the
    # determinant, and NumberField.inv and NumberField.norm name neither
    banned = {"solve_left", "det_bareiss"}
    path = os.path.join(SRC, "ideals.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "hnf_with_modulus" in imported
    assert not imported & banned, sorted(imported & banned)
    path = os.path.join(SRC, "numberfield.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    methods = {node.name: node for top in tree.body
               if isinstance(top, ast.ClassDef) and top.name == "NumberField"
               for node in top.body if isinstance(node, ast.FunctionDef)}
    for name in ("inv", "norm"):
        named = {node.id for node in ast.walk(methods[name]) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(methods[name])
                  if isinstance(node, ast.Attribute)}
        assert "_char_poly" in named, name
        assert not named & banned, (name, sorted(named & banned))


def test_one_crt_loop_serves_every_determinant():
    # det, rank probing and both determinantal multiples share the witness
    # elimination: determinant.py plans usable primes and lifts coordinates
    # at one site each, inside _witness, and imports neither by name
    path = os.path.join(SRC, "determinant.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = {"lift_coordinates", "plan_usable_primes"}
    sites = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            sites += [(node.func.attr, top.name) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "residues" and node.func.attr in names]
    assert sorted(sites) == [("lift_coordinates", "_witness"), ("plan_usable_primes", "_witness")]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & names, sorted(imported & names)


def test_one_crt_loop_in_residues():
    # crt_combine_primes and lift_coordinates recombine through the same CRT
    # and symmetric lift, _crt_lift, the one function that reads a plan's
    # modulus
    path = os.path.join(SRC, "residues.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    readers = sorted(top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                     for node in ast.walk(top)
                     if isinstance(node, ast.Attribute) and node.attr == "modulus")
    assert readers == ["_crt_lift"]
    callers = sorted(scope for _, scope, _ in calls_by_function(path, "_crt_lift"))
    assert callers == ["crt_combine_primes", "lift_coordinates"]


def test_crt_multipliers_are_read_by_the_backward_map_alone():
    # every route from residues back to elements goes through the map of
    # ResidueSystem.to_basis, the one site that reads the CRT multipliers
    sites = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, child.name if scope is None else f"{scope}.{child.name}")
                    continue
                if isinstance(child, ast.Attribute) and child.attr == "crt_mults":
                    sites.append((os.path.basename(path), scope))
                visit(child, scope)

        visit(tree, None)
    assert sites == [("residues.py", "ResidueSystem.to_basis")]


def calls_by_function(path, name):
    """(module, enclosing function) of every call in the module at ``path``
    to ``name``, bare or as an attribute; a method reads Class.method."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if scope is None else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    sites.append((os.path.basename(path), scope, child))
            visit(child, scope)

    visit(tree, None)
    return sites


def test_one_ideal_memo_per_normal_form_call():
    # pseudo_hnf and pseudo_snf each build one ReducedBasisCache, which
    # serves the multiple, the elimination and the rerun on a finer context;
    # the field-wide cache is the only other one
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    built = sorted((module, scope) for path in paths
                   for module, scope, _ in calls_by_function(path, "ReducedBasisCache"))
    assert built == [("numberfield.py", "NumberField.basis_cache"),
                     ("pseudo_hnf.py", "pseudo_hnf"), ("pseudo_snf.py", "pseudo_snf")]
    # the rerun policy lives in ReducedBasisCache.run alone: it is the one
    # site that builds a context at a chosen exponent, twice the old one
    reruns = [(module, scope, call) for path in paths
              for module, scope, call in calls_by_function(path, "build_context")
              if len(call.args) + len(call.keywords) > 1]
    assert [(module, scope) for module, scope, _ in reruns] == [
        ("reduction.py", "ReducedBasisCache.run")]
    exponent = reruns[0][2].args[1]
    assert isinstance(exponent, ast.BinOp) and isinstance(exponent.op, ast.Mult)
    assert any(isinstance(side, ast.Constant) and side.value == 2
               for side in (exponent.left, exponent.right))
    # the multiple takes its inverses from the call's memo
    direct = [call.lineno for _, _, call in calls_by_function(os.path.join(SRC, "determinant.py"),
                                                               "inverse")
              if getattr(call.func.value, "id", None) != "cache"]
    assert direct == []


def test_one_step_rule_serves_both_normal_forms():
    # pseudo_hnf._clear_column is the one loop that steps two pseudo-vectors,
    # by a transvection or a Euclidean step: euclidean_step is called there
    # and in the last step of the Hermite elimination, and pseudo_snf names
    # neither euclidean_step nor lincomb, only the loop
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    steps = sorted((module, scope) for path in paths
                   for module, scope, _ in calls_by_function(path, "euclidean_step"))
    assert steps == [("pseudo_hnf.py", "_clear_column"), ("pseudo_hnf.py", "_eliminate")]
    assert "pseudo_snf.py" not in modules_naming(r"\b(euclidean_step|lincomb)\b")
    loops = sorted((module, scope) for path in paths
                   for module, scope, _ in calls_by_function(path, "_clear_column"))
    assert loops == [("pseudo_hnf.py", "_eliminate"), ("pseudo_snf.py", "row_pivot")]
