"""What other code sees of okmod: the exported names, and the benchmark's own
self-test, which imports the library's modules, field attributes and the
methods its tracer wraps."""

import importlib.util
import os
import subprocess
import sys

import pytest

import okmod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPORTS = [
    "BiPseudoMatrix", "DivisorChain", "FieldElement", "FieldError",
    "FractionalIdeal", "IdealError", "LatticeContext", "NumberField",
    "PrimePlan", "PseudoMatrix", "QualityError", "ReducedBasisCache",
    "ResidueSystem", "build_context", "build_field", "canonicalize",
    "crt_combine_factors", "crt_combine_primes", "det", "det_bound",
    "determinantal_ideal", "determinantal_ideal_multiple", "euclidean_step",
    "idempotents", "lift_to_field", "module_hnf", "normalize_row",
    "plan_primes", "project_element", "pseudo_hnf", "pseudo_snf",
    "quotient_determinantal_ideal", "rank_and_submatrix",
    "reduce_ideal_basis", "reduce_mod_ideal", "shortest_basis_element",
    "split_prime", "to_absolute",
]


def test_exports_are_pinned():
    assert okmod.__all__ == EXPORTS
    assert all(hasattr(okmod, name) for name in EXPORTS)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None,
                    reason="the benchmark's oracles need sympy")
def test_benchmark_selftest_passes():
    # the self-test removes its own work directories but not their parent;
    # a parent this run created is removed again once it is empty
    work = os.path.join(ROOT, "perfbench", "_work")
    existed = os.path.exists(work)
    try:
        proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
    finally:
        if not existed and os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: PASS" in proc.stdout


def test_a_cold_field_needs_only_mpmath():
    # mpmath is the one runtime dependency; the float start of the root
    # solve is plain Python, so nothing pulls in numpy
    code = ("import sys\nimport okmod\nokmod.build_field([-1, -1, 0, 0, 1]).lattice_context\n"
            "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
