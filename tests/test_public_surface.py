"""What other code sees of okmod: the exported names, and the benchmark's own
self-test, which imports the library's modules, field attributes and the
methods its tracer wraps."""

import importlib.util
import inspect
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


# how each export is called: parameter names, kinds and defaults (the
# annotations are documentation, not part of the calling contract); an
# exception class is pinned by the built-in error it refines
SIGNATURES = {
    "BiPseudoMatrix": "(field, rows, row_ideals, col_ideals)",
    "DivisorChain": "(ideals)",
    "FieldElement": "(field, coeffs, den=1)",
    "FieldError": "raises ValueError",
    "FractionalIdeal": "(field, num, den=1)",
    "IdealError": "raises ValueError",
    "LatticeContext": "(field, e, r_e, ell_sq, quality_sq, c_quality)",
    "NumberField": "(*, _token=None, **data)",
    "PrimePlan": "(log_bound, primes, modulus)",
    "PseudoMatrix": "(field, rows, ideals, det_ideal=None)",
    "QualityError": "raises RuntimeError",
    "ReducedBasisCache": "(ctx)",
    "ResidueSystem": "(field, p, fbar, factors, proj_mats, crt_mults)",
    "build_context": "(field, e=None)",
    "build_field": "(poly_coeffs, basis_rows=None)",
    "canonicalize": "(pm)",
    "crt_combine_factors": "(values, sys)",
    "crt_combine_primes": "(per_prime, plan, degree)",
    "det": "(field, rows)",
    "det_bound": "(field, n, height)",
    "determinantal_ideal": "(pm)",
    "determinantal_ideal_multiple": "(pm)",
    "euclidean_step": "(a, b, alpha, beta, cache=None)",
    "idempotents": "(a, b)",
    "lift_to_field": "(coeffs, field, modulus)",
    "module_hnf": "(pm)",
    "normalize_row": "(row, a, ctx=None, cache=None)",
    "plan_primes": "(field, log_bound)",
    "project_element": "(beta, sys)",
    "pseudo_hnf": "(pm, det_ideal=None, verify=False, trace=None)",
    "pseudo_snf": "(bp, det_ideal=None, verify=False)",
    "quotient_determinantal_ideal": "(bp)",
    "rank_and_submatrix": "(field, rows)",
    "reduce_ideal_basis": "(ideal, ctx)",
    "reduce_mod_ideal": "(alpha, a, cache=None, basis=None, centered=True)",
    "shortest_basis_element": "(ideal, ctx)",
    "split_prime": "(field, p)",
    "to_absolute": "(pm)",
}


def calling_shape(obj) -> str:
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return "raises " + obj.__mro__[1].__name__
    sig = inspect.signature(obj)
    empty = inspect.Parameter.empty
    return str(sig.replace(parameters=[p.replace(annotation=empty)
                                       for p in sig.parameters.values()],
                           return_annotation=empty))


def test_exports_are_pinned():
    assert okmod.__all__ == EXPORTS
    assert all(hasattr(okmod, name) for name in EXPORTS)


def test_export_signatures_are_pinned():
    assert list(SIGNATURES) == EXPORTS
    assert {name: calling_shape(getattr(okmod, name)) for name in EXPORTS} == SIGNATURES


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
