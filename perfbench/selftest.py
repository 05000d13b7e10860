"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs one plain and one traced pass of every workload on a reduced corpus
with all output checks on, checks that the tracer puts every okmod function
back, that the sympy oracles reject a deliberately wrong answer, and that
the metrics and units agree with BENCHMARK.json.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run

REDUCED = {
    "HNF_SHAPES": [("Qm5", 4, 3), ("cubic", 3, 3)],
    "DET_OPS": [("det", "Qm5", 4), ("detideal", "cubic", 4, 2)],
    "CLI_OPS": [("hnf", "Qm5", 3, 3), ("snf", "cubic", 2)],
}


def _bindings():
    """Every attribute of every okmod module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "okmod" or name.startswith("okmod."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = id(val)
                if isinstance(val, type) and val.__module__ == name:
                    for meth, raw in vars(val).items():
                        out[(name, attr, meth)] = id(raw)
    return out


def _expect_rejected(what, fn, *args):
    import oracle
    try:
        fn(*args)
    except oracle.CheckFailed:
        return []
    return [f"oracle accepted a wrong {what}"]


def _doubled_first_ideal(pm):
    """The same pseudo-matrix with its first coefficient ideal doubled: a
    module of index 2^d in the original."""
    rows, ideals = copy.deepcopy(pm)
    num, den = ideals[0]
    ideals[0] = ([[2 * x for x in r] for r in num], den)
    return rows, ideals


def _oracle_mutations(wl, op, result):
    """Corrupt the output of one operation and expect the oracle to refuse it."""
    import corpus
    import oracle
    import workloads as w
    F = oracle.Field(corpus.FIELD_POLYS[op[1]])
    if wl.name == "hnf":
        return _expect_rejected("pseudo-HNF", oracle.check_hnf_output, F,
                                w.pseudo_data(op[2]),
                                _doubled_first_ideal(w.pseudo_data(result[1])))
    if op[0] == "det":
        coeffs, den = w.element_data(result)
        return _expect_rejected("determinant", oracle.check_det, F,
                                [[w.element_data(e) for e in row] for row in op[3]],
                                ([coeffs[0] + 1] + coeffs[1:], den))
    if op[0] == "detideal":
        unit = ([[int(i == j) for j in range(F.d)] for i in range(F.d)], 1)
        return _expect_rejected("determinantal ideal", oracle.check_detideal, F,
                                w.pseudo_data(op[3]), unit)
    body, _ = wl._parsed(op, result)
    if op[0] == "hnf":
        return _expect_rejected("printed pseudo-HNF", oracle.check_hnf_output, F,
                                w.pseudo_data(op[2]), _doubled_first_ideal(body))
    num, den = body[0]
    body[0] = ([[2 * x for x in r] for r in num], den)
    mat = op[2]
    bp = ([[w.element_data(e) for e in row] for row in mat.rows],
          [w.ideal_data(a) for a in mat.row_ideals],
          [w.ideal_data(a) for a in mat.col_ideals])
    return _expect_rejected("divisor chain", oracle.check_snf_chain, F, bp, body)


def main():
    run._load_program()
    import importlib

    import corpus
    import tracer
    import workloads
    for m in tracer.MODULES:
        importlib.import_module(f"okmod.{m}")
    for key, value in REDUCED.items():
        setattr(corpus, key, value)
    run.SETUP_REPEATS = 1
    run.MIN_TIMED_PASSES = 1
    run.MIN_TRACED_PASSES = 1
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.LAYER_METRICS:
        problems.append("per-layer metrics differ from BENCHMARK.json")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    before = _bindings()
    for name, cls in workloads.WORKLOADS.items():
        workdir = os.path.join(run.HERE, "_work", f"selftest-{name}-{os.getpid()}")
        try:
            wl = cls()
            correct, attempted, failed, metrics = run.run_plain(wl, 0, 0, workdir)
            if not correct or failed or attempted != 2 * len(wl.ops):
                problems.append(f"{name}: correct={correct} failed={failed} "
                                f"attempted={attempted}")
            if set(metrics) != end_to_end:
                problems.append(f"{name}: end-to-end metrics {sorted(metrics)}")
            for op in wl.ops:
                problems += [f"{name}: {p}" for p in
                             _oracle_mutations(wl, op, wl.run(op))]
            correct, _, failed, layers = run.run_traced(wl, 0, 0, workdir)
            if not correct or failed:
                problems.append(f"{name} traced: correct={correct} failed={failed}")
            if set(layers) != set(run.LAYER_METRICS):
                problems.append(f"{name}: per-layer metrics differ from the table")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if _bindings() != before:
        problems.append("the tracer left okmod functions replaced")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
