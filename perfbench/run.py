"""Benchmark of okmod: pseudo-HNF, determinants over O_K and the checked CLI.

    python3 perfbench/run.py --workload hnf|det|cli|all --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports okmod from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process, one after another.
See README.md for the design.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from clock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2

# Per-layer metrics and their units; the tracer snapshot holds each under
# the same name, except those in SNAPSHOT_KEY and the ratios computed here.
LAYER_METRICS = {
    "zlinalg.hnf.calls": "count",
    "zlinalg.hnf.s": "s",
    "zlinalg.hnf_with_modulus.calls": "count",
    "zlinalg.hnf_with_modulus.s": "s",
    "zlinalg.dixon_solve_left.s": "s",
    "zlinalg.self_s": "s",
    "numeric.certified_roots.s": "s",
    "twoelt.two_element_rep.s": "s",
    "numberfield.build_field.s": "s",
    "numberfield.inv.calls": "count",
    "numberfield.inv.s": "s",
    "numberfield.self_s": "s",
    "ideals.mul.calls": "count",
    "ideals.mul.s": "s",
    "ideals.inverse.calls": "count",
    "ideals.inverse.s": "s",
    "ideals.idempotents.calls": "count",
    "ideals.idempotents.s": "s",
    "ideals.self_s": "s",
    "lattice.build_context.s": "s",
    "lattice.reduce_ideal_basis.calls": "count",
    "lattice.reduce_ideal_basis.s": "s",
    "lattice.self_s": "s",
    "reduction.reduce_mod_ideal.calls": "count",
    "reduction.reduce_mod_ideal.s": "s",
    "reduction.normalize_row.calls": "count",
    "reduction.normalize_row.s": "s",
    "reduction.basis_cache_lookups": "count",
    "reduction.basis_cache_hit_ratio": "ratio",
    "reduction.self_s": "s",
    "residues.split_prime.calls": "count",
    "residues.split_prime.s": "s",
    "residues.primes_used": "count",
    "residues.project_element.s": "s",
    "residues.crt_combine_primes.s": "s",
    "residues.self_s": "s",
    "determinant.det.calls": "count",
    "determinant.det.s": "s",
    "determinant.rank_and_submatrix.s": "s",
    "determinant.self_s": "s",
    "pseudo_hnf.pseudo_hnf.s": "s",
    "pseudo_hnf.euclidean_step.calls": "count",
    "pseudo_hnf.euclidean_step.s": "s",
    "pseudo_hnf.canonicalize.s": "s",
    "pseudo_hnf.self_s": "s",
    "pseudo_snf.pseudo_snf.s": "s",
    "pseudo_snf.quotient_determinantal_ideal.s": "s",
    "pseudo_snf.self_s": "s",
    "cli.parse_s": "s",
    "cli.format_s": "s",
    "cli.check_hnf.s": "s",
    "cli.check_snf_chain.s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "trace.self_coverage": "ratio",
}
SNAPSHOT_KEY = {
    "reduction.basis_cache_lookups": "reduction.reduced_basis.calls",
    "cli.parse_s": "cli.parse.s",
    "cli.format_s": "cli.format.s",
}


def _load_program():
    """Import okmod from the checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "okmod", "__init__.py")):
        sys.exit(f"okmod sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import okmod
    if os.path.dirname(os.path.dirname(os.path.abspath(okmod.__file__))) != SRC:
        sys.exit(f"okmod imported from {okmod.__file__}, not from {SRC}")


def _ref_pass(wl, clock):
    """One pass on the rescaled clock: (seconds, wall seconds, outcome,
    per-operation seconds)."""
    gc.collect()
    outcome, times, wall = [], [], 0.0
    for op in wl.ops:
        result, t, w = clock.call(wl.run, op)
        outcome.append(result)
        times.append(t)
        wall += w
    return sum(times), wall, outcome, times


class Run:
    """Outcome bookkeeping shared by the plain and the traced run."""

    def __init__(self, wl):
        self.wl = wl
        self.passes = 0
        self.failed = 0
        self.reference = None     # plain data of the first pass
        self.last = None
        self.mismatch = False

    def record(self, outcome):
        plain = [None if isinstance(r, Exception) else self.wl.plain(op, r)
                 for op, r in zip(self.wl.ops, outcome)]
        self.passes += 1
        self.failed += sum(isinstance(r, Exception) for r in outcome)
        if self.reference is None:
            self.reference = plain
        elif plain != self.reference:
            self.mismatch = True
        self.last = outcome

    def finish(self):
        """(correct, attempted, failed, mean out_entry_bits) after the checks."""
        wl, outcome = self.wl, self.last
        for op, r in zip(wl.ops, outcome):
            if isinstance(r, Exception):
                print(f"failed: {type(r).__name__}: {r}", file=sys.stderr)
        done = [(op, r) for op, r in zip(wl.ops, outcome) if not isinstance(r, Exception)]
        bits = (statistics.fmean(wl.entry_bits(op, r) for op, r in done) if done else 0.0)
        import oracle
        correct = not self.mismatch
        if self.mismatch:
            print("check: outputs differ between passes", file=sys.stderr)
        for op, r in done:
            try:
                wl.check(op, r)
            except oracle.CheckFailed as exc:
                print(f"check failed on {op[:2]}: {exc}", file=sys.stderr)
                correct = False
        return correct, self.passes * len(wl.ops), self.failed, bits


def run_plain(wl, seed, seconds, workdir):
    clock = RefClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        err, t, _ = clock.call(wl.setup, seed, workdir)
        if err is not None:
            raise err
        setups.append(t)
    book = Run(wl)
    start = perf_counter()
    book.record(_ref_pass(wl, clock)[2])        # first pass: untimed warm-up
    times, walls, per_field = [], [], []
    while len(times) < MIN_TIMED_PASSES or perf_counter() - start < seconds:
        t, w, outcome, op_times = _ref_pass(wl, clock)
        times.append(t)
        walls.append(w)
        book.record(outcome)
        shares = {}
        for op, s in zip(wl.ops, op_times):
            shares[op[1]] = shares.get(op[1], 0.0) + s / t
        per_field.append(shares)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, attempted, failed, bits = book.finish()
    print(f"{wl.name}: {len(times)} timed passes of {len(wl.ops)} ops, rescaled s: "
          + " ".join(f"{t:.3f}" for t in times) + "; wall s: "
          + " ".join(f"{t:.3f}" for t in walls) + "; kernel ms median "
          + f"{statistics.median(clock.kernels) * 1e3:.2f}", file=sys.stderr)
    print(f"{wl.name}: share of batch_s by field: " + ", ".join(
        f"{name} {statistics.median(p[name] for p in per_field):.2f}"
        for name in per_field[0]), file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "batch_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "out_entry_bits": (bits, "bits"),
    }
    return correct, attempted, failed, metrics


def run_traced(wl, seed, seconds, workdir):
    from tracer import Tracer
    wl.setup(seed, workdir)
    clock = RefClock()
    book = Run(wl)
    start = perf_counter()
    book.record(_ref_pass(wl, clock)[2])
    plain, traced, snaps = [], [], []
    tracer = Tracer()
    while (len(traced) < MIN_TRACED_PASSES or perf_counter() - start < seconds):
        t, _, outcome, _ = _ref_pass(wl, clock)
        plain.append(t)
        book.record(outcome)
        tracer.install()
        try:
            t, wall, outcome, _ = _ref_pass(wl, clock)
        finally:
            tracer.restore()
        traced.append(t)
        book.record(outcome)
        snap = tracer.snapshot()
        tracer.reset()
        snap["trace.self_coverage"] = sum(
            v for k, v in snap.items() if k.endswith(".self_s")) / wall
        lookups = snap.get("reduction.reduced_basis.calls", 0)
        snap["reduction.basis_cache_hit_ratio"] = (
            1 - snap.get("lattice.reduce_ideal_basis.calls", 0) / lookups if lookups else 0.0)
        snaps.append(snap)
    correct, attempted, failed, _ = book.finish()
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead":
            value = statistics.median(traced) / statistics.median(plain) - 1
        else:
            key = SNAPSHOT_KEY.get(name, name)
            value = statistics.median(s.get(key, 0) for s in snaps)
        metrics[name] = (value, unit)
    print(f"{wl.name}: untraced passes " + " ".join(f"{t:.3f}" for t in plain)
          + "; traced passes " + " ".join(f"{t:.3f}" for t in traced), file=sys.stderr)
    return correct, attempted, failed, metrics


def _result(correct, attempted, failed, metrics):
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process; prints every metric by name."""
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        print(f"{name}: " + json.dumps(res))
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["hnf", "det", "cli", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    _load_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        import workloads
        wl = workloads.WORKLOADS[args.workload]()
        workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
        try:
            runner = run_traced if args.trace else run_plain
            result = _result(*runner(wl, args.seed, args.seconds, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(workdir))      # only if now empty
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        kind = "trace" if args.trace else "result"
        with open(os.path.join(out_dir, f"{kind}-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
