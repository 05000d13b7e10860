#!/usr/bin/env python3
"""Pseudo-Hermite normal form of a module over a ring of integers.

A pseudo-matrix (A, (a_i)) presents the module sum of a_i * row_i inside
O_K^m.  The modular elimination triangularizes it with unit diagonal while
normalization keeps every working coefficient ideal integral with norm below
a bound depending only on the field.  Entries are reduced modulo a multiple
of the determinantal ideal, which pseudo_hnf finds itself: on tall input a
sum of maximal minors, far smaller than one witness minor.  The absolute
integer Hermite form of the module certifies that nothing changed.
"""

import random

from okmod import (FractionalIdeal, PseudoMatrix, build_field, canonicalize,
                   determinantal_ideal_multiple, module_hnf, pseudo_hnf,
                   to_absolute)
from okmod.numeric import frac_sqrt_ub

rng = random.Random(23)

print("== the integer case first: K = Q recovers the classical HNF ==")
Q = build_field([0, 1])
uq = FractionalIdeal.unit(Q)
rows = [[Q.from_int(2), Q.zero()], [Q.zero(), Q.from_int(2)], [Q.one(), Q.one()]]
pm = PseudoMatrix(Q, rows, [uq] * 3)
raw = pseudo_hnf(pm)
out = canonicalize(raw)
print("input rows  : [[2,0],[0,2],[1,1]]")
print("witness minor multiple:", determinantal_ideal_multiple(pm), " (the minor 4)")
print("multiple reduced by   :", raw.det_ideal, " (gcd of the minors 4, 2, -2)")
print("output rows :", [[str(e) for e in r] for r in out.rows])
print("row ideals  :", out.ideals)
print("absolute HNF:", module_hnf(out), " (the classical [[2,0],[1,1]])")

print()
print("== a genuinely relative example over Q(i) ==")
K = build_field([1, 0, 1])
u = FractionalIdeal.unit(K)
one, i = K.one(), K.element([0, 1])
p = FractionalIdeal.from_generators(K, [one + i])
pm = PseudoMatrix(K, [[one + i, K.zero()], [K.zero(), one + i], [one, one]],
                  [u, u, p])
print("witness minor multiple:", determinantal_ideal_multiple(pm))
trace = []
out = pseudo_hnf(pm, verify=True, trace=trace)
print("multiple reduced by   :", out.det_ideal)
print("triangular block with unit diagonal:")
for r in range(pm.ncols):
    print("  ", [str(e) for e in out.rows[r]], " ideal:", out.ideals[r])
print("module preserved:", module_hnf(pm) == module_hnf(out))
print("largest active ideal minimum seen:", max(trace) if trace else "-",
      " vs static bound", float(frac_sqrt_ub(K.lattice_context.norm_bound_sq())))

print()
print("== canonical form is unique across presentations ==")
perm = [2, 0, 1]
pm2 = PseudoMatrix(K, [pm.rows[t] for t in perm], [pm.ideals[t] for t in perm])
c1 = canonicalize(pseudo_hnf(pm))
c2 = canonicalize(pseudo_hnf(pm2))
c3 = canonicalize(pseudo_hnf(pm, determinantal_ideal_multiple(pm)))
print("same top block:", c1.rows[:2] == c2.rows[:2] and c1.ideals[:2] == c2.ideals[:2])
print("same form modulo the witness multiple:", (c1.rows, c1.ideals) == (c3.rows, c3.ideals))

print()
print("== the absolute oracle in the open ==")
print("to_absolute of the input spans the lattice:")
for row in to_absolute(pm):
    print("  ", row)
