#!/usr/bin/env python3
"""Pseudo-Hermite normal form of a module over a ring of integers.

A pseudo-matrix (A, (a_i)) presents the module sum of a_i * row_i inside
O_K^m.  The modular elimination triangularizes it with unit diagonal while
normalization keeps every working coefficient ideal integral with norm below
a bound depending only on the field.  The absolute integer Hermite form of
the module certifies that nothing changed.
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
dd = determinantal_ideal_multiple(pm)
out = canonicalize(pseudo_hnf(pm, dd))
print("input rows  : [[2,0],[0,2],[1,1]]")
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
dd = determinantal_ideal_multiple(pm)
print("determinantal ideal multiple:", dd)
trace = []
out = pseudo_hnf(pm, dd, verify=True, trace=trace)
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
c1 = canonicalize(pseudo_hnf(pm, determinantal_ideal_multiple(pm)))
c2 = canonicalize(pseudo_hnf(pm2, determinantal_ideal_multiple(pm2)))
print("same top block:", c1.rows[:2] == c2.rows[:2] and c1.ideals[:2] == c2.ideals[:2])

print()
print("== the absolute oracle in the open ==")
print("to_absolute of the input spans the lattice:")
for row in to_absolute(pm):
    print("  ", row)
