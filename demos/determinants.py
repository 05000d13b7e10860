#!/usr/bin/env python3
"""Multi-modular determinants over a ring of integers.

The determinant of an integral matrix is computed in the residue fields of
enough word-size unramified primes (split by factoring the defining
polynomial), glued back by polynomial and integer Chinese remaindering, and
recovered by a symmetric lift under a proven coefficient bound.
"""

import random

from okmod import (FractionalIdeal, PseudoMatrix, build_field, det, det_bound,
                   determinantal_ideal, determinantal_ideal_multiple,
                   plan_primes, rank_and_submatrix, split_prime)

rng = random.Random(11)

K = build_field([1, 0, 1])
one, i = K.one(), K.element([0, 1])

print("== the machinery, piece by piece ==")
plan = plan_primes(K, 20)
print("prime plan for 20 bits:", plan.primes, " product:", plan.modulus)
sys5 = split_prime(K, 5)
print("x^2+1 mod 5 factors:", sys5.factors, " (5 splits)")
sys3 = split_prime(K, 3)
print("x^2+1 mod 3 factors:", sys3.factors, " (3 is inert)")

print()
print("== determinants ==")
A = [[one + i, K.from_int(2)], [K.zero(), K.from_int(3)]]
print("det [[1+i, 2], [0, 3]] =", det(K, A))
B = [[one, i], [i, one]]
print("det [[1, i], [i, 1]]   =", det(K, B))
print("coefficient bound (log2) for a 4x4 with entries up to 50:",
      float(det_bound(K, 4, 50)))

print()
print("== rectangular rank probing ==")
rows = [[one, i], [one, i], [K.from_int(2), K.element([0, 2])]]
s, ridx, cidx, dsub = rank_and_submatrix(K, rows)
print("three proportional rows: rank", s, " witness rows", ridx,
      "cols", cidx, " minor", dsub)

print()
print("== determinantal ideals of pseudo-matrices ==")
u = FractionalIdeal.unit(K)
pm = PseudoMatrix(K, A, [u, FractionalIdeal.from_generators(K, [one + i])])
print("square exact:", determinantal_ideal(pm))
tall = PseudoMatrix(K, [[K.from_int(2), K.zero()], [K.zero(), K.from_int(2)],
                        [one, one]], [u, u, u])
print("rectangular witness multiple:", determinantal_ideal_multiple(tall))
