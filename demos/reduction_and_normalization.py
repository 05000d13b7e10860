#!/usr/bin/env python3
"""The two size-control devices: element reduction and row normalization.

Reduction replaces an element by a representative of its class modulo an
ideal whose trace-form length is bounded by field invariants; normalization
rescales a pseudo-row so its coefficient ideal becomes integral with norm at
most l^(d^2) sqrt|disc|.  Together they are what keeps the normal-form
eliminations from blowing up.
"""

import random

from okmod import FractionalIdeal, build_field, normalize_row, reduce_mod_ideal
from okmod.numeric import frac_sqrt_ub
from okmod.reduction import ReducedBasisCache, check_reduced_bound
from okmod.lattice import reduce_ideal_basis, shortest_basis_element

rng = random.Random(7)

print("== plain rationals first: reduction is centered rounding ==")
Q = build_field([0, 1])
five = FractionalIdeal.from_rational(Q, 5)
for x in (7, 12, -11):
    print(f"  {x:>3} mod (5) ->", reduce_mod_ideal(Q.from_int(x), five))

print()
print("== reduced ideal bases under the rounded trace form ==")
K = build_field([1, 0, 1])
ctx = K.lattice_context
print("context:", ctx)
p = FractionalIdeal.from_generators(K, [K.element([1, 1])])
print("reduced basis of (1+i):", reduce_ideal_basis(p, ctx))
print("shortest element of (2+i)-ideal:",
      shortest_basis_element(FractionalIdeal.from_generators(K, [K.element([2, 1])]), ctx))

print()
print("== reducing elements modulo ideals in Q(i) ==")
cache = ReducedBasisCache(ctx)
a = FractionalIdeal.from_generators(K, [K.element([2, 1])])
for _ in range(3):
    x = K.element([rng.randint(-99, 99), rng.randint(-99, 99)])
    red = reduce_mod_ideal(x, a, cache)
    print(f"  {x} -> {red}   in-class: {a.contains(x - red)}, "
          f"bound ok: {check_reduced_bound(red, a, ctx)}")

print()
print("== normalizing pseudo-rows over the cubic field ==")
K3 = build_field([-1, -1, 0, 1])
ctx3 = K3.lattice_context
bound = frac_sqrt_ub(ctx3.norm_bound_sq())
print("norm bound l^(d^2) sqrt|disc| ~", float(bound))
cache3 = ReducedBasisCache(ctx3)
for _ in range(3):
    ideal = FractionalIdeal.from_generators(
        K3, [K3.element([rng.randint(-9, 9) for _ in range(3)], rng.randint(1, 3))])
    row = [K3.element([rng.randint(-20, 20) for _ in range(3)]) for _ in range(2)]
    nrow, nid, scalar = normalize_row(row, ideal, cache3)
    print(f"  N(ideal) = {float(ideal.norm()):12.3f} -> N = {float(nid.norm()):6.3f} "
          f"(integral: {nid.is_integral()}, scalar {scalar})")
