#!/usr/bin/env python3
"""Building field contexts and computing with elements, exactly.

A field context bundles everything the normal-form algorithms need: the
defining polynomial, an integral basis, structure constants, trace data, and
certified conversion constants between coefficients and embeddings.
Elements are integer coefficient vectors over the integral basis divided by
a minimal positive denominator, so every operation below is exact.
"""

from fractions import Fraction

from okmod import build_field

print("== Gaussian integers: f = x^2 + 1, basis (1, i) ==")
K = build_field([1, 0, 1])
print("degree:", K.degree, " disc:", K.disc, " index:", K.index)
one, i = K.one(), K.element([0, 1])

print("(1+i)(1-i)      =", (one + i) * (one - i))
print("(1+i)^2         =", (one + i) * (one + i))
print("(1+i)^-1        =", K.inv(one + i))
print("N(1+i), Tr(i)   =", K.norm(one + i), ",", K.trace(i))
print("regular rep of i:", K.regular_representation(i))

print()
print("== A non-monogenic-looking basis: f = x^2 - 5 with (1, (1+sqrt5)/2) ==")
K5 = build_field([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
print("disc(f) =", K5.disc_f, " index =", K5.index, " field disc =", K5.disc)
w = K5.element([0, 1])  # the golden ratio: w^2 = w + 1
print("w^2 == w + 1:", w * w == w + K5.one())

print()
print("== The cubic x^3 - x - 1 (disc -23) ==")
K3 = build_field([-1, -1, 0, 1])
a = K3.element([0, 1, 0])
print("a^3 - a - 1 == 0:", a * a * a - a - K3.one() == K3.zero())
x = K3.element([3, -2, 5], 7)
print("x * x^-1 == 1:", x * K3.inv(x) == K3.one())

print()
print("certified conversion constants (rounded-up rationals):")
for name, F in [("Q(i)", K), ("Q(sqrt5)", K5), ("cubic", K3)]:
    print(f"  {name:9} C1^2 = {float(F.embed_bound_sq):9.3f}  "
          f"C2 = {float(F.coeff_bound):6.3f}")

print()
print("size surrogate S (bit-size scale, rounded up):")
print("  S(x)      =", float(K3.size(x)))
print("  S(x^-1)   =", float(K3.size(K3.inv(x))))
print("  S(0)      =", float(K3.size(K3.zero())))
