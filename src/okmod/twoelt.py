"""Deterministic two-element representation of the codifferent numerator.

Candidates are small integer combinations of the reduced basis of the ideal,
tried in increasing order of their certified T2 bound from the lattice
context (a fixed multiple of the exact integer |x r_e|^2); the first pair
whose generated ideal matches the full Hermite basis is accepted.  The search
box grows until a pair is found, which must happen since for any fixed
nonzero first generator a complementary second generator exists in a bounded
set of residue representatives.
"""

from __future__ import annotations

from itertools import product

from . import lattice


def two_element_rep(field):
    from .ideals import FractionalIdeal

    target = field.codifferent_numerator
    ctx = field.lattice_context
    basis = lattice.reduce_ideal_basis(target, ctx)
    d = field.degree
    k = 1
    while True:
        seen = set()
        cands = []
        for combo in product(range(-k, k + 1), repeat=d):
            if not any(combo):
                continue
            coeffs = [sum(combo[i] * basis[i][j] for i in range(d)) for j in range(d)]
            lead = next((c for c in coeffs if c), 0)
            if lead < 0:
                coeffs = [-c for c in coeffs]
            key = tuple(coeffs)
            if key in seen:
                continue
            seen.add(key)
            cands.append((ctx.t2_bound(coeffs), key, field.element(coeffs)))
        cands.sort(key=lambda t: (t[0], t[1]))
        cands = cands[:64]
        for s in range(1, 2 * len(cands) - 2):
            for i in range(max(0, s - len(cands) + 1), min(s, len(cands))):
                j = s - i
                if j <= i or j >= len(cands):
                    continue
                d1, d2 = cands[i][2], cands[j][2]
                if FractionalIdeal.from_generators(field, [d1, d2]) == target:
                    return (d1, d2,
                            field.regular_representation(d1),
                            field.regular_representation(d2))
        k += 1
