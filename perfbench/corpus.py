"""Seeded input corpora for the okmod benchmark.

Every corpus has a fixed make-up (fields, shapes, share of non-trivial
coefficient ideals); the seed only draws the entries and the ideal
generators.  Fixing the make-up keeps the cost of a pass nearly the same from
one seed to the next, which a free choice of shapes would not: pseudo-HNF
time grows steeply with the number of rows and the degree.
"""

from __future__ import annotations

import random

FIELD_POLYS = {
    "Qm5": [5, 0, 1],                   # Q(sqrt -5), class number 2
    "cubic": [-1, -1, 0, 1],            # x^3 - x - 1, disc -23
    "quartic": [-1, -1, 0, 0, 1],       # x^4 - x - 1, disc -283
    "quintic": [-1, -1, 0, 0, 0, 1],    # x^5 - x - 1, disc 2869
}

IDEAL_SHARE = 0.4

# (field, rows, columns) of the pseudo-matrices of one hnf pass.
HNF_SHAPES = [
    ("Qm5", 6, 6), ("Qm5", 7, 5), ("Qm5", 8, 8), ("Qm5", 8, 6), ("Qm5", 7, 7),
    ("cubic", 6, 6), ("cubic", 7, 5), ("cubic", 8, 6),
    ("quartic", 6, 4), ("quartic", 7, 5),
    ("quintic", 6, 3),
]
HNF_ENTRY = 10 ** 4

# ("det", field, n) square determinants; ("detideal", field, rows, columns).
DET_OPS = [
    ("det", "Qm5", 16), ("detideal", "Qm5", 12, 8),
    ("det", "cubic", 13), ("detideal", "cubic", 12, 8),
    ("det", "quartic", 11), ("detideal", "quartic", 12, 8),
    ("det", "quintic", 10), ("detideal", "quintic", 10, 6),
]
DET_ENTRY = 10 ** 6

# ("hnf", field, rows, columns) or ("snf", field, n), run alternately.  The
# hnf inputs are square (on tall ones the module is nearly always all of
# O_K^m and the printed form is trivial) and small: the plain-echelon --check
# oracle takes milliseconds there, but over 40 seeded inputs each it reached
# 1.7 s at 7x7 over Q(sqrt -5) and ran past 5 s at 5x5 over the cubic.
CLI_OPS = [
    ("hnf", "Qm5", 6, 6), ("snf", "Qm5", 4), ("hnf", "cubic", 4, 4), ("snf", "cubic", 4),
    ("hnf", "Qm5", 5, 5), ("snf", "quartic", 3), ("hnf", "cubic", 4, 4), ("snf", "Qm5", 5),
    ("hnf", "Qm5", 6, 6), ("snf", "cubic", 3), ("hnf", "Qm5", 5, 5), ("snf", "Qm5", 4),
    ("hnf", "Qm5", 6, 6), ("snf", "cubic", 4), ("hnf", "cubic", 4, 4), ("snf", "quartic", 3),
]
CLI_ENTRY = 10 ** 4


def build_fields(names):
    """Build each field and force its lazy contexts, so that passes are warm."""
    from okmod import FractionalIdeal, build_field
    fields = {}
    for name in names:
        K = build_field(FIELD_POLYS[name])
        K.lattice_context
        K.roots()
        K.two_element_rep
        K.basis_cache
        FractionalIdeal.unit(K).inverse()
        fields[name] = K
    return fields


def _element(rng, K, lim):
    return K.element([rng.randint(-lim, lim) for _ in range(K.degree)])


def _nonzero(rng, K, lim):
    while True:
        e = _element(rng, K, lim)
        if e:
            return e


def _ideal(rng, K, lim=6):
    """Proper integral ideal on one or two small generators."""
    from okmod import FractionalIdeal
    while True:
        gens = [_nonzero(rng, K, lim)]
        if rng.random() < 0.5:
            gens.append(_nonzero(rng, K, lim))
        a = FractionalIdeal.from_generators(K, gens)
        if not a.is_unit():
            return a


def _row_ideals(rng, K, n):
    """A fixed number of non-trivial ideals, at seeded positions."""
    from okmod import FractionalIdeal
    unit = FractionalIdeal.unit(K)
    chosen = set(rng.sample(range(n), round(IDEAL_SHARE * n)))
    return [_ideal(rng, K) if i in chosen else unit for i in range(n)]


def pseudo_matrix(rng, K, n, m, lim):
    """Integral pseudo-matrix; with entries this large it has full column
    rank except with negligible probability, which the workloads would count
    as a failed operation."""
    from okmod import PseudoMatrix
    rows = [[_element(rng, K, lim) for _ in range(m)] for _ in range(n)]
    return PseudoMatrix(K, rows, _row_ideals(rng, K, n))


def square_matrix(rng, K, n, lim):
    return [[_element(rng, K, lim) for _ in range(n)] for _ in range(n)]


def bipseudo_matrix(rng, K, n):
    """Integral nonsingular bi-pseudo matrix: a_ij in b_i a_j^-1."""
    from okmod import BiPseudoMatrix
    from okmod.determinant import det
    while True:
        row_ideals = [_ideal(rng, K) for _ in range(n)]
        col_ideals = [_ideal(rng, K) for _ in range(n)]
        col_inv = [a.inverse().basis_elements() for a in col_ideals]
        rows = []
        for i in range(n):
            bbasis = row_ideals[i].basis_elements()
            row = []
            for j in range(n):
                e = K.zero()
                for _ in range(K.degree):
                    e = e + rng.randint(-2, 2) * (rng.choice(bbasis) * rng.choice(col_inv[j]))
                row.append(e)
            rows.append(row)
        bp = BiPseudoMatrix(K, rows, row_ideals, col_ideals)
        dens = 1
        for row in rows:
            for e in row:
                dens *= e.den
        if det(K, [[e * dens for e in row] for row in rows]):
            return bp


def hnf_corpus(fields, seed):
    rng = random.Random(f"hnf-{seed}")
    return [(name, pseudo_matrix(rng, fields[name], n, m, HNF_ENTRY))
            for name, n, m in HNF_SHAPES]


def det_corpus(fields, seed):
    rng = random.Random(f"det-{seed}")
    out = []
    for op in DET_OPS:
        K = fields[op[1]]
        if op[0] == "det":
            out.append((op[0], op[1], square_matrix(rng, K, op[2], DET_ENTRY)))
        else:
            pm = pseudo_matrix(rng, K, op[2], op[3], HNF_ENTRY)
            # A random tall module is nearly always all of O_K^m; a common
            # non-unit factor in the last column gives it a proper index, so
            # that the check "N(result) is a multiple of the index" can fail.
            while True:
                c = _nonzero(rng, K, 3)
                if abs(c.norm()) > 1:
                    break
            for row in pm.rows:
                row[-1] = row[-1] * c
            out.append((op[0], op[1], pm))
    return out


def cli_corpus(fields, seed):
    rng = random.Random(f"cli-{seed}")
    out = []
    for op in CLI_OPS:
        K = fields[op[1]]
        if op[0] == "hnf":
            out.append((op[0], op[1], pseudo_matrix(rng, K, op[2], op[3], CLI_ENTRY)))
        else:
            out.append((op[0], op[1], bipseudo_matrix(rng, K, op[2])))
    return out


def field_text(name):
    """Field file for the okmod CLI, on the power basis."""
    poly = FIELD_POLYS[name]
    d = len(poly) - 1
    lines = [f"degree {d}", "poly " + " ".join(map(str, poly))]
    for i in range(d):
        lines.append(" ".join("1" if j == i else "0" for j in range(d)) + " / 1")
    return "\n".join(lines) + "\n"
