"""Determinants over rings of integers by the multi-modular CRT method.

The determinant of an integral matrix is computed in every residue field of
enough word-size unramified primes, recombined by the two-stage Chinese
remainder construction and lifted symmetrically; the prime budget comes from
a proven coefficient bound, so the lift is exact.  Rectangular rank probing
reuses the same plans to find a witness nonsingular submatrix.  Both run one
greedy elimination over F_p[x]/(g), g a factor of degree k of f mod p.

The elimination holds the matrix as k planes, the x^t coefficients of its
residues, and each row of a plane as one Python integer: entry j sits in
slot j, bits [w*j, w*(j+1)), so a row update is a few big-integer
multiply-adds instead of a loop over entries.  Matrix rows are projected
straight into their packed plane rows, one reduction mod p per slot.  A
pivot row's tail is reduced once, made monic and stored as p - y, so
clearing a column only adds: a live row gains at most k products below p^2
per pivot, and an n-row matrix has at most n pivots.  Slots start below p,
so they stay below p + n*k*p^2 < 2^w for w = 2*bitlen(p) + bitlen(n*k) + 1
and no slot ever carries into the next; a slot is reduced mod p only when it
is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from . import residues
from .ideals import FractionalIdeal
from .numberfield import FieldElement, NumberField
from .numeric import frac_sqrt_ub, log2_ub
from .residues import Poly, poly_inverse_mod, poly_trim
from .zlinalg import SingularMatrixError, RankDeficiencyError


def entry_height(rows: list[list[FieldElement]]) -> int:
    """Max absolute coefficient over all (integral) entries; at least 1."""
    h = 1
    for row in rows:
        for e in row:
            for c in e.coeffs:
                if abs(c) > h:
                    h = abs(c)
    return h


def det_bound(field: NumberField, n: int, height: int) -> Fraction:
    """log2 of twice the coefficient bound for det of an n x n integral matrix.

    Both orders of the conversion constants are covered, which only costs a
    few extra primes.
    """
    c1 = frac_sqrt_ub(field.embed_bound_sq)
    c2 = field.coeff_bound
    base = max(c1 * c2 ** n, c2 * c1 ** n)
    bound = 2 * Fraction(n) ** n * base * Fraction(height) ** n
    return log2_ub(max(bound, Fraction(2)))


def _mult_matrix(a, g: Poly, p: int) -> list[tuple[int, ...]]:
    """k x k matrix of multiplication by a on F_p[x]/(g), g monic of degree k."""
    k = len(g) - 1
    col = list(a) + [0] * (k - len(a))
    cols = [col]
    for _ in range(k - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [(x - top * y) % p for x, y in zip(col, g)]
        cols.append(col)
    return list(zip(*cols))


def _pack(values: list[int], w: int) -> int:
    """values[j] in slot j, bits [w*j, w*(j+1)); each must be below 2^w."""
    acc = 0
    for v in reversed(values):
        acc = acc << w | v
    return acc


def _packed_planes(rows: list[list[FieldElement]], mat, p: int, w: int) -> list[list[int]]:
    """The k planes of the projection of rows by mat, one packed int per row.

    mat is the k x d projection of one residue factor (a row of
    ``ResidueSystem.proj_mats``); slot j of row i in plane t is the x^t
    coefficient of entry (i, j), reduced mod p.
    """
    return [[_pack([sum(map(mul, prow, e.coeffs)) % p for e in row], w) for row in rows]
            for prow in mat]


def _eliminate(planes: list[list[int]], m: int, g: Poly, p: int, w: int):
    """Greedy echelon form over F_p[x]/(g) of a matrix held as packed planes.

    planes[t][i] holds row i of the x^t plane, entry j in slot j (bits
    [w*j, w*(j+1))).  For each column in turn, the first live row with a
    nonzero residue becomes the pivot row.  Its tail right of the column is
    reduced once, made monic by the pivot inverse and stored negated, so
    clearing the column from a live row with residue a only adds: plane t
    gains sum_s M(a)[t][s] * negtail_s, M(a) the multiplication matrix.
    The other rows' slots are reduced mod p only when read; w must be at
    least ``_slot_width(p, n, k)`` so that no slot carries into the next.
    Returns the pivot rows and columns (original indices) and the
    determinant: the signed product of the pivots if every row holds a
    pivot, else zero.  The planes are overwritten.
    """
    n = len(planes[0])
    mask = (1 << w) - 1
    alive = list(range(n))
    rows_out: list[int] = []
    cols_out: list[int] = []
    prod = [1] + [0] * (len(g) - 2)
    for col in range(m):
        shift = w * col
        piv = None
        hits = []
        for r in alive:
            a = [(pl[r] >> shift & mask) % p for pl in planes]
            if any(a):
                if piv is None:
                    piv, pivot = r, a
                else:
                    hits.append((r, a))
        if piv is None:
            continue
        alive.remove(piv)
        rows_out.append(piv)
        cols_out.append(col)
        pivot = poly_trim(pivot, p)
        prod = [sum(map(mul, row, prod)) % p for row in _mult_matrix(pivot, g, p)]
        if not hits or col == m - 1:
            continue
        inv = _mult_matrix(poly_inverse_mod(pivot, g, p), g, p)
        tails = []
        for pl in planes:
            x = pl[piv] >> shift + w
            tail = []
            for _ in range(m - col - 1):
                tail.append((x & mask) % p)
                x >>= w
            tails.append(tail)
        negtails = [_pack([-sum(map(mul, irow, entry)) % p for entry in zip(*tails)], w)
                    << shift + w for irow in inv]
        for r, a in hits:
            mult = _mult_matrix(a, g, p)
            for t, pl in enumerate(planes):
                pl[r] += sum(map(mul, mult[t], negtails))
    if len(rows_out) < n:
        return rows_out, cols_out, ()
    if sum(a > b for i, a in enumerate(rows_out) for b in rows_out[i + 1:]) % 2:
        prod = [-x for x in prod]
    return rows_out, cols_out, poly_trim(prod, p)


def _slot_width(p: int, n: int, k: int) -> int:
    """Slot bits holding a residue below p plus n updates of k products below p^2."""
    return 2 * p.bit_length() + (n * k).bit_length() + 1


def _echelons(rows: list[list[FieldElement]], m: int, sys):
    """``_eliminate`` of the n x m matrix rows in each residue field of sys."""
    p, n = sys.p, len(rows)
    for g, mat in zip(sys.factors, sys.proj_mats):
        w = _slot_width(p, n, len(mat))
        yield _eliminate(_packed_planes(rows, mat, p, w), m, g, p, w)


def det(field: NumberField, rows: list[list[FieldElement]]) -> FieldElement:
    """Exact determinant of a square matrix with integral entries."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix not square")
    if any(e.den != 1 for r in rows for e in r):
        raise ValueError("determinant requires integral entries")
    plan = residues.plan_primes(field, det_bound(field, n, entry_height(rows)))
    per_prime = []
    for p in plan.primes:
        sys = field.residue_system(p)
        vals = [prod for _, _, prod in _echelons(rows, n, sys)]
        per_prime.append(residues.crt_combine_factors(vals, sys))
    coeffs = residues.crt_combine_primes(per_prime, plan, field.degree)
    return residues.lift_to_field(coeffs, field, plan.modulus)


def rank_and_submatrix(field: NumberField, rows: list[list[FieldElement]]):
    """Rank, witness row/column indices, and the witness minor's determinant.

    The rank is certified once the admissible-prime product exceeds the minor
    coefficient bound; the witness comes from the first residue field that
    achieves the maximal rank (greedy echelon pivots).  A zero matrix yields
    rank 0 with an empty witness and determinant 1 by convention.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if m > n:
        raise ValueError("expected at least as many rows as columns")
    if any(e.den != 1 for r in rows for e in r):
        raise ValueError("rank probing requires integral entries")
    if all(not e for r in rows for e in r):
        return 0, (), (), field.one()
    plan = residues.plan_primes(field, det_bound(field, m, entry_height(rows)))
    best_rank = 0
    best: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    for p in plan.primes:
        sys = field.residue_system(p)
        for ridx, cidx, _ in _echelons(rows, m, sys):
            if len(ridx) > best_rank:
                best_rank = len(ridx)
                best = (tuple(sorted(ridx)), tuple(sorted(cidx)))
                if best_rank == m:
                    break
        if best_rank == m:
            break
    ridx, cidx = best
    sub = [[rows[i][j] for j in cidx] for i in ridx]
    det_sub = det(field, sub) if best_rank else field.one()
    return best_rank, ridx, cidx, det_sub


def product_of_ideals(ideals: list[FractionalIdeal]) -> FractionalIdeal:
    """Balanced (divide and conquer) ideal product."""
    if not ideals:
        raise ValueError("empty ideal product")
    work = list(ideals)
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            nxt.append(work[i] * work[i + 1])
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def det_times_ideals(field: NumberField, rows: list[list[FieldElement]],
                     ideals, witness: bool = False) -> FractionalIdeal:
    """det(A) times the product of the ideals a_i of a pseudo-matrix (A, (a_i)).

    The rows are scaled to integral ones and the determinant is divided by the
    product of the scales.  A must be square, unless ``witness`` is set: then
    A needs full column rank and the minor is the witness one of
    ``rank_and_submatrix``, with the ideals of its rows only.
    """
    scaled = []
    dens = []
    for row in rows:
        den = 1
        for e in row:
            den = den * e.den // gcd(den, e.den)
        scaled.append([e * den for e in row])
        dens.append(den)
    if witness:
        s, ridx, _, dt = rank_and_submatrix(field, scaled)
        if s < len(rows[0]):
            raise RankDeficiencyError(f"pseudo-matrix has rank {s} < {len(rows[0])}")
    else:
        ridx = range(len(rows))
        dt = det(field, scaled)
        if not dt:
            raise SingularMatrixError("pseudo-matrix is singular")
    den_prod = 1
    for i in ridx:
        den_prod *= dens[i]
    elt = field.scalar_div(dt, den_prod)
    return product_of_ideals([ideals[i] for i in ridx]).elt_mul(elt)


def determinantal_ideal(pm) -> FractionalIdeal:
    """det(A) times the product of the coefficient ideals, for square A."""
    n = len(pm.rows)
    if any(len(r) != n for r in pm.rows):
        raise ValueError("determinantal ideal of a non-square pseudo-matrix")
    return det_times_ideals(pm.field, pm.rows, pm.ideals)


def determinantal_ideal_multiple(pm) -> FractionalIdeal:
    """A multiple of the determinantal ideal of a full-column-rank pseudo-matrix.

    One witness minor's determinantal ideal: divisible by the gcd of all of
    them, which is all a modular normal-form pass needs.
    """
    return det_times_ideals(pm.field, pm.rows, pm.ideals, witness=True)
