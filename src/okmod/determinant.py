"""Determinants over rings of integers by the multi-modular CRT method.

Every determinant here comes from ``_witness``.  It eliminates the matrix
in the residue fields F_p[x]/(g) of enough unramified primes, the table
primes below 2^126 first (``residues.plan_primes``).  One linear map per
prime takes the residues at its factors to integral-basis coordinates mod
p, and CRT across the primes with a symmetric lift recovers them; the prime
budget comes from a proven bound on them, so the lift is exact.  The bound
is Hadamard's inequality taken at each root z_j on the rows themselves
(``_minor_bound``): |sigma_j(minor)|^2 is at most the product of the
squared norms S_ij = sum_k |sigma_j(a_ik)|^2 of its rows, so the sum over
the roots of the products of the k largest bounds T2 of every k x k minor,
and C2 sqrt(T2) bounds its coordinates; the largest of these sums over
k <= m serves every minor up to m x m.  The S_ij come on integers from
each row's moments and one Gram matrix per root, the basis values at the
root scaled by 2^64 and rounded (``root_grams``, kept on the field).  A probe
eliminates all n >= m rows until a residue field has rank m; its pivot rows
are the witness W, and the other residue fields eliminate W alone.  A prime
with a residue field where the witness minor delta vanishes stays out of
the plan.  A square matrix is its own witness: ``det`` is delta at full
rank and zero below it, one elimination per residue field.

A multiple of the determinantal ideal is the witness minor times the
product of its rows' ideals (``_scaled_minor``), the determinantal ideal
itself for square input.  For ``pseudo_hnf``, one tall witness minor gives
a multiple hundreds of bits larger than the determinantal ideal, the sum
over all maximal minors.  The minors that differ from the witness in one
row nearly always close the gap (``_elimination_multiple``), and the same
elimination gives them.  Each row carries m more slots, and row k of the
witness gets e_k there, so that where delta does not vanish, a row r
outside the witness ends holding -x_r, with x_r * A_W = A_r.  By Cramer's
rule delta * x_{r,k} is the witness minor with row k replaced by row r,
under the same bound as delta, so CRT recovers every one of them exactly.

The elimination holds the matrix as k planes, the x^t coefficients of its
residues, and each row of a plane as one Python integer: entry j sits in
slot j, bits [w*j, w*(j+1)), so a row update is a few big-integer
multiply-adds instead of a loop over entries.  Each call packs the matrix
once, coefficient by coefficient, shifted by the entry height H into
[0, 2H]; a plane row of a residue factor is then d multiply-adds of these
packed rows by the factor's projection, plus one constant below p that
cancels the shift, so slots start below d*p*(2H+1) + p.  A pivot row's tail
is reduced once and turned into the k packed planes of x^s * (-pivot^-1 *
tail), s < k, slots below p; a live row with residue sum_s a_s x^s clears
the column by adding sum_s a_s times them, at most k <= d products below
p^2 per pivot, and an n-row matrix has at most n pivots.  So slots stay
below p * (d*(2H+1) + 1 + n*d*p), whose bit length is w, and no slot ever
carries into the next; a slot is reduced mod p only when it is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import residues
from .ideals import FractionalIdeal
from .numberfield import FieldElement, NumberField
from .numeric import frac_sqrt_ub, isqrt_up, log2_ub
from .residues import Poly, poly_inverse_mod, poly_trim
from .zlinalg import SingularMatrixError, RankDeficiencyError, hnf_with_modulus


def det_bound(field: NumberField, n: int, height: int) -> Fraction:
    """log2 of twice the coefficient bound for det of an n x n integral matrix
    whose entries have coefficients of absolute value at most ``height``.

    The a-priori bound from the height alone, 2 n^n max(C1 C2^n, C2 C1^n)
    h^n; both orders of the conversion constants are covered.  Prime plans
    take the tighter bound from the rows themselves (``_minor_bound``).
    """
    c1 = frac_sqrt_ub(field.embed_bound_sq)
    c2 = field.coeff_bound
    base = max(c1 * c2 ** n, c2 * c1 ** n)
    bound = 2 * Fraction(n) ** n * base * Fraction(height) ** n
    return log2_ub(max(bound, Fraction(2)))


def _moment_pairs(d: int) -> list[tuple[int, int]]:
    """The pairs a <= b of basis indices over which the row moments and the
    root Grams are flattened, the d diagonal pairs first."""
    return [(a, a) for a in range(d)] + [(a, b) for a in range(d) for b in range(a + 1, d)]


def root_grams(field: NumberField):
    """(grams, eps, log_two_c2): the per-field data of the row bound.

    The values of the basis elements at the roots (``root_values``), times
    2^64, are rounded to Gaussian integers u_j[a], each within eps of
    2^64 omega_a(z_j): the rounding is below 1 and the rest is 2^64 times
    the radius of the ball.  Root j gives the real symmetric matrix
    G_j[a][b] = Re(u_j[a] conj(u_j[b])), flattened over ``_moment_pairs``
    with the entries off the diagonal doubled, so that its dot product with
    the flattened moments M_ab = sum_k x_ka x_kb of vectors x_k is
    sum_k |sum_a x_ka u_j[a]|^2.  grams holds each distinct G_j once with
    the number of roots that give it (a complex root and its conjugate
    nearly always do), and log_two_c2 is an upper bound on log2(2 C2).
    """
    vals = field.root_values()
    pairs = _moment_pairs(field.degree)
    eps = 0
    counts: dict = {}
    for j in range(field.degree):
        u = []
        for row in vals:
            b = row[j]
            u.append((((b.x << 65) + b.q) // (2 * b.q), ((b.y << 65) + b.q) // (2 * b.q)))
            eps = max(eps, -(-(b.rn << 64) // b.rd))
        gram = tuple((1 if a == c else 2) * (u[a][0] * u[c][0] + u[a][1] * u[c][1])
                     for a, c in pairs)
        counts[gram] = counts.get(gram, 0) + 1
    return [(k, g) for g, k in counts.items()], eps + 1, log2_ub(2 * field.coeff_bound)


def _root_norms(field: NumberField, rows: list[list[FieldElement]]
                ) -> tuple[list[list[int]], int]:
    """(norms, h): norms[i][c] >= 2^64 sqrt(S_ij), S_ij = sum_k |sigma_j(a_ik)|^2
    the squared norm of integral row i at a root j whose Gram is the c-th of
    ``field.root_grams``, and h the largest absolute coefficient of the
    rows (at least 1), read off the same coordinate columns.

    With x_ka the coordinates of entry k of the row and M its moments,
    2^64 sigma_j(a_ik) is sum_a x_ka u_j[a] plus an error of at most
    eps sum_a |x_ka| <= eps sqrt(d sum_a x_ka^2).  By the triangle
    inequality over k, 2^64 sqrt(S_ij) <= sqrt(<G_j, M>) + eps sqrt(d tr M),
    each square root rounded up.
    """
    grams, eps, _ = field.root_grams
    d = field.degree
    pairs = _moment_pairs(d)
    norms = []
    h = 1
    for row in rows:
        cols = list(zip(*[e.coeffs for e in row]))
        for col in cols:
            h = max(h, max(col), -min(col))
        moments = [sum(map(mul, cols[a], cols[b])) for a, b in pairs]
        err = isqrt_up(eps * eps * d * sum(moments[:d]))
        norms.append([isqrt_up(sum(map(mul, g, moments))) + err for _, g in grams])
    return norms, h


def _minor_bound(field: NumberField, norms: list[list[int]], m: int) -> Fraction:
    """log2 of twice a bound on the integral-basis coordinates of every
    k x k minor, k <= m, of the rows whose ``_root_norms`` are ``norms``.

    By Hadamard's inequality |sigma_j(minor)|^2 is at most the product of
    the S_ij of its rows, so at most the product of the k largest at root
    j; their sum over the roots bounds T2 of every k x k minor, and a
    coordinate is at most C2 sqrt(T2) (``numberfield._conversion_constants``).
    An S_ij may lie below 1 (a zero row, or a small conjugate), so the sum
    for k = m need not bound the smaller minors, which rank certification
    needs too: the bound takes the largest of the m sums.  The sums run on
    the norms, scaled by 2^64 each, and the log2 of the largest is read off
    its top 64 bits.
    """
    grams, _, log_two_c2 = field.root_grams
    totals = [0] * m
    for (count, _), col in zip(grams, zip(*norms)):
        prod = 1
        for k, r in enumerate(sorted(col, reverse=True)[:m]):
            prod *= r
            totals[k] += count * prod * prod
    # the sum for k + 1 rows is scaled by 2^(128 (k + 1)); bring all to 2^(128 m)
    top = max(max(t << 128 * (m - 1 - k) for k, t in enumerate(totals)), 1)
    shift = max(top.bit_length() - 64, 0)
    log_t2 = log2_ub(((top - 1) >> shift) + 1) + shift - 128 * m
    return max(log_two_c2 + log_t2 / 2, Fraction(1))


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


def _coefficient_rows(rows: list[list[FieldElement]], d: int, h: int,
                      p: int) -> tuple[list[list[int]], int]:
    """Packed coefficient rows of an n x m integral matrix, and their slot width.

    Row i gives d ints: coefficient c of entry j, plus h, in slot j.  With h
    the entry height these lie in [0, 2h].  The width serves every prime up
    to p: a slot starts below d*p*(2h+1) + p and takes at most n pivot
    updates of at most d products below p^2 each.
    """
    w = (p * (d * (2 * h + 1) + 1 + len(rows) * d * p)).bit_length()
    return [[_pack([e.coeffs[c] + h for e in row], w) for c in range(d)] for row in rows], w


def _packed_planes(crows: list[list[int]], mat, p: int, h: int, ones: int) -> list[list[int]]:
    """The k planes of the projection by mat of the coefficient rows crows.

    mat is the k x d projection of one residue factor (a row of
    ``ResidueSystem.proj_mats``) and ones has a 1 in every slot.  Slot j of
    row i in plane t is congruent mod p to the x^t coefficient of entry
    (i, j): plane t is sum_c mat[t][c] * crows[i][c], and one constant per
    plane, below p, cancels the shift by h.
    """
    planes = []
    for prow in mat:
        base = -h * sum(prow) % p * ones
        planes.append([sum(map(mul, prow, crow)) + base for crow in crows])
    return planes


def _residue_mul(a, b, g: Poly, p: int) -> list[int]:
    """a * b in F_p[x]/(g), both as k coefficients; in degree 1 one product."""
    if len(g) == 2:
        return [a[0] * b[0] % p]
    return [sum(map(mul, row, b)) % p for row in _mult_matrix(a, g, p)]


def _shifted_tails(tails: list[list[int]], pivot, g: Poly, p: int, w: int) -> list[list[int]]:
    """out[t][s]: plane t of x^s * (-pivot^-1 * tail) mod g, packed, slots below p.

    tails[t][j] is the x^t coefficient of tail entry j.  In degree 1 this is
    the one packed tail -tail / pivot.  Above it, the shift by x moves plane
    t to t + 1 and folds the top plane back through x^k = -low.
    """
    k = len(g) - 1
    if k == 1:
        neg = p - pow(pivot[0], -1, p)
        return [[_pack([neg * c % p for c in tails[0]], w)]]
    cur = [[-sum(map(mul, irow, entry)) % p for entry in zip(*tails)]
           for irow in _mult_matrix(poly_inverse_mod(pivot, g, p), g, p)]
    out = [[_pack(plane, w)] for plane in cur]
    for _ in range(k - 1):
        top = cur[-1]
        cur = [[-g[0] * c % p for c in top]] + [
            [(x - gt * c) % p for x, c in zip(cur[t - 1], top)] for t, gt in enumerate(g[1:k], 1)]
        for packed, plane in zip(out, cur):
            packed.append(_pack(plane, w))
    return out


def _eliminate(planes: list[list[int]], m: int, g: Poly, p: int, w: int, extra: int = 0):
    """Greedy echelon form over F_p[x]/(g) of a matrix held as packed planes.

    planes[t][i] holds row i of the x^t plane, entry j in slot j (bits
    [w*j, w*(j+1))).  For each of the m columns in turn, the first live row
    with a nonzero residue becomes the pivot row, and every live row then
    drops the column's slot, so that slot 0 is always the current column.
    The pivot row's tail right of the column is reduced once and turned into
    the k packed planes X_s of x^s * (-pivot^-1 * tail), s < k, slots below p
    (``_shifted_tails``); a live row with residue a = sum_s a_s x^s clears
    the column by adding sum_s a_s * X_s, plane by plane, at most k products
    below p^2 per pivot.  Other slots are reduced mod p only when read; w
    must be large enough for n such updates (``_coefficient_rows``) so that
    no slot carries into the next.  Returns the pivot rows and columns
    (original indices) and the determinant of the minor on the pivot rows in
    their original order: the signed product of the pivots if every column
    holds a pivot, else zero.  The planes are overwritten.

    With ``extra``, every row has that many more slots right of its m
    columns, all zero at the start and never pivoted on.  The c-th pivot row
    gets a 1 in extra slot c when it is chosen: the earlier pivot rows, the
    only ones that have updated it, are zero there, so this is the matrix
    that carried e_c on that row from the start.  The last pivot clears its
    column too, and the rows left without a pivot end shifted so that extra
    slot c is their slot c.  When every column holds a pivot, such a row r
    holds -x_r there, x_r being the coefficients of row r on the pivot rows
    in pivot order.
    """
    n = len(planes[0])
    mask = (1 << w) - 1
    alive = list(range(n))
    rows_out: list[int] = []
    cols_out: list[int] = []
    prod = [1] + [0] * (len(g) - 2)
    for col in range(m):
        piv = None
        hits = []
        for r in alive:
            a = [(pl[r] & mask) % p for pl in planes]
            if any(a):
                if piv is None:
                    piv, pivot = r, a
                else:
                    hits.append((r, a))
        if piv is not None:
            alive.remove(piv)
            if extra:
                planes[0][piv] += 1 << w * (m + len(rows_out) - col)
            rows_out.append(piv)
            cols_out.append(col)
            prod = _residue_mul(pivot, prod, g, p)
        if col == m - 1 and not extra:
            break
        for pl in planes:
            for r in alive:
                pl[r] >>= w
        if not hits:
            continue
        tails = []
        for pl in planes:
            x = pl[piv] >> w
            tail = []
            for _ in range(m + extra - col - 1):
                tail.append((x & mask) % p)
                x >>= w
            tails.append(tail)
        shifted = _shifted_tails(tails, pivot, g, p, w)
        for r, a in hits:
            for pl, xt in zip(planes, shifted):
                pl[r] += sum(map(mul, a, xt))
    if len(rows_out) < m:
        return rows_out, cols_out, ()
    if sum(a > b for i, a in enumerate(rows_out) for b in rows_out[i + 1:]) % 2:
        prod = [-x for x in prod]
    return rows_out, cols_out, poly_trim(prod, p)


def _echelon(crows: list[list[int]], m: int, sys, j: int, h: int, w: int, extra: int = 0):
    """``_eliminate`` in residue field j of sys of the matrix with m columns
    whose coefficient rows, of height h and width w, are crows; returns its
    result and the planes it leaves."""
    p = sys.p
    planes = _packed_planes(crows, sys.proj_mats[j], p, h, _pack([1] * m, w))
    return _eliminate(planes, m, sys.factors[j], p, w, extra), planes


def _check_entries(field: NumberField, rows: list[list[FieldElement]], what: str) -> None:
    """Refuse an entry that is not an integral element of field."""
    for row in rows:
        for e in row:
            if not isinstance(e, FieldElement) or e.field is not field:
                raise ValueError("entry from a different field")
            if e.den != 1:
                raise ValueError(f"{what} requires integral entries")


def det(field: NumberField, rows: list[list[FieldElement]]) -> FieldElement:
    """Exact determinant of a square matrix with integral entries: the
    witness minor of ``_witness`` at full rank, and zero below it."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix not square")
    _check_entries(field, rows, "determinant")
    if not n:
        return field.one()
    rank, _, _, delta, _ = _witness(field, rows)
    return delta if rank == n else field.zero()


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
    if any(len(r) != m for r in rows):
        raise ValueError("ragged matrix")
    _check_entries(field, rows, "rank probing")
    if not m:
        return 0, (), (), field.one()
    rank, ridx, cidx, delta, _ = _witness(field, rows)
    if rank < m:
        delta = det(field, [[rows[i][j] for j in cidx] for i in ridx])
    return rank, ridx, cidx, delta


def _dense(poly, k: int) -> list[int]:
    """The k coefficients of a residue in a field of degree k."""
    return list(poly) + [0] * (k - len(poly))


def _witness(field: NumberField, rows: list[list[FieldElement]], adjacent: bool = False):
    """(rank, ridx, cidx, delta, near) of an integral n x m matrix A,
    n >= m >= 1, as ``rank_and_submatrix`` finds them; delta is None below
    rank m, and near is None unless ``adjacent`` and the rank is m.

    One packing of A serves every residue field.  The probe eliminates A in
    the residue fields of the plan for the row bound of A (``_minor_bound``,
    over the largest rows at each root, so every minor up to m x m), in order,
    and stops at the first of rank m; its pivot rows are the witness W, and
    its pivot product is delta there.  Every residue field before it has
    rank below m, so delta vanishes in it.  Without ``adjacent``, the other
    residue fields eliminate the m witness rows alone, over the plan for the
    row bound of the witness rows, and their pivot products give delta by
    CRT on its integral-basis coordinates (``residues.basis_coordinates``,
    ``residues.lift_coordinates``).

    With ``adjacent``, every elimination carries m extra slots
    (``_eliminate``), and the residue fields after the probe eliminate all
    of A, witness rows first, so that where delta does not vanish the pivot
    rows are exactly W.  A row r outside W then holds -x_r, where
    x_r * A_W = A_r; times delta, x_{r,k} is the determinant of A_W with row
    k replaced by row r (Cramer's rule), an m x m minor under the same
    bound.  near maps each row r outside W to its m minors delta * x_{r,k},
    k running over W.  In both modes a prime at one of whose residue fields
    delta vanishes gives no value and stays out of the plan, which goes on
    to the next admissible primes (``residues.plan_usable_primes``).
    """
    n, m, d = len(rows), len(rows[0]), field.degree
    norms, h = _root_norms(field, rows)
    plan = residues.plan_primes(field, _minor_bound(field, norms, m))
    # the widest slots: later primes, a plan's extension included, are smaller
    crows, w = _coefficient_rows(rows, d, h, plan.primes[0])
    extra = m if adjacent else 0
    best: tuple = (0, [], [])
    probe = None
    for p in plan.primes:
        sys = field.residue_system(p)
        for j in range(len(sys.factors)):
            (ridx, cidx, prod), planes = _echelon(crows, m, sys, j, h, w, extra)
            if len(ridx) > best[0]:
                best = (len(ridx), ridx, cidx)
            if len(ridx) == m:
                probe = (p, j, ridx, prod, planes)
                break
        if probe:
            break
    rank, ridx, cidx = best
    witness = tuple(sorted(ridx))
    if rank < m:
        return rank, witness, tuple(cidx), None, None
    p0, j0 = probe[:2]
    others = [r for r in range(n) if r not in witness]
    order = list(witness) + others if adjacent else list(witness)
    packed = [crows[i] for i in order]

    def values(sys, j):
        """The residues in residue field j of sys, as k coefficients each, of
        delta and, with adjacent, of every delta * x_{r,k}; None where delta
        vanishes."""
        g, p = sys.factors[j], sys.p
        k = len(g) - 1
        if p > p0 or (p == p0 and j < j0):
            return None
        if (p, j) == (p0, j0):
            pivots, prod, planes, live = probe[2:] + (others,)
        else:
            (piv, _, prod), planes = _echelon(packed, m, sys, j, h, w, extra)
            if not prod or max(piv) >= m:
                return None
            pivots, live = [order[i] for i in piv], range(m, len(order))
        out = [_dense(prod, k)]
        if adjacent:
            # slot c of a live row holds -x_{r, pivots[c]}; times -delta
            mask = (1 << w) - 1
            slot = {r: c for c, r in enumerate(pivots)}
            times = _mult_matrix([-x for x in prod], g, p)
            for i in live:
                for r in witness:
                    x = [(pl[i] >> w * slot[r] & mask) % p for pl in planes]
                    out.append([sum(map(mul, row, x)) % p for row in times])
        return out

    per_prime = []

    def usable(p):
        sys = field.residue_system(p)
        found = []
        for j in range(len(sys.factors)):
            v = values(sys, j)
            if v is None:
                return False
            found.append(v)
        per_prime.append(residues.basis_coordinates(sys, found))
        return True

    log_bound = plan.log_bound
    if not adjacent and n > m:
        log_bound = _minor_bound(field, [norms[i] for i in witness], m)
    lifted = residues.lift_coordinates(
        per_prime, residues.plan_usable_primes(field, log_bound, usable), field)
    near = {r: lifted[1 + t * m:1 + (t + 1) * m] for t, r in enumerate(others)} \
        if adjacent else None
    return m, witness, tuple(cidx), lifted[0], near


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
                     ideals) -> FractionalIdeal:
    """A maximal minor's determinant times the product of its rows' ideals
    a_i, for a pseudo-matrix (A, (a_i)) of full column rank.

    The rows are scaled to integral ones and the determinant is divided by the
    product of the scales.  The minor is the witness of ``_witness``, the
    whole matrix when it is square (``_scaled_minor``).
    """
    delta, ridx, _ = _scaled_minor(field, rows)
    return product_of_ideals([ideals[i] for i in ridx]).elt_mul(delta)


def _scaled_minor(field: NumberField, rows: list[list[FieldElement]], adjacent: bool = False):
    """(delta, ridx, near): the determinant of a maximal minor and its rows.
    The minor is the witness of ``_witness`` on the rows scaled to integral
    entries, the whole matrix when it is square, and delta is divided by the
    scales of its rows.  With ``adjacent``, tall input also gives near, which
    maps each row r outside the witness W to x_r, with x_r * A_W = A_r; near
    is None otherwise."""
    scaled = []
    dens = []
    for row in rows:
        den = 1
        for e in row:
            den = den * e.den // gcd(den, e.den)
        scaled.append([e * den for e in row] if den != 1 else row)
        dens.append(den)
    m = len(rows[0])
    square = len(rows) == m
    s, ridx, _, dt, minors = _witness(field, scaled, adjacent and not square)
    if s < m:
        if square:
            raise SingularMatrixError("pseudo-matrix is singular")
        raise RankDeficiencyError(f"pseudo-matrix has rank {s} < {m}")
    near = None
    if minors is not None:
        # the minors of the scaled rows are dt * x_{r,k} * dens[r] / dens[k]
        inv = field.inv(dt)
        near = {r: [field.mul(mk, inv) * Fraction(dens[k], dens[r])
                    for k, mk in zip(ridx, mks)] for r, mks in minors.items()}
    den_prod = 1
    for i in ridx:
        den_prod *= dens[i]
    return field.scalar_div(dt, den_prod), ridx, near


def _elimination_multiple(field: NumberField, rows: list[list[FieldElement]], ideals, cache):
    """(D, factor): the multiple of the determinantal ideal that ``pseudo_hnf``
    reduces modulo when none is supplied, and its factor (delta, P) or None.
    The inverses a_k^-1 come from ``cache``, the memo the elimination reads.

    Square input gives D = delta * P = ``det_times_ideals`` with its factor.
    Tall input gives D = delta * P * J, with J = O_K + sum x_{r,k} a_r a_k^-1
    over the rows r outside the witness W and k in W, where x_r * A_W = a_r.
    By Cramer's rule, row k of A_W replaced by row r has determinant
    x_{r,k} * delta, so D is a sum of maximal-minor ideals and lies between
    delta * P and the determinantal ideal; it is nearly always close to the
    latter.  Every x_{r,k} * delta comes from the multi-modular elimination
    that finds the witness (``_witness``): one packing of the matrix, and one
    elimination of it with m extra slots per residue field.
    J is generated over O_K by 1 and the x_{r,k} * alpha * beta, alpha and
    beta running over generators of a_r and a_k^-1 (1 alone for O_K).  With
    N a common denominator of the generators, N * J contains N * O_K, so two
    Hermite forms modulo N build it: the Z-span of N times the generators,
    then the Z-span of its d rows and their multiples by w_2 .. w_d.  They
    cost less than one form over the d multiples of every generator.

    Tall input records no factor: P * J has a denominator of hundreds of
    bits, and an LLL started from it costs more than the elimination.
    """
    delta, ridx, near = _scaled_minor(field, rows, adjacent=True)
    prod = product_of_ideals([ideals[i] for i in ridx])
    if near is None:
        return prod.elt_mul(delta), (delta, prod)
    inv_gens = [_generators(cache.inverse(ideals[k])) for k in ridx]
    # (coefficient vector, denominator) of every generator x_{r,k} * alpha * beta
    gens = []
    for r, xs in near.items():
        a_gens, a_den = _generators(ideals[r])
        for x, (b_gens, b_den) in zip(xs, inv_gens):
            if x:
                den = x.den * a_den * b_den
                gens += [(v, den) for v in _times(field, _times(field, [x.coeffs], a_gens),
                                                  b_gens)]
    if gens:
        modulus = lcm(*(den for _, den in gens))
        span = hnf_with_modulus([[c * (modulus // den) % modulus for c in v] for v, den in gens],
                                modulus)
        # the Z-span of N times the generators, then its O_K-span: N * J
        closure = [row for v in span for row in field.regular_representation(field.element(v))]
        prod = prod * FractionalIdeal.from_row_lattice(field, closure, modulus, modulus)
    return prod.elt_mul(delta), None


def _generators(ideal: FractionalIdeal):
    """(gens, den): numerators of generators of the ideal as an O_K-module,
    over den; gens is None for O_K, whose generator is 1."""
    return (None, 1) if ideal.is_unit() else (ideal.num, ideal.den)


def _times(field: NumberField, vecs, gens):
    """Coefficient vectors of every product of one of vecs with one of gens
    (None standing for 1 alone)."""
    return vecs if gens is None else [field.coeff_mul(v, g) for v in vecs for g in gens]


def determinantal_ideal(pm) -> FractionalIdeal:
    """det(A) times the product of the coefficient ideals, for square A."""
    n = len(pm.rows)
    if any(len(r) != n for r in pm.rows):
        raise ValueError("determinantal ideal of a non-square pseudo-matrix")
    return det_times_ideals(pm.field, pm.rows, pm.ideals)


def determinantal_ideal_multiple(pm) -> FractionalIdeal:
    """A multiple of the determinantal ideal of a full-column-rank pseudo-matrix.

    One maximal minor's determinantal ideal (``det_times_ideals``): the
    determinantal ideal itself for square input, and for tall input the
    witness minor's, divisible by the gcd of all of them, which is all a
    modular normal-form pass needs.  For tall input, ``pseudo_hnf`` without
    a supplied multiple reduces modulo a smaller one, a sum of maximal-minor
    ideals that contains this one.
    """
    return det_times_ideals(pm.field, pm.rows, pm.ideals)
