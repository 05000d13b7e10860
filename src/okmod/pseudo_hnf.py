"""Pseudo-Hermite normal form of full-rank modules over a ring of integers.

A pseudo-matrix (A, (a_i)) encodes the module sum of a_i * row_i.  The
modular elimination below triangularizes it with unit diagonal while keeping
every working coefficient ideal integral and norm-bounded by field invariants
(normalization) and every entry reduced modulo an ideal built from the
running modulus (a divisor of the supplied multiple of the determinantal
ideal).  The module itself is preserved exactly, which the tests check
through the absolute integer Hermite form.

Most Euclidean steps are degenerate: alpha*a already lies in beta*b, most
often with beta = 1 and b = O_K.  The splitting is then (0, beta^-1) with
g = beta*b, exactly the values of the general path, so ``euclidean_step``
returns it without an ideal sum or idempotents.  When moreover beta = 1 and
the normalization of b is the identity, the row update leaves the pivot
row and both ideals as they are, and the elimination only subtracts
alpha times the pivot row from the other row.
"""

from __future__ import annotations

from . import determinant, lattice, reduction
from .ideals import FractionalIdeal, IdealError, idempotents
from .numberfield import FieldElement, NumberField
from .zlinalg import (Mat, RankDeficiencyError, det_bareiss, hnf_with_modulus, mat_mul,
                      transpose)


class PseudoMatrix:
    """Matrix over K with one coefficient ideal per row.

    ``det_ideal`` is a record, not an input: ``pseudo_hnf`` sets it on its
    output to the multiple of the determinantal ideal it reduced modulo,
    and never reads it; a multiple goes in only as its argument."""

    __slots__ = ("field", "rows", "ideals", "det_ideal")

    def __init__(self, field: NumberField, rows, ideals, det_ideal=None):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("empty pseudo-matrix")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged pseudo-matrix")
        if len(ideals) != len(rows):
            raise ValueError("one coefficient ideal per row required")
        for e in (x for r in rows for x in r):
            if e.field is not field:
                raise ValueError("entry from a different field")
        for a in ideals:
            if a.field is not field:
                raise ValueError("ideal from a different field")
        self.field = field
        self.rows = rows
        self.ideals = list(ideals)
        self.det_ideal = det_ideal

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def copy(self) -> "PseudoMatrix":
        return PseudoMatrix(self.field, [r[:] for r in self.rows], list(self.ideals),
                            self.det_ideal)

    def module_in_ring_power(self) -> bool:
        """Exact test that every a_i * row_i lies inside O_K^m.  A row with an
        integral ideal and integral entries does; only the other rows multiply
        each entry by the basis of their ideal."""
        for row, a in zip(self.rows, self.ideals):
            if a.den == 1 and all(e.den == 1 for e in row):
                continue
            if any((eps * e).den != 1 for eps in a.basis_elements() for e in row):
                return False
        return True


def to_absolute(pm: PseudoMatrix) -> Mat:
    """Integer matrix whose row span is the module's image in Z^(d*m).

    Block row (i, h) holds the coordinates of (h-th basis element of a_i)
    times each entry of row i; requires the module to lie inside O_K^m.
    """
    out: Mat = []
    for row, a in zip(pm.rows, pm.ideals):
        for eps in a.basis_elements():
            flat: list[int] = []
            for entry in row:
                prod = eps * entry
                if prod.den != 1:
                    raise IdealError("module is not contained in O_K^m")
                flat.extend(prod.coeffs)
            out.append(flat)
    return out


def module_hnf(pm: PseudoMatrix) -> Mat:
    """Canonical integer Hermite form of the absolute module lattice.

    The modulus for ``hnf_with_modulus`` is a multiple of the lattice index
    of A = to_absolute(pm), and 0 exactly when A lacks full column rank.
    Square A takes |det A|, which is the index.  Tall A takes det(A^t A): by
    Cauchy-Binet it is the sum of the squares of the full minors of A, each
    a multiple of the index.
    """
    a = to_absolute(pm)
    if len(a) == len(a[0]):
        lam = abs(det_bareiss(a))
    else:
        lam = det_bareiss(mat_mul(transpose(a), a))
    if lam == 0:
        raise RankDeficiencyError("module does not have full rank")
    return hnf_with_modulus(a, lam)


def euclidean_step(a: FractionalIdeal, b: FractionalIdeal,
                   alpha: FieldElement, beta: FieldElement, cache=None):
    """Ideal gcd with splitting data: g = alpha*a + beta*b, its inverse, and
    gamma in a*g^-1, delta in b*g^-1 with alpha*gamma + beta*delta = 1.
    With a ``ReducedBasisCache``, the inverse of g and the ideal b*a^-1 come
    from its memo.

    When alpha*a lies in beta*b, that is alpha/beta in b*a^-1, the step is
    degenerate and returns (beta*b, (beta*b)^-1, 0, beta^-1), with g = b
    itself when beta = 1, and needs no ideal sum and no idempotents.  These
    are the values of the general path: the canonical alpha*a + beta*b is
    then beta*b, and ``idempotents(alpha*a*g^-1, O_K)`` reads its first
    element as the canonical representative of 0 modulo a lattice, which
    is 0.
    """
    if not alpha or not beta:
        raise ValueError("euclidean step requires nonzero elements")
    field = a.field
    beta_inv = field.inv(beta)
    quotient = b * a.inverse() if cache is None else cache.product(b, cache.inverse(a))
    if quotient.contains(field.mul(alpha, beta_inv)):
        g = b if beta == 1 else b.elt_mul(beta)
        ginv = g.inverse() if cache is None else cache.inverse(g)
        return g, ginv, field.zero(), beta_inv
    aa = a.elt_mul(alpha)
    bb = b.elt_mul(beta)
    g = aa + bb
    ginv = g.inverse() if cache is None else cache.inverse(g)
    gamma_t, delta_t = idempotents(aa * ginv, bb * ginv)
    gamma = field.mul(gamma_t, field.inv(alpha))
    delta = field.mul(delta_t, beta_inv)
    return g, ginv, gamma, delta


def _reduce_row(field, row, mod_ideal, cache):
    return [reduction.reduce_mod_ideal(e, mod_ideal, cache) if e else e for e in row]


def pseudo_hnf(pm: PseudoMatrix, det_ideal: FractionalIdeal | None = None,
               verify: bool = False, trace: list | None = None) -> PseudoMatrix:
    """Modular pseudo-Hermite normal form of a full-rank pseudo-matrix.

    The module must lie inside O_K^m: only then does a multiple D of its
    determinantal ideal give D * O_K^m inside the module, which the
    reductions modulo D * a^-1 need.  Other input raises IdealError before
    any work.  ``det_ideal`` must be a nonzero multiple of the determinantal
    ideal of the module.  When it is omitted, square input uses its
    determinant times the product of the ideals, and tall input a sum of
    maximal-minor ideals, which is nearly always close to the determinantal
    ideal itself and far smaller than one witness minor's.  A multiple equal
    to O_K makes the module O_K^m, and the identity rows, unit ideals and
    zero trailing rows come back without an elimination.  The output has
    the triangular block with unit diagonal on top, integral coefficient
    ideals, and represents the same module.  With ``verify`` the working
    norm bounds and the output shape are checked, raising RuntimeError on a
    violation; ``trace`` (a list) collects per-iteration
    records of the largest active ideal minimum for diagnostics.

    A reduced basis or normalization that misses its certified bound
    (``QualityError``) reruns the elimination once on a lattice context
    built at twice the precision exponent; a second miss propagates.
    """
    field = pm.field
    if not pm.module_in_ring_power():
        raise IdealError("module is not contained in O_K^m; scale the rows first")
    if pm.nrows < pm.ncols:
        raise RankDeficiencyError("fewer rows than columns")
    factor = None
    if det_ideal is None:
        # square input: delta * P, the determinant times its rows' ideals,
        # so the moduli det_ideal * a^-1 = delta * (P * a^-1) start their LLL
        # from delta times a reduced basis of the small P * a^-1; tall
        # input: a sum of maximal-minor ideals, with no factor
        det_ideal, factor = determinant._elimination_multiple(field, pm.rows, pm.ideals)
    if det_ideal.is_unit():
        # the module lies in O_K^m, and its determinantal ideal contains
        # O_K: it is O_K^m, whose form is the identity with unit ideals
        one, zero, unit = field.one(), field.zero(), FractionalIdeal.unit(field)
        rows = [[one if j == i else zero for j in range(pm.ncols)] for i in range(pm.nrows)]
        return PseudoMatrix(field, rows, [unit] * pm.nrows, det_ideal=det_ideal)
    ctx = field.lattice_context
    start = None if trace is None else len(trace)
    try:
        return _eliminate(pm, det_ideal, factor, ctx, verify, trace)
    except lattice.QualityError:
        if trace is not None:
            del trace[start:]
        ctx = lattice.build_context(field, 2 * ctx.e)
        return _eliminate(pm, det_ideal, factor, ctx, verify, trace)


def _eliminate(pm: PseudoMatrix, det_ideal: FractionalIdeal, factor, ctx,
               verify: bool, trace: list | None) -> PseudoMatrix:
    """The elimination of ``pseudo_hnf`` with its own cache on ``ctx``;
    ``factor`` is (delta, P) with det_ideal = delta * P, or None."""
    field = pm.field
    n, m = pm.nrows, pm.ncols
    cache = reduction.ReducedBasisCache(ctx)
    if factor is not None:
        cache.record_factor(det_ideal, *factor)
    b = [r[:] for r in pm.rows]
    ideals = list(pm.ideals)
    bound_sq = ctx.norm_bound_sq()

    def normalize(idx: int) -> None:
        b[idx], ideals[idx], _ = reduction.normalize_row(b[idx], ideals[idx], ctx, cache)
        if verify:
            nrm = ideals[idx].norm()
            if not ideals[idx].is_integral() or nrm * nrm > bound_sq:
                raise RuntimeError("verify: normalized coefficient ideal is not "
                                   "integral or misses its norm bound")

    def record(stage: int) -> None:
        if trace is not None:
            active = [ideals[t] for t in range(stage + 1)]
            trace.append(max(a.minimum() for a in active))

    def reduce(idx: int) -> None:
        modulus = cache.product(det_ideal, cache.inverse(ideals[idx]))
        b[idx] = _reduce_row(field, b[idx], modulus, cache)

    for i in range(n):
        normalize(i)
        reduce(i)

    lincomb, one = field.lincomb, field.one()
    running = det_ideal
    for i in range(n - 1, n - m - 1, -1):
        col = i - (n - m)
        for j in range(i - 1, -1, -1):
            if not b[j][col]:
                continue
            if not b[i][col]:
                b[i], b[j] = b[j], b[i]
                ideals[i], ideals[j] = ideals[j], ideals[i]
                continue
            g, ginv, gamma, delta = euclidean_step(ideals[j], ideals[i],
                                                   b[j][col], b[i][col], cache)
            minus_piv_j, piv_i = -b[j][col], b[i][col]
            if not gamma and g is ideals[i] and cache.normalization(g)[:2] == (g, 1):
                # degenerate step with pivot 1 on a row whose normalization is
                # the identity: the general update leaves row i and both
                # ideals as they are, and row i is reduced already
                b[j] = [lincomb(one, x, minus_piv_j, y) for x, y in zip(b[j], b[i])]
            else:
                ideals[j] = cache.product(cache.product(ideals[j], ideals[i]), ginv)
                ideals[i] = g
                new_j = [lincomb(piv_i, x, minus_piv_j, y) for x, y in zip(b[j], b[i])]
                new_i = [lincomb(gamma, x, delta, y) for x, y in zip(b[j], b[i])]
                b[j], b[i] = new_j, new_i
                normalize(i)
                reduce(i)
            normalize(j)
            reduce(j)
            record(i)
        piv = b[i][col]
        if not piv:
            # entire column segment vanished (possible when the modulus
            # absorbs the pivot class): the pivot row is carried by the
            # running modulus alone.  For rank-deficient input this path is
            # reached only with a caller-supplied det_ideal, which violates
            # the precondition.
            if any(b[j][col] for j in range(i)):
                raise RankDeficiencyError("internal error: pivot lost")
            ideals[i] = running
            b[i] = [field.zero()] * m
            b[i][col] = one
            running = FractionalIdeal.unit(field)
            continue
        g, ginv, gamma, delta = euclidean_step(ideals[i], running, piv, one, cache)
        new_modulus = cache.product(running, ginv)
        b[i] = [reduction.reduce_mod_ideal(gamma * x, new_modulus, cache) if x else x
                for x in b[i]]
        ideals[i] = g
        b[i][col] = one
        running = new_modulus

    out_rows = b[n - m:] + b[:n - m]
    out_ideals = ideals[n - m:] + ideals[:n - m]
    if verify:
        if any(out_rows[r][r] != field.one() or any(out_rows[r][r + 1:m])
               for r in range(m)):
            raise RuntimeError("verify: output is not unit lower triangular")
        if any(any(row) for row in out_rows[m:]):
            raise RuntimeError("verify: trailing rows are not zero")
    return PseudoMatrix(field, out_rows, out_ideals, det_ideal=det_ideal)


def canonicalize(pm: PseudoMatrix) -> PseudoMatrix:
    """Unique representative-reduced form of a pseudo-Hermite matrix.

    Off-diagonal entries are replaced by their canonical representatives
    modulo b_r^-1 * b_j, computed against the numerator Hermite basis with
    floor rounding, and the zero rows below the m pivot rows carry O_K, so
    equal modules yield identical objects.
    """
    field = pm.field
    n, m = pm.nrows, pm.ncols
    for r in range(m):
        if pm.rows[r][r] != field.one() or any(pm.rows[r][t] for t in range(r + 1, m)):
            raise ValueError("input is not in pseudo-Hermite form")
    if any(any(row) for row in pm.rows[m:]):
        raise ValueError("input is not in pseudo-Hermite form")
    rows = [r[:] for r in pm.rows]
    one = field.one()
    for r in range(1, m):
        inv_r = pm.ideals[r].inverse()
        for j in range(r - 1, -1, -1):
            beta = rows[r][j]
            mod_ideal = inv_r * pm.ideals[j]
            basis = [list(t) for t in mod_ideal.num]
            reduced = reduction.reduce_mod_ideal(beta, mod_ideal, basis=basis,
                                                 centered=False) if beta else beta
            minus_lam = reduced - beta if beta else None
            if minus_lam:
                rows[r] = [field.lincomb(one, x, minus_lam, y)
                           for x, y in zip(rows[r], rows[j])]
    ideals = pm.ideals[:m] + [FractionalIdeal.unit(field)] * (n - m)
    return PseudoMatrix(field, rows, ideals, det_ideal=pm.det_ideal)
