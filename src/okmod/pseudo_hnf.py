"""Pseudo-Hermite normal form of full-rank modules over a ring of integers.

A pseudo-matrix (A, (a_i)) encodes the module sum of a_i * row_i.  The
modular elimination below triangularizes it with unit diagonal while keeping
every working coefficient ideal integral and norm-bounded by field invariants
(normalization) and every entry reduced modulo an ideal built from the
running modulus (a divisor of the supplied multiple of the determinantal
ideal).  The module itself is preserved exactly, which the tests check
through the absolute integer Hermite form.

Both normal forms clear a column with one step rule (``_clear_column``):
a transvection when the pivot absorbs the entry, which keeps both ideals,
and the Euclidean step of the pair otherwise, whose splitting is a Bezout
relation of two ideal norms unless they share a factor.  A step with
alpha*a already inside beta*b is degenerate: its splitting is (0, beta^-1)
with g = beta*b, the values of the ``idempotents`` fallback, which
``euclidean_step`` returns without an ideal sum or idempotents.
"""

from __future__ import annotations

from math import gcd

from . import determinant, reduction
from .ideals import FractionalIdeal, IdealError, idempotents
from .numberfield import FieldElement, NumberField
from .zlinalg import (Mat, RankDeficiencyError, det_bareiss, ext_gcd, hnf_with_modulus,
                      mat_mul, transpose)


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
    The inverses of g, alpha and beta and the ideal b*a^-1 come from the
    memo of ``cache`` (default: the field's ``basis_cache``).

    g is one Hermite form of the rows of alpha*a and beta*b.  A = alpha*a*g^-1
    and B = beta*b*g^-1 are integral and coprime and contain their norms, so
    coprime norms split 1 = u N(A) + v N(B) into (u N(A) / alpha,
    v N(B) / beta); a common factor falls back to ``idempotents(A, B)``.

    When alpha*a lies in beta*b, that is alpha/beta in b*a^-1, the step is
    degenerate and returns (beta*b, (beta*b)^-1, 0, beta^-1), with g = b
    itself when beta = 1, and needs no ideal sum and no idempotents.  These
    are the values of the fallback: the canonical alpha*a + beta*b is then
    beta*b, and ``idempotents(A, O_K)`` reads its first element as the
    canonical representative of 0 modulo a lattice, which is 0.
    """
    if not alpha or not beta:
        raise ValueError("euclidean step requires nonzero elements")
    field = a.field
    if cache is None:
        cache = field.basis_cache
    beta_inv = cache.element_inverse(beta)
    if cache.product(b, cache.inverse(a)).contains(field.mul(alpha, beta_inv)):
        g = b if beta == 1 else b.elt_mul(beta)
        return g, cache.inverse(g), field.zero(), beta_inv
    # the rows of alpha*a and beta*b over one denominator, modulo the gcd of
    # N(den * x) * min for each product, an integer inside it
    ka, kb = a.den * alpha.den, b.den * beta.den
    den = ka * kb // gcd(ka, kb)
    n_alpha, n_beta = abs(field.norm(alpha)), abs(field.norm(beta))
    rows, lam = [], 0
    for ideal, x, n_x, s in ((a, alpha, n_alpha, den // ka), (b, beta, n_beta, den // kb)):
        rows += [[s * c for c in field.coeff_mul(u, x.coeffs)] for u in ideal.num]
        lam = gcd(lam, s * ideal.num[0][0] * (n_x * x.den ** field.degree).numerator)
    g = FractionalIdeal.from_row_lattice(field, rows, den, lam)
    ginv, alpha_inv, norm_g = cache.inverse(g), cache.element_inverse(alpha), g.norm()
    norm_a, norm_b = n_alpha * a.norm() / norm_g, n_beta * b.norm() / norm_g
    if norm_a.denominator != 1 or norm_b.denominator != 1:
        raise IdealError("internal error: alpha*a*g^-1 or beta*b*g^-1 is not integral")
    h, u, v = ext_gcd(norm_a.numerator, norm_b.numerator)
    if h == 1:
        # u N(A) lies in A, and 1 - u N(A) = v N(B) in B
        return (g, ginv, field.scalar_mul(u * norm_a.numerator, alpha_inv),
                field.scalar_mul(v * norm_b.numerator, beta_inv))
    gamma_t, delta_t = idempotents(a.elt_mul(alpha) * ginv, b.elt_mul(beta) * ginv)
    return g, ginv, field.mul(gamma_t, alpha_inv), field.mul(delta_t, beta_inv)


def _clear_column(vecs: list, ideals: list, i: int, pos: int, cache, normalize, reduce,
                  record=None) -> bool:
    """Clear entry ``pos`` of the pseudo-vectors (vecs[j], ideals[j]), j from
    i - 1 down to 0, against the pivot vector y = vecs[i]; True when every
    such entry was zero already.

    A zero pivot entry swaps the pair.  When the pivot absorbs the entry of
    x = vecs[j], that is x[pos]/y[pos] in a_i a_j^-1, the step is the
    transvection x - (x[pos]/y[pos])*y: both ideals stay, and only x is
    reduced.  Otherwise the Euclidean step of (a_i, a_j, y[pos], x[pos])
    gives (y[pos]*x - x[pos]*y, gamma*y + delta*x) with the ideals
    (a_i a_j g^-1, g), and both vectors are normalized and reduced.
    ``normalize(k)`` and ``reduce(k)`` act on vecs[k]; ``record(i)`` runs
    after each transvection or Euclidean step.
    """
    field = ideals[i].field
    lincomb, one = field.lincomb, field.one()
    clear = True
    for j in range(i - 1, -1, -1):
        x, y = vecs[j], vecs[i]
        if not x[pos]:
            continue
        clear = False
        if not y[pos]:
            vecs[i], vecs[j] = x, y
            ideals[i], ideals[j] = ideals[j], ideals[i]
            continue
        lam = field.mul(x[pos], cache.element_inverse(y[pos]))
        if cache.product(ideals[i], cache.inverse(ideals[j])).contains(lam):
            minus_lam = -lam
            vecs[j] = [lincomb(one, s, minus_lam, t) if s or t else s for s, t in zip(x, y)]
            reduce(j)
        else:
            g, ginv, gamma, delta = euclidean_step(ideals[i], ideals[j], y[pos], x[pos], cache)
            piv, minus_other = y[pos], -x[pos]
            vecs[j] = [lincomb(piv, s, minus_other, t) if s or t else s for s, t in zip(x, y)]
            vecs[i] = [lincomb(gamma, t, delta, s) if s or t else s for s, t in zip(x, y)]
            ideals[j] = cache.product(cache.product(ideals[i], ideals[j]), ginv)
            ideals[i] = g
            for k in (j, i):
                normalize(k)
                reduce(k)
        if record is not None:
            record(i)
    return clear


def pseudo_hnf(pm: PseudoMatrix, det_ideal: FractionalIdeal | None = None,
               verify: bool = False, trace: list | None = None) -> PseudoMatrix:
    """Modular pseudo-Hermite normal form of a full-rank pseudo-matrix.

    The module must lie inside O_K^m: only then does a multiple D of its
    determinantal ideal give D * O_K^m inside the module, which the
    reductions modulo D * a^-1 need.  Other input, and a non-integral
    ``det_ideal``, raise IdealError before any work.  ``det_ideal`` must be
    a nonzero multiple of the determinantal ideal of the module.  On square
    input that ideal is the determinant times the product of the ideals,
    and a ``det_ideal`` not inside it raises IdealError too.  When it is
    omitted, square input uses that product, and tall input a sum of
    maximal-minor ideals, which is nearly always close to the determinantal
    ideal itself and far smaller than one witness minor's.  A multiple
    equal to O_K makes the module O_K^m, and the identity rows, unit ideals
    and zero trailing rows come back without an elimination.  The output has the triangular block with unit diagonal
    on top, integral coefficient ideals, and represents the same module.
    With ``verify`` the working norm bounds, the output shape and the
    integrality of the output ideals are checked, raising RuntimeError on a
    violation; ``trace`` (a list) collects per-iteration records of the
    largest active ideal minimum for diagnostics.

    One ``ReducedBasisCache`` serves the multiple and the elimination; a
    ``QualityError`` reruns the elimination once on a context at twice the
    exponent, keeping the ideal memo (``ReducedBasisCache.run``), and a
    second one propagates.  ``trace`` holds the finished run's records.
    """
    field = pm.field
    if not pm.module_in_ring_power():
        raise IdealError("module is not contained in O_K^m; scale the rows first")
    if det_ideal is not None and not det_ideal.is_integral():
        raise IdealError("a multiple of the determinantal ideal must be integral")
    if pm.nrows < pm.ncols:
        raise RankDeficiencyError("fewer rows than columns")
    cache = reduction.ReducedBasisCache(field.lattice_context)
    if det_ideal is None or pm.nrows == pm.ncols:
        # square input: delta * P, the determinant times its rows' ideals,
        # so the moduli det_ideal * a^-1 = delta * (P * a^-1) start their LLL
        # from delta times a reduced basis of the small P * a^-1; tall
        # input: a sum of maximal-minor ideals, with no factor
        own, factor = determinant._elimination_multiple(field, pm.rows, pm.ideals, cache)
        if det_ideal is None:
            det_ideal = own
            if factor is not None:
                cache.record_factor(det_ideal, *factor)
        elif not det_ideal.is_subset(own):
            # delta * P of square input is the determinantal ideal itself
            raise IdealError("det_ideal is not a multiple of the determinantal ideal")
    if det_ideal.is_unit():
        # the module lies in O_K^m, and its determinantal ideal contains
        # O_K: it is O_K^m, whose form is the identity with unit ideals
        one, zero, unit = field.one(), field.zero(), FractionalIdeal.unit(field)
        rows = [[one if j == i else zero for j in range(pm.ncols)] for i in range(pm.nrows)]
        return PseudoMatrix(field, rows, [unit] * pm.nrows, det_ideal=det_ideal)
    return cache.run(lambda cache: _eliminate(pm, det_ideal, cache, verify, trace))


def _eliminate(pm: PseudoMatrix, det_ideal: FractionalIdeal, cache, verify: bool,
               trace: list | None) -> PseudoMatrix:
    """The elimination of ``pseudo_hnf`` on the call's cache; the size
    records go to ``trace`` only when it finishes."""
    field = pm.field
    n, m = pm.nrows, pm.ncols
    b = [r[:] for r in pm.rows]
    ideals = list(pm.ideals)
    bound_sq = cache.ctx.norm_bound_sq()
    sizes = []

    def normalize(idx: int) -> None:
        b[idx], ideals[idx], _ = reduction.normalize_row(b[idx], ideals[idx], cache.ctx, cache)
        if verify:
            nrm = ideals[idx].norm()
            if not ideals[idx].is_integral() or nrm * nrm > bound_sq:
                raise RuntimeError("verify: normalized coefficient ideal is not "
                                   "integral or misses its norm bound")

    def record(stage: int) -> None:
        if trace is not None:
            sizes.append(max(ideals[t].minimum() for t in range(stage + 1)))

    def reduced(row: list, modulus: FractionalIdeal) -> list:
        row = reduction.reduce_row(row, modulus, cache)
        if verify and not all(reduction.check_reduced_bound(e, modulus, cache.ctx) for e in row):
            raise RuntimeError("verify: a reduced entry misses the reduction bound")
        return row

    def reduce(idx: int) -> None:
        b[idx] = reduced(b[idx], cache.product(det_ideal, cache.inverse(ideals[idx])))

    for i in range(n):
        normalize(i)
        reduce(i)

    one = field.one()
    running = det_ideal
    for i in range(n - 1, n - m - 1, -1):
        col = i - (n - m)
        _clear_column(b, ideals, i, col, cache, normalize, reduce, record)
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
        b[i] = reduced([gamma * x if x else x for x in b[i]], new_modulus)
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
        if not all(a.is_integral() for a in out_ideals):
            raise RuntimeError("verify: an output coefficient ideal is not integral")
    if trace is not None:
        trace.extend(sizes)
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
            minus_lam = beta and reduction._canonical_rep(beta, inv_r * pm.ideals[j]) - beta
            if minus_lam:
                rows[r] = [field.lincomb(one, x, minus_lam, y) if y else x
                           for x, y in zip(rows[r], rows[j])]
    ideals = pm.ideals[:m] + [FractionalIdeal.unit(field)] * (n - m)
    return PseudoMatrix(field, rows, ideals, det_ideal=pm.det_ideal)
