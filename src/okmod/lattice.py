"""Lattice reduction of ideal bases under a rounded trace-form embedding.

The Gram matrix of the Hermitian trace form on the integral basis is
enclosed to the requested accuracy, Cholesky-factored numerically, scaled by
2^e and rounded to an integer matrix.  Reducing an ideal then means running an
integral LLL (delta = 99/100, Cohen's Algorithm 2.6.7 on the integer Gram
matrix) on the image of its Hermite basis under that integer embedding.  The
output quality is not assumed: every reduced basis is checked against the
first-vector and product bounds, with the rounding-quality constant already
absorbed into the stored reduction parameter.

The integer embedding r_e is also the one certificate of T2 sizes.  Let G
be the true Gram matrix, so T2(x) = x G x^t for an integer coefficient
vector x (the imaginary part of G vanishes on real x), and let M = r_e r_e^t,
an exact integer matrix.  With Delta = 4^e G - M, bounded entrywise by the
Gram enclosure, and s_f >= |r_e^-1|_F,

    4^e T2(x) <= x M x^t + |Delta|_F |x|^2  and  |x|^2 <= s_f^2 x M x^t,

so 4^e T2(x) <= (1 + |Delta|_F s_f^2) |x r_e|^2, and the stored c_quality is
at least sqrt(1 + |Delta|_F s_f^2).  Hence

    T2(x / den) <= c_quality^2 |x r_e|^2 / (4^e den^2),

a bound decided by exact integer arithmetic, with no evaluation at the roots
(``LatticeContext.t2_bound``).

The quality certificate of a reduced basis is integer-only as well: with
s_i = |x_i r_e|^2, both bounds become inequalities between integers, the
s_i times constants in c_quality, quality_sq, |disc| and 4^(e d) that each
context computes once (``_quality_constants``), and the squared norm.

An LLL may also start from a given basis of the ideal
(``reduce_start_basis``), which is first checked to be one: the basis cache
of ``reduction`` starts a factored modulus eps * Q from eps times a reduced
basis of Q this way.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from . import numeric
from .ideals import IdealError
from .numeric import (Ball, frac_nth_root_ub, frac_sqrt_lb, frac_sqrt_ub, frac_up, mpf_to_fraction,
                      over_common_denominator)
from .numberfield import FieldElement, NumberField
from .zlinalg import Mat, det_bareiss, identity, mat_mul, solve_left, transpose, vec_mat

LLL_DELTA = Fraction(99, 100)
LLL_ETA = Fraction(501, 1000)
# theta = 0: plain size reduction


class QualityError(RuntimeError):
    """A reduced basis failed its certified quality bound; rebuild with larger e."""


class LatticeContext:
    """Precomputed rounded-embedding data for one number field."""

    __slots__ = ("field", "e", "r_e", "ell_sq", "quality_sq", "c_quality", "quality_consts")

    def __init__(self, field: NumberField, e: int, r_e: Mat,
                 ell_sq: Fraction, quality_sq: Fraction, c_quality: Fraction):
        self.field = field
        self.e = e
        self.r_e = r_e
        self.ell_sq = ell_sq
        self.quality_sq = quality_sq
        self.c_quality = c_quality
        self.quality_consts = _quality_constants(field.degree, abs(field.disc), e,
                                                 quality_sq, c_quality)

    def t2_bound(self, coeffs, den: int = 1) -> Fraction:
        """Certified upper bound c_quality^2 |x r_e|^2 / (4^e den^2) on
        T2(x / den) for an integer coefficient vector x."""
        v = vec_mat(coeffs, self.r_e)
        return self.c_quality ** 2 * Fraction(sum(t * t for t in v), den * den << 2 * self.e)

    def norm_bound_sq(self) -> Fraction:
        """Upper bound for N(a)^2 <= bound after normalization: (l^(d^2) sqrt|disc|)^2."""
        d = self.field.degree
        return self.quality_sq ** (d * d) * abs(self.field.disc)

    def __repr__(self) -> str:
        return f"LatticeContext(e={self.e}, ell_sq~{float(self.quality_sq):.6f})"


def default_precision_exponent(field: NumberField) -> int:
    return 2 * (field.degree + abs(field.disc).bit_length()) + 64


def build_context(field: NumberField, e: int | None = None) -> LatticeContext:
    """Certified Gram enclosure, numerical Cholesky, integer rounding at scale 2^e.

    The Gram entries are enclosed to absolute error < 2^-(e+2); if the rounded
    matrix is singular the exponent is doubled and the construction retried.
    """
    d = field.degree
    if e is None:
        e = default_precision_exponent(field)
    while True:
        r_e, c_quality = _try_build(field, e)
        if r_e is not None:
            break
        e *= 2
    ell_sq = 1 / (LLL_DELTA - LLL_ETA * LLL_ETA)
    if d >= 2:
        boost = frac_nth_root_ub(c_quality ** 4, d - 1, 96)
        quality_sq = frac_up(ell_sq * max(boost, Fraction(1)), 96)
    else:
        quality_sq = ell_sq
    return LatticeContext(field, e, r_e, ell_sq, quality_sq, c_quality)


def _try_build(field: NumberField, e: int):
    d = field.degree
    target = Fraction(1, 1 << (e + 2))
    prec = e + 64
    while True:
        gram = _gram_balls(field, prec)
        if all(b.r + abs(b.im) < target for row in gram for b in row):
            break
        prec *= 2
    r_e = [[_round_half_up(x.numerator << e, x.denominator) for x in row]
           for row in _cholesky([[b.re for b in row] for row in gram], 2 * prec)]
    det_re = abs(det_bareiss(r_e))
    if det_re == 0:
        return None, None
    # |Delta_ik| <= |4^e center_ik - M_ik| + 4^e r_ik on the real parts of
    # the Gram balls, over one common denominator
    m = mat_mul(r_e, transpose(r_e))
    nums, den = over_common_denominator([b.re for row in gram for b in row]
                                        + [b.r for row in gram for b in row])
    dd = d * d
    delta_sq = sum((abs((nums[t] << 2 * e) - m[t // d][t % d] * den) + (nums[dd + t] << 2 * e)) ** 2
                   for t in range(dd))
    s_num, s_den = solve_left(r_e, identity(d))
    s_f_sq = Fraction(sum(x * x for row in s_num for x in row), s_den * s_den)
    residual = frac_sqrt_ub(1 + frac_sqrt_ub(Fraction(delta_sq, den * den)) * s_f_sq)
    ratio = Fraction(det_re, 1 << (e * d)) / frac_sqrt_lb(Fraction(abs(field.disc)))
    c_quality = residual * frac_nth_root_ub(max(ratio, Fraction(1)), d, 96)
    return r_e, frac_up(c_quality, 96)


def _gram_balls(field: NumberField, prec: int) -> list[list[Ball]]:
    """Enclosures of the Hermitian Gram entries sum_j w_i(z_j) conj(w_k(z_j)).

    The centers are exact integer sums over one common denominator; the
    radius sum_j |v_ij| r_kj + |v_kj| r_ij + r_ij r_kj, with |v| the
    ``Ball.center_abs_ub`` bound on the modulus of a center, is summed on
    integers over one denominator and rounded up once.  Both are sums over
    the roots, so the order of the roots does not matter.
    """
    d = field.degree
    roots = field.roots(prec)
    omegas = [field.to_power_coords(field.element([1 if t == i else 0 for t in range(d)]))
              for i in range(d)]
    vals = [b for w in omegas for b in (numeric.eval_at_root(w, r) for r in roots)]
    # entry (i, j), the value of w_i at root j, sits at index i*d + j
    nums, den = over_common_denominator([x for b in vals for x in (b.re, b.im)])
    re, im = nums[0::2], nums[1::2]
    mods, m_den = over_common_denominator([b.center_abs_ub() for b in vals])
    rads, r_den = over_common_denominator([b.r for b in vals])
    den_sq = den * den
    r_scale = m_den * r_den * r_den
    gram = [[None] * d for _ in range(d)]
    for i in range(d):
        for k in range(i, d):
            row_i, row_k = range(i * d, i * d + d), range(k * d, k * d + d)
            c_re = sum(re[s] * re[t] + im[s] * im[t] for s, t in zip(row_i, row_k))
            c_im = sum(im[s] * re[t] - re[s] * im[t] for s, t in zip(row_i, row_k))
            r = frac_up(Fraction(sum((mods[s] * rads[t] + mods[t] * rads[s]) * r_den
                                     + rads[s] * rads[t] * m_den
                                     for s, t in zip(row_i, row_k)), r_scale))
            gram[i][k] = Ball(Fraction(c_re, den_sq), Fraction(c_im, den_sq), r)
            gram[k][i] = gram[i][k].conj()
    return gram


def _cholesky(centers: list[list[Fraction]], prec: int) -> list[list[Fraction]]:
    d = len(centers)
    with mp.workprec(prec):
        g = mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row] for row in centers])
        low = mp.cholesky(g)
        return [[mpf_to_fraction(low[i, j]) for j in range(d)] for i in range(d)]


def _round_half_up(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), halves rounded up."""
    return (2 * num + den) // (2 * den)


# ---------------------------------------------------------------------------
# Integral LLL


def _lll_with_transform(gram: Mat, u: Mat, delta: Fraction) -> None:
    """In-place LLL of the lattice with Gram matrix ``gram``, applied to the rows of u.

    Integral version (Cohen, GTM 138, Alg. 2.6.7): d[i] is the Gram
    determinant of the first i vectors and lam[i][j] = d[j+1] * mu[i][j], both
    integers, and every division below is exact.  b_k is size-reduced against
    b_(k-1), ..., b_0 before each Lovasz test; the decisions are those of the
    rational algorithm with Gram-Schmidt coefficients mu.
    """
    n = len(gram)
    p, q = delta.numerator, delta.denominator
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            x = gram[i][j]
            for t in range(j):
                x = (d[t + 1] * x - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = x
            else:
                d[i + 1] = x
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:                     # |mu_kj| > 1/2
                r = _round_half_up(lk[j], dj)
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                lk[j] -= r * dj
                lj = lam[j]
                for t in range(j):
                    lk[t] -= r * lj[t]
        lkk = lk[k - 1]
        if q * (d[k + 1] * d[k - 1] + lkk * lkk) >= p * d[k] * d[k]:
            k += 1
            continue
        u[k], u[k - 1] = u[k - 1], u[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        new_d = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lkk * t) // d[k]
            lam[i][k - 1] = (new_d * t + lkk * lam[i][k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)


def reduce_ideal_basis(ideal, ctx: LatticeContext) -> Mat:
    """Quality-checked reduced basis (rows, integral-basis coordinates) of an
    integral ideal, reduced from its Hermite basis."""
    if ideal.den != 1:
        raise ValueError("reduction expects an integral ideal")
    return _reduce(ideal, [list(row) for row in ideal.num], ctx)


def reduce_start_basis(ideal, start: Mat, ctx: LatticeContext) -> Mat:
    """Quality-checked reduced basis of an integral ideal, reduced from
    ``start``, which must be a Z-basis of the ideal: every row lies in it and
    |det(start)| is its norm, or IdealError is raised."""
    if ideal.den != 1:
        raise ValueError("reduction expects an integral ideal")
    field = ctx.field
    u = [list(row) for row in start]
    if (len(u) != field.degree or not all(ideal.contains(field.element(row)) for row in u)
            or abs(det_bareiss(u)) != ideal.norm()):
        raise IdealError("internal error: start rows are not a basis of the ideal")
    return _reduce(ideal, u, ctx)


def _reduce(ideal, u: Mat, ctx: LatticeContext) -> Mat:
    """LLL of the basis rows u of the integral ideal in place, on the Gram
    matrix of their integer embeddings, and the quality certificate."""
    if ctx.field.degree > 1:
        emb = mat_mul(u, ctx.r_e)
        _lll_with_transform(mat_mul(emb, transpose(emb)), u, LLL_DELTA)
    _check_quality(ideal, u, ctx)
    return u


def _quality_constants(d: int, disc: int, e: int, quality_sq: Fraction,
                       c_quality: Fraction) -> tuple[int, int, int, int]:
    """Integers (a_prod, b_prod, a_first, b_first) that clear the
    denominators of the two quality bounds of ``_check_quality``.

    With s_i = |x_i r_e|^2, T2 is bounded by c^2 s_i / 4^e (c = c_quality), so
    prod_i ub_i <= q^(d(d-1)/2) |disc| N^2 (q = quality_sq) holds exactly when
    a_prod * prod_i s_i <= b_prod * N^2, and ub_0^d <= q^(d(d-1)) |disc| N^2
    exactly when a_first * s_0^d <= b_first * N^2.
    """
    cn, cd = c_quality.numerator ** (2 * d), c_quality.denominator ** (2 * d)
    qn, qd = quality_sq.numerator, quality_sq.denominator
    rhs = disc * cd << 2 * e * d
    k = d * (d - 1) // 2
    return cn * qd ** k, rhs * qn ** k, cn * qd ** (2 * k), rhs * qn ** (2 * k)


def _check_quality(ideal, basis: Mat, ctx: LatticeContext) -> None:
    """Both certified bounds on the reduced basis of the integral ideal, as
    integer inequalities (see ``_quality_constants``)."""
    d = ctx.field.degree
    if d == 1:
        # the basis is the single generator: both bounds hold with equality,
        # which the rounded-up certificate cannot confirm
        return
    nrm = ideal.norm()
    nrm_sq = nrm.numerator * nrm.numerator
    a_prod, b_prod, a_first, b_first = ctx.quality_consts
    sizes = [sum(t * t for t in vec_mat(row, ctx.r_e)) for row in basis]
    prod = a_prod
    for s in sizes:
        prod *= s
    if prod > b_prod * nrm_sq or a_first * sizes[0] ** d > b_first * nrm_sq:
        raise QualityError(
            "reduced basis missed its certified bound; rebuild the lattice "
            "context with a larger precision exponent")


def shortest_basis_element(ideal, ctx: LatticeContext) -> FieldElement:
    """First vector of the reduced basis, as a field element."""
    basis = reduce_ideal_basis(ideal, ctx)
    return ctx.field.element(basis[0])
