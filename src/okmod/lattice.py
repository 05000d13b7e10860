"""Lattice reduction of ideal bases under a rounded trace-form embedding.

The Gram matrix of the Hermitian trace form on the integral basis is
enclosed to the requested accuracy, Cholesky-factored in fixed-point integer
arithmetic, scaled by 2^e and rounded to an integer matrix.  Reducing an
ideal then means running an integral LLL (delta = 99/100, Cohen's Algorithm
2.6.7 on the integer Gram matrix) on the image of its Hermite basis under
that integer embedding.  The output quality is not assumed: every reduced
basis is checked against the first-vector and product bounds, with the
rounding-quality constant already absorbed into the stored reduction
parameter.

The construction runs on integers.  The values of the basis elements at the
roots come from one power table per root (``numeric.basis_values``); the
Gram centers and radii are sums over one common denominator each; the
Cholesky factor takes the centers as the integers floor(G 4^(2 prec)); and
c_quality is formed on integer pairs.  Each rounded bound gets its argument
reduced once, so every quantity is that of the exact rationals.

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
from math import isqrt
from operator import mul

from . import numeric
from .ideals import IdealError
from .numeric import (Ball, _lowest, _nth_root_ub, _over_lcm, _sqrt_lb, _sqrt_ub, _up,
                      frac_nth_root_ub, frac_up)
from .numberfield import FieldElement, NumberField
from .zlinalg import Mat, det_bareiss, identity, mat_mul, solve_left, transpose, vec_mat

LLL_DELTA = Fraction(99, 100)
LLL_ETA = Fraction(501, 1000)
# theta = 0: plain size reduction


class QualityError(RuntimeError):
    """A reduced basis failed its certified quality bound; rebuild with larger e."""


class LatticeContext:
    """Precomputed rounded-embedding data for one number field."""

    __slots__ = ("field", "e", "r_e", "ell_sq", "quality_sq", "c_quality", "quality_consts",
                 "_norm_bound_sq")

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
        self._norm_bound_sq = quality_sq ** (field.degree ** 2) * abs(field.disc)

    def t2_bound(self, coeffs, den: int = 1) -> Fraction:
        """Certified upper bound c_quality^2 |x r_e|^2 / (4^e den^2) on
        T2(x / den) for an integer coefficient vector x."""
        v = vec_mat(coeffs, self.r_e)
        return self.c_quality ** 2 * Fraction(sum(t * t for t in v), den * den << 2 * self.e)

    def norm_bound_sq(self) -> Fraction:
        """Upper bound for N(a)^2 <= bound after normalization: (l^(d^2) sqrt|disc|)^2."""
        return self._norm_bound_sq

    def __repr__(self) -> str:
        return f"LatticeContext(e={self.e}, ell_sq~{float(self.quality_sq):.6f})"


def default_precision_exponent(field: NumberField) -> int:
    return 2 * (field.degree + abs(field.disc).bit_length()) + 64


def build_context(field: NumberField, e: int | None = None) -> LatticeContext:
    """Certified Gram enclosure, fixed-point Cholesky, integer rounding at scale 2^e.

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
    prec = e + 64
    while True:
        gram = _gram_balls(field, prec)
        # r + |im| < 2^-(e+2) on every entry
        if all((b.rn * b.q + abs(b.y) * b.rd) << (e + 2) < b.rd * b.q
               for row in gram for b in row):
            break
        prec *= 2
    # the factor at 2 prec fractional bits: the centers go in as the integers
    # floor(G 4^(2 prec)), so the factor comes out as the integers L 2^(2 prec)
    fbits = 2 * prec
    low = _cholesky([[(b.x << 2 * fbits) // b.q for b in row] for row in gram], 0)
    r_e = [[_round_half_up(x.numerator << e, 1 << fbits) for x in row] for row in low]
    det_re = abs(det_bareiss(r_e))
    if det_re == 0:
        return None, None
    # |Delta_ik| <= |4^e center_ik - M_ik| + 4^e r_ik on the real parts of
    # the Gram balls, over one common denominator
    m = mat_mul(r_e, transpose(r_e))
    nums, den = _over_lcm([(b.x, b.q) for row in gram for b in row]
                          + [(b.rn, b.rd) for row in gram for b in row])
    dd = d * d
    delta_sq = sum((abs((nums[t] << 2 * e) - m[t // d][t % d] * den) + (nums[dd + t] << 2 * e)) ** 2
                   for t in range(dd))
    # residual = sqrt_ub(1 + |Delta|_F s_f^2), with |Delta|_F <= a / ad and
    # s_f^2 = s_sq / s_den^2
    s_num, s_den = solve_left(r_e, identity(d))
    s_sq = sum(x * x for row in s_num for x in row)
    a, ad = _sqrt_ub(*_lowest(delta_sq, den * den))
    q = ad * s_den * s_den
    res, res_den = _sqrt_ub(*_lowest(q + a * s_sq, q))
    # ratio = det(r_e) / (2^(e d) sqrt_lb|disc|), at least 1
    lb, lb_den = _sqrt_lb(abs(field.disc), 1)
    ratio, ratio_den = det_re * lb_den, lb << e * d
    root, root_den = _nth_root_ub(*_lowest(max(ratio, ratio_den), ratio_den), d, 96)
    return r_e, Fraction(*_up(*_lowest(res * root, res_den * root_den), 96))


def _gram_balls(field: NumberField, prec: int) -> list[list[Ball]]:
    """Enclosures of the Hermitian Gram entries sum_j w_i(z_j) conj(w_k(z_j)).

    The values w_i(z_j) come from one power table per root
    (``numeric.basis_values``).  The centers are exact integer sums over one
    common denominator; the radius sum_j |v_ij| r_kj + |v_kj| r_ij + r_ij
    r_kj, with |v| the ``Ball.center_abs_ub`` bound on the modulus of a
    center, is summed on integers over one denominator, reduced and rounded
    up once.  Both are sums over the roots, so the order of the roots does
    not matter.
    """
    d = field.degree
    vals = [b for row in numeric.basis_values(field.basis_num, field.basis_den,
                                              field.roots(prec)) for b in row]
    # entry (i, j), the value of w_i at root j, sits at index i*d + j
    nums, den = _over_lcm([(x, b.q) for b in vals for x in (b.x, b.y)])
    mods, m_den = _over_lcm([b.center_abs_ub() for b in vals])
    rads, r_den = _over_lcm([(b.rn, b.rd) for b in vals])
    # row i of each holds w_i over the roots
    re, im, mods, rads = ([xs[i * d:(i + 1) * d] for i in range(d)]
                          for xs in (nums[0::2], nums[1::2], mods, rads))
    den_sq = den * den
    r_scale = m_den * r_den * r_den
    gram = [[None] * d for _ in range(d)]
    for i in range(d):
        for k in range(i, d):
            c_re = sum(map(mul, re[i], re[k])) + sum(map(mul, im[i], im[k]))
            c_im = sum(map(mul, im[i], re[k])) - sum(map(mul, re[i], im[k]))
            r = ((sum(map(mul, mods[i], rads[k])) + sum(map(mul, mods[k], rads[i]))) * r_den
                 + sum(map(mul, rads[i], rads[k])) * m_den)
            gram[i][k] = Ball(c_re, c_im, den_sq, *_up(*_lowest(r, r_scale)))
            gram[k][i] = gram[i][k].conj()
    return gram


def _cholesky(centers: list[list[Fraction]], prec: int) -> list[list[Fraction]]:
    """Lower Cholesky factor L of a positive definite matrix G, in fixed
    point with ``prec`` fractional bits: on the integers G 4^prec (floored)
    and L 2^prec, each L_jj is the ``isqrt`` of G_jj - sum_k L_jk^2 and each
    L_ij the floor of (G_ij - sum_k L_ik L_jk) / L_jj."""
    d = len(centers)
    g = [[(x.numerator << 2 * prec) // x.denominator for x in row] for row in centers]
    low = [[0] * d for _ in range(d)]
    for j in range(d):
        lj = low[j]
        lj[j] = isqrt(g[j][j] - sum(x * x for x in lj[:j]))
        for i in range(j + 1, d):
            low[i][j] = (g[i][j] - sum(a * b for a, b in zip(low[i][:j], lj))) // lj[j]
    return [[Fraction(x, 1 << prec) for x in row] for row in low]


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
