"""Certified numerical support: embeddings, Gram data, rational bounds.

Approximate quantities are carried as complex balls whose centers are exact
rationals (dyadics coming out of mpmath) and whose radii are exact rational
upper bounds, so every derived inequality check reduces to an exact Fraction
comparison.  Root enclosures use the classical bound

    min_j |x - z_j| <= deg(f) * |f(x)| / |f'(x)|,

valid for any x with f'(x) != 0, which makes the disks rigorous; pairwise
disjointness then pins one root per disk.  A request for more precision
refines the cached enclosures by Newton's method instead of solving again:
the refined centers pass the same certificate (the disks above and their
pairwise disjointness), and each refined disk must lie inside the disk it
started from, so it encloses the same root.  Polynomials are evaluated by
Horner's rule on integers over one common denominator of the point and the
coefficients; the ball centers are dyadic, so that denominator is small.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

import mpmath as mp
from mpmath.libmp import to_rational

Complex = tuple[Fraction, Fraction]


def mpf_to_fraction(x) -> Fraction:
    p, q = to_rational(mp.mpf(x)._mpf_)
    return Fraction(int(p), int(q))


def frac_up(x: Fraction, bits: int = 64) -> Fraction:
    """Smallest dyadic with a ``bits``-bit mantissa that is >= x (x >= 0)."""
    if x <= 0:
        return Fraction(0)
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    if shift >= 0:
        num = -((-x.numerator << shift) // x.denominator)
        return Fraction(num, 1 << shift)
    num = -(-x.numerator // (x.denominator << -shift))
    return Fraction(num << -shift)


def isqrt_up(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else r + 1


def frac_sqrt_ub(x: Fraction, bits: int = 64) -> Fraction:
    """Rational upper bound on sqrt(x), exact when x is a perfect square."""
    if x < 0:
        raise ValueError("negative argument")
    if x == 0:
        return Fraction(0)
    scale = 1 << (2 * bits)
    n = x.numerator * x.denominator * scale
    return Fraction(isqrt_up(n), x.denominator << bits)


def frac_sqrt_lb(x: Fraction, bits: int = 64) -> Fraction:
    if x <= 0:
        return Fraction(0)
    scale = 1 << (2 * bits)
    n = x.numerator * x.denominator * scale
    return Fraction(isqrt(n), x.denominator << bits)


def iroot_floor(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative argument")
    if n == 0 or k == 1:
        return n
    r = 1 << (-(-n.bit_length() // k))
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > n:
        r -= 1
    return r


def frac_nth_root_ub(x: Fraction, k: int, bits: int = 64) -> Fraction:
    """Rational upper bound on x**(1/k) for x >= 0."""
    if x < 0:
        raise ValueError("negative argument")
    if x == 0:
        return Fraction(0)
    if k == 1:
        return x
    scale = 1 << (k * bits)
    n = x.numerator * x.denominator ** (k - 1) * scale
    r = iroot_floor(n, k)
    if r ** k < n:
        r += 1
    return Fraction(r, x.denominator << bits)


def log2_ub(x: Fraction | int, fbits: int = 16) -> Fraction:
    """Dyadic upper bound on log2(x) for x > 0, with fbits fractional bits."""
    m = Fraction(x)
    if m <= 0:
        raise ValueError("log of non-positive value")
    e = m.numerator.bit_length() - m.denominator.bit_length()
    m = m / Fraction(2) ** e
    while m >= 2:
        m /= 2
        e += 1
    while m < 1:
        m *= 2
        e -= 1
    frac_acc = 0
    for _ in range(fbits):
        m = frac_up(m * m, 96)  # rounding up keeps the estimate an upper bound
        frac_acc <<= 1
        if m >= 2:
            frac_acc += 1
            m /= 2
    return Fraction(e) + Fraction(frac_acc + 1, 1 << fbits)


# ---------------------------------------------------------------------------
# Exact-rational complex balls


class Ball:
    """Complex ball with exact rational center and exact rational radius bound."""

    __slots__ = ("re", "im", "r")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0), r: Fraction = Fraction(0)):
        self.re = Fraction(re)
        self.im = Fraction(im)
        self.r = Fraction(r)

    def conj(self) -> "Ball":
        return Ball(self.re, -self.im, self.r)

    def abs_sq_center(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def abs_ub(self) -> Fraction:
        return frac_sqrt_ub(self.abs_sq_center()) + self.r

    def abs_sq_ub(self) -> Fraction:
        u = self.abs_ub()
        return u * u


def _poly_eval_complex(coeffs: list[Fraction], z: Complex) -> Complex:
    """Horner evaluation at an exact complex rational point.

    The loop runs on integers: with z = x / q and coefficients c_i = n_i / den,
    it accumulates sum_i n_i x^i q^(n-1-i), and one division at the end gives
    the exact value.  ``coeffs`` may hold ints or Fractions.
    """
    if not coeffs:
        return Fraction(0), Fraction(0)
    zr, zi = z
    q = lcm(zr.denominator, zi.denominator)
    xr = zr.numerator * (q // zr.denominator)
    xi = zi.numerator * (q // zi.denominator)
    den = lcm(*(c.denominator for c in coeffs))
    re, im = coeffs[-1].numerator * (den // coeffs[-1].denominator), 0
    qpow = 1
    for c in reversed(coeffs[:-1]):
        qpow *= q
        re, im = (re * xr - im * xi + c.numerator * (den // c.denominator) * qpow,
                  re * xi + im * xr)
    return Fraction(re, den * qpow), Fraction(im, den * qpow)


def _abs_sq(z: Complex) -> Fraction:
    return z[0] * z[0] + z[1] * z[1]


def _newton(int_coeffs: list[int], start: list[Ball], prec: int) -> list | None:
    """Newton's method at ``prec`` bits from the centers of ``start``.

    Stops once a step is below 2^-(prec/2) relative to the root, after which
    the next step would be lost in rounding; None if that never happens.
    """
    big_endian = [mp.mpf(c) for c in reversed(int_coeffs)]
    tol = mp.ldexp(1, -(prec // 2))
    out = []
    for ball in start:
        z = mp.mpc(mp.mpf(ball.re.numerator) / ball.re.denominator,
                   mp.mpf(ball.im.numerator) / ball.im.denominator)
        for _ in range(prec.bit_length() + 8):
            fz, fpz = mp.polyval(big_endian, z, derivative=True)
            if fpz == 0:
                return None
            step = fz / fpz
            z -= step
            if abs(step) <= tol * max(1, abs(z)):
                break
        else:
            return None
        out.append(z)
    return out


def certified_roots(int_coeffs: list[int], prec: int,
                    start: list[Ball] | None = None) -> list[Ball] | None:
    """Disjoint certified root enclosures of a squarefree integer polynomial.

    ``int_coeffs`` is little-endian (constant first) with nonzero leading
    coefficient.  Without ``start`` the roots are solved from scratch at
    ``prec`` bits; with ``start`` (certified enclosures, one per root) their
    centers are refined by Newton's method at ``prec`` bits, and each new disk
    must lie inside its start disk.  Returns None when the precision was
    insufficient to separate the disks or the refinement failed its
    certificate; the caller retries with a plain solve or more precision.
    """
    deg = len(int_coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        z = Fraction(-int_coeffs[0], int_coeffs[1])
        return [Ball(z, Fraction(0), Fraction(0))]
    with mp.workprec(prec):
        if start is None:
            try:
                rts = mp.polyroots([mp.mpf(c) for c in reversed(int_coeffs)],
                                   maxsteps=100 + prec, extraprec=prec)
            except mp.libmp.NoConvergence:
                return None
        else:
            rts = _newton(int_coeffs, start, prec)
            if rts is None:
                return None
        centers: list[Complex] = []
        for z in rts:
            zc = mp.mpc(z)
            centers.append((mpf_to_fraction(zc.real), mpf_to_fraction(zc.imag)))
    fp = [i * c for i, c in enumerate(int_coeffs)][1:]
    balls = []
    for z in centers:
        fz = _abs_sq(_poly_eval_complex(int_coeffs, z))
        fpz = _abs_sq(_poly_eval_complex(fp, z))
        if fpz == 0:
            return None
        r = Fraction(deg) * frac_sqrt_ub(fz) / frac_sqrt_lb(fpz)
        balls.append(Ball(z[0], z[1], frac_up(r)))
    for i in range(deg):
        for j in range(i + 1, deg):
            dist_sq = (balls[i].re - balls[j].re) ** 2 + (balls[i].im - balls[j].im) ** 2
            rad = balls[i].r + balls[j].r
            if dist_sq <= rad * rad * 4:
                return None
    if start is not None:
        for new, old in zip(balls, start):
            slack = old.r - new.r
            if slack < 0 or (new.re - old.re) ** 2 + (new.im - old.im) ** 2 > slack * slack:
                return None
    return balls


def eval_at_root(power_coeffs: list[Fraction], root: Ball) -> Ball:
    """Ball for p(z) over the true root enclosed by ``root``.

    The center is the exact evaluation at the disk center; the radius adds the
    root radius scaled by a derivative bound over the disk.
    """
    z = (root.re, root.im)
    val = _poly_eval_complex(power_coeffs, z)
    if root.r == 0:
        return Ball(val[0], val[1], Fraction(0))
    zub = frac_sqrt_ub(_abs_sq(z)) + root.r
    deriv_bound = Fraction(0)
    pw = Fraction(1)  # zub ** (i - 1)
    for i, c in enumerate(power_coeffs):
        if i >= 1:
            deriv_bound += Fraction(i) * abs(c) * pw
            pw *= zub
    return Ball(val[0], val[1], frac_up(root.r * deriv_bound))
