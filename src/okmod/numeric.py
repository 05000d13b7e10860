"""Certified numerical support: embeddings, Gram data, rational bounds.

Approximate quantities are carried as complex balls whose centers are exact
rationals (dyadics coming out of mpmath) and whose radii are exact rational
upper bounds.  Root enclosures use the classical bound

    min_j |x - z_j| <= deg(f) * |f(x)| / |f'(x)|,

valid for any x with f'(x) != 0, which makes the disks rigorous; pairwise
disjointness then pins one root per disk.  The first solve is mpmath's
Durand-Kerner iteration started from a float Durand-Kerner run; mpmath still
iterates to its own tolerance and rounds, so the start changes the order of
the roots, not their values (barring a root within the last step's error of
a rounding boundary).  A request for more precision refines the cached
enclosures by Newton's method instead of solving again: the refined centers
pass the same certificate (the disks above and their pairwise
disjointness), and each refined disk must lie inside the disk it started
from, so it encloses the same root.  The checks and bounds run on
integers: polynomials are evaluated by Horner's rule over one common
denominator of the point and the coefficients (the ball centers are
dyadic, so that denominator is small), inequalities are compared over one
common denominator, and a rounded bound (``frac_up``, ``frac_sqrt_ub``)
gets its argument as one Fraction reduced once, so it is the bound of the
exact value.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, isqrt, lcm

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
    """Dyadic upper bound on log2(x) for x > 0, with fbits fractional bits.

    Writes x = 2^e * m with 1 <= m < 2 and squares m fbits times, each square
    rounded up as ``frac_up(m * m, 96)`` would round it (the estimate stays an
    upper bound); each square at or above 2 yields a fractional bit of 1 and
    is halved.  The loop runs on the integer numerator and denominator of the
    reduced m, which is dyadic after the first square.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of non-positive value")
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if (n << max(-e, 0)) < (d << max(e, 0)):
        e -= 1
    if e >= 0:
        d <<= e
    else:
        n <<= -e
    g = gcd(n, d)
    p, q = n // g, d // g  # m = p / q in lowest terms
    frac_acc = 0
    for _ in range(fbits):
        # frac_up(p^2 / q^2, 96): the shift is >= 94 since m^2 < 4
        pp, qq = p * p, q * q
        shift = 96 - (pp.bit_length() - qq.bit_length())
        p = -((-pp << shift) // qq)
        tz = min((p & -p).bit_length() - 1, shift)
        p >>= tz
        q = 1 << (shift - tz)
        frac_acc <<= 1
        if p >= 2 * q:
            frac_acc += 1
            if p & 1:
                q <<= 1
            else:
                p >>= 1
    return Fraction((e << fbits) + frac_acc + 1, 1 << fbits)


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

    def center_abs_ub(self) -> Fraction:
        """``frac_sqrt_ub`` of the squared modulus of the center, an upper
        bound on |center|; the square is formed on integers and reduced once."""
        (a, b), q = over_common_denominator((self.re, self.im))
        return frac_sqrt_ub(Fraction(a * a + b * b, q * q))


def over_common_denominator(values) -> tuple[list[int], int]:
    """(nums, den): the numerators of the rationals ``values`` over their
    least common denominator, so that ``values[i] == nums[i] / den``."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _horner(nums: list[int], z: Complex) -> tuple[int, int, int]:
    """(re, im, den) with sum_i nums[i] z^i = (re + i*im) / den, by Horner's
    rule on integers: with z = x / q the loop accumulates
    sum_i nums[i] x^i q^(n-1-i), so den = q^(n-1)."""
    if not nums:
        return 0, 0, 1
    (xr, xi), q = over_common_denominator(z)
    re, im = nums[-1], 0
    qpow = 1
    for c in reversed(nums[:-1]):
        qpow *= q
        re, im = re * xr - im * xi + c * qpow, re * xi + im * xr
    return re, im, qpow


def _abs_sq_at(int_coeffs: list[int], z: Complex) -> Fraction:
    """|p(z)|^2 for integer coefficients, one Fraction from the Horner sums."""
    re, im, den = _horner(int_coeffs, z)
    return Fraction(re * re + im * im, den * den)


# Durand-Kerner sweeps allowed to the float start of ``certified_roots``, and
# the relative step below which a float root counts as settled
_FLOAT_SWEEPS = 200
_FLOAT_TOL = 2.0 ** -40


def _float_start(int_coeffs: list[int]) -> list[complex] | None:
    """Starting points for ``mp.polyroots``: Durand-Kerner on Python complex
    floats from mpmath's own start points ``(0.4+0.9j)**n``.

    None when the start is unusable: a coefficient overflows a float, the
    iteration leaves the finite floats or does not settle, or two points
    coincide.  mpmath then starts from its defaults.
    """
    deg = len(int_coeffs) - 1
    try:
        monic = [c / int_coeffs[-1] for c in reversed(int_coeffs)]
    except OverflowError:
        return None
    pts = [(0.4 + 0.9j) ** n for n in range(deg)]
    try:
        for _ in range(_FLOAT_SWEEPS):
            settled = True
            for i, p in enumerate(pts):
                x = 0j
                for c in monic:
                    x = x * p + c
                for j, t in enumerate(pts):
                    if j != i:
                        x /= p - t
                pts[i] = p - x
                if not abs(x) <= _FLOAT_TOL * max(1.0, abs(p)):
                    settled = False
            if settled:
                break
        else:
            return None
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(cmath.isfinite(p) for p in pts) or len(set(pts)) < deg:
        return None
    return pts


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
    ``prec`` bits by ``mp.polyroots``, started from ``_float_start``; with
    ``start`` (certified enclosures, one per root) their centers are refined
    by Newton's method at ``prec`` bits, and each new disk must lie inside its
    start disk.  Returns None when the precision was insufficient to separate
    the disks or the refinement failed its certificate; the caller retries
    with a plain solve or more precision.  The disks come in the order the
    solver returns them; callers use only sums and maxima over the roots.
    """
    deg = len(int_coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        z = Fraction(-int_coeffs[0], int_coeffs[1])
        return [Ball(z, Fraction(0), Fraction(0))]
    with mp.workprec(prec):
        if start is None:
            init = _float_start(int_coeffs)
            try:
                rts = mp.polyroots([mp.mpf(c) for c in reversed(int_coeffs)],
                                   maxsteps=100 + prec, extraprec=prec,
                                   roots_init=None if init is None else [mp.mpc(z) for z in init])
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
    radii = []
    for z in centers:
        fpz = _abs_sq_at(fp, z)
        if fpz == 0:
            return None
        radii.append(frac_up(deg * frac_sqrt_ub(_abs_sq_at(int_coeffs, z)) / frac_sqrt_lb(fpz)))
    # the disjointness and containment tests on integers over one denominator
    nums, den = over_common_denominator(
        [x for z in centers for x in z] + radii
        + ([x for b in start for x in (b.re, b.im, b.r)] if start is not None else []))
    pts = [(nums[2 * i], nums[2 * i + 1], nums[2 * deg + i]) for i in range(deg)]
    for i, (xi, yi, ri) in enumerate(pts):
        for xj, yj, rj in pts[i + 1:]:
            rad = ri + rj
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= 4 * rad * rad:
                return None
    if start is not None:
        olds = nums[3 * deg:]
        for (x, y, r), (xo, yo, ro) in zip(pts, zip(olds[::3], olds[1::3], olds[2::3])):
            slack = ro - r
            if slack < 0 or (x - xo) ** 2 + (y - yo) ** 2 > slack * slack:
                return None
    return [Ball(z[0], z[1], r) for z, r in zip(centers, radii)]


def eval_at_root(power_coeffs: list[Fraction], root: Ball) -> Ball:
    """Ball for p(z) over the true root enclosed by ``root``.

    The center is the exact evaluation at the disk center; the radius adds the
    root radius scaled by a derivative bound over the disk,
    sum_(i>=1) i |c_i| zub^(i-1) with zub >= |z| on the disk, evaluated by
    Horner's rule on integers over one denominator and rounded up once.
    """
    nums, cden = over_common_denominator(power_coeffs)
    re, im, den = _horner(nums, (root.re, root.im))
    den *= cden
    if root.r == 0:
        return Ball(Fraction(re, den), Fraction(im, den), Fraction(0))
    zub = root.center_abs_ub() + root.r
    u, v = zub.numerator, zub.denominator
    acc, vpow = 0, 1  # sum_(i>=k) i |n_i| u^(i-k) v^(n-i), for k = n .. 1
    for i in range(len(nums) - 1, 0, -1):
        acc = acc * u + i * abs(nums[i]) * vpow
        if i > 1:
            vpow *= v
    radius = frac_up(Fraction(root.r.numerator * acc, root.r.denominator * cden * vpow))
    return Ball(Fraction(re, den), Fraction(im, den), radius)
