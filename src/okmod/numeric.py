"""Certified numerical support: embeddings, Gram data, rational bounds.

Approximate quantities are carried as complex balls on integers: a center
(x + i y) / q and a radius bound rn / rd.  The centers are dyadic (the root
iteration works at scale 2^prec) and the radii are dyadic (``frac_up``), so
the denominators are powers of two, times the small denominator of the
integral basis for values of basis elements.  Root enclosures use the
classical bound

    min_j |x - z_j| <= deg(f) * |f(x)| / |f'(x)|,

valid for any x with f'(x) != 0, which makes the disks rigorous; pairwise
disjointness then pins one root per disk.  One Durand-Kerner iteration on
Gaussian integers scaled by 2^prec (``_weierstrass``) finds every center:
each solve runs it at 64 bits from the classical start points (once more
from those points scaled past a bound on the roots if that run does not
settle) and then at the requested precision.  The certificate evaluates f
and f' at the centers by the iteration's own Horner rule (``_value_at``),
so the whole solve runs on integers.

The roots of one solve share the denominator 2^prec.  A polynomial is
evaluated at a root through that root's power table (``_power_table``): the
powers z^t of the center over one denominator, and the weights r t
zub^(t-1) of its derivative radius, so the value of each basis element
(``basis_values``) is one integer dot product per part.  Inequalities are
compared over one common denominator.  A value is reduced to lowest terms
only where a rounded bound is taken (``frac_up``, ``frac_sqrt_ub``,
``frac_nth_root_ub``), because those bounds depend on the representation of
their argument; the integer-pair forms ``_up``, ``_sqrt_ub``, ``_sqrt_lb``
and ``_nth_root_ub`` take the pair ``_lowest`` reduced, so every bound is
that of the exact value, as the Fraction forms compute it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n / d (d > 0) in lowest terms, as an integer pair.

    The common power of two is shifted out first and the gcd taken with the
    odd part of d alone: the denominators here are a power of two times a
    small basis denominator, for which ``gcd`` on the whole of d would run a
    full Euclid on numbers of thousands of bits."""
    if not n:
        return 0, 1
    k = min(n & -n, d & -d).bit_length() - 1
    n, d = n >> k, d >> k
    g = gcd(n, d >> (d & -d).bit_length() - 1)
    return (n // g, d // g) if g != 1 else (n, d)


def _up(n: int, d: int, bits: int = 64) -> tuple[int, int]:
    """``frac_up(n / d, bits)`` as an integer pair (num, den), for n / d in
    lowest terms (the bound depends on that representation)."""
    if n <= 0:
        return 0, 1
    shift = bits - (n.bit_length() - d.bit_length())
    if shift >= 0:
        return -((-n << shift) // d), 1 << shift
    return -(-n // (d << -shift)) << -shift, 1


def frac_up(x: Fraction, bits: int = 64) -> Fraction:
    """Smallest dyadic with a ``bits``-bit mantissa that is >= x (x >= 0)."""
    return Fraction(*_up(x.numerator, x.denominator, bits))


def isqrt_up(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else r + 1


def _sqrt_ub(n: int, d: int, bits: int = 64) -> tuple[int, int]:
    """``frac_sqrt_ub(n / d, bits)`` as an integer pair, for n / d >= 0 in
    lowest terms."""
    return (isqrt_up(n * d << 2 * bits), d << bits) if n else (0, 1)


def _sqrt_lb(n: int, d: int, bits: int = 64) -> tuple[int, int]:
    """A lower bound on sqrt(n / d) with ``bits`` fractional bits, as an
    integer pair, for n / d >= 0 in lowest terms."""
    return (isqrt(n * d << 2 * bits), d << bits) if n else (0, 1)


def frac_sqrt_ub(x: Fraction, bits: int = 64) -> Fraction:
    """Rational upper bound on sqrt(x), exact when x is a perfect square."""
    if x < 0:
        raise ValueError("negative argument")
    return Fraction(*_sqrt_ub(x.numerator, x.denominator, bits))


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


def _nth_root_ub(n: int, d: int, k: int, bits: int = 64) -> tuple[int, int]:
    """``frac_nth_root_ub(n / d, k, bits)`` as an integer pair, for n / d >= 0
    in lowest terms."""
    if n == 0 or k == 1:
        return n, d
    m = n * d ** (k - 1) << k * bits
    r = iroot_floor(m, k)
    return r + (r ** k < m), d << bits


def frac_nth_root_ub(x: Fraction, k: int, bits: int = 64) -> Fraction:
    """Rational upper bound on x**(1/k) for x >= 0."""
    if x < 0:
        raise ValueError("negative argument")
    return Fraction(*_nth_root_ub(x.numerator, x.denominator, k, bits))


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
# Complex balls on integers


class Ball:
    """Complex ball with center (x + i y) / q and radius bound rn / rd, all
    integers (q, rd > 0, not necessarily in lowest terms); ``re``, ``im`` and
    ``r`` read them as Fractions."""

    __slots__ = ("x", "y", "q", "rn", "rd")

    def __init__(self, x: int, y: int, q: int, rn: int = 0, rd: int = 1):
        self.x, self.y, self.q, self.rn, self.rd = x, y, q, rn, rd

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.q)

    @property
    def r(self) -> Fraction:
        return Fraction(self.rn, self.rd)

    def conj(self) -> "Ball":
        return Ball(self.x, -self.y, self.q, self.rn, self.rd)

    def center_abs_ub(self) -> tuple[int, int]:
        """``frac_sqrt_ub`` of the squared modulus of the center, an upper
        bound on |center|, as an integer pair; the square is reduced once."""
        x, y, q = self.x, self.y, self.q
        return _sqrt_ub(*_lowest(x * x + y * y, q * q))


def _over_lcm(pairs) -> tuple[list[int], int]:
    """(nums, den): the rationals n / d of the integer pairs ``pairs`` over
    the least common multiple of their denominators."""
    dens = {d for _, d in pairs}
    if len(dens) == 1:
        return [n for n, _ in pairs], dens.pop()
    den = lcm(*dens)
    return [n * (den // d) for n, d in pairs], den


def _scaled_coeffs(int_coeffs: list[int], prec: int) -> list[int]:
    """The coefficients of f, leading first, that of x^(n-t) times 2^(t prec),
    for ``_value_at`` at scale 2^prec."""
    return [c << t * prec for t, c in enumerate(reversed(int_coeffs))]


def _value_at(scaled: list[int], xr: int, xi: int) -> tuple[int, int]:
    """(re, im) with f(z) 2^(n prec) = re + i im at z = (xr + i xi) / 2^prec,
    by Horner's rule on the ``_scaled_coeffs`` of f, which keep every step
    on Gaussian integers."""
    fr = fi = 0
    for c in scaled:
        fr, fi = fr * xr - fi * xi + c, fr * xi + fi * xr
    return fr, fi


def _weierstrass(int_coeffs: list[int], pts: list[Ball], prec: int,
                 sweeps: int) -> list[Ball] | None:
    """Durand-Kerner (Weierstrass) iteration on Gaussian integers at scale
    2^prec, from the centers of ``pts``, one per root, each floored to that
    scale.

    Each sweep replaces z_i, in place, by z_i - f(z_i) / (a_n prod_(j!=i)
    (z_i - z_j)).  With z_i = x_i / 2^prec the numerator f(z_i) 2^(n prec) is
    exact Horner on integers (``_value_at``) and the denominator is exact
    too, so one floor division per coordinate is the only rounding.  Stops
    after the first sweep whose steps are all below 2^-(prec/2) relative to
    the root (|z| if |z| > 1, else 1), after which the next step would be
    lost in rounding, and returns the points as balls of radius 0 at scale
    2^prec; None if that never happens within ``sweeps`` or two points
    coincide.
    """
    lead = int_coeffs[-1]
    scaled = _scaled_coeffs(int_coeffs, prec)
    one_sq = 1 << 2 * prec
    tol = 2 * (prec // 2)
    zs = [((b.x << prec) // b.q, (b.y << prec) // b.q) for b in pts]
    for _ in range(sweeps):
        settled = True
        for i, (xr, xi) in enumerate(zs):
            fr, fi = _value_at(scaled, xr, xi)
            dr, di = lead, 0
            for j, (yr, yi) in enumerate(zs):
                if j != i:
                    ar, ai = xr - yr, xi - yi
                    dr, di = dr * ar - di * ai, dr * ai + di * ar
            nrm = dr * dr + di * di
            if nrm == 0:
                return None
            sr, si = (fr * dr + fi * di) // nrm, (fi * dr - fr * di) // nrm
            zs[i] = (xr - sr, xi - si)
            if (sr * sr + si * si) << tol > max(one_sq, xr * xr + xi * xi):
                settled = False
        if settled:
            return [Ball(x, y, 1 << prec) for x, y in zs]
    return None


def _start_points(deg: int) -> list[Ball]:
    """The classical start points (0.4+0.9i)^k, k < deg, as exact dyadic
    balls (the float parts have power-of-two denominators)."""
    pts = (_over_lcm([w.real.as_integer_ratio(), w.imag.as_integer_ratio()])
           for w in ((0.4 + 0.9j) ** k for k in range(deg)))
    return [Ball(x, y, q) for (x, y), q in pts]


def _outer_points(int_coeffs: list[int], pts) -> list[Ball]:
    """The points ``pts`` times 2^s, with every root of the polynomial below
    2^s in modulus: Fujiwara's bound 2 max_k |a_(n-k) / a_n|^(1/k), each
    ratio below 2^(bitlen(a_(n-k)) - bitlen(a_n) + 1), rounded up to a power
    of two."""
    lead = int_coeffs[-1].bit_length()
    s = max([0] + [1 - (-(c.bit_length() - lead + 1) // k)
                   for k, c in enumerate(reversed(int_coeffs[:-1]), 1) if c])
    return [Ball(b.x << s, b.y << s, b.q) for b in pts]


def certified_roots(int_coeffs: list[int], prec: int) -> list[Ball] | None:
    """Disjoint certified root enclosures of a squarefree integer polynomial.

    ``int_coeffs`` is little-endian (constant first) with nonzero leading
    coefficient.  The roots are solved from scratch by ``_weierstrass``: a
    64-bit run from the points (0.4+0.9i)^k (if it does not settle, once
    more from those points scaled past every root by ``_outer_points``),
    then a run at ``prec`` bits from its result.  Each center z at scale
    2^prec gets the radius deg |f(z)| / |f'(z)|, with f and f' evaluated by
    the iteration's own Horner rule (``_value_at``).  Returns None when the
    iteration did not settle or the precision was insufficient to separate
    the disks; the caller retries with more precision.  The centers share the
    denominator 2^prec.  The disks come in the order of the points; callers
    use only sums and maxima over the roots.
    """
    deg = len(int_coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        c0, c1 = int_coeffs
        return [Ball(-c0, 0, c1) if c1 > 0 else Ball(c0, 0, -c1)]
    pts = _start_points(deg)
    pts = (_weierstrass(int_coeffs, pts, 64, 100 + 64)
           or _weierstrass(int_coeffs, _outer_points(int_coeffs, pts), 64, 100 + 64)
           or pts)
    balls = _weierstrass(int_coeffs, pts, prec, 100 + prec)
    if balls is None:
        return None
    # |f(z)|^2 = (fr^2 + fi^2) / 4^(deg prec), |f'(z)|^2 = (gr^2 + gi^2) / 4^((deg-1) prec)
    f = _scaled_coeffs(int_coeffs, prec)
    fp = _scaled_coeffs([i * c for i, c in enumerate(int_coeffs)][1:], prec)
    for b in balls:
        gr, gi = _value_at(fp, b.x, b.y)
        if not (gr or gi):
            return None
        fr, fi = _value_at(f, b.x, b.y)
        ub, ub_den = _sqrt_ub(*_lowest(fr * fr + fi * fi, 1 << 2 * deg * prec))
        lb, lb_den = _sqrt_lb(*_lowest(gr * gr + gi * gi, 1 << 2 * (deg - 1) * prec))
        b.rn, b.rd = _up(*_lowest(deg * ub * lb_den, ub_den * lb))
    # the disjointness test on integers over one denominator: disk i has
    # center (nums[2i], nums[2i+1]) and radius nums[2 deg + i]
    nums, den = _over_lcm([(v, b.q) for b in balls for v in (b.x, b.y)]
                          + [(b.rn, b.rd) for b in balls])
    circles = [(nums[2 * i], nums[2 * i + 1], nums[2 * deg + i]) for i in range(deg)]
    for i, (xi, yi, ri) in enumerate(circles):
        for xj, yj, rj in circles[i + 1:]:
            rad = ri + rj
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= 4 * rad * rad:
                return None
    return balls


# ---------------------------------------------------------------------------
# Values at the roots, from one power table per root


def _power_table(root: Ball, n: int):
    """(zs, zden, ws, wden) for polynomials of length n at the root enclosed
    by ``root``, whose center is z and radius r: z^t = zs[t] / zden as
    complex integer pairs, and r t zub^(t-1) = ws[t] / wden, the weight of
    |c_t| in the derivative radius, with zub = ``Ball.center_abs_ub`` + r
    >= |z| on the disk (t < n)."""
    a, b, q = root.x, root.y, root.q
    zs, zr, zi = [], 1, 0
    for _ in range(n):
        zs.append((zr, zi))
        zr, zi = zr * a - zi * b, zr * b + zi * a
    qpow = 1
    for t in range(n - 1, -1, -1):
        zs[t] = (zs[t][0] * qpow, zs[t][1] * qpow)
        qpow *= q
    zden = qpow // q if n else 1
    rn, rd = root.rn, root.rd
    if rn == 0 or n < 2:
        return zs, zden, [0] * n, 1
    s, sd = root.center_abs_ub()
    u, v = s * rd + rn * sd, sd * rd          # zub = u / v
    # ws[t] = rn t u^(t-1) v^(n-1-t) over wden = rd v^(n-2)
    ws = [0] * n
    upow = rn
    for t in range(1, n):
        ws[t] = t * upow
        upow *= u
    vpow = 1
    for t in range(n - 1, 0, -1):
        ws[t] *= vpow
        vpow *= v
    return zs, zden, ws, rd * (vpow // v)


def _eval_row(nums: list[int], den: int, table) -> Ball:
    """Ball for the polynomial with coefficients nums[t] / den at the root of
    the power table ``table`` (``_power_table``): the exact value at the
    center, and the radius r sum_t t |c_t| zub^(t-1) reduced and rounded up
    once."""
    zs, zden, ws, wden = table
    re = im = rad = 0
    for c, (zr, zi), w in zip(nums, zs, ws):
        re += c * zr
        im += c * zi
        rad += abs(c) * w
    return Ball(re, im, den * zden, *_up(*_lowest(rad, den * wden)))


def basis_values(rows: list[list[int]], den: int, roots: list[Ball]) -> list[list[Ball]]:
    """vals[i][j], the ball for p(z), p the polynomial rows[i] / den and z
    the true root enclosed by roots[j] (``_eval_row``), from one power table
    per root."""
    tables = [_power_table(root, len(rows[0])) for root in roots]
    return [[_eval_row(row, den, table) for table in tables] for row in rows]
