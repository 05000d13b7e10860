import math
import random
import zlib
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from operator import mul

import pytest

from okmod import FractionalIdeal, build_field
from okmod.numeric import _sqrt_lb, basis_values, frac_sqrt_ub, frac_up, log2_ub
from okmod.ideals import idempotents
from okmod.zlinalg import RankDeficiencyError, shape

# the four standing test fields: Q, Q(i), Q(sqrt-5), and the cubic x^3 - x - 1
FIELD_SPECS = {
    "Q": ([0, 1], None),
    "Qi": ([1, 0, 1], None),
    "Qm5": ([5, 0, 1], None),
    "cubic": ([-1, -1, 0, 1], None),
}

# fields beyond the standing four: index > 1 basis transport, quartic and
# quintic degrees, a cyclotomic field
EXTRA_SPECS = {
    "golden": ([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]]),
    # the classic non-monogenic cubic: 2 divides the index of every power basis
    "dedekind": ([-8, -2, -1, 1],
                 [[1, 0, 0], [0, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)]]),
    "quartic": ([-1, -1, 0, 0, 1], None),
    "zeta5": ([1, 1, 1, 1, 1], None),
    "quintic": ([-1, -1, 0, 0, 0, 1], None),
}

# the standing four fields and those beyond them, whose bases are not power
# bases or whose disc(f) has index divisors
ALL_FIELDS = [*FIELD_SPECS, *EXTRA_SPECS]

# x^6 - x - 1 and x^8 - x - 1: wider root sets, on which the certified
# enclosures, field constants and lattice contexts are pinned as well
WIDE_SPECS = {
    "sextic": ([-1, -1, 0, 0, 0, 0, 1], None),
    "octic": ([-1, -1, 0, 0, 0, 0, 0, 0, 1], None),
}
PINNED_FIELDS = [*ALL_FIELDS, *WIDE_SPECS]
SPECS = {**FIELD_SPECS, **EXTRA_SPECS, **WIDE_SPECS}

# a 4x4 bi-pseudo matrix over Q(sqrt -5), on the power basis: the pivot of
# its last row meets an off-diagonal content that lies in the modulus but not
# in the pivot's own ideal, which once sent pseudo_snf round its pivot loop
# until the round limit
QM5_OBSTRUCTION_IN_MODULUS = """\
bipseudo 4
ideal hnf
63 0
33 3
den 1
ideal hnf
89 0
23 1
den 1
ideal hnf
30 0
5 1
den 1
ideal hnf
5 0
0 5
den 1
ideal hnf
4 0
2 2
den 1
ideal hnf
3 0
1 1
den 1
ideal hnf
181 0
151 1
den 1
ideal hnf
27 0
21 3
den 1
-63 -63 / 2  -21 21 / 1  3 6 / 1  28 14 / 3
80 77 / 2  -452 50 / 3  178 0 / 1  -46 -2 / 3
15 15 / 1  -60 0 / 1  9960 -30 / 181  -10 4 / 9
-25 5 / 2  10 0 / 1  -25 150 / 181  -20 80 / 27
"""

_FIELDS = {}


def get_field(name):
    if name not in _FIELDS:
        poly, basis = SPECS[name]
        _FIELDS[name] = build_field(poly, basis)
    return _FIELDS[name]


def first_and_gram_roots(name):
    """A freshly built field, and its roots as the first solve left them and
    at the precision of its Gram matrix (one solve, unless the lattice
    context asked for more)."""
    poly, basis = SPECS[name]
    K = build_field(poly, basis)
    first = K.roots()
    return K, [first, K.roots(get_field(name).lattice_context.e + 64)]


@pytest.fixture(params=list(FIELD_SPECS), scope="session")
def field(request):
    return get_field(request.param)


def random_element(rng, K, lim=9, max_den=1):
    """Nonzero random element with coefficients in [-lim, lim]."""
    while True:
        den = rng.randint(1, max_den) if max_den > 1 else 1
        e = K.element([rng.randint(-lim, lim) for _ in range(K.degree)], den)
        if e:
            return e


def random_ideal(rng, K, lim=6, fractional=False):
    gens = [random_element(rng, K, lim)]
    if rng.random() < 0.5:
        gens.append(random_element(rng, K, lim))
    a = FractionalIdeal.from_generators(K, gens)
    if fractional and rng.random() < 0.5:
        a = FractionalIdeal.from_rational(K, Fraction(1, rng.randint(2, 5))) * a
    return a


def spy_inversions(monkeypatch):
    """Counter of the ``FractionalIdeal.inverse`` calls made from now on,
    keyed on the inverted ideal's (numerator, denominator)."""
    counts = Counter()
    real = FractionalIdeal.inverse

    def spy(ideal):
        counts[(ideal.num, ideal.den)] += 1
        return real(ideal)

    monkeypatch.setattr(FractionalIdeal, "inverse", spy)
    return counts


def reinverted(counts):
    """The ideals of a ``spy_inversions`` counter inverted more than once."""
    return [key for key, count in counts.items() if count > 1]


def reference_euclidean_step(a, b, alpha, beta):
    """The general Euclidean step, with no degenerate branch and no memo:
    g = alpha*a + beta*b by an ideal sum and the splitting from
    ``idempotents``.  The test reference of ``euclidean_step``."""
    field = a.field
    aa = a.elt_mul(alpha)
    bb = b.elt_mul(beta)
    g = aa + bb
    ginv = g.inverse()
    gamma_t, delta_t = idempotents(aa * ginv, bb * ginv)
    gamma = field.mul(gamma_t, field.inv(alpha))
    delta = field.mul(delta_t, field.inv(beta))
    return g, ginv, gamma, delta


def cofactor_det(field, rows):
    """Determinant by cofactor expansion along the first row: the test
    reference of the multi-modular ``det``."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = field.zero()
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(field, minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def maximal_minor_sum(field, rows, ideals):
    """The determinantal ideal of the pseudo-matrix (rows, ideals) with at
    least as many rows as columns: the sum over every set I of m rows of
    det(A_I) * prod_{i in I} a_i, by cofactor expansion.  None when every
    maximal minor vanishes."""
    m = len(rows[0])
    total = None
    for rs in combinations(range(len(rows)), m):
        d = cofactor_det(field, [rows[i] for i in rs])
        if d:
            term = reduce(mul, [ideals[i] for i in rs]).elt_mul(d)
            total = term if total is None else total + term
    return total


def fraction_det(rows):
    """Determinant of a rational matrix by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def sylvester_resultant(f, g):
    """Res(f, g) of integer polynomials (constant term first) as the
    determinant of their Sylvester matrix."""
    m, n = len(f) - 1, len(g) - 1
    rows = []
    for i in range(n):
        rows.append([0] * i + list(reversed(f)) + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(reversed(g)) + [0] * (m - 1 - i))
    return int(fraction_det(rows))


def reference_disc_f(poly):
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') of a monic f: the reference of
    ``NumberField.disc_f``, which is read off the trace form."""
    d = len(poly) - 1
    if d == 1:
        return 1
    res = sylvester_resultant(poly, [i * c for i, c in enumerate(poly)][1:])
    return -res if d * (d - 1) // 2 % 2 else res


def to_power_coords(K, a):
    """Coefficients of the element a over the power basis, constant first:
    the tests' own power-basis reference."""
    den = a.den * K.basis_den
    return [Fraction(sum(c * row[j] for c, row in zip(a.coeffs, K.basis_num)), den)
            for j in range(K.degree)]


def values_at_roots(p, roots):
    """Balls of the polynomial with Fraction coefficients p (constant first)
    at each root, through ``numeric.basis_values``, the library's evaluation."""
    den = math.lcm(*(c.denominator for c in p))
    return basis_values([[c.numerator * (den // c.denominator) for c in p]], den, roots)[0]


def sqrt_lb(x):
    """Lower bound on sqrt(x) for a Fraction x >= 0 (``numeric._sqrt_lb``)."""
    return Fraction(*_sqrt_lb(x.numerator, x.denominator))


def growth_constant(K):
    """C of the size lemma, S(a * b) <= S(a) + S(b) + C: the larger of
    2 d log d + d log C3 and d^2 log C1 + d log C2, with C3 the largest
    structure constant and C1^2, C2 the field's conversion constants."""
    d = K.degree
    c3 = max(abs(x) for row in K.struct for s in row for x in s)
    log_c1 = log2_ub(K.embed_bound_sq) / 2 if K.embed_bound_sq > 1 else Fraction(0)
    log_c2 = log2_ub(K.coeff_bound) if K.coeff_bound > 1 else Fraction(0)
    log_d = log2_ub(d) if d > 1 else Fraction(0)
    log_c3 = log2_ub(c3) if c3 > 1 else Fraction(0)
    return max(2 * d * log_d + d * log_c3, d * d * log_c1 + d * log_c2)


def abs_sq(z):
    """|z|^2 of a complex rational (re, im)."""
    return z[0] * z[0] + z[1] * z[1]


def abs_sq_center(ball):
    return abs_sq((ball.re, ball.im))


def abs_ub(ball):
    """Upper bound on the modulus of any point of a ball, on Fractions."""
    return frac_sqrt_ub(abs_sq_center(ball)) + ball.r


def abs_sq_ub(ball):
    u = abs_ub(ball)
    return u * u


def reference_horner(coeffs, z):
    """Horner's rule on Fractions at a complex rational point (re, im)."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        re, im = re * z[0] - im * z[1] + c, re * z[1] + im * z[0]
    return re, im


def reference_log2_ub(x, fbits=16):
    """Dyadic upper bound on log2(x) by repeated squaring on Fractions, each
    square rounded up by ``frac_up(., 96)``: the reference of ``log2_ub``."""
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
        m = frac_up(m * m, 96)
        frac_acc <<= 1
        if m >= 2:
            frac_acc += 1
            m /= 2
    return Fraction(e) + Fraction(frac_acc + 1, 1 << fbits)


def norm_sq_bounds(K, a):
    """Certified enclosure of the squared T2 norm of an element, by complex
    ball evaluation at the roots: the test oracle for the library's integer
    certificate ``LatticeContext.t2_bound``."""
    if not a:
        return Fraction(0), Fraction(0)
    lb = Fraction(0)
    ub = Fraction(0)
    for v in values_at_roots(to_power_coords(K, a), K.roots()):
        low = max(sqrt_lb(abs_sq_center(v)) - v.r, Fraction(0))
        lb += low * low
        ub += abs_sq_ub(v)
    return lb, frac_up(ub, 128)


def euclid(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0, by the plain
    extended Euclidean algorithm: the test reference of ``zlinalg.ext_gcd``."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def echelon_hnf_upper(rows, m):
    """Row-echelon HNF over Z, pivots ascending, entries above pivots reduced.

    Returns a list of (pivot column, row) sorted by pivot column; canonical
    for any rank.  A plain echelon form with no modulus: the test reference
    of the library's modular ``hnf_with_modulus``.
    """
    pivots = {}
    work = [row[:] for row in rows]
    while work:
        r = work.pop()
        j = next((k for k, x in enumerate(r) if x), None)
        if j is None:
            continue
        if j in pivots:
            p = pivots[j]
            g, u, v = euclid(p[j], r[j])
            a, b = p[j] // g, r[j] // g
            pivots[j] = [u * x + v * y for x, y in zip(p, r)]
            work.append([a * y - b * x for x, y in zip(p, r)])
        else:
            pivots[j] = r
    out = []
    for j in sorted(pivots):
        row = pivots[j]
        if row[j] < 0:
            row = [-x for x in row]
        out.append((j, row))
    # reduce entries above each pivot into [0, pivot)
    for t, (jt, rt) in enumerate(out):
        for s in range(t):
            row_s = out[s][1]
            q = row_s[jt] // rt[jt]
            if q:
                out[s] = (out[s][0], [x - q * y for x, y in zip(row_s, rt)])
    return out


def hnf(a):
    """Lower-triangular Hermite normal form of the row span of ``a``.

    Requires full column rank; raises RankDeficiencyError otherwise.  The
    result is m x m with positive diagonal and entries below a pivot reduced
    into [0, pivot).
    """
    _, m = shape(a)
    ech = echelon_hnf_upper([row[::-1] for row in a], m)
    if len(ech) < m:
        raise RankDeficiencyError(f"matrix has column rank {len(ech)} < {m}")
    return [row[::-1] for _, row in reversed(ech)]


# how many primes okmod's prime table holds
TABLE_SIZE = 32


@cache
def proth_table():
    """The TABLE_SIZE largest primes k * 2^64 + 1 with k odd and below 2^62,
    largest first, found by sympy's primality test."""
    from sympy import isprime

    out, k = [], (1 << 62) - 1
    while len(out) < TABLE_SIZE:
        if isprime(k << 64 | 1):
            out.append(k << 64 | 1)
        k -= 2
    return tuple(out)


def check_prime_plan(K, bound):
    """Properties of plan_primes(K, bound), decided with sympy apart from okmod."""
    from sympy import isprime, prevprime

    from okmod import plan_primes
    plan = plan_primes(K, bound)
    assert plan_primes(K, bound) == plan
    # the table primes that do not divide disc(f), then the first primes
    # below 2^62 that do not, so distinct and decreasing
    expected, q = [t for t in proth_table() if K.disc_f % t], 1 << 62
    while len(expected) < len(plan.primes):
        q = prevprime(q)
        if K.disc_f % q:
            expected.append(q)
    assert list(plan.primes) == expected[:len(plan.primes)]
    assert all(a > b for a, b in zip(plan.primes, plan.primes[1:]))
    assert all(isprime(q) and K.disc_f % q for q in plan.primes)
    target = 2 ** (math.ceil(Fraction(bound)) + 1)
    product = 1
    for q in plan.primes:
        assert product <= target
        product *= q
    assert plan.modulus == product > target
    return plan


def seeded(name, offset=0):
    """Generator seeded from a stable hash of its name, plus the offset."""
    seed = zlib.crc32(name.encode()) + offset
    print(f"[seed] {name} seed={seed}")
    return random.Random(seed)


def reference_quality_holds(ideal, basis, ctx):
    """Both certified bounds of a reduced basis of the integral ideal, on
    Fractions through ``LatticeContext.t2_bound``: the reference of the
    integer decision in ``lattice._check_quality``."""
    d = ctx.field.degree
    if d == 1:
        return True
    nrm = ideal.norm()
    disc = abs(ctx.field.disc)
    prod_rhs = ctx.quality_sq ** (d * (d - 1) // 2) * disc * nrm * nrm
    first_rhs = ctx.quality_sq ** (d * (d - 1)) * disc * nrm * nrm
    ubs = [ctx.t2_bound(row) for row in basis]
    prod = Fraction(1)
    for ub in ubs:
        prod *= ub
    return not (prod > prod_rhs or ubs[0] ** d > first_rhs)
