"""Rounded-trace-form reduction: context construction and quality bounds."""

from fractions import Fraction

import mpmath as mp
import pytest

from okmod import (FractionalIdeal, IdealError, QualityError, build_context, build_field,
                   reduce_ideal_basis, shortest_basis_element)
from okmod.lattice import (LLL_DELTA, _check_quality, _cholesky, _gram_balls,
                           _lll_with_transform, reduce_start_basis)
from okmod.numeric import basis_values, frac_sqrt_ub, frac_up
from okmod.zlinalg import mat_mul, transpose

from conftest import (ALL_FIELDS, abs_sq_center, abs_ub, get_field, hnf, norm_sq_bounds,
                      random_element, random_ideal, reference_quality_holds, seeded, sqrt_lb)


def test_context_rationals():
    Q = get_field("Q")
    ctx = Q.lattice_context
    # G = [[1]]: the rounded Cholesky factor is exactly 2^e
    assert ctx.r_e == [[1 << ctx.e]]


def test_context_gaussian_scaling():
    K = get_field("Qi")
    ctx = K.lattice_context
    # G = diag(2,2): diagonal entries round 2^e * sqrt(2)
    target = 2 * (1 << ctx.e) ** 2
    for i in (0, 1):
        r = ctx.r_e[i][i]
        assert ctx.r_e[i][1 - i] == 0
        assert (2 * r - 1) ** 2 <= 4 * target <= (2 * r + 1) ** 2
    assert float(ctx.quality_sq) == pytest.approx(1 / (0.99 - 0.501 ** 2), rel=1e-3)


def test_context_sqrt_minus5_gram():
    K = get_field("Qm5")
    ctx = K.lattice_context
    # G = diag(2, 10)
    t0 = 2 * (1 << ctx.e) ** 2
    t1 = 10 * (1 << ctx.e) ** 2
    assert (2 * ctx.r_e[0][0] - 1) ** 2 <= 4 * t0 <= (2 * ctx.r_e[0][0] + 1) ** 2
    assert (2 * ctx.r_e[1][1] - 1) ** 2 <= 4 * t1 <= (2 * ctx.r_e[1][1] + 1) ** 2


def same_lattice(field, basis_a, basis_b):
    ha = hnf([list(r) for r in basis_a])
    hb = hnf([list(r) for r in basis_b])
    return ha == hb


def test_reduce_scaled_orthogonal():
    K = get_field("Qi")
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    basis = reduce_ideal_basis(two, K.lattice_context)
    norms = sorted(sum(x * x for x in row) for row in basis)
    assert norms == [4, 4]  # 2 and 2i up to signs/order
    assert same_lattice(K, basis, two.num)


def test_reduce_one_plus_i_short_vectors():
    K = get_field("Qi")
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    basis = reduce_ideal_basis(onepi, K.lattice_context)
    # exhaustive short-vector oracle: both basis vectors have T2-norm^2 = 4,
    # i.e. coefficient norm 2 over the Gaussian integers
    for row in basis:
        assert sum(x * x for x in row) == 2
    assert same_lattice(K, basis, onepi.num)


def test_reduce_unit_ideal_shortest_is_unit_norm(field):
    u = FractionalIdeal.unit(field)
    alpha = shortest_basis_element(u, field.lattice_context)
    # |alpha|^2 = d exactly characterizes the roots of unity in O_K
    lb, ub = norm_sq_bounds(field, alpha)
    assert lb <= field.degree <= ub
    assert ub < field.degree + Fraction(1, 2)
    assert abs(field.norm(alpha)) == 1


def test_shortest_element_examples():
    Q = get_field("Q")
    five = FractionalIdeal.from_generators(Q, [Q.from_int(5)])
    assert shortest_basis_element(five, Q.lattice_context) in (Q.from_int(5), Q.from_int(-5))
    K = get_field("Qi")
    p = FractionalIdeal.from_generators(K, [K.element([2, 1])])
    alpha = shortest_basis_element(p, K.lattice_context)
    # T2-norm^2 over Q(i) is exactly 2*(a^2 + b^2); the shortest vectors of p
    # have coefficient norm 5 (exhaustive search over the 4 candidates)
    assert sum(c * c for c in alpha.coeffs) == 5 and alpha.den == 1


def test_reduce_requires_integral():
    K = get_field("Qi")
    frac = FractionalIdeal.from_rational(K, Fraction(1, 2))
    with pytest.raises(ValueError):
        reduce_ideal_basis(frac, K.lattice_context)


def test_reduced_bases_quality_and_unimodularity(field):
    rng = seeded("test_lattice::test_reduced_bases_quality_and_unimodularity")
    ctx = field.lattice_context
    d = field.degree
    disc = abs(field.disc)
    for _ in range(12):
        a = random_ideal(rng, field)
        basis = reduce_ideal_basis(a, ctx)
        # same lattice in both directions (mutual membership via hnf equality)
        assert same_lattice(field, basis, a.num)
        # certified quality: first vector and product bounds
        nrm = a.norm()
        ubs = []
        for row in basis:
            _, ub = norm_sq_bounds(field, field.element(row))
            ubs.append(ub)
        prod = Fraction(1)
        for ub in ubs:
            prod *= ub
        assert prod <= ctx.quality_sq ** (d * (d - 1) // 2) * disc * nrm * nrm
        assert ubs[0] ** d <= ctx.quality_sq ** (d * (d - 1)) * disc * nrm * nrm


@pytest.mark.parametrize("field", ALL_FIELDS, indirect=True)
def test_t2_bound_dominates_ball_oracle(field):
    # the integer certificate is an upper bound on T2 (never below the
    # ball oracle's certified lower bound) and as sharp as the ball bound
    ctx = field.lattice_context
    local = seeded("test_t2_bound_dominates_ball_oracle")
    for max_den in (1, 9):
        for _ in range(15):
            a = random_element(local, field, lim=60, max_den=max_den)
            lb, ub = norm_sq_bounds(field, a)
            bound = ctx.t2_bound(a.coeffs, a.den)
            assert lb <= bound <= ub * Fraction(1001, 1000)
    for row in reduce_ideal_basis(random_ideal(local, field), ctx):
        lb, _ = norm_sq_bounds(field, field.element(row))
        assert lb <= ctx.t2_bound(row)


def test_reduction_is_deterministic(field):
    rng = seeded("test_lattice::test_reduction_is_deterministic")
    ctx = field.lattice_context
    a = random_ideal(rng, field)
    assert reduce_ideal_basis(a, ctx) == reduce_ideal_basis(a, ctx)


def reference_gram_entry(vi, vk):
    """sum_j vi[j] * conj(vk[j]) as a sum of complex ball products, each
    product and each partial sum with its radius rounded up: the reference."""
    re = im = r = Fraction(0)
    for x, y in zip(vi, vk):
        re += x.re * y.re + x.im * y.im
        im += x.im * y.re - x.re * y.im
        r = frac_up(r + frac_up(abs_ub(x) * y.r + abs_ub(y) * x.r + x.r * y.r))
    return re, im, r


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_gram_centers_equal_ball_products(name):
    # equal centers; the radius summed once is no larger than the
    # product-by-product one, and still covers what the disks allow:
    # sum_j |v_ij| r_kj + |v_kj| r_ij + r_ij r_kj
    K = get_field(name)
    prec = K.lattice_context.e + 64
    d = K.degree
    roots = K.roots(prec)
    vals = basis_values(K.basis_num, K.basis_den, roots)
    gram = _gram_balls(K, prec)
    for i in range(d):
        for k in range(d):
            re, im, r = reference_gram_entry(vals[i], vals[k])
            assert (gram[i][k].re, gram[i][k].im) == (re, im)
            assert gram[i][k].r <= r
            # the integer radius sum is the one-rounding sum on Fractions
            assert gram[i][k].r == frac_up(sum(
                frac_sqrt_ub(abs_sq_center(x)) * y.r + frac_sqrt_ub(abs_sq_center(y)) * x.r
                + x.r * y.r for x, y in zip(vals[i], vals[k])))
            assert gram[i][k].r >= sum(
                sqrt_lb(abs_sq_center(x)) * y.r + sqrt_lb(abs_sq_center(y)) * x.r
                + x.r * y.r for x, y in zip(vals[i], vals[k]))


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_fixed_point_cholesky_matches_mpmath(name):
    # the factor of the Gram centers, as build_context takes it at 2 * prec
    # fractional bits, within 2^-prec of mpmath's at that working precision
    K = get_field(name)
    prec = K.lattice_context.e + 64
    centers = [[b.re for b in row] for row in _gram_balls(K, prec)]
    # the integers floor(G 4^(2 prec)) in, the integers L 2^(2 prec) out
    low = _cholesky([[(x.numerator << 4 * prec) // x.denominator for x in row]
                     for row in centers])
    d = K.degree
    with mp.workprec(2 * prec):
        ref = mp.cholesky(mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in row]
                                     for row in centers]))
        for i in range(d):
            for j in range(d):
                assert abs(mp.ldexp(low[i][j], -2 * prec) - ref[i, j]) <= mp.ldexp(1, -prec)


def test_build_context_custom_exponent():
    K = get_field("Qi")
    ctx = build_context(K, 8)
    assert ctx.e >= 8
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    basis = reduce_ideal_basis(two, ctx)
    assert same_lattice(K, basis, two.num)


def integer_quality_holds(ideal, basis, ctx):
    try:
        _check_quality(ideal, basis, ctx)
    except QualityError:
        return False
    return True


def test_integer_certificate_matches_the_fraction_reference():
    # contexts are built fresh, one after another in one process, at the
    # default exponent and at twice it, so constants that outlived their
    # context (or were shared between two) would show as a wrong decision
    rng = seeded("test_lattice::test_integer_certificate_matches_the_fraction_reference")
    for name in ALL_FIELDS:
        K = get_field(name)
        for e in (None, 2 * K.lattice_context.e):
            ctx = build_context(K, e)
            passed = refused = 0
            for _ in range(6):
                a = random_ideal(rng, K, lim=60)
                basis = reduce_ideal_basis(a, ctx)
                assert reference_quality_holds(a, basis, ctx)
                # one size-reduction step undone: either decision is possible
                near = [list(r) for r in basis]
                if K.degree > 1:
                    near[0] = [x + rng.randint(1, 3) * y for x, y in zip(near[0], near[-1])]
                assert integer_quality_holds(a, near, ctx) == reference_quality_holds(a, near, ctx)
                big = FractionalIdeal.principal(K, random_element(rng, K, lim=10 ** 4))
                hermite = [list(r) for r in big.num]
                holds = reference_quality_holds(big, hermite, ctx)
                assert integer_quality_holds(big, hermite, ctx) == holds
                passed += holds
                refused += not holds
                if K.degree > 1:
                    with pytest.raises(QualityError):
                        _check_quality(big, hermite, ctx)
            # degree 1 has nothing to certify: every basis is its generator
            assert (refused, passed) == ((0, 6) if K.degree == 1 else (6, 0))
            if K.degree > 1:
                # at the smallest norm the reference accepts, with the
                # shortest row first (the product bound decides) and last
                # (the first-vector bound decides)
                for rows in (basis, basis[::-1]):
                    n = smallest_accepted_norm(rows, ctx)
                    assert integer_quality_holds(NormOnly(n), rows, ctx)
                    assert not integer_quality_holds(NormOnly(n - 1), rows, ctx)
            del ctx


class NormOnly:
    """All the certificate reads of an ideal: its norm."""

    def __init__(self, n):
        self.n = n

    def norm(self):
        return Fraction(self.n)


def smallest_accepted_norm(rows, ctx):
    hi = 1
    while not reference_quality_holds(NormOnly(hi), rows, ctx):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_quality_holds(NormOnly(mid), rows, ctx):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_reduction_from_a_start_basis(name):
    K = get_field(name)
    ctx = K.lattice_context
    rng = seeded(f"test_lattice::test_reduction_from_a_start_basis[{name}]")
    # inside 2 O_K, so 1 and a row plus 1 lie outside it
    a = random_ideal(rng, K, lim=60).int_mul(2)
    unimodular = [[1 if i == j else (rng.randint(-3, 3) if j < i else 0)
                   for j in range(K.degree)] for i in range(K.degree)]
    start = mat_mul(unimodular, [list(r) for r in a.num])
    basis = reduce_start_basis(a, start, ctx)
    assert same_lattice(K, basis, a.num)
    assert reference_quality_holds(a, basis, ctx)
    doubled = [[2 * x for x in row] for row in start]
    outside = [row[:] for row in start]
    outside[-1][0] += 1
    for bad in (doubled, outside, start[1:]):
        if K.degree == 1 and bad is not doubled:
            continue
        with pytest.raises(IdealError, match="not a basis of the ideal"):
            reduce_start_basis(a, bad, ctx)


def reference_lll(b, u, delta):
    """Classical LLL with exact rational Gram-Schmidt, recomputed after every
    swap: the reference that the integral LLL must match step for step."""
    n = len(b)

    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    def gram_schmidt():
        bstar, norms = [], []
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            vec = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = dot(b[i], bstar[j]) / norms[j]
                vec = [x - mu[i][j] * y for x, y in zip(vec, bstar[j])]
            bstar.append(vec)
            norms.append(dot(vec, vec))
        return norms, mu

    norms, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = mu[k][j]
                r = (2 * q.numerator + q.denominator) // (2 * q.denominator)
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                for t in range(j):
                    mu[k][t] -= r * mu[j][t]
                mu[k][j] -= r
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            norms, mu = gram_schmidt()
            k = max(k - 1, 1)


LLL_FIELDS = {
    "Qm5": [5, 0, 1],
    "cubic": [-1, -1, 0, 1],
    "quartic": [-1, -1, 0, 0, 1],
    "quintic": [-1, -1, 0, 0, 0, 1],
}


@pytest.mark.parametrize("name", list(LLL_FIELDS))
def test_integral_lll_matches_rational_reference(name):
    K = get_field(name) if name in ("Qm5", "cubic") else build_field(LLL_FIELDS[name])
    ctx = K.lattice_context
    lrng = seeded(f"test_lattice-lll-{name}", 1)
    swaps = 0
    for _ in range(8):
        a = random_ideal(lrng, K, lim=60)
        start = [list(r) for r in a.num]
        emb = mat_mul(start, ctx.r_e)
        u_ref = [r[:] for r in start]
        reference_lll([r[:] for r in emb], u_ref, LLL_DELTA)
        u_new = [r[:] for r in start]
        _lll_with_transform(mat_mul(emb, transpose(emb)), u_new, LLL_DELTA)
        assert u_new == u_ref
        assert reduce_ideal_basis(a, ctx) == u_ref
        swaps += u_ref != start
    assert swaps > 0


@pytest.mark.parametrize("rows", [
    [[2, 0], [1, 1]],              # mu = 1/2: no size reduction
    [[2, 0], [-1, 3]],             # mu = -1/2
    [[2, 0], [3, 1]],              # mu = 3/2: rounds half up to 2
    [[10, 0, 0], [1, 7, 7]],       # Lovasz equality B_1 = (delta - mu^2) B_0: no swap
    [[10, 0, 0], [1, 7, 6]],       # just below it: swap
])
def test_integral_lll_ties(rows):
    n = len(rows)
    u_ref = [[int(i == j) for j in range(n)] for i in range(n)]
    reference_lll([r[:] for r in rows], u_ref, LLL_DELTA)
    u_new = [[int(i == j) for j in range(n)] for i in range(n)]
    _lll_with_transform(mat_mul(rows, transpose(rows)), u_new, LLL_DELTA)
    assert u_new == u_ref
