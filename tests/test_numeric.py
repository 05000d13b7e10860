"""Certified numerics: the integer root solve against an independent mpmath
solve, and the integer rewrites of the bounds against the Fraction
references they replaced."""

import timeit
from fractions import Fraction

import mpmath as mp
import pytest

from okmod import build_field, numeric
from okmod.lattice import _gram_balls
from okmod.numberfield import _conversion_constants
from okmod.numeric import basis_values, certified_roots, frac_sqrt_ub, frac_up, log2_ub

from conftest import (ALL_FIELDS, EXTRA_SPECS, FIELD_SPECS, PINNED_FIELDS, SPECS, abs_sq,
                      first_and_gram_roots, get_field, reference_horner, reference_log2_ub,
                      seeded, sqrt_lb, sylvester_resultant, to_power_coords, values_at_roots)


def test_log2_ub_matches_the_fraction_reference():
    rng = seeded("test_numeric::test_log2_ub_matches_the_fraction_reference")
    xs = [Fraction(2) ** k for k in range(-200, 201)]
    xs += [Fraction(1, k) for k in range(1, 300)] + list(range(1, 300))
    xs += [Fraction(2 ** k + s, 2 ** j) for k in range(1, 90, 7) for j in range(0, 90, 11)
           for s in (-1, 1)]
    xs += [Fraction(rng.randint(1, 2 ** rng.randint(1, 400)), rng.randint(1, 2 ** rng.randint(1, 300)))
           for _ in range(1500)]
    for x in xs:
        assert log2_ub(x) == reference_log2_ub(x), x
    for fbits in (1, 5, 24):
        for x in xs[::25]:
            assert log2_ub(x, fbits) == reference_log2_ub(x, fbits), (x, fbits)
    for bad in (0, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            log2_ub(bad)


# -- the root solve against an independent reference ------------------------


def want_bits(coeffs):
    """A working precision that grows with the coefficients: 64 bits plus
    four per bit of the largest one."""
    return 64 + 4 * max(abs(c) for c in coeffs).bit_length()


def to_mpf(x):
    return mp.mpf(x.numerator) / x.denominator


def assert_one_reference_root_per_disk(coeffs):
    """At ``want_bits`` and its double, certified_roots gives one disk per
    root, and each holds exactly one root of an mpmath solve at three times
    the larger precision (up to that solve's own error)."""
    want = want_bits(coeffs)
    ref_prec = 6 * want
    with mp.workprec(ref_prec):
        ref = mp.polyroots([mp.mpf(c) for c in reversed(coeffs)],
                           maxsteps=100 + ref_prec, extraprec=ref_prec)
        for prec in (want, 2 * want):
            balls = certified_roots(coeffs, prec)
            assert balls is not None and len(balls) == len(coeffs) - 1, (coeffs, prec)
            for b in balls:
                center = mp.mpc(to_mpf(b.re), to_mpf(b.im))
                radius = to_mpf(b.r) + mp.ldexp(1, -2 * prec)
                assert sum(abs(z - center) <= radius for z in ref) == 1, (coeffs, prec)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_each_certified_disk_holds_one_mpmath_root_on_the_test_fields(name):
    poly = {**FIELD_SPECS, **EXTRA_SPECS}[name][0]
    if len(poly) > 2:
        assert_one_reference_root_per_disk(poly)
    else:
        # a linear polynomial has its exact root, with no solve at all
        (ball,) = certified_roots(poly, want_bits(poly))
        assert (ball.re, ball.im, ball.r) == (Fraction(-poly[0], poly[1]), 0, 0)


def random_squarefree(rng, deg):
    while True:
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 3)]
        fp = [i * c for i, c in enumerate(coeffs)][1:]
        if coeffs[0] and sylvester_resultant(coeffs, fp):
            return coeffs


def test_each_certified_disk_holds_one_mpmath_root_of_random_polynomials():
    # the seed keeps the name this test had when it compared two solve modes
    rng = seeded("test_numeric::test_warm_started_roots_equal_the_plain_solve_on_random_polynomials")
    for n in range(200):
        assert_one_reference_root_per_disk(random_squarefree(rng, 2 + n % 7))


def test_a_coefficient_beyond_the_floats_needs_no_fallback():
    # 10^400 overflows a float; the integer iteration solves it like any other
    assert_one_reference_root_per_disk([1, 10 ** 400, 1])


def test_roots_far_outside_the_unit_circle_restart_beyond_a_root_bound(monkeypatch):
    # the roots of x^2 - (10^400 + 1) lie near +-10^200: from the unit circle
    # the 64-bit run shrinks its iterates by about half a bit per sweep and
    # does not settle, so the solve restarts once at 64 bits from the same
    # points scaled past Fujiwara's bound, and the run at full precision
    # starts from there (from the unit circle, it took 0.7-1.2 s)
    coeffs = [-(10 ** 400 + 1), 0, 1]
    prec = 5412
    weierstrass = numeric._weierstrass
    runs = []

    def spy(c, pts, p, sweeps):
        out = weierstrass(c, pts, p, sweeps)
        runs.append((p, out is not None))
        return out

    monkeypatch.setattr(numeric, "_weierstrass", spy)
    balls = certified_roots(coeffs, prec)
    assert runs == [(64, False), (64, True), (prec, True)]
    monkeypatch.undo()
    best = min(timeit.repeat(lambda: certified_roots(coeffs, prec), number=1, repeat=3))
    assert best < 0.1
    with mp.workprec(3 * prec):
        root = mp.sqrt(mp.mpf(10 ** 400 + 1))
        for b in balls:
            center = mp.mpc(to_mpf(b.re), to_mpf(b.im))
            radius = to_mpf(b.r) + mp.ldexp(1, -2 * prec)
            assert sum(abs(z - center) <= radius for z in (root, -root)) == 1


def test_roots_near_the_unit_circle_settle_on_the_first_run(monkeypatch):
    # the restart beyond the root bound is never taken on these, so their
    # enclosures are those of the plain iteration
    weierstrass = numeric._weierstrass
    runs = []

    def spy(c, pts, p, sweeps):
        out = weierstrass(c, pts, p, sweeps)
        runs.append((p, out is not None))
        return out

    monkeypatch.setattr(numeric, "_weierstrass", spy)
    polys = [SPECS[name][0] for name in PINNED_FIELDS if len(SPECS[name][0]) > 2]
    for coeffs in polys + [[1, 10 ** 30, 3, 1], [1, 10 ** 400, 1]]:
        runs.clear()
        certified_roots(coeffs, want_bits(coeffs))
        assert runs[0] == (64, True), coeffs


# -- integer certificates against their Fraction references ------------------


def reference_eval_at_root(power_coeffs, root):
    """The Fraction evaluation of a ball: exact center, radius r * sum_(i>=1)
    i |c_i| zub^(i-1) with zub = frac_sqrt_ub(|center|^2) + r."""
    z = (root.re, root.im)
    val = reference_horner(power_coeffs, z)
    if root.r == 0:
        return val, Fraction(0)
    zub = frac_sqrt_ub(abs_sq(z)) + root.r
    deriv_bound = Fraction(0)
    pw = Fraction(1)
    for i, c in enumerate(power_coeffs):
        if i >= 1:
            deriv_bound += Fraction(i) * abs(c) * pw
            pw *= zub
    return val, frac_up(root.r * deriv_bound)


def reference_root_radius(int_coeffs, z):
    """deg * |f(z)| / |f'(z)|, each modulus bounded on Fractions, rounded up."""
    deg = len(int_coeffs) - 1
    fp = [i * c for i, c in enumerate(int_coeffs)][1:]
    fz = abs_sq(reference_horner([Fraction(c) for c in int_coeffs], z))
    fpz = abs_sq(reference_horner([Fraction(c) for c in fp], z))
    return frac_up(Fraction(deg) * frac_sqrt_ub(fz) / sqrt_lb(fpz))


def assert_certificate_matches_the_fraction_reference(int_coeffs, balls):
    """Each radius is the Fraction reference at its center, and the disks
    are pairwise disjoint with the margin the certificate asks."""
    for b in balls:
        if len(int_coeffs) > 2:
            assert b.r == reference_root_radius(int_coeffs, (b.re, b.im)), int_coeffs
    for i, x in enumerate(balls):
        for y in balls[i + 1:]:
            assert (x.re - y.re) ** 2 + (x.im - y.im) ** 2 > 4 * (x.r + y.r) ** 2, int_coeffs


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_root_certificates_match_the_fraction_reference(name):
    K, levels = first_and_gram_roots(name)
    for balls in levels:
        assert_certificate_matches_the_fraction_reference(list(K.poly), balls)


def test_root_certificates_match_the_fraction_reference_on_random_polynomials():
    # the integer Horner of the certificate against Fraction Horner, on
    # polynomials of degree 2-8 with leading coefficient 1-3, beyond the
    # defining polynomials of the test fields
    rng = seeded("test_numeric::test_root_certificates_match_the_fraction_reference_on_random_"
                 "polynomials")
    for n in range(40):
        coeffs = random_squarefree(rng, 2 + n % 7)
        for prec in (want_bits(coeffs), 2 * want_bits(coeffs)):
            balls = certified_roots(coeffs, prec)
            assert balls is not None and len(balls) == len(coeffs) - 1, (coeffs, prec)
            assert_certificate_matches_the_fraction_reference(coeffs, balls)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_eval_at_root_matches_the_fraction_reference(name):
    rng = seeded(f"test_numeric::test_eval_at_root_matches_the_fraction_reference[{name}]")
    K, levels = first_and_gram_roots(name)
    d = K.degree
    polys = [to_power_coords(K, K.element([int(t == i) for t in range(d)])) for i in range(d)]
    polys += [[Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(rng.randint(0, 7))]
              for _ in range(6)]
    for roots in levels:
        # the basis elements over their common denominator, as the field
        # evaluates them, and each random polynomial over its own
        vals = basis_values(K.basis_num, K.basis_den, roots)
        vals += [values_at_roots(p, roots) for p in polys[d:]]
        for p, row in zip(polys, vals):
            for root, ball in zip(roots, row):
                assert ((ball.re, ball.im), ball.r) == reference_eval_at_root(p, root)


# -- the Gram enclosure and the conversion constants against the Fraction
# route they replaced -------------------------------------------------------


def reference_values(name, roots):
    """Fraction balls ((re, im), r) of each basis element at each root, from
    the basis rows of the field's specification."""
    poly, basis = SPECS[name]
    d = len(poly) - 1
    rows = basis or [[int(i == j) for j in range(d)] for i in range(d)]
    return [[reference_eval_at_root([Fraction(c) for c in row], z) for z in roots]
            for row in rows]


def reference_gram_balls(vals):
    """(re, im, r) of the Gram entries sum_j v_ij conj(v_kj), each radius the
    Fraction sum of |v_ij| r_kj + |v_kj| r_ij + r_ij r_kj rounded up once,
    with |v| bounded by frac_sqrt_ub of the squared modulus."""
    d = len(vals)
    gram = [[None] * d for _ in range(d)]
    for i in range(d):
        for k in range(i, d):
            re = im = r = Fraction(0)
            for ((a, b), ra), ((c, e), rc) in zip(vals[i], vals[k]):
                re += a * c + b * e
                im += b * c - a * e
                r += (frac_sqrt_ub(abs_sq((a, b))) * rc + frac_sqrt_ub(abs_sq((c, e))) * ra
                      + ra * rc)
            gram[i][k] = (re, im, frac_up(r))
            gram[k][i] = (re, -im, frac_up(r))
    return gram


def reference_conversion_constants(vals, tinv_num, tinv_den):
    """(C1^2, C2) on Fractions: C1^2 is d^2 times the largest row sum of
    (|v| + r)^2 rounded up at 128 bits, C2 the largest column bound
    |c_k| + |r_k| of V^t T^-1 rounded up at 96 bits."""
    d = len(vals)
    c2 = Fraction(0)
    for k in range(d):
        col = [Fraction(tinv_num[i][k], tinv_den) for i in range(d)]
        c_sq = sum(sum(vals[i][j][0][part] * col[i] for i in range(d)) ** 2
                   for j in range(d) for part in (0, 1))
        r_sq = sum(sum(vals[i][j][1] * abs(col[i]) for i in range(d)) ** 2 for j in range(d))
        c2 = max(c2, frac_sqrt_ub(c_sq) + frac_sqrt_ub(r_sq))
    c1_sq = max(frac_up(sum((frac_sqrt_ub(abs_sq(v)) + r) ** 2 for v, r in row), 128)
                for row in vals)
    return c1_sq * d * d, frac_up(c2, 96)


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_gram_and_conversion_constants_match_the_fraction_reference(name):
    # at the first solve's precision and at the Gram precision e + 64: the
    # values at the roots from one power table per root, the Gram balls and
    # (C1^2, C2) equal the Fraction route exactly
    poly, basis = SPECS[name]
    K = build_field(poly, basis)
    constants = []
    for prec in (0, get_field(name).lattice_context.e + 64):
        roots = K.roots(prec)
        ref = reference_values(name, roots)
        vals = numeric.basis_values(K.basis_num, K.basis_den, roots)
        assert [[((b.re, b.im), b.r) for b in row] for row in vals] == ref
        assert [[(b.re, b.im, b.r) for b in row] for row in _gram_balls(K, prec)] == (
            reference_gram_balls(ref))
        constants.append(reference_conversion_constants(ref, K.trace_inv_num, K.trace_den))
        assert _conversion_constants(vals, K.trace_inv_num, K.trace_den) == constants[-1]
    # the field's own constants are those of the first solve
    assert (K.embed_bound_sq, K.coeff_bound) == constants[0]
