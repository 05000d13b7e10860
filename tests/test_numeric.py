"""Certified numerics: the warm-started root solve and the integer rewrites of
the bounds, each against the plain solve or the Fraction reference it
replaced."""

from fractions import Fraction

import mpmath as mp
import pytest

from okmod import numeric
from okmod.numberfield import _sylvester_resultant
from okmod.numeric import certified_roots, eval_at_root, frac_sqrt_lb, frac_sqrt_ub, frac_up, log2_ub

from conftest import (ALL_FIELDS, EXTRA_SPECS, FIELD_SPECS, abs_sq, first_and_gram_roots,
                      reference_horner, reference_log2_ub, seeded)


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


# -- the warm-started first solve --------------------------------------------


@pytest.fixture
def polyroots_calls(monkeypatch):
    """Records every mp.polyroots call as (working precision, coefficients,
    keywords, roots), and hands back the unpatched function."""
    calls = []
    plain = mp.polyroots

    def spy(coeffs, **kw):
        out = plain(coeffs, **kw)
        calls.append((mp.mp.prec, list(coeffs), kw, out))
        return out

    monkeypatch.setattr(mp, "polyroots", spy)
    return calls, plain


def multiset(roots):
    return sorted((z.real, z.imag) for z in roots)


def want_bits(coeffs):
    """The precision of the first solve, as ``NumberField.roots`` asks it."""
    return 64 + 4 * max(abs(c) for c in coeffs).bit_length()


def assert_same_roots_as_plain_solve(coeffs, calls, plain, warm=True):
    """At the first solve's precision and its double, certified_roots asks
    mp.polyroots once, with a float start when ``warm``, and gets the roots
    of the plain call, as a multiset; the disk centers are those roots."""
    want = want_bits(coeffs)
    for prec in (want, 2 * want):
        calls.clear()
        balls = certified_roots(coeffs, prec)
        ((at, big_endian, kw, out),) = calls
        assert at == prec
        assert (kw["roots_init"] is not None) == warm
        assert (kw["maxsteps"], kw["extraprec"]) == (100 + prec, prec)
        with mp.workprec(prec):
            ref = plain(big_endian, maxsteps=100 + prec, extraprec=prec)
            assert multiset(out) == multiset(ref), (coeffs, prec)
            centers = [(numeric.mpf_to_fraction(z.real), numeric.mpf_to_fraction(z.imag))
                       for z in out]
        if balls is not None:
            assert [(b.re, b.im) for b in balls] == centers


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_warm_started_roots_equal_the_plain_solve_on_the_test_fields(name, polyroots_calls):
    calls, plain = polyroots_calls
    poly = {**FIELD_SPECS, **EXTRA_SPECS}[name][0]
    if len(poly) > 2:
        assert_same_roots_as_plain_solve(poly, calls, plain)
    else:
        # a linear polynomial has its exact root, with no solve at all
        (ball,) = certified_roots(poly, want_bits(poly))
        assert (ball.re, ball.im, ball.r) == (Fraction(-poly[0], poly[1]), 0, 0)
        assert calls == []


def random_squarefree(rng, deg):
    while True:
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 3)]
        fp = [i * c for i, c in enumerate(coeffs)][1:]
        if coeffs[0] and _sylvester_resultant(coeffs, fp):
            return coeffs


def test_warm_started_roots_equal_the_plain_solve_on_random_polynomials(polyroots_calls):
    calls, plain = polyroots_calls
    rng = seeded("test_numeric::test_warm_started_roots_equal_the_plain_solve_on_random_polynomials")
    for n in range(200):
        assert_same_roots_as_plain_solve(random_squarefree(rng, 2 + n % 7), calls, plain)


def test_float_overflow_falls_back_to_the_plain_solve(polyroots_calls):
    # the coefficient 10^400 overflows a float: no start, mpmath's own defaults
    calls, plain = polyroots_calls
    coeffs = [1, 10 ** 400, 1]
    assert numeric._float_start(coeffs) is None
    assert_same_roots_as_plain_solve(coeffs, calls, plain, warm=False)


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
    return frac_up(Fraction(deg) * frac_sqrt_ub(fz) / frac_sqrt_lb(fpz))


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_root_certificates_match_the_fraction_reference(name):
    K, levels = first_and_gram_roots(name)
    for balls in levels:
        for b in balls:
            if K.degree > 1:
                assert b.r == reference_root_radius(list(K.poly), (b.re, b.im))
        for i, x in enumerate(balls):
            for y in balls[i + 1:]:
                assert (x.re - y.re) ** 2 + (x.im - y.im) ** 2 > 4 * (x.r + y.r) ** 2


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_eval_at_root_matches_the_fraction_reference(name):
    rng = seeded(f"test_numeric::test_eval_at_root_matches_the_fraction_reference[{name}]")
    K, levels = first_and_gram_roots(name)
    d = K.degree
    polys = [K.to_power_coords(K.element([int(t == i) for t in range(d)])) for i in range(d)]
    polys += [[Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(rng.randint(0, 7))]
              for _ in range(6)]
    for roots in levels:
        for p in polys:
            for root in roots:
                ball = eval_at_root(p, root)
                assert ((ball.re, ball.im), ball.r) == reference_eval_at_root(p, root)
