"""Reduction modulo ideals (membership + certified bound) and normalization."""

from fractions import Fraction

import pytest

from okmod import (FractionalIdeal, ReducedBasisCache, build_context, normalize_row,
                   reduce_mod_ideal)
from okmod.reduction import _canonical_rep, check_reduced_bound, reduce_row
from okmod.zlinalg import det_bareiss

from conftest import (ALL_FIELDS, echelon_hnf_upper, get_field, norm_sq_bounds, random_element,
                      random_ideal, seeded)


def test_reduce_rational_rounding():
    Q = get_field("Q")
    five = FractionalIdeal.from_generators(Q, [Q.from_int(5)])
    assert reduce_mod_ideal(Q.from_int(7), five) == Q.from_int(2)
    assert reduce_mod_ideal(Q.zero(), five) == Q.zero()


def test_reduce_zero_fixed_point(field):
    rng = seeded("test_reduction::test_reduce_zero_fixed_point")
    a = random_ideal(rng, field)
    assert reduce_mod_ideal(field.zero(), a) == field.zero()


def test_reduce_gaussian_example():
    K = get_field("Qi")
    a = FractionalIdeal.from_generators(K, [K.element([2, 1])])
    alpha = K.element([3, 4])
    red = reduce_mod_ideal(alpha, a)
    assert a.contains(alpha - red)
    assert check_reduced_bound(red, a, K.lattice_context)


def test_reduce_membership_and_bound(field):
    rng = seeded("test_reduction::test_reduce_membership_and_bound")
    ctx = field.lattice_context
    cache = ReducedBasisCache(ctx)
    for _ in range(40):
        a = random_ideal(rng, field, fractional=True)
        x = random_element(rng, field, lim=60, max_den=7)
        red = reduce_mod_ideal(x, a, cache)
        assert a.contains(x - red)
        assert check_reduced_bound(red, a, ctx)
        again = reduce_mod_ideal(red, a, cache)
        assert a.contains(red - again)
        assert check_reduced_bound(again, a, ctx)


def test_reduce_canonical_with_hnf_basis(field):
    # floor rounding against the Hermite basis is a class function: elements
    # in the same class reduce to the same representative
    rng = seeded("test_reduction::test_reduce_canonical_with_hnf_basis")
    cache = ReducedBasisCache(field.lattice_context)
    for _ in range(15):
        a = random_ideal(rng, field)
        basis = [list(r) for r in a.num]
        x = random_element(rng, field, lim=40)
        shift = a.basis_elements()[rng.randrange(field.degree)]
        r1 = reduce_mod_ideal(x, a, basis=basis, centered=False)
        r2 = reduce_mod_ideal(x + 3 * shift, a, basis=basis, centered=False)
        assert r1 == r2
        assert a.contains(x - r1)


def row_lattice(field, row, ideal, scale):
    """Z-lattice of ideal*row inside K^m (scaled integral), canonical echelon.

    Rank d in ambient dimension d*m, so the full-rank hnf() does not apply;
    the reference echelon form is canonical for any rank.
    """
    rows = []
    for eps in ideal.basis_elements():
        flat = []
        for entry in row:
            prod = eps * entry * scale
            assert prod.den == 1
            flat.extend(prod.coeffs)
        rows.append(flat)
    return echelon_hnf_upper(rows, len(rows[0]))


def test_normalize_examples():
    Q = get_field("Q")
    three = FractionalIdeal.from_generators(Q, [Q.from_int(3)])
    row, ideal, scalar = normalize_row([Q.one()], three)
    assert ideal.is_unit() and row[0] == Q.from_int(3)

    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    row, ideal, scalar = normalize_row([K.element([5, 3])], u)
    assert ideal.is_unit()
    lb, ub = norm_sq_bounds(K, scalar)
    assert lb == ub == 2  # unit-norm-bound scaling element


def test_normalize_with_scalar_one_returns_the_row():
    # O_K needs no rescaling: the row comes back equal, as a new list
    for name in ("Q", "Qi", "cubic"):
        K = get_field(name)
        row = [K.element([3] + [1] * (K.degree - 1), 2), K.zero(), K.one()]
        nrow, nid, scalar = normalize_row(row, FractionalIdeal.unit(K))
        assert scalar == K.one() and nid.is_unit()
        assert nrow == row and nrow is not row


def test_normalize_fractional_example():
    K = get_field("Qi")
    a = FractionalIdeal.from_generators(K, [K.element([1, 1])]) \
        * FractionalIdeal.from_rational(K, Fraction(1, 2))
    ctx = K.lattice_context
    row = [K.one(), K.element([0, 1])]
    nrow, nid, scalar = normalize_row(row, a, ctx)
    assert nid.is_integral()
    n = nid.norm()
    assert n * n <= ctx.norm_bound_sq()


def test_normalize_contract(field):
    rng = seeded("test_reduction::test_normalize_contract")
    ctx = field.lattice_context
    cache = ReducedBasisCache(ctx)
    for _ in range(25):
        a = random_ideal(rng, field, fractional=True)
        m = rng.randint(1, 3)
        row = [random_element(rng, field, lim=15, max_den=4) for _ in range(m)]
        nrow, nid, scalar = normalize_row(row, a, ctx, cache)
        assert nid.is_integral()
        n = nid.norm()
        assert n * n <= ctx.norm_bound_sq()
        # module equality oracle: a*row and nid*nrow span the same Z-lattice
        scale = a.den * nid.den
        for old, new in zip(row, nrow):
            scale *= old.den * new.den
        assert row_lattice(field, row, a, scale) == row_lattice(field, nrow, nid, scale)


def test_normalize_refuses_a_foreign_context(field):
    # the norm bound comes from the cache's context; another one is refused,
    # not silently ignored
    a = FractionalIdeal.from_rational(field, 3)
    row = [field.one()]
    foreign = build_context(field, 8)
    with pytest.raises(ValueError):
        normalize_row(row, a, foreign)
    with pytest.raises(ValueError):
        normalize_row(row, a, foreign, ReducedBasisCache(field.lattice_context))
    assert normalize_row(row, a, foreign, ReducedBasisCache(foreign))[1].is_integral()


def test_denominator_bound_after_normalization(field):
    # for a pseudo-row of an integral module the entry denominators divide
    # the minimum of the (integral) coefficient ideal
    rng = seeded("test_reduction::test_denominator_bound_after_normalization")
    for _ in range(15):
        a = random_ideal(rng, field)
        # integral module: entries from a^-1 ensure a * entry is integral
        inv = a.inverse()
        entries = [e for e in inv.basis_elements()][: min(3, field.degree)]
        for e in entries:
            assert e.den == 1 or a.minimum() % e.den == 0


def test_cache_reuses_bases(field):
    rng = seeded("test_reduction::test_cache_reuses_bases")
    cache = ReducedBasisCache(field.lattice_context)
    a = random_ideal(rng, field)
    b1 = cache.reduced_basis(a)
    b2 = cache.reduced_basis(a)
    assert b1 is b2


def test_basis_inverse_is_solved_on_first_reduction(field):
    # normalization reads only the first row of a basis; a reduction solves
    # the inverse once and keeps it
    rng = seeded("test_reduction::test_basis_inverse_is_solved_on_first_reduction")
    cache = ReducedBasisCache(field.lattice_context)
    a = random_ideal(rng, field)
    normalize_row([field.one()], a, cache=cache)
    assert all(basis._inverse is None for basis in cache._map.values())
    reduce_mod_ideal(random_element(rng, field, lim=500), a, cache)
    inverse = cache.reduced_basis(a)._inverse
    assert inverse is not None
    reduce_mod_ideal(random_element(rng, field, lim=500), a, cache)
    assert cache.reduced_basis(a).inverse() is inverse


def fraction_reduce(alpha, a, basis, centered):
    """Reference reduction: y * basis = l * alpha by rational Gauss-Jordan,
    then y / k rounded half up (centered) or down."""
    n = len(basis)
    l, k = a.den, alpha.den
    aug = [[Fraction(basis[r][i]) for r in range(n)] + [Fraction(l * alpha.coeffs[i])]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * g for x, g in zip(aug[r], aug[col])]
    y = [aug[i][n] / k for i in range(n)]
    r = [(2 * q.numerator + q.denominator) // (2 * q.denominator) if centered
         else q.numerator // q.denominator for q in y]
    new = [l * alpha.coeffs[t] - k * sum(r[i] * basis[i][t] for i in range(n))
           for t in range(n)]
    return alpha.field.element(new, k * l)


def test_cached_reduction_matches_fraction_solve(field):
    # a stream of its own, so the other tests keep their inputs
    rrng = seeded("test_reduction-reference", 1)
    cache = ReducedBasisCache(field.lattice_context)
    signs = set()
    for _ in range(30):
        a = random_ideal(rrng, field, fractional=True)
        x = random_element(rrng, field, lim=500, max_den=9)
        basis = cache.reduced_basis(a)
        signs.add(det_bareiss(basis) > 0)
        hermite = [list(r) for r in a.num]
        for centered in (True, False):
            want = fraction_reduce(x, a, basis, centered)
            assert reduce_mod_ideal(x, a, cache, centered=centered) == want
            assert (reduce_mod_ideal(x, a, basis=hermite, centered=centered)
                    == fraction_reduce(x, a, hermite, centered))
    # the inverse's denominator is kept positive whatever the basis orientation
    if field.degree > 1:
        assert signs == {True, False}


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_row_kernel_matches_per_entry_reduction(name):
    # one basis lookup per row gives what one reduction per entry gives,
    # zeros included, and both agree with the rational solve
    K = get_field(name)
    rrng = seeded("test_reduction row kernel", 2)
    cache = ReducedBasisCache(K.lattice_context)
    for _ in range(6):
        a = random_ideal(rrng, K, fractional=True)
        row = [random_element(rrng, K, lim=500, max_den=9) if rrng.random() < 0.8 else K.zero()
               for _ in range(4)]
        basis = cache.reduced_basis(a)
        out = reduce_row(row, a, cache)
        assert out == [reduce_mod_ideal(x, a, cache) for x in row]
        assert out == [fraction_reduce(x, a, basis, True) if x else x for x in row]
        hermite = [list(r) for r in a.num]
        assert (reduce_row(row, a, basis=hermite, centered=False)
                == [fraction_reduce(x, a, hermite, False) if x else x for x in row])


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_canonical_representative_matches_the_solve_left_path(name):
    # back substitution against the Hermite numerator floors the same
    # coordinates as the general solve with that basis
    K = get_field(name)
    rrng = seeded("test_reduction canonical rep", 3)
    for _ in range(12):
        a = random_ideal(rrng, K, fractional=True)
        x = random_element(rrng, K, lim=500, max_den=9)
        hermite = [list(r) for r in a.num]
        want = reduce_mod_ideal(x, a, basis=hermite, centered=False)
        assert _canonical_rep(x, a) == want == fraction_reduce(x, a, hermite, False)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_norm_bound_is_computed_once_per_context(name):
    K = get_field(name)
    d = K.degree
    for ctx in (K.lattice_context, build_context(K, 2 * K.lattice_context.e)):
        bound = ctx.norm_bound_sq()
        assert bound == ctx.quality_sq ** (d * d) * abs(K.disc)
        assert ctx.norm_bound_sq() is bound


# -- the per-call memo ------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_cache_inverse_matches_fresh_inverse(name):
    K = get_field(name)
    local = seeded("test_reduction cache inverse", offset=1)
    cache = ReducedBasisCache(K.lattice_context)
    for _ in range(6):
        a = random_ideal(local, K, fractional=True)
        inv = cache.inverse(a)
        assert inv == a.inverse()
        # an equal ideal built apart hits the memo
        twin = FractionalIdeal(K, [list(r) for r in a.num], a.den)
        assert cache.inverse(twin) is inv


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_normalize_row_warm_cache_matches_fresh(name):
    K = get_field(name)
    local = seeded("test_reduction warm normalize", offset=2)
    ctx = K.lattice_context
    warm = ReducedBasisCache(ctx)
    for _ in range(5):
        a = random_ideal(local, K, fractional=True)
        first = [random_element(local, K, lim=15, max_den=4) for _ in range(3)]
        row = [random_element(local, K, lim=15, max_den=4) for _ in range(3)]
        normalize_row(first, a, ctx, warm)
        assert normalize_row(row, a, ctx, warm) == normalize_row(
            row, a, ctx, ReducedBasisCache(ctx))
