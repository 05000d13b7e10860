"""Fractional ideal arithmetic: spec examples, oracles, size/minimum laws."""

from fractions import Fraction
from math import gcd

import pytest

from okmod import FractionalIdeal, IdealError, build_field, idempotents
from okmod.zlinalg import identity, solve_left

from conftest import (ALL_FIELDS, EXTRA_SPECS, FIELD_SPECS, get_field, hnf, random_element,
                      random_ideal, seeded)


def lattice_of(ideal):
    """Scaled numerator rows as a plain set descriptor for oracle comparisons."""
    return (ideal.num, ideal.den)


def product_lattice(a, b):
    """Oracle: HNF of all pairwise basis products, plain hnf (no modular path)."""
    field = a.field
    rows = []
    for u in a.basis_elements():
        for v in b.basis_elements():
            w = u * v
            rows.append([c * 1 for c in w.coeffs] if w.den == 1 else None)
    assert all(r is not None for r in rows)
    return hnf([r for r in rows])


def test_from_generators_examples():
    K = get_field("Qi")
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    assert two.num == ((2, 0), (0, 2)) and two.den == 1
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    assert onepi.num == ((2, 0), (1, 1)) and onepi.den == 1
    Q = get_field("Q")
    half = FractionalIdeal.from_generators(Q, [Q.element([1], 2)])
    assert half.num == ((1,),) and half.den == 2
    with pytest.raises(IdealError):
        FractionalIdeal.from_generators(K, [K.zero()])


def test_minimum_norm_examples():
    K = get_field("Qi")
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    unit = FractionalIdeal.unit(K)
    assert two.minimum() == 2 and two.norm() == 4
    assert onepi.minimum() == 2 and onepi.norm() == 2
    assert unit.minimum() == 1 and unit.norm() == 1
    with pytest.raises(IdealError):
        FractionalIdeal.from_rational(K, Fraction(1, 2)).minimum()


def test_sum_examples():
    K = get_field("Qi")
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    three = FractionalIdeal.from_generators(K, [K.from_int(3)])
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    onemi = FractionalIdeal.from_generators(K, [K.element([1, -1])])
    unit = FractionalIdeal.unit(K)
    assert (two + three) == unit
    assert onepi + onemi == onepi
    assert onepi + unit == unit


def test_product_examples():
    K = get_field("Qi")
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    onemi = FractionalIdeal.from_generators(K, [K.element([1, -1])])
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    unit = FractionalIdeal.unit(K)
    assert onepi * onemi == two
    assert unit * onepi == onepi
    half = FractionalIdeal.from_rational(K, Fraction(1, 2))
    assert (two * half).is_unit()
    assert two.elt_mul(K.element([1, 0], 2)).is_unit()


def test_product_against_lattice_oracle(field):
    # compare the modular product path against a plain-hnf pairwise-product
    # oracle on the integral numerators
    rng = seeded("test_ideals::test_product_against_lattice_oracle")
    for _ in range(12):
        a = FractionalIdeal(field, [list(r) for r in random_ideal(rng, field).num], 1)
        b = FractionalIdeal(field, [list(r) for r in random_ideal(rng, field).num], 1)
        oracle = product_lattice(a, b)
        got = a * b
        assert [list(r) for r in got.num] == oracle and got.den == 1


def test_inverse_examples():
    K = get_field("Qi")
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    unit = FractionalIdeal.unit(K)
    assert two.inverse() == FractionalIdeal.from_rational(K, Fraction(1, 2))
    inv = onepi.inverse()
    assert inv.den == 2 and inv.num == onepi.num  # (1-i) and (1+i) agree as ideals
    assert onepi * inv == unit
    assert unit.inverse() == unit


def test_inverse_oracle(field):
    rng = seeded("test_ideals::test_inverse_oracle")
    unit = FractionalIdeal.unit(field)
    for _ in range(20):
        a = random_ideal(rng, field, fractional=True)
        assert a * a.inverse() == unit


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_inverse_needs_no_two_element_rep(name):
    # the inverse reads the Hermite basis of b * B off the ideal product, so
    # the two-element search never runs
    rng = seeded("test_ideals::test_inverse_needs_no_two_element_rep")
    K = build_field(*{**FIELD_SPECS, **EXTRA_SPECS}[name])
    a = random_ideal(rng, K, fractional=True)
    assert a * a.inverse() == FractionalIdeal.unit(K)
    assert K._two_elt is None


def test_inverse_denominator_is_minimum(field):
    rng = seeded("test_ideals::test_inverse_denominator_is_minimum")
    for _ in range(12):
        a = random_ideal(rng, field)
        assert a.inverse().den == a.minimum()


def test_norm_multiplicativity(field):
    rng = seeded("test_ideals::test_norm_multiplicativity")
    for _ in range(15):
        a = random_ideal(rng, field, fractional=True)
        b = random_ideal(rng, field)
        assert (a * b).norm() == a.norm() * b.norm()


def test_minimum_divisibility_laws(field):
    rng = seeded("test_ideals::test_minimum_divisibility_laws")
    for _ in range(15):
        a = random_ideal(rng, field)
        b = random_ideal(rng, field)
        assert (a * b).minimum() and a.minimum() * b.minimum() % (a * b).minimum() == 0
        assert gcd(a.minimum(), b.minimum()) % (a + b).minimum() == 0
        assert a.norm() % a.minimum() == 0
        k = rng.randint(1, 9)
        assert a.int_mul(k).minimum() == k * a.minimum()


def test_size_inequalities(field):
    rng = seeded("test_ideals::test_size_inequalities")
    d = field.degree
    for _ in range(15):
        a = random_ideal(rng, field, fractional=True)
        b = random_ideal(rng, field, fractional=True)
        m = rng.randint(1, 20)
        from okmod.numeric import log2_ub
        assert a.int_mul(m).size() <= a.size() + d * d * log2_ub(m) + Fraction(1, 4)
        assert (a + b).size() <= 2 * (a.size() + b.size()) + Fraction(1, 4)
        assert (a * b).size() <= a.size() + b.size() + Fraction(1, 4)
        assert a.inverse().size() <= 2 * a.size() + Fraction(1, 4)


def test_membership_examples():
    K = get_field("Qi")
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    assert onepi.contains(K.from_int(2))
    assert not two.contains(K.element([1, 1]))
    assert onepi.is_subset(onepi)
    assert two.is_subset(onepi)
    assert not onepi.is_subset(two)


def test_membership_matches_solving(field):
    rng = seeded("test_ideals::test_membership_matches_solving")
    for _ in range(15):
        a = random_ideal(rng, field, fractional=True)
        # every basis element is a member; basis elements of 2a are as well
        for e in a.basis_elements():
            assert a.contains(e)
            assert a.contains(2 * e)
        # half a basis vector of a lattice is never in it
        assert not a.contains(a.basis_elements()[0] * Fraction(1, 2))


def test_membership_matches_fraction_solve(field):
    # reference: solve y * num = den * alpha over Q from the last column and
    # test y for integrality
    local = seeded("test_ideals membership", offset=1)
    seen = set()
    for _ in range(40):
        a = random_ideal(local, field, fractional=True)
        alpha = random_element(local, field, lim=12, max_den=4)
        if local.random() < 0.5:
            alpha = alpha * a.basis_elements()[-1]
        rest = [Fraction(c * a.den, alpha.den) for c in alpha.coeffs]
        y = [Fraction(0)] * field.degree
        for j in range(field.degree - 1, -1, -1):
            y[j] = rest[j] / a.num[j][j]
            for k in range(j):
                rest[k] -= y[j] * a.num[j][k]
        expected = all(q.denominator == 1 for q in y)
        assert a.contains(alpha) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_idempotents_examples():
    Q = get_field("Q")
    a = FractionalIdeal.from_generators(Q, [Q.from_int(2)])
    b = FractionalIdeal.from_generators(Q, [Q.from_int(3)])
    al, be = idempotents(a, b)
    assert a.contains(al) and b.contains(be) and al + be == Q.one()

    K = get_field("Qi")
    p = FractionalIdeal.from_generators(K, [K.element([2, 1])])
    q = FractionalIdeal.from_generators(K, [K.element([2, -1])])
    al, be = idempotents(p, q)
    assert p.contains(al) and q.contains(be) and al + be == K.one()

    u = FractionalIdeal.unit(K)
    al, be = idempotents(u, p)
    assert u.contains(al) and p.contains(be) and al + be == K.one()


def test_idempotents_requires_coprime():
    K = get_field("Qi")
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    with pytest.raises(IdealError):
        idempotents(two, two)
    K = get_field("Qm5")
    p2 = FractionalIdeal.from_generators(K, [K.from_int(2), K.element([1, 1])])
    six = FractionalIdeal.principal(K, K.from_int(6))
    for a, b in ((p2, six), (six, p2), (p2, p2), (six, six)):
        with pytest.raises(IdealError, match="not coprime"):
            idempotents(a, b)


def test_idempotents_random(field):
    rng = seeded("test_ideals::test_idempotents_random")
    done = 0
    while done < 10:
        a = random_ideal(rng, field)
        b = random_ideal(rng, field)
        if not (a + b).is_unit():
            continue
        al, be = idempotents(a, b)
        assert a.contains(al) and b.contains(be)
        assert al + be == field.one()
        done += 1


# -- identity fast paths against the generic route ------------------------------


def generic_product(a, b):
    """Reference a * b: plain hnf of the pairwise products of the numerators."""
    na = FractionalIdeal(a.field, [list(r) for r in a.num], 1)
    nb = FractionalIdeal(b.field, [list(r) for r in b.num], 1)
    return FractionalIdeal(a.field, product_lattice(na, nb), a.den * b.den)


def generic_elt_mul(a, alpha):
    """Reference a * alpha: plain hnf of the numerator rows times the regular
    representation of the numerator of alpha."""
    K = a.field
    m = K.regular_representation(K.element(list(alpha.coeffs)))
    rows = [[sum(u[i] * m[i][k] for i in range(K.degree)) for k in range(K.degree)]
            for u in a.num]
    return FractionalIdeal(K, hnf(rows), a.den * alpha.den)


def generic_inv(K, alpha):
    """Reference alpha^-1: solve x * M = e_1 for the regular representation M
    of the numerator of alpha."""
    m = K.regular_representation(K.element(list(alpha.coeffs)))
    (x,), den = solve_left(m, [[1] + [0] * (K.degree - 1)])
    return K.element([alpha.den * c for c in x], den)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_is_unit_matches_identity_comparison(name):
    K = get_field(name)
    local = seeded("test_ideals is_unit", offset=2)
    d = K.degree
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    samples = [FractionalIdeal.unit(K), FractionalIdeal(K, ident, 3),
               FractionalIdeal.from_rational(K, Fraction(1, 2)),
               FractionalIdeal.from_rational(K, 5)]
    for _ in range(10):
        a = random_ideal(local, K, fractional=True)
        samples += [a, a * a.inverse(), a + FractionalIdeal.from_rational(K, 7)]
    for a in samples:
        assert a.is_unit() == (a.den == 1 and a.num == tuple(map(tuple, ident)))
    assert {a.is_unit() for a in samples} == {True, False}


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_unit_ideal_fast_paths_match_generic_route(name):
    K = get_field(name)
    local = seeded("test_ideals unit fast paths", offset=3)
    unit = FractionalIdeal.unit(K)
    assert unit.inverse() == unit
    # identity numerator over a denominator takes the generic route
    third = FractionalIdeal(K, identity(K.degree), 3)
    assert third.inverse() == FractionalIdeal.from_rational(K, 3)
    for _ in range(6):
        a = random_ideal(local, K, fractional=True)
        ref = generic_product(a, unit)
        assert a * unit == ref and unit * a == ref and ref == a
        assert unit * unit == generic_product(unit, unit)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_rational_fast_paths_match_generic_route(name):
    K = get_field(name)
    local = seeded("test_ideals rational fast paths", offset=4)
    rationals = [Fraction(1), Fraction(-1), Fraction(-6), Fraction(3, 4), Fraction(-5, 6),
                 Fraction(12, 7)]
    for q in rationals:
        c = K.from_int(q.numerator) / q.denominator
        assert K.inv(c) == generic_inv(K, c)
        assert K.inv(c) * c == K.one()
        for _ in range(3):
            a = random_ideal(local, K, fractional=True)
            assert a.elt_mul(c) == generic_elt_mul(a, c)
    # the generic routes agree with the fast ones on non-rational elements too
    for _ in range(4):
        x = random_element(local, K, lim=7, max_den=3)
        a = random_ideal(local, K, fractional=True)
        assert K.inv(x) == generic_inv(K, x)
        assert a.elt_mul(x) == generic_elt_mul(a, x)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_fast_paths_still_refuse_zero(name):
    K = get_field(name)
    unit = FractionalIdeal.unit(K)
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero())
    with pytest.raises(IdealError):
        unit.elt_mul(K.zero())
    with pytest.raises(IdealError):
        FractionalIdeal.from_rational(K, 0)
    with pytest.raises(IdealError):
        unit.int_mul(0)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_idempotents_refuse_non_coprime_pairs(name):
    # the coprimality test reads the Hermite form of the stacked matrix; the
    # reference is the Hermite form of the sum
    K = get_field(name)
    local = seeded("test_ideals non-coprime", offset=5)
    refused = 0
    for _ in range(12):
        a = random_ideal(local, K)
        # b shares every prime of a with the first pair; the second is random
        for b in (a * random_ideal(local, K), random_ideal(local, K)):
            if (a + b).is_unit():
                al, be = idempotents(a, b)
                assert al + be == K.one()
            else:
                with pytest.raises(IdealError, match="not coprime"):
                    idempotents(a, b)
                refused += 1
    assert refused

