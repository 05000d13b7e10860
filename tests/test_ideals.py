"""Fractional ideal arithmetic: spec examples, oracles, size/minimum laws."""

from fractions import Fraction
from math import gcd

import pytest

from okmod import FractionalIdeal, IdealError, build_field, idempotents, reduce_mod_ideal
from okmod.zlinalg import (det_bareiss, hnf_with_modulus, identity, mat_mul, solve_left,
                           transpose)

from conftest import (ALL_FIELDS, EXTRA_SPECS, FIELD_SPECS, PINNED_FIELDS, get_field, hnf,
                      random_element, random_ideal, seeded)


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
    assert "two_element_rep" not in vars(K)


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


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_is_subset_agrees_with_the_hermite_comparison(name):
    # reference: a lies in b exactly when the Hermite form of the stacked
    # bases, over their common denominator, is that of b
    K = get_field(name)
    rng = seeded(f"test_ideals::test_is_subset_agrees_with_the_hermite_comparison[{name}]")
    seen = set()
    for _ in range(30):
        a = random_ideal(rng, K, fractional=True)
        b = random_ideal(rng, K, fractional=True)
        for x, y in ((a, b), (b, a), (a * b, a), (a, a + b), (a * b, b.inverse())):
            big = x.den * y.den // gcd(x.den, y.den)
            rows_x = [[c * (big // x.den) for c in row] for row in x.num]
            rows_y = [[c * (big // y.den) for c in row] for row in y.num]
            expected = hnf(rows_x + rows_y) == rows_y
            assert x.is_subset(y) == expected
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


def test_constructor_refuses_a_lattice_that_is_not_a_reduced_hermite_basis():
    K = get_field("Qi")
    # [[2, 0], [3, 1]] spans the ideal (1 + i), whose reduced Hermite basis
    # is [[2, 0], [1, 1]]; accepted, the two compared unequal although each
    # is a subset of the other
    with pytest.raises(IdealError, match="not the Hermite basis of an ideal"):
        FractionalIdeal(K, [[2, 0], [3, 1]])
    c = FractionalIdeal(K, [[2, 0], [1, 1]])
    assert c == FractionalIdeal.from_generators(K, [K.element([1, 1])])
    # 3Z + iZ is not an ideal (i * i = -1 is not in it); accepted, it gave
    # c * c^-1 = [[3, 0], [0, 1]] / 3 instead of O_K
    for den in (1, 5):
        with pytest.raises(IdealError, match="not the Hermite basis of an ideal"):
            FractionalIdeal(K, [[3, 0], [0, 1]], den)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_constructor_accepts_every_computed_hermite_basis(name):
    K = get_field(name)
    rng = seeded(f"test_ideals::test_constructor_accepts_every_computed_hermite_basis[{name}]")
    for _ in range(10):
        a = random_ideal(rng, K)
        for b in (a, a.inverse()):
            assert FractionalIdeal(K, [list(r) for r in b.num], b.den) == b


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



def test_operations_with_an_element_of_another_field_are_refused():
    # over Q(i), P = (2, 1 + i); 1 + sqrt -5 from Q(sqrt -5) and a cubic
    # element once read as coordinates over Q(i): P contained both, P * x
    # gave (2), (x) gave P and x reduced to 0 modulo P
    K, L, C = get_field("Qi"), get_field("Qm5"), get_field("cubic")
    P = FractionalIdeal.from_generators(K, [K.from_int(2), K.element([1, 1])])
    x, y = L.element([1, 1]), C.element([1, 1, 0])
    for foreign in (x, y):
        with pytest.raises(IdealError, match="element of a different field"):
            P.contains(foreign)
        with pytest.raises(IdealError, match="element of a different field"):
            foreign in P
        with pytest.raises(IdealError, match="element of a different field"):
            P.elt_mul(foreign)
        with pytest.raises(IdealError, match="element of a different field"):
            P * foreign
        with pytest.raises(IdealError, match="element of a different field"):
            FractionalIdeal.from_generators(K, [foreign])
        with pytest.raises(IdealError, match="element of a different field"):
            reduce_mod_ideal(foreign, P)
    # the element of P's own field with the same coordinates is answered
    assert K.element([1, 1]) in P and P.elt_mul(K.element([1, 1])) == P * P


def generic_norm(K, alpha):
    """Reference N(alpha): the determinant of the regular representation of
    the numerator of alpha, over den^d."""
    m = K.regular_representation(K.element(list(alpha.coeffs)))
    return Fraction(det_bareiss(m), alpha.den ** K.degree)


def solve_based_inverse(a):
    """Reference a^-1 by the trace dual, solving X * T * H^t = den(T^-1) * I
    with the general rational solve, H the Hermite basis of b * B for the
    numerator b of a and the codifferent numerator B."""
    K = a.field
    d = K.degree
    h = (a.numerator() * K.codifferent_numerator).num
    rhs = [[K.trace_den if i == j else 0 for j in range(d)] for i in range(d)]
    num, den = solve_left(mat_mul(K.trace_mat, transpose(h)), rhs)
    return FractionalIdeal(K, hnf_with_modulus(num, den), den).int_mul(a.den)


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_element_inverse_and_norm_equal_the_solve_and_determinant_references(name):
    K = get_field(name)
    d = K.degree
    local = seeded("test_ideals element inverse and norm", offset=d)
    one = [1] + [0] * (d - 1)
    samples = [K.from_int(-1), K.from_int(7), K.element(one, 3),
               K.element([-(2 ** 200)] + one[1:]), K.element([-5] + one[1:], 2 ** 150 + 1)]
    if d > 1:
        # the second basis element and its powers: units where it is a root of
        # x^d - x - 1 or the golden ratio
        w = K.element([0, 1] + [0] * (d - 2))
        samples += [w, -w, w * w * w, w * w * w - K.one()]
    for bits in (1, 8, 40, 200):
        for _ in range(6):
            x = random_element(local, K, lim=2 ** bits, max_den=2 ** (bits // 2 + 1))
            samples += [x, -x]
    norms = []
    for x in samples:
        norm = K.norm(x)
        assert norm == generic_norm(K, x) and x.norm() == norm
        inv = K.inv(x)
        assert inv == generic_inv(K, x) and inv * x == K.one()
        assert K.inv_and_norm(x) == (inv, norm)
        norms.append(norm)
    assert any(abs(n) == 1 for n in norms)
    if d % 2 or name in ("quartic", "sextic", "octic"):
        # a real embedding: elements of negative norm
        assert any(n < 0 for n in norms)
    assert max(abs(n.numerator) for n in norms).bit_length() > 200


def _inverse_samples(local, K):
    """Integral and fractional, principal and non-principal ideals, some of
    norm at least 2^100."""
    d = K.degree
    samples = [FractionalIdeal.from_rational(K, Fraction(6, 35))]
    for lim in (6, 2 ** 20, 2 ** 64):
        for fractional in (False, True):
            samples.append(random_ideal(local, K, lim=lim, fractional=fractional))
        x = random_element(local, K, lim=lim, max_den=9)
        samples.append(FractionalIdeal.principal(K, x))
    two_gen = FractionalIdeal.from_generators(
        K, [K.from_int(2 ** 61 - 1), random_element(local, K, lim=2 ** 70)])
    samples += [two_gen, samples[1] * samples[4],
                FractionalIdeal.principal(K, random_element(local, K, lim=2 ** 120))]
    if d > 1:
        big = samples[-3] * samples[-4]
        samples += [big, big * FractionalIdeal.from_rational(K, Fraction(1, 11))]
    return samples


@pytest.mark.parametrize("name", PINNED_FIELDS)
def test_ideal_inverse_equals_the_solve_based_reference(name):
    K = get_field(name)
    local = seeded("test_ideals inverse by back substitution", offset=K.degree)
    unit = FractionalIdeal.unit(K)
    samples = _inverse_samples(local, K)
    if name == "Qm5":
        # the non-principal primes over 2 and 3, and a power of norm 2^120
        p2 = FractionalIdeal.from_generators(K, [K.from_int(2), K.element([1, 1])])
        p3 = FractionalIdeal.from_generators(K, [K.from_int(3), K.element([1, 1])])
        p2_120 = unit
        for _ in range(120):
            p2_120 = p2_120 * p2
        samples += [p2, p3, p2 * p3 * p3, p2_120,
                    p2_120 * FractionalIdeal.from_rational(K, Fraction(1, 3))]
    assert any(a.norm() >= 2 ** 100 for a in samples)
    assert any(a.is_integral() for a in samples) and any(not a.is_integral() for a in samples)
    for a in samples:
        inv = a.inverse()
        assert inv == solve_based_inverse(a)
        assert a * inv == unit and inv.inverse() == a


def test_an_element_times_an_ideal_is_the_ideals_product():
    # FieldElement.__mul__ leaves an ideal operand to FractionalIdeal.__rmul__;
    # x * P once raised TypeError("cannot coerce FractionalIdeal(...)")
    K = get_field("Qi")
    P = FractionalIdeal.from_generators(K, [K.from_int(2), K.element([1, 1])])
    x = K.element([1, 1])
    assert x * P == P * x == FractionalIdeal.from_rational(K, 2)
    assert K.element([3, 0], 2) * P == P * K.element([3, 0], 2)
    with pytest.raises(TypeError):
        x + P
    with pytest.raises(TypeError):
        P + x
