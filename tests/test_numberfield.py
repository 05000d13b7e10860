"""Field construction and exact element arithmetic."""

from fractions import Fraction

import pytest

from okmod import FieldError, build_field

from conftest import ALL_FIELDS, get_field, norm_sq_bounds, random_element, seeded

rng = seeded("test_numberfield")


def test_build_gaussian_integers():
    K = get_field("Qi")
    assert K.degree == 2
    assert K.disc == -4
    assert K.struct_bound == 1
    # omega_2 * omega_2 = -omega_1
    assert K.struct[1][1] == (-1, 0)


def test_build_rationals():
    Q = get_field("Q")
    assert Q.degree == 1
    assert Q.disc == 1
    assert Q.growth_constant == 0


def test_build_golden_ratio_order():
    K = build_field([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert K.disc_f == 20
    assert K.index == 2
    assert K.disc == 5


def test_build_field_errors():
    with pytest.raises(FieldError):
        build_field([1, 0, 2])  # not monic
    with pytest.raises(FieldError):
        build_field([0, 0, 1])  # x^2, not squarefree
    with pytest.raises(FieldError):
        build_field([1, 0, 1], [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(FieldError):
        build_field([1, 0, 1], [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 3)]])


def test_element_examples():
    K = get_field("Qi")
    one = K.one()
    i = K.element([0, 1])
    half_plus = K.element([1, 1], 2)
    half_minus = K.element([1, -1], 2)
    assert half_plus + half_minus == one
    assert 3 * K.element([1, 1], 3) == one + i
    assert (one + i) * (one - i) == K.from_int(2)
    assert (one + i) * (one + i) == 2 * i
    assert K.inv(K.from_int(2)) == K.element([1, 0], 2)
    assert K.inv(one + i) == half_minus
    assert K.norm(one + i) == 2
    assert K.trace(i) == 0


def test_regular_representation():
    K = get_field("Qi")
    assert K.regular_representation(K.one()) == [[1, 0], [0, 1]]
    assert K.regular_representation(K.element([0, 1])) == [[0, 1], [-1, 0]]


def test_regular_representation_matches_symbolic_multiplication(field):
    for _ in range(20):
        g = random_element(rng, field)
        m = field.regular_representation(g)
        for i in range(field.degree):
            w = field.element([1 if t == i else 0 for t in range(field.degree)])
            assert list((g * w).coeffs) == m[i] and (g * w).den == 1


def test_regular_representation_requires_integral():
    K = get_field("Qi")
    with pytest.raises(FieldError):
        K.regular_representation(K.element([1, 0], 2))


def test_mul_matches_power_basis_polynomials(field):
    d = field.degree
    poly = [Fraction(c) for c in field.poly]

    def polymul_mod(a, b):
        res = [Fraction(0)] * (2 * d)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                res[i + j] += x * y
        for k in range(len(res) - 1, d - 1, -1):
            c = res[k]
            if c:
                for j in range(d + 1):
                    res[k - d + j] -= c * poly[j]
        return res[:d]

    for _ in range(20):
        a = random_element(rng, field, max_den=3)
        b = random_element(rng, field, max_den=3)
        direct = field.to_power_coords(a * b)
        via_poly = polymul_mod(field.to_power_coords(a), field.to_power_coords(b))
        assert direct == via_poly


def test_ring_axioms(field):
    for _ in range(15):
        a = random_element(rng, field, max_den=4)
        b = random_element(rng, field, max_den=4)
        c = random_element(rng, field, max_den=4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_inverse_and_canonicality(field):
    for _ in range(25):
        a = random_element(rng, field, max_den=5)
        assert a * field.inv(a) == field.one()
        from math import gcd
        g = a.den
        for coeff in a.coeffs:
            g = gcd(g, coeff)
        assert g == 1


def test_norm_multiplicativity(field):
    for _ in range(20):
        a = random_element(rng, field, max_den=3)
        b = random_element(rng, field, max_den=3)
        assert field.norm(a) * field.norm(b) == field.norm(a * b)


def test_norm_bounded_by_t2_power(field):
    # |N(alpha)| <= |alpha|^d / d^(d/2) on integral elements
    d = field.degree
    for _ in range(20):
        a = random_element(rng, field, lim=20)
        _, ub = norm_sq_bounds(field, a)
        lhs = abs(field.norm(a)) ** 2 * Fraction(d) ** d
        assert lhs <= ub ** d


def test_size_growth_inequalities(field):
    # multiplication grows by at most the field constant; inversion by the
    # derivation actually carried out needs (2d-1)*S, not d*S: the numerator
    # of the inverse has coefficients of the order |alpha|^(d-1), an
    # S-contribution of (d-1)*S(alpha) on top of the denominator's d*S(alpha)
    c = field.growth_constant
    d = field.degree
    for _ in range(20):
        a = random_element(rng, field, lim=30, max_den=6)
        b = random_element(rng, field, lim=30, max_den=6)
        assert field.size(a * b) <= field.size(a) + field.size(b) + c
        assert field.size(field.inv(a)) <= (2 * d - 1) * field.size(a) + c
        assert field.size(a + b) <= 2 * (field.size(a) + field.size(b))
    assert field.size(field.zero()) == 0


# embed_bound_sq, coeff_bound and growth_constant as first derived, with C1
# from a separate ball evaluation of each basis element at the roots
FIELD_CONSTANTS = {
    "Q": ("1", "1", "0"),
    "Qi": ("8", "26087635650665564425/36893488147419103232", "196609/32768"),
    "Qm5": ("425352958651173079329224393135869434671/10633823966279326983230456482242756608",
            "3501423185924133744920824963/4951760157141521099596496896", "174389/16384"),
    "cubic": ("3230426911267120162261020541104831551739/85070591730234615865843651857942052864",
              "7159275454714133817411390961/9903520314283042199192993792", "3094767/131072"),
    "golden": ("510423550381407695195068044993811487535/42535295865117307932921825928971026432",
               "61369870793672105125741622333/79228162514264337593543950336", "234945/32768"),
    "dedekind": ("5788661816740921550501258087792244823509/21267647932558653966460912964485513216",
                 "97013332444444306649735887741/158456325028528675187087900672",
                 "1192689/32768"),
    "quartic": ("539777015228352638228203618595384956625/5316911983139663491615228241121378304",
                "102162236964824091165319555365/158456325028528675187087900672",
                "436839/8192"),
    "zeta5": ("340282366920938463463374607431768211457/5316911983139663491615228241121378304",
              "25054144837504793118641380157/39614081257132168796771975168", "393217/8192"),
    "quintic": ("8729876357021226759585943791009960802075/42535295865117307932921825928971026432",
                "99853802860550242391806329261/158456325028528675187087900672",
                "12584825/131072"),
}


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_field_constants_unchanged(name):
    K = get_field(name)
    c1_sq, c2, growth = (Fraction(x) for x in FIELD_CONSTANTS[name])
    assert (K.embed_bound_sq, K.coeff_bound, K.growth_constant) == (c1_sq, c2, growth)


def test_scalar_errors():
    K = get_field("Qi")
    with pytest.raises(ZeroDivisionError):
        K.scalar_div(K.one(), 0)
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero())
