"""Prime plans, Dedekind-Kummer splitting, projections, two-stage CRT."""

import pytest

from okmod import build_field, plan_primes, project_element, split_prime
from okmod import residues as rs

from conftest import check_prime_plan, get_field, seeded

rng = seeded("test_residues")


def test_factor_gaussian_polynomial():
    assert rs.factor_squarefree((1, 0, 1), 5) == [(2, 1), (3, 1)]
    assert rs.factor_squarefree((1, 0, 1), 3) == [(1, 0, 1)]
    assert rs.factor_squarefree((0, 1), 7) == [(0, 1)]


def test_factor_equal_degree_split():
    # (x^2+1)(x^2+x+2) mod 3: two irreducible quadratics
    f = rs.poly_mul((1, 0, 1), (2, 1, 1), 3)
    assert sorted(rs.factor_squarefree(f, 3)) == sorted([(1, 0, 1), (2, 1, 1)])


def test_factor_random_products():
    # rebuild random squarefree products and factor them back
    smalls = {2: [(0, 1), (1, 1)], 3: [(0, 1), (1, 1), (2, 1), (1, 0, 1)],
              5: [(0, 1), (2, 1), (3, 1), (1, 1, 1)]}
    for p, irreducibles in smalls.items():
        for _ in range(10):
            chosen = rng.sample(irreducibles, rng.randint(1, min(3, len(irreducibles))))
            f = (1,)
            for g in chosen:
                f = rs.poly_mul(f, g, p)
            assert rs.factor_squarefree(f, p) == sorted(chosen, key=lambda q: (len(q), q))


def test_factor_word_size_products():
    # distinct linear and irreducible quadratic factors mod a 62-bit prime;
    # x^2 + b x + c is irreducible when b^2 - 4c is a non-square (Euler)
    local = seeded("test_residues word size", offset=1)
    p = (1 << 62) - 57
    for _ in range(6):
        n_lin, n_quad = local.randint(1, 3), local.randint(2, 3)
        chosen = set()
        while len(chosen) < n_lin:
            chosen.add((local.randrange(p), 1))
        while len(chosen) < n_lin + n_quad:
            b, c = local.randrange(p), local.randrange(p)
            if pow(b * b - 4 * c, (p - 1) // 2, p) == p - 1:
                chosen.add((c, b, 1))
        f = (1,)
        for g in chosen:
            f = rs.poly_mul(f, g, p)
        assert rs.factor_squarefree(f, p) == sorted(chosen, key=lambda q: (len(q), q))


def test_inverse_of_constants():
    p = (1 << 62) - 57
    for mod in ((5, 1), (1, 0, 1), (1, 1, 0, 1)):
        for c in (1, 2, p - 1, 12345, p + 3):
            inv = rs.poly_inverse_mod((c,), mod, p)
            assert inv == (pow(c, -1, p),) and c * inv[0] % p == 1
        with pytest.raises(ZeroDivisionError):
            rs.poly_inverse_mod((p,), mod, p)


def reference_pow_mod(a, e, mod, p):
    """Square-and-multiply through poly_mul and poly_mod, each product
    trimmed and divided out in full: the reference for poly_pow_mod."""
    result = (1,)
    base = rs.poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = rs.poly_mod(rs.poly_mul(result, base, p), mod, p)
        base = rs.poly_mod(rs.poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


@pytest.mark.parametrize("p", [2, 3, (1 << 61) - 1, (1 << 62) - 57])
def test_pow_mod_matches_reference(p):
    local = seeded(f"test_residues pow_mod {p}", offset=2)
    exponents = [0, 1, 2, 3, p - 1, p, p + 1, (p - 1) // 2]
    for k in (1, 1, 2, 3, 4, 5):                   # degree-1 moduli twice
        for e in exponents + [local.randrange(1, 1 << 64) for _ in range(4)]:
            lead = 1 if local.random() < 0.5 else local.randrange(1, p)
            mod = tuple(local.randrange(p) for _ in range(k)) + (lead,)
            # below, at and above the degree of the modulus, with trailing zeros
            n = local.choice([0, 1, k, k + 1, 2 * k + 3])
            a = tuple(local.randrange(p) for _ in range(n)) + (0,) * local.randint(0, 2)
            assert rs.poly_pow_mod(a, e, mod, p) == reference_pow_mod(a, e, mod, p)


def test_split_prime_examples():
    K = get_field("Qi")
    sys5 = split_prime(K, 5)
    assert sys5.factors == ((2, 1), (3, 1))
    sys3 = split_prime(K, 3)
    assert sys3.factors == ((1, 0, 1),)
    Q = get_field("Q")
    assert split_prime(Q, 11).factors == ((0, 1),)


def test_split_prime_rejects_disc_divisors():
    K = get_field("Qi")
    with pytest.raises(rs.ResidueError):
        split_prime(K, 2)


def test_split_degrees_sum(field):
    plan = plan_primes(field, 20)
    for p in plan.primes[:5]:
        sys = split_prime(field, p)
        assert sum(len(g) - 1 for g in sys.factors) == field.degree
        prod = (1,)
        for g in sys.factors:
            prod = rs.poly_mul(prod, g, p)
        assert prod == sys.fbar


def test_projection_examples():
    K = get_field("Qi")
    sys5 = split_prime(K, 5)
    assert project_element(K.one(), sys5) == [(1,), (1,)]
    assert project_element(K.element([0, 1]), sys5) == [(3,), (2,)]


def test_projection_is_ring_homomorphism(field):
    plan = plan_primes(field, 16)
    sys = split_prime(field, plan.primes[-1])
    p = sys.p
    for _ in range(25):
        a = field.element([rng.randint(-40, 40) for _ in range(field.degree)])
        b = field.element([rng.randint(-40, 40) for _ in range(field.degree)])
        pa, pb = project_element(a, sys), project_element(b, sys)
        psum = project_element(a + b, sys)
        pprod = project_element(a * b, sys)
        for t, g in enumerate(sys.factors):
            assert rs.poly_add(pa[t], pb[t], p) == psum[t]
            assert rs.poly_mod(rs.poly_mul(pa[t], pb[t], p), g, p) == pprod[t]
    assert project_element(field.one(), sys) == [(1,)] * len(sys.factors)


def test_crt_factors_examples():
    K = get_field("Qi")
    sys5 = split_prime(K, 5)
    assert rs.crt_combine_factors([(), ()], sys5) == ()
    assert rs.crt_combine_factors([(2,), (2,)], sys5) == (2,)
    assert rs.crt_combine_factors([(3,), (2,)], sys5) == (0, 1)


def test_plan_primes_examples():
    for name, bound in (("Q", 10), ("Qi", 6), ("Qm5", 130), ("cubic", 400)):
        check_prime_plan(get_field(name), bound)
    # disc(x^2 - q) = 4q with q the first candidate prime: q is skipped
    q = (1 << 62) - 57
    assert q % 4 == 3
    plan = check_prime_plan(build_field([-q, 0, 1]), 200)
    assert q not in plan.primes


def test_plan_primes_extend_the_field_list():
    # plans of growing and shrinking bounds on one field read and extend one
    # list of admissible primes; each is still the plan sympy predicts
    K = build_field([-1, -1, 0, 1])
    assert K.admissible_primes == []
    small = check_prime_plan(K, 20)
    assert K.admissible_primes == list(small.primes)
    big = check_prime_plan(K, 500)
    assert K.admissible_primes == list(big.primes)
    assert check_prime_plan(K, 150).primes == big.primes[:3]
    assert K.admissible_primes == list(big.primes)


def test_crt_primes_examples():
    Q = get_field("Q")
    plan = rs.PrimePlan(rs.Fraction(3), (3, 5), 15)
    assert rs.crt_combine_primes([(7 % 3,), (7 % 5,)], plan, 1) == [7]
    assert rs.crt_combine_primes([((-4) % 3,), ((-4) % 5,)], plan, 1) == [-4]
    single = rs.PrimePlan(rs.Fraction(2), (7,), 7)
    assert rs.crt_combine_primes([(5,)], single, 1) == [-2]


def test_lift_examples():
    K = get_field("Qi")
    assert rs.lift_to_field([0, 0], K, 15) == K.zero()
    assert rs.lift_to_field([0, 1], K, 15) == K.element([0, 1])


def test_round_trip_identity(field):
    plan = plan_primes(field, 24)
    systems = [split_prime(field, p) for p in plan.primes]
    half = plan.modulus // 2
    for _ in range(30):
        beta = field.element([rng.randint(-half + 1, half) for _ in range(field.degree)])
        per_prime = [rs.crt_combine_factors(project_element(beta, s), s) for s in systems]
        coeffs = rs.crt_combine_primes(per_prime, plan, field.degree)
        assert rs.lift_to_field(coeffs, field, plan.modulus) == beta
