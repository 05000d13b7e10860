"""Prime plans, Dedekind-Kummer splitting, projections, two-stage CRT."""

from collections import Counter
from functools import cached_property

import pytest

from okmod import build_field, det, plan_primes, project_element, split_prime
from okmod import residues as rs

from conftest import (ALL_FIELDS, EXTRA_SPECS, FIELD_SPECS, SPECS, TABLE_SIZE, check_prime_plan,
                      get_field, proth_table, random_element, seeded)


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
    rng = seeded("test_residues::test_factor_random_products")
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


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_factor_matches_sympy_at_word_size(name):
    # the defining polynomial and random products of it with a monic cubic,
    # against sympy's own factorization over F_p
    sympy = pytest.importorskip("sympy")
    K = get_field(name)
    local = seeded(f"test_residues::test_factor_matches_sympy_at_word_size {name}")
    x = sympy.Symbol("x")

    def reference(f, p):
        """Monic irreducible factors in okmod's order, or None if f is not squarefree."""
        _, facs = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
        if any(e > 1 for _, e in facs):
            return None
        monic = []
        for q, _ in facs:
            c = [int(a) for a in reversed(q.all_coeffs())]
            inv = pow(c[-1], -1, p)
            monic.append(rs.poly_trim([a * inv for a in c], p))
        return sorted(monic, key=lambda q: (len(q), q))

    for p in plan_primes(K, 150).primes:
        f = rs.poly_trim(list(K.poly), p)
        assert rs.factor_squarefree(f, p) == reference(f, p)
        g = rs.poly_mul(f, tuple(local.randrange(p) for _ in range(3)) + (1,), p)
        expected = reference(g, p)
        if expected is not None:
            assert rs.factor_squarefree(g, p) == expected


# strong pseudoprimes to the first Miller-Rabin bases whose prime factors
# all exceed 100, so that the gcd with the small primes lets them through
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    top = 1 << 62
    for n in range(top - 20001, top, 2):
        assert rs._is_prime(n) == sympy.isprime(n), n
    # a strong pseudoprime to every base from 2 to 31: only base 37 rejects it
    assert STRONG_PSEUDOPRIMES[-1] == 149491 * 747451 * 34233211
    for n in STRONG_PSEUDOPRIMES:
        assert min(sympy.factorint(n)) > 100
        assert not rs._is_prime(n)
        assert rs._is_prime(sympy.prevprime(n)) and rs._is_prime(sympy.nextprime(n))


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


@pytest.mark.parametrize("p", [2, 3, 65537, (1 << 61) - 1, (1 << 62) - 57, (1 << 62) - 1017,
                               rs._TOP_PRIMES[0], rs._TOP_PRIMES[-1]])
def test_pow_mod_matches_reference(p):
    local = seeded(f"test_residues pow_mod {p}", offset=2)
    exponents = [0, 1, 2, 3, 255, 256, p - 1, p, p + 1, (p - 1) // 2, local.randrange(1 << 70)]
    for k in (1, 1, 2, 3, 4, 5, 6, 7, 8):          # degree-1 moduli twice
        lead = 1 if local.random() < 0.5 else local.randrange(1, p)
        mod = tuple(local.randrange(p) for _ in range(k)) + (lead,)
        for e in exponents + [local.randrange(1, 1 << 64) for _ in range(4)]:
            # below, at and above the degree of the modulus, with trailing zeros
            n = local.choice([0, 1, k, k + 1, 2 * k + 3])
            a = tuple(local.randrange(p) for _ in range(n)) + (0,) * local.randint(0, 2)
            assert rs.poly_pow_mod(a, e, mod, p) == reference_pow_mod(a, e, mod, p)
        # a zero base: 0^0 = 1, 0^e = 0 otherwise
        for a in ((), (0,) * k):
            assert rs.poly_pow_mod(a, 0, mod, p) == (1,)
            assert rs.poly_pow_mod(a, p, mod, p) == ()


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
    rng = seeded("test_residues::test_projection_is_ring_homomorphism")
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


def reference_crt_combine_factors(values, sys):
    """The CRT-multiplier recombination: the sum of each value times the
    multiplier of its factor, modulo fbar, checked by re-projection.  The
    test reference of ``crt_combine_factors``."""
    p = sys.p
    acc = ()
    for v, mult in zip(values, sys.crt_mults):
        acc = rs.poly_add(acc, rs.poly_mul(v, mult, p), p)
    acc = rs.poly_mod(acc, sys.fbar, p)
    for v, g in zip(values, sys.factors):
        assert rs.poly_mod(acc, g, p) == rs.poly_mod(v, g, p)
    return acc


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_recombination_equals_the_crt_multiplier_references(name):
    # crt_combine_factors and basis_coordinates both go through the one
    # backward map of the residue system; the references are the CRT
    # multiplier sum on values that are not reduced mod their factor, with
    # negative and large coefficients, and the coordinates of the elements
    # whose residues basis_coordinates is given
    K = get_field(name)
    rng = seeded(f"test_residues::test_recombination_equals_the_crt_multiplier_references {name}")
    primes = [p for p in (2, 3, 5, 7, 11, 13) if K.disc_f % p] + [plan_primes(K, 1).primes[0]]
    for p in primes:
        sys = split_prime(K, p)
        for _ in range(12):
            values = [tuple(rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 2 * len(g))))
                      for g in sys.factors]
            assert rs.crt_combine_factors(values, sys) == reference_crt_combine_factors(values, sys)
        elts = [random_element(rng, K, lim=2 * p) for _ in range(6)] + [K.zero()]
        values = [[] for _ in sys.factors]
        for e in elts:
            for vals, r, g in zip(values, project_element(e, sys), sys.factors):
                vals.append(list(r) + [0] * (len(g) - 1 - len(r)))
        assert rs.basis_coordinates(sys, values) == [[c % p for c in e.coeffs] for e in elts]


def test_one_backward_map_per_residue_system(monkeypatch):
    # det reads each prime's residue system off the field, and a residue
    # system builds its map from residues to coordinates on first use only;
    # the spy counts the builds behind the library's own descriptor
    built = Counter()
    prop = rs.ResidueSystem.__dict__["to_basis"]
    assert isinstance(prop, cached_property)
    build = prop.func

    def spy(sys):
        built[id(sys)] += 1
        return build(sys)

    monkeypatch.setattr(prop, "func", spy)
    K = build_field(*SPECS["cubic"])
    rng = seeded("test_residues::test_one_backward_map_per_residue_system")
    rows = [[random_element(rng, K, lim=40) for _ in range(3)] for _ in range(3)]
    value = det(K, rows)
    assert value and built
    first = dict(built)
    for _ in range(3):
        assert det(K, rows) == value
    assert dict(built) == first and set(first.values()) == {1}


def test_plan_primes_examples():
    for name, bound in (("Q", 10), ("Qi", 6), ("Qm5", 130), ("cubic", 400)):
        check_prime_plan(get_field(name), bound)
    # disc(x^2 - x - (q - 1)/4) = q with q the first table prime: q is skipped
    q = rs._TOP_PRIMES[0]
    plan = check_prime_plan(build_field([-(q - 1) // 4, -1, 1]), 200)
    assert q not in plan.primes and plan.primes[0] == rs._TOP_PRIMES[1]
    # disc(x^2 - q) = 4q with q the first prime below 2^62, where a plan goes
    # past the table: q is skipped there
    q = (1 << 62) - 57
    assert q % 4 == 3
    plan = check_prime_plan(build_field([-q, 0, 1]), 4500)
    assert q not in plan.primes and plan.primes[TABLE_SIZE] == (1 << 62) - 87
    # every test field, built afresh so that its primes are searched for
    for poly, basis in {**FIELD_SPECS, **EXTRA_SPECS}.values():
        check_prime_plan(build_field(poly, basis), 1200)


def test_plan_primes_extend_the_field_list():
    # plans of growing and shrinking bounds on one field read and extend one
    # list of admissible primes; each is still the plan sympy predicts
    K = build_field([-1, -1, 0, 1])
    assert K.admissible_primes == []
    small = check_prime_plan(K, 20)
    assert K.admissible_primes == list(small.primes)
    big = check_prime_plan(K, 500)
    assert K.admissible_primes == list(big.primes)
    assert check_prime_plan(K, 150).primes == big.primes[:2]
    assert K.admissible_primes == list(big.primes)


def test_prime_table_holds_the_largest_proven_proth_primes():
    # each entry is k * 2^64 + 1 with k odd and k < 2^62 < 2^64, so by Proth's
    # theorem it is prime once some a has a^((q - 1)/2) = -1 mod q; every
    # number of that form above the last entry and not in the table is
    # composite, which a failed strong probable-prime test proves
    sympy = pytest.importorskip("sympy")
    table = rs._TOP_PRIMES
    assert len(table) == TABLE_SIZE and table == proth_table()
    assert table[0] < 1 << 126 and list(table) == sorted(table, reverse=True)
    for q in table:
        k = q >> 64
        assert q == k << 64 | 1 and k % 2 == 1 and k < 1 << 62
        witness = next(a for a in range(3, 200) if sympy.jacobi_symbol(a, q) == -1)
        assert pow(witness, (q - 1) // 2, q) == q - 1
        assert sympy.ntheory.primetest.proth_test(q)
    ks = {q >> 64 for q in table}
    for k in range(table[-1] >> 64, 1 << 62, 2):
        if k not in ks:
            assert not sympy.ntheory.primetest.mr(k << 64 | 1, [2])


class StubField:
    """What plan_primes reads of a field: disc(f) and the primes found so far."""

    def __init__(self, disc_f):
        self.disc_f = disc_f
        self.admissible_primes = []


@pytest.mark.parametrize("picks", [(0,), (1, 2, 31), (30, 31)])
def test_plan_primes_skip_table_primes_dividing_disc(picks):
    # bounds inside the table and past it, on a disc(f) with table primes
    disc_f = -4
    for t in picks:
        disc_f *= rs._TOP_PRIMES[t]
    K = StubField(disc_f)
    for bound in (100, 3900, 4500):
        plan = check_prime_plan(K, bound)
        assert not any(rs._TOP_PRIMES[t] in plan.primes for t in picks)
    assert len(plan.primes) > TABLE_SIZE and plan.primes[:TABLE_SIZE - len(picks)] == tuple(
        q for t, q in enumerate(rs._TOP_PRIMES) if t not in picks)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_plans_past_the_table_search_below_it(name):
    # a fresh field whose plan needs more primes than the table holds
    K = build_field(*{**FIELD_SPECS, **EXTRA_SPECS}[name])
    plan = check_prime_plan(K, 4500)
    assert plan.primes[:TABLE_SIZE] == rs._TOP_PRIMES and len(plan.primes) > TABLE_SIZE
    rest = plan.primes[TABLE_SIZE:]
    assert rest[0] < 1 << 62 and list(rest) == sorted(set(rest), reverse=True)


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
    rng = seeded("test_residues::test_round_trip_identity")
    plan = plan_primes(field, 24)
    systems = [split_prime(field, p) for p in plan.primes]
    half = plan.modulus // 2
    for _ in range(30):
        beta = field.element([rng.randint(-half + 1, half) for _ in range(field.degree)])
        per_prime = [rs.crt_combine_factors(project_element(beta, s), s) for s in systems]
        coeffs = rs.crt_combine_primes(per_prime, plan, field.degree)
        assert rs.lift_to_field(coeffs, field, plan.modulus) == beta
    # many elements at once, through their coordinates, over several primes
    plan = plan_primes(field, 200)
    half = plan.modulus // 2
    betas = [field.element([rng.randint(-half + 1, half) for _ in range(field.degree)])
             for _ in range(10)] + [field.zero(), field.from_int(half)]
    per_prime = []
    for p in plan.primes:
        s = split_prime(field, p)
        values = [[] for _ in s.factors]
        for beta in betas:
            for vals, r, g in zip(values, project_element(beta, s), s.factors):
                vals.append(list(r) + [0] * (len(g) - 1 - len(r)))
        per_prime.append(rs.basis_coordinates(s, values))
    assert len(plan.primes) > 1
    assert rs.lift_coordinates(per_prime, plan, field) == betas
