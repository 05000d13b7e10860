import math
import random
import zlib
from fractions import Fraction

import pytest

from okmod import FractionalIdeal, build_field
from okmod.numeric import eval_at_root, frac_sqrt_lb, frac_up

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

_FIELDS = {}


def get_field(name):
    if name not in _FIELDS:
        poly, basis = {**FIELD_SPECS, **EXTRA_SPECS}[name]
        _FIELDS[name] = build_field(poly, basis)
    return _FIELDS[name]


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


def norm_sq_bounds(K, a):
    """Certified enclosure of the squared T2 norm of an element, by complex
    ball evaluation at the roots: the test oracle for the library's integer
    certificate ``LatticeContext.t2_bound``."""
    if not a:
        return Fraction(0), Fraction(0)
    p = K.to_power_coords(a)
    lb = Fraction(0)
    ub = Fraction(0)
    for root in K.roots():
        v = eval_at_root(p, root)
        low = max(frac_sqrt_lb(v.abs_sq_center()) - v.r, Fraction(0))
        lb += low * low
        ub += v.abs_sq_ub()
    return lb, frac_up(ub, 128)


def check_prime_plan(K, bound):
    """Properties of plan_primes(K, bound), decided with sympy apart from okmod."""
    from sympy import isprime, prevprime

    from okmod import plan_primes
    plan = plan_primes(K, bound)
    assert plan_primes(K, bound) == plan
    # the first primes below 2^62 that do not divide disc(f), so distinct
    expected, q = [], 1 << 62
    while len(expected) < len(plan.primes):
        q = prevprime(q)
        if K.disc_f % q:
            expected.append(q)
    assert list(plan.primes) == expected
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
