"""Multi-modular determinants, rank probing, determinantal ideals."""

from fractions import Fraction
from itertools import combinations

import pytest

from okmod import (FractionalIdeal, canonicalize, det, det_bound, determinantal_ideal,
                   determinantal_ideal_multiple, plan_primes, project_element,
                   pseudo_hnf, rank_and_submatrix)
from okmod import determinant, residues
from okmod.determinant import (_coefficient_rows, _elimination_multiple, _eliminate, _pack,
                               _packed_planes, entry_height)
from okmod.pseudo_hnf import PseudoMatrix
from okmod.reduction import ReducedBasisCache
from okmod.zlinalg import SingularMatrixError, RankDeficiencyError, det_bareiss

from conftest import (ALL_FIELDS, cofactor_det, get_field, maximal_minor_sum, random_element,
                      random_ideal, seeded)


def random_matrix(gen, field, n, m=None, lim=9):
    m = m or n
    return [[field.element([gen.randint(-lim, lim) for _ in range(field.degree)])
             for _ in range(m)] for _ in range(n)]


def laplace_det(field, rows):
    """Laplace expansion along the rows, memoized on the remaining columns."""
    memo = {}

    def minor(k, cols):
        if k == len(rows):
            return field.one()
        if cols not in memo:
            acc = field.zero()
            for pos, j in enumerate(cols):
                if rows[k][j]:
                    term = rows[k][j] * minor(k + 1, cols[:pos] + cols[pos + 1:])
                    acc = acc + (-term if pos % 2 else term)
            memo[cols] = acc
        return memo[cols]

    return minor(0, tuple(range(len(rows))))


# -- dense reference arithmetic over F_p[x]/(g): residues are k-tuples


def ref_mul(a, b, g, p):
    k = len(g) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(2 * k - 2, k - 1, -1):
        c = prod[t]
        for j in range(k):
            prod[t - k + j] -= c * g[j]
    return tuple(x % p for x in prod[:k])


def ref_inv(a, g, p):
    """a^(q-2) in the field of q = p^k elements."""
    k = len(g) - 1
    e = p ** k - 2
    out, base = (1,) + (0,) * (k - 1), a
    while e:
        if e & 1:
            out = ref_mul(out, base, g, p)
        base = ref_mul(base, base, g, p)
        e >>= 1
    return out


def ref_rank_det(mat, g, p):
    """Rank by plain Gauss with row swaps, and the determinant when square."""
    k = len(g) - 1
    a = [list(row) for row in mat]
    n, m = len(a), len(a[0])
    det_ = (1,) + (0,) * (k - 1)
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if any(a[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det_ = tuple(-x % p for x in det_)
        det_ = ref_mul(det_, a[r][c], g, p)
        inv = ref_inv(a[r][c], g, p)
        for i in range(r + 1, n):
            if any(a[i][c]):
                f = ref_mul(a[i][c], inv, g, p)
                a[i] = [tuple((x - y) % p for x, y in zip(u, ref_mul(f, v, g, p)))
                        for u, v in zip(a[i], a[r])]
        r += 1
    return r, (det_ if r == n == m else (0,) * k)


def dense(poly, k):
    return tuple(poly) + (0,) * (k - len(poly))


def unpack(planes, m, w, p):
    """Entry (i, j) as a k-tuple from the packed planes, reduced mod p."""
    mask = (1 << w) - 1
    return [[tuple((pl[i] >> w * j & mask) % p for pl in planes) for j in range(m)]
            for i in range(len(planes[0]))]


def projected(rows, sys, fi):
    k = len(sys.factors[fi]) - 1
    return [[dense(project_element(e, sys)[fi], k) for e in row] for row in rows]


def packed(rows, sys, fi):
    """The planes of rows in residue factor fi, packed as det packs them."""
    m = len(rows[0]) if rows else 0
    h = entry_height(rows)
    crows, w = _coefficient_rows(rows, sys.field.degree, h, sys.p)
    return _packed_planes(crows, sys.proj_mats[fi], sys.p, h, _pack([1] * m, w)), w


def run_eliminate(rows, sys, fi):
    m = len(rows[0]) if rows else 0
    planes, w = packed(rows, sys, fi)
    return _eliminate(planes, m, sys.factors[fi], sys.p, w)


def test_det_bound_properties():
    K = get_field("Qi")
    one = det_bound(K, 1, 1)
    assert one >= 1
    assert det_bound(K, 2, 10) <= det_bound(K, 2, 100)
    assert det_bound(K, 2, 10) <= det_bound(K, 3, 10)


def test_det_examples():
    K = get_field("Qi")
    one, i = K.one(), K.element([0, 1])
    assert det(K, [[one + i, K.from_int(2)], [K.zero(), K.from_int(3)]]) == K.element([3, 3])
    assert det(K, [[one, i], [i, one]]) == K.from_int(2)


def test_det_bound_covers_small_cases():
    rng = seeded("test_determinant::test_det_bound_covers_small_cases")
    K = get_field("Qi")
    for _ in range(5):
        rows = random_matrix(rng, K, 2)
        d = cofactor_det(K, rows)
        bound = det_bound(K, 2, entry_height(rows))
        coeff = max((abs(c) for c in d.coeffs), default=0)
        if coeff:
            from okmod.numeric import log2_ub
            assert log2_ub(2 * coeff) <= bound


@pytest.mark.parametrize("field", ALL_FIELDS, indirect=True)
def test_det_matches_cofactor_oracle(field):
    rng = seeded("test_determinant::test_det_matches_cofactor_oracle")
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            rows = random_matrix(rng, field, n)
            assert det(field, rows) == cofactor_det(field, rows)
    # coefficients far above the plan primes widen every slot
    for n in (1, 2, 3):
        rows = random_matrix(rng, field, n, lim=2 ** 200)
        assert det(field, rows) == cofactor_det(field, rows)
    assert det(field, []) == field.one()


def test_det_multiplicative(field):
    rng = seeded("test_determinant::test_det_multiplicative")
    n = 3
    for _ in range(3):
        a = random_matrix(rng, field, n, lim=5)
        b = random_matrix(rng, field, n, lim=5)
        ab = [[sum((a[i][k] * b[k][j] for k in range(n)), field.zero())
               for j in range(n)] for i in range(n)]
        assert det(field, ab) == det(field, a) * det(field, b)


def test_det_rejects_fractional():
    K = get_field("Qi")
    with pytest.raises(ValueError):
        det(K, [[K.element([1, 0], 2)]])


def test_entries_from_another_field_are_refused():
    # entries of Q(i) read as coordinates over Q(sqrt -5) would give -9,
    # where the determinant over Q(i) is -1; integers are no field elements
    K, L = get_field("Qi"), get_field("Qm5")
    i = K.element([0, 1])
    rows = [[1 + 2 * i, i], [K.from_int(3), 1 + i]]
    assert det(K, rows) == K.from_int(-1)
    for call in (det, rank_and_submatrix):
        for field, bad in ((L, rows), (K, [[1, 0], [0, 1]])):
            with pytest.raises(ValueError, match="entry from a different field"):
                call(field, bad)


def test_ragged_rows_are_refused():
    # a short row would be read as if padded with zeros
    K = get_field("Qi")
    one, zero = K.one(), K.zero()
    with pytest.raises(ValueError, match="ragged matrix"):
        rank_and_submatrix(K, [[one, zero], [one], [zero, one]])


def test_rank_examples():
    K = get_field("Qi")
    one, i = K.one(), K.element([0, 1])
    s, ridx, cidx, ds = rank_and_submatrix(K, [[one, K.zero()], [K.zero(), one],
                                               [K.zero(), K.zero()]])
    assert s == 2 and ds == one
    s, ridx, cidx, ds = rank_and_submatrix(K, [[one, i], [one, i], [one, i]])
    assert s == 1 and ds in (one, i)
    s, _, _, ds = rank_and_submatrix(K, [[K.zero(), K.zero()]] * 2)
    assert s == 0 and ds == one


@pytest.mark.parametrize("field", ALL_FIELDS, indirect=True)
def test_rank_matches_minor_oracle(field):
    rng = seeded("test_determinant::test_rank_matches_minor_oracle")
    for _ in range(4):
        n, m = 4, 2
        rows = random_matrix(rng, field, n, m, lim=4)
        s, ridx, cidx, ds = rank_and_submatrix(field, rows)
        # brute-force rank via minors
        best = 0
        for size in range(min(n, m), 0, -1):
            found = False
            for rs_ in combinations(range(n), size):
                for cs in combinations(range(m), size):
                    sub = [[rows[i][j] for j in cs] for i in rs_]
                    if cofactor_det(field, sub):
                        found = True
                        break
                if found:
                    break
            if found:
                best = size
                break
        assert s == best
        if s:
            sub = [[rows[i][j] for j in cidx] for i in ridx]
            assert ds == cofactor_det(field, sub) and ds


def test_determinantal_ideal_examples():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    one, i = K.one(), K.element([0, 1])
    pm = PseudoMatrix(K, [[one, K.zero()], [K.zero(), one]], [u, u])
    assert determinantal_ideal(pm).is_unit()

    Q = get_field("Q")
    uq = FractionalIdeal.unit(Q)
    pm = PseudoMatrix(Q, [[Q.from_int(2), Q.zero()], [Q.from_int(1), Q.one()]], [uq, uq])
    assert determinantal_ideal(pm) == FractionalIdeal.from_rational(Q, 2)

    onemi_half = FractionalIdeal.from_generators(K, [K.element([1, -1], 2)])
    pm = PseudoMatrix(K, [[one + i, K.zero()], [K.zero(), one]], [onemi_half, u])
    assert determinantal_ideal(pm).is_unit()


def test_determinantal_ideal_singular():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    one = K.one()
    pm = PseudoMatrix(K, [[one, one], [one, one]], [u, u])
    with pytest.raises(SingularMatrixError):
        determinantal_ideal(pm)


def test_determinantal_multiple_examples():
    Q = get_field("Q")
    uq = FractionalIdeal.unit(Q)
    rows = [[Q.from_int(2), Q.zero()], [Q.zero(), Q.from_int(2)], [Q.from_int(1), Q.one()]]
    pm = PseudoMatrix(Q, rows, [uq] * 3)
    mult = determinantal_ideal_multiple(pm)
    # divisible by the true determinantal ideal (2)
    assert mult.is_subset(FractionalIdeal.from_rational(Q, 2))

    # square case coincides with the exact ideal
    sq = PseudoMatrix(Q, rows[:2], [uq] * 2)
    assert determinantal_ideal_multiple(sq) == determinantal_ideal(sq)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_square_multiple_is_the_determinantal_ideal(name):
    # on square input the multiple is the determinantal ideal itself: the
    # determinant times every row ideal, here against cofactor expansion,
    # with row denominators and fractional row ideals
    K = get_field(name)
    rng = seeded(f"test_determinant square multiple {name}")
    u = FractionalIdeal.unit(K)
    for n in (1, 2, 3):
        rows = [[random_element(rng, K, 4, 3) for _ in range(n)] for _ in range(n)]
        if not cofactor_det(K, rows):
            continue
        ideals = [random_ideal(rng, K, fractional=True) if rng.random() < 0.5 else u
                  for _ in range(n)]
        pm = PseudoMatrix(K, rows, ideals)
        mult = determinantal_ideal_multiple(pm)
        assert mult == determinantal_ideal(pm) == maximal_minor_sum(K, rows, ideals)


def test_only_tall_input_probes_the_rank(monkeypatch):
    # every determinant comes from one witness elimination, whose probe
    # costs square input nothing: the probe's elimination in the first
    # residue field is reused, so a square determinant or multiple runs one
    # elimination of the whole matrix per residue field of its plan.  Tall
    # input probes once with all its rows; the other residue fields then
    # eliminate the witness rows alone, or all rows again for the minors
    # next to the witness that pseudo_hnf reduces modulo
    K = get_field("Qm5")
    sizes = []
    real = determinant._eliminate

    def spy(planes, m, g, p, w, extra=0):
        sizes.append(len(planes[0]))
        return real(planes, m, g, p, w, extra)

    def residue_fields(rows):
        plan = plan_primes(K, det_bound(K, 3, entry_height(rows)))
        return sum(len(K.residue_system(p).factors) for p in plan.primes)

    rng = seeded("test_determinant rank probes")
    u = FractionalIdeal.unit(K)
    while True:
        rows = [[random_element(rng, K, 4) for _ in range(3)] for _ in range(3)]
        if cofactor_det(K, rows):
            break
    tall_rows = rows + [[random_element(rng, K, 4) for _ in range(3)]]
    witness = rank_and_submatrix(K, tall_rows)[1]
    square = PseudoMatrix(K, rows, [u] * 3)
    tall = PseudoMatrix(K, tall_rows, [u] * 4)
    monkeypatch.setattr(determinant, "_eliminate", spy)
    for call in (det, lambda K, rows: determinantal_ideal_multiple(square),
                 lambda K, rows: determinantal_ideal(square), lambda K, rows: pseudo_hnf(square)):
        sizes.clear()
        call(K, rows)
        assert sizes == [3] * residue_fields(rows)
    sizes.clear()
    determinantal_ideal_multiple(tall)
    assert sizes == [4] + [3] * (residue_fields([tall_rows[i] for i in witness]) - 1)
    sizes.clear()
    pseudo_hnf(tall)
    assert sizes == [4] * residue_fields(tall_rows)


def test_singular_square_input_lacks_full_column_rank():
    # a singular square matrix lacks full column rank: one error answers
    # both determinantal_ideal and pseudo_hnf
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    one = K.one()
    pm = PseudoMatrix(K, [[one, one], [one, one]], [u, u])
    for call in (determinantal_ideal, determinantal_ideal_multiple, pseudo_hnf):
        with pytest.raises(SingularMatrixError, match="pseudo-matrix is singular") as exc:
            call(pm)
        assert isinstance(exc.value, RankDeficiencyError)


def test_determinantal_multiple_contained_in_gcd_oracle(field):
    rng = seeded("test_determinant::test_determinantal_multiple_contained_in_gcd_oracle")
    u = FractionalIdeal.unit(field)
    for _ in range(3):
        n, m = 5, 3
        rows = random_matrix(rng, field, n, m, lim=4)
        ideals = [random_ideal(rng, field) if rng.random() < 0.4 else u for _ in range(n)]
        pm = PseudoMatrix(field, rows, ideals)
        try:
            mult = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        # brute-force gcd of all maximal-minor determinantal ideals
        gcd_ideal = maximal_minor_sum(field, rows, ideals)
        assert gcd_ideal is not None
        assert mult.is_subset(gcd_ideal)


def test_rank_deficient_multiple_raises():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    one = K.one()
    pm = PseudoMatrix(K, [[one, one], [one, one], [one, one]], [u] * 3)
    with pytest.raises(RankDeficiencyError):
        determinantal_ideal_multiple(pm)


def tall_cases(K, rng, m=3):
    """(label, rows, ideals) of tall full-column-rank pseudo-matrices with
    n <= 7: rows with denominators, non-trivial (some fractional) row
    ideals, zero rows outside the witness, and a row that is a multiple of
    the first witness row, so that its solution x has zero entries."""
    u = FractionalIdeal.unit(K)

    def block(max_den=1):
        while True:
            rows = [[random_element(rng, K, 4, max_den) for _ in range(m)] for _ in range(m)]
            if cofactor_det(K, rows):
                return rows

    def some_ideals(n, share):
        return [random_ideal(rng, K, fractional=True) if rng.random() < share else u
                for _ in range(n)]

    rows = block(max_den=4) + [[random_element(rng, K, 4, 4) for _ in range(m)]
                               for _ in range(2)]
    yield "denominators", rows, [u] * len(rows)
    rows = block() + [[random_element(rng, K, 4) for _ in range(m)] for _ in range(7 - m)]
    yield "ideals", rows, some_ideals(len(rows), 0.6)
    rows = block(max_den=2) + [[K.zero()] * m for _ in range(2)]
    yield "zero rows", rows, some_ideals(len(rows), 0.5)
    rows = block()
    rows += [[random_element(rng, K, 3) * e for e in rows[0]],
             [random_element(rng, K, 4) for _ in range(m)]]
    yield "zero solution entries", rows, some_ideals(len(rows), 0.5)


def test_tall_multiple_examples():
    # over Q the determinantal ideal of a tall pseudo-matrix is the gcd of
    # its maximal minors times their rows' ideals; the witness minor is
    # rows 0 and 1, with determinant 4
    Q = get_field("Q")
    z, two = Q.zero(), Q.from_int(2)
    u = FractionalIdeal.unit(Q)

    def ideal(q):
        return FractionalIdeal.from_rational(Q, q)

    cases = [
        # minors 4, 2 * 2 and -2 * 2: the row ideal 2Z cancels the
        # denominator of x = (1/2, 1/2)
        ([[two, z], [z, two], [Q.one(), Q.one()]], [u, u, ideal(2)], 4),
        # minors 4, 2 * 3 and -2 * 3
        ([[two, z], [z, two], [Q.one(), Q.one()]], [u, u, ideal(3)], 2),
        # a row with a denominator: minors 4, 1 and -1
        ([[two, z], [z, two], [Q.element([1], 2), Q.element([1], 2)]], [u] * 3, 1),
        # a witness row with a denominator: minors 1/2, 1 and 1/2
        ([[Q.element([1], 2), z], [z, Q.one()], [Q.one(), Q.one()]], [u] * 3, Fraction(1, 2)),
    ]
    for rows, ideals, expected in cases:
        mult, factor = _elimination_multiple(Q, rows, ideals, ReducedBasisCache(Q.lattice_context))
        assert factor is None
        assert mult == ideal(expected) == maximal_minor_sum(Q, rows, ideals)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_tall_multiple_lies_between_witness_and_minor_sum(name):
    # pseudo_hnf's own multiple for tall input is a sum of maximal-minor
    # ideals: it contains the witness multiple delta * P and lies inside the
    # determinantal ideal, the sum over every maximal minor
    K = get_field(name)
    rng = seeded(f"test_determinant tall multiple {name}")
    equal = 0
    for label, rows, ideals in tall_cases(K, rng):
        pm = PseudoMatrix(K, rows, ideals)
        witness = determinantal_ideal_multiple(pm)
        mult, factor = _elimination_multiple(K, rows, ideals, ReducedBasisCache(K.lattice_context))
        total = maximal_minor_sum(K, rows, ideals)
        assert factor is None
        assert witness.is_subset(mult), label
        assert mult.is_subset(total), label
        equal += mult == total
        if label == "zero rows":
            assert mult == witness
        if label == "zero solution entries":
            # the witness is the first three rows, and the fourth is a
            # multiple of the first: its x has zeros at the other two
            assert rank_and_submatrix(K, rows)[1] == (0, 1, 2)
    print(f"[{name}] multiple equal to the minor sum in {equal} of 4 cases")


def integral_pseudo(K, rows, ideals):
    """The pseudo-matrix with each row scaled by an integer that puts
    a_i * row_i inside O_K^m: the denominator of a_i times those of the
    row's entries."""
    scaled = []
    for row, a in zip(rows, ideals):
        c = a.den
        for e in row:
            c *= e.den
        scaled.append([e * c for e in row])
    return PseudoMatrix(K, scaled, ideals)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_tall_hnf_with_its_own_multiple_matches_the_minor_sum(name):
    # pseudo_hnf's own multiple for tall input against an independent one:
    # the determinantal ideal by cofactor expansion over every maximal minor
    K = get_field(name)
    rng = seeded(f"test_determinant tall hnf against the minor sum {name}")
    for label, rows, ideals in tall_cases(K, rng):
        pm = integral_pseudo(K, rows, ideals)
        assert pm.module_in_ring_power(), label
        total = maximal_minor_sum(K, pm.rows, pm.ideals)
        own = canonicalize(pseudo_hnf(pm))
        oracle = canonicalize(pseudo_hnf(pm, total))
        assert (own.rows, own.ideals) == (oracle.rows, oracle.ideals), label


def degenerate_cases():
    """(field, pi, q): pi vanishes in a residue field of the plan prime q.
    Over Q, pi is the first and the second admissible prime.  Over Q(i) and
    Q(sqrt -5), q is the first plan prime that splits, into x + a_0 and
    x + a_1, and pi is the generator plus a_i, which lies in the prime above
    q of factor i alone: the first plan prime over Q(i), and the third over
    Q(sqrt -5), whose first two are inert."""
    Q = get_field("Q")
    for q in plan_primes(Q, 1000).primes[:2]:
        yield Q, Q.from_int(q), q
    for name, first in (("Qi", 0), ("Qm5", 2)):
        K = get_field(name)
        primes = plan_primes(K, 1000).primes
        q = next(q for q in primes if len(K.residue_system(q).factors) > 1)
        assert q == primes[first]
        factors = K.residue_system(q).factors
        assert [len(g) for g in factors] == [2, 2]
        for g in factors:
            pi = K.element([g[0], 1])
            assert pi.norm() % q == 0
            yield K, pi, q


def test_degenerate_plan_prime_keeps_the_multiple_exact(monkeypatch):
    # a prime with a residue field in which the witness minor vanishes
    # gives no minors next to it; the plan passes it over and stays exact.
    # In [[pi, 0], [0, 2], [pi, 1]] the witness is rows 0 and 1, with
    # determinant 2 * pi, and every minor is a multiple of pi: rank 1 where
    # pi vanishes.  In [[pi, 0], [0, 2], [1, 1]] rows 1 and 2 take the
    # pivots there, and they are the witness when pi vanishes at the probe:
    # when q is the first plan prime, over Q and for one factor over Q(i).
    # Over Q(sqrt -5) the probe runs at an inert prime and never sees pi vanish
    plans = []
    real = residues.plan_usable_primes

    def spy(field, log_bound, usable):
        plan = real(field, log_bound, usable)
        if usable is not None:
            plans.append(plan.primes)
        return plan

    monkeypatch.setattr(residues, "plan_usable_primes", spy)
    passed_over = 0
    for K, pi, q in degenerate_cases():
        z, one, two = K.zero(), K.one(), K.from_int(2)
        u = FractionalIdeal.unit(K)
        for rows in ([[pi, z], [z, two], [pi, one]], [[pi, z], [z, two], [one, one]]):
            plans.clear()
            mult, factor = _elimination_multiple(K, rows, [u] * 3,
                                                 ReducedBasisCache(K.lattice_context))
            assert factor is None
            assert mult == maximal_minor_sum(K, rows, [u] * 3)
            assert len(plans) == 1
            rank, ridx, cidx, delta = rank_and_submatrix(K, rows)
            assert (rank, cidx) == (2, (0, 1))
            assert delta == cofactor_det(K, [rows[i] for i in ridx])
            if ridx == (0, 1):
                assert delta == 2 * pi and q not in plans[0]
                passed_over += 1
    assert passed_over == 10


SMALL_PRIMES = [(name, p) for name in ALL_FIELDS for p in (2, 3, 5, 7)
                if get_field(name).disc_f % p]


def test_small_primes_give_every_factor_degree():
    degrees = {len(g) - 1 for name, p in SMALL_PRIMES
               for g in get_field(name).residue_system(p).factors}
    assert degrees == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("name,p", SMALL_PRIMES)
def test_eliminate_matches_dense_gauss_at_small_primes(name, p):
    K = get_field(name)
    sys = K.residue_system(p)
    local = seeded(f"test_determinant eliminate {name} {p}")
    for fi, g in enumerate(sys.factors):
        k = len(g) - 1
        for n, m in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (5, 3), (6, 4), (4, 2)):
            rows = random_matrix(local, K, n, m, lim=4)
            ref = projected(rows, sys, fi)
            planes, w = packed(rows, sys, fi)
            assert unpack(planes, m, w, p) == ref
            ridx, cidx, prod = _eliminate(planes, m, g, p, w)
            rank, ref_det = ref_rank_det(ref, g, p)
            assert len(ridx) == len(cidx) == rank
            assert cidx == sorted(cidx) and len(set(ridx)) == rank
            if n == m:
                assert dense(prod, k) == ref_det
            if rank:
                # the signed product of the pivots is the witness minor's determinant
                sub = [[rows[i][j] for j in cidx] for i in sorted(ridx)]
                _, _, sub_prod = run_eliminate(sub, sys, fi)
                _, sub_det = ref_rank_det(projected(sub, sys, fi), g, p)
                assert any(sub_det) and dense(sub_prod, k) == sub_det


@pytest.mark.parametrize("name,p", SMALL_PRIMES)
def test_extra_slots_hold_the_coefficients_on_the_pivot_rows(name, p):
    # with m extra slots, a row left without a pivot holds -x_r, where x_r
    # times the pivot rows, in pivot order, is the row; the pivot product
    # of a tall matrix is the determinant of the minor on its pivot rows
    K = get_field(name)
    sys = K.residue_system(p)
    local = seeded(f"test_determinant extra slots {name} {p}")
    for fi, g in enumerate(sys.factors):
        k = len(g) - 1
        for n, m in ((3, 2), (5, 3), (6, 4), (4, 4)):
            rows = random_matrix(local, K, n, m, lim=4)
            ref = projected(rows, sys, fi)
            planes, w = packed(rows, sys, fi)
            ridx, cidx, prod = _eliminate(planes, m, g, p, w, m)
            plain = run_eliminate(rows, sys, fi)
            assert (ridx, cidx) == tuple(plain[:2])
            if len(ridx) < m:
                assert prod == ()
                continue
            _, minor_det = ref_rank_det([ref[i] for i in sorted(ridx)], g, p)
            assert dense(prod, k) == minor_det
            mask = (1 << w) - 1
            for i in set(range(n)) - set(ridx):
                x = [tuple(-(pl[i] >> w * c & mask) % p for pl in planes) for c in range(m)]
                for j in range(m):
                    acc = (0,) * k
                    for xc, r in zip(x, ridx):
                        acc = tuple((a + b) % p for a, b in zip(acc, ref_mul(xc, ref[r][j], g, p)))
                    assert acc == ref[i][j]


def test_shifted_tails_match_the_reference():
    # out[t][s] is plane t of x^s * (-pivot^-1 * tail), packed with slot j
    # at bits [w*j, w*(j+1)): in degree 1 (Q and Q(i) at the first table
    # prime, where every residue field is F_p) the one packed tail, and in
    # the higher degrees of the small primes k planes of k shifts each
    local = seeded("test_determinant shifted tails")
    cases = [(g, p) for name, p in SMALL_PRIMES for g in get_field(name).residue_system(p).factors]
    top = residues._TOP_PRIMES[0]
    cases += [(g, top) for name in ("Q", "Qi") for g in get_field(name).residue_system(top).factors]
    assert {len(g) - 1 for g, _ in cases} == {1, 2, 3, 4, 5}
    for g, p in cases:
        k = len(g) - 1
        w = (k * p * p).bit_length() + 1
        for length in (0, 1, 5):
            entries = [tuple(local.randrange(p) for _ in range(k)) for _ in range(length)]
            pivot = (0,) * k
            while not any(pivot):
                pivot = tuple(local.randrange(p) for _ in range(k))
            neg_inv = tuple(-c % p for c in ref_inv(pivot, g, p))
            out = determinant._shifted_tails([[e[t] for e in entries] for t in range(k)],
                                             list(pivot), g, p, w)
            assert len(out) == k and all(len(planes) == k for planes in out)
            for s in range(k):
                x_s = tuple(int(t == s) for t in range(k))
                images = [ref_mul(x_s, ref_mul(neg_inv, e, g, p), g, p) for e in entries]
                for t in range(k):
                    assert out[t][s] == sum(v[t] << w * j for j, v in enumerate(images))


@pytest.mark.parametrize("name", ["Q", "Qi", "golden"])
def test_degree_one_residue_fields_match_the_oracles(name, monkeypatch):
    # det, rank_and_submatrix and the tall multiple where the eliminations
    # run in residue fields of degree 1, the base case of the pivot inverse,
    # the pivot product and the shifted tails; golden's first two plan
    # primes are inert, so its entries are large enough for its plans to
    # reach the split ones
    K = get_field(name)
    rng = seeded(f"test_determinant degree one {name}")
    degrees = []
    real = determinant._eliminate

    def spy(planes, m, g, p, w, extra=0):
        degrees.append(len(g) - 1)
        return real(planes, m, g, p, w, extra)

    monkeypatch.setattr(determinant, "_eliminate", spy)
    big = 1 << 80
    for n, lim in ((1, 5), (3, 9), (5, 10 ** 6), (6, big)):
        rows = random_matrix(rng, K, n, lim=lim)
        assert det(K, rows) == cofactor_det(K, rows)
        if n > 1:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
            assert det(K, rows) == cofactor_det(K, rows) == K.zero()
    assert 1 in degrees
    degrees.clear()
    for n, m, r, lim in ((4, 3, 3, 9), (6, 4, 3, 10 ** 6), (7, 4, 4, big), (7, 5, 2, big)):
        rows = random_matrix(rng, K, r, m, lim)
        for _ in range(n - r):
            coeffs = [K.from_int(rng.randint(-3, 3)) for _ in range(r)]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), K.zero())
                         for j in range(m)])
        rng.shuffle(rows)
        rank, ridx, cidx, delta = rank_and_submatrix(K, rows)
        assert rank == r and delta
        assert delta == cofactor_det(K, [[rows[i][j] for j in cidx] for i in ridx])
    assert 1 in degrees
    degrees.clear()
    # with one row past the witness, every other maximal minor shares all
    # but one row with it, so the tall multiple is the determinantal ideal
    for m, lim in ((2, 9), (3, 10 ** 6), (4, big)):
        rows = random_matrix(rng, K, m + 1, m, lim)
        ideals = [random_ideal(rng, K, fractional=True) for _ in range(m + 1)]
        mult, factor = _elimination_multiple(K, rows, ideals, ReducedBasisCache(K.lattice_context))
        assert factor is None and mult == maximal_minor_sum(K, rows, ideals)
    assert 1 in degrees


def test_a_16_by_16_determinant_over_qm5_takes_four_primes(monkeypatch):
    # entries up to 10^6 bound the determinant's coordinates by about 2^426:
    # four table primes below 2^126 cover that, where primes below 2^62 took
    # seven.  The value is checked through its norm, the integer determinant
    # of the 32 x 32 block matrix of the entries' regular representations
    K = get_field("Qm5")
    rng = seeded("test_determinant sixteen by sixteen")
    rows = random_matrix(rng, K, 16, lim=10 ** 6)
    plans = []
    real = residues.plan_primes

    def spy(field, log_bound):
        plans.append(real(field, log_bound))
        return plans[-1]

    monkeypatch.setattr(residues, "plan_primes", spy)
    value = det(K, rows)
    (plan,) = plans
    assert 420 < plan.log_bound < 432
    assert plan.primes == residues._TOP_PRIMES[:4]
    blocks = [[K.regular_representation(e) for e in row] for row in rows]
    flat = [[x for block in brow for x in block[i]] for brow in blocks for i in range(2)]
    assert det_bareiss(flat) == value.norm()


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_eliminate_at_word_size_without_carries(name):
    # residues near p fill every slot update with products near p^2
    K = get_field(name)
    p = plan_primes(K, 1).primes[0]
    sys = K.residue_system(p)
    local = seeded(f"test_determinant word size {name}")
    for fi, g in enumerate(sys.factors):
        k = len(g) - 1
        for n, m in ((8, 8), (10, 6)):
            rows = [[K.element([p - local.randint(1, 9) for _ in range(K.degree)])
                     for _ in range(m)] for _ in range(n)]
            ridx, cidx, prod = run_eliminate(rows, sys, fi)
            rank, ref_det = ref_rank_det(projected(rows, sys, fi), g, p)
            assert len(ridx) == rank
            if n == m:
                assert dense(prod, k) == ref_det


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_rank_of_matrices_built_to_rank(name):
    field = get_field(name)
    local = seeded(f"test_determinant built rank {name}")
    for n, m, r in ((3, 2, 1), (4, 3, 2), (6, 4, 3), (12, 8, 5)):
        # r rows with an identity block, and n - r small combinations of them
        cols = local.sample(range(m), m)
        basis = [[field.one() if cols[j] == i else field.zero() for j in range(m)]
                 for i in range(r)]
        for row in basis:
            for j in range(m):
                if cols[j] >= r:
                    row[j] = field.element([local.randint(-5, 5) for _ in range(field.degree)])
        rows = [row[:] for row in basis]
        for _ in range(n - r):
            coeffs = [field.from_int(local.randint(-3, 3)) for _ in range(r)]
            rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), field.zero())
                         for j in range(m)])
        local.shuffle(rows)
        s, ridx, cidx, ds = rank_and_submatrix(field, rows)
        assert s == r and len(ridx) == len(cidx) == r
        sub = [[rows[i][j] for j in cidx] for i in ridx]
        assert ds and ds == laplace_det(field, sub)


def test_det_of_one_by_one_and_zero_matrices(field):
    rng = seeded("test_determinant::test_det_of_one_by_one_and_zero_matrices")
    for _ in range(3):
        a = random_matrix(rng, field, 1)
        assert det(field, a) == a[0][0]
    zero = field.zero()
    assert det(field, [[zero]]) == zero
    assert det(field, [[zero] * 3 for _ in range(3)]) == zero
    assert rank_and_submatrix(field, [[zero] * 2 for _ in range(3)]) == (0, (), (), field.one())
    sys = field.residue_system(plan_primes(field, 1).primes[0])
    for fi in range(len(sys.factors)):
        assert run_eliminate([[zero] * 3 for _ in range(3)], sys, fi) == ([], [], ())
        assert run_eliminate([[field.one()]], sys, fi) == ([0], [0], (1,))


def test_pivots_in_the_last_column(field):
    one, zero = field.one(), field.zero()
    a = field.element([3] + [1] * (field.degree - 1))
    # anti-diagonal: every pivot row is found last in its column's scan
    anti = [[a if i + j == 3 else zero for j in range(4)] for i in range(4)]
    assert det(field, anti) == a * a * a * a
    # only the last column is nonzero: one pivot, in the last column, with
    # further rows to clear and an empty tail
    last = [[zero, zero, field.from_int(i + 1)] for i in range(4)]
    assert rank_and_submatrix(field, last) == (1, (0,), (2,), one)
    sys = field.residue_system(plan_primes(field, 1).primes[0])
    for fi in range(len(sys.factors)):
        assert run_eliminate(last, sys, fi)[:2] == ([0], [2])


def test_entries_vanishing_mod_the_first_prime(field):
    # multiples of the first plan prime vanish there, so the pivots at that
    # prime differ from those over K
    rng = seeded("test_determinant::test_entries_vanishing_mod_the_first_prime")
    q = plan_primes(field, 1).primes[0]
    for _ in range(3):
        base = random_matrix(rng, field, 4, lim=3)
        rows = [[e * q if (i + j) % 3 else e for j, e in enumerate(row)]
                for i, row in enumerate(base)]
        assert det(field, rows) == laplace_det(field, rows)
    rows = [[field.from_int(q), field.one()], [field.one(), field.zero()]]
    assert det(field, rows) == field.from_int(-1)


@pytest.mark.parametrize("name", ["Qm5", "cubic"])
def test_tall_twelve_by_eight(name):
    field = get_field(name)
    local = seeded(f"test_determinant tall {name}")
    rows = random_matrix(local, field, 12, 8, lim=9)
    s, ridx, cidx, ds = rank_and_submatrix(field, rows)
    assert s == 8 and cidx == tuple(range(8)) and len(ridx) == 8
    sub = [[rows[i][j] for j in cidx] for i in ridx]
    assert ds and ds == laplace_det(field, sub)
