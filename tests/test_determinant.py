"""Multi-modular determinants, rank probing, determinantal ideals."""

from itertools import combinations

import pytest

from okmod import (FractionalIdeal, det, det_bound, determinantal_ideal,
                   determinantal_ideal_multiple, plan_primes, project_element,
                   rank_and_submatrix)
from okmod.determinant import (_eliminate, _packed_planes, _slot_width, entry_height,
                               product_of_ideals)
from okmod.pseudo_hnf import PseudoMatrix
from okmod.zlinalg import SingularMatrixError, RankDeficiencyError

from conftest import ALL_FIELDS, get_field, random_ideal, seeded

rng = seeded("test_determinant")


def cofactor_det(field, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = field.zero()
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(field, minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def random_matrix(field, n, m=None, lim=9, gen=None):
    m = m or n
    gen = gen or rng
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


def run_eliminate(rows, sys, fi):
    g, mat, p = sys.factors[fi], sys.proj_mats[fi], sys.p
    m = len(rows[0]) if rows else 0
    w = _slot_width(p, len(rows), len(g) - 1)
    return _eliminate(_packed_planes(rows, mat, p, w), m, g, p, w)


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
    K = get_field("Qi")
    for _ in range(5):
        rows = random_matrix(K, 2)
        d = cofactor_det(K, rows)
        bound = det_bound(K, 2, entry_height(rows))
        coeff = max((abs(c) for c in d.coeffs), default=0)
        if coeff:
            from okmod.numeric import log2_ub
            assert log2_ub(2 * coeff) <= bound


@pytest.mark.parametrize("field", ALL_FIELDS, indirect=True)
def test_det_matches_cofactor_oracle(field):
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            rows = random_matrix(field, n)
            assert det(field, rows) == cofactor_det(field, rows)


def test_det_multiplicative(field):
    n = 3
    for _ in range(3):
        a = random_matrix(field, n, lim=5)
        b = random_matrix(field, n, lim=5)
        ab = [[sum((a[i][k] * b[k][j] for k in range(n)), field.zero())
               for j in range(n)] for i in range(n)]
        assert det(field, ab) == det(field, a) * det(field, b)


def test_det_rejects_fractional():
    K = get_field("Qi")
    with pytest.raises(ValueError):
        det(K, [[K.element([1, 0], 2)]])


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
    for _ in range(4):
        n, m = 4, 2
        rows = random_matrix(field, n, m, lim=4)
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


def test_determinantal_multiple_contained_in_gcd_oracle(field):
    u = FractionalIdeal.unit(field)
    for _ in range(3):
        n, m = 5, 3
        rows = random_matrix(field, n, m, lim=4)
        ideals = [random_ideal(rng, field) if rng.random() < 0.4 else u for _ in range(n)]
        pm = PseudoMatrix(field, rows, ideals)
        try:
            mult = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        # brute-force gcd of all maximal-minor determinantal ideals
        gcd_ideal = None
        for rs_ in combinations(range(n), m):
            sub = [[rows[i][j] for j in range(m)] for i in rs_]
            d = cofactor_det(field, sub)
            if not d:
                continue
            term = product_of_ideals([ideals[i] for i in rs_]).elt_mul(d)
            gcd_ideal = term if gcd_ideal is None else gcd_ideal + term
        assert gcd_ideal is not None
        assert mult.is_subset(gcd_ideal)


def test_rank_deficient_multiple_raises():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    one = K.one()
    pm = PseudoMatrix(K, [[one, one], [one, one], [one, one]], [u] * 3)
    with pytest.raises(RankDeficiencyError):
        determinantal_ideal_multiple(pm)


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
            rows = random_matrix(K, n, m, lim=4, gen=local)
            ref = projected(rows, sys, fi)
            w = _slot_width(p, n, k)
            planes = _packed_planes(rows, sys.proj_mats[fi], p, w)
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


@pytest.mark.parametrize("name", ["Q", "Qi", "cubic"])
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
    for _ in range(3):
        a = random_matrix(field, 1)
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
    q = plan_primes(field, 1).primes[0]
    for _ in range(3):
        base = random_matrix(field, 4, lim=3)
        rows = [[e * q if (i + j) % 3 else e for j, e in enumerate(row)]
                for i, row in enumerate(base)]
        assert det(field, rows) == laplace_det(field, rows)
    rows = [[field.from_int(q), field.one()], [field.one(), field.zero()]]
    assert det(field, rows) == field.from_int(-1)


@pytest.mark.parametrize("name", ["Qm5", "cubic"])
def test_tall_twelve_by_eight(name):
    field = get_field(name)
    local = seeded(f"test_determinant tall {name}")
    rows = random_matrix(field, 12, 8, lim=9, gen=local)
    s, ridx, cidx, ds = rank_and_submatrix(field, rows)
    assert s == 8 and cidx == tuple(range(8)) and len(ridx) == 8
    sub = [[rows[i][j] for j in cidx] for i in ridx]
    assert ds and ds == laplace_det(field, sub)
