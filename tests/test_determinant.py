"""Multi-modular determinants, rank probing, determinantal ideals."""

from itertools import combinations

import pytest

from okmod import (FractionalIdeal, det, det_bound, determinantal_ideal,
                   determinantal_ideal_multiple, rank_and_submatrix)
from okmod.determinant import entry_height, product_of_ideals
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


def random_matrix(field, n, m=None, lim=9):
    m = m or n
    return [[field.element([rng.randint(-lim, lim) for _ in range(field.degree)])
             for _ in range(m)] for _ in range(n)]


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
