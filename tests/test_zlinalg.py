import random
from fractions import Fraction
from math import gcd
import pytest

from okmod import zlinalg as zl

from conftest import hnf

SEED = 20240817
print(f"[seed] test_zlinalg seed={SEED}")


def reference_hnf(a):
    """Brute-force row reduction over Z, independent of the reference ``hnf``.

    Builds the lower-triangular form column by column from the right using
    plain gcd combinations of rows.
    """
    n, m = zl.shape(a)
    rows = [r[:] for r in a]
    out = []
    for col in range(m - 1, -1, -1):
        # combine every row with a nonzero trailing entry into one
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            raise zl.RankDeficiencyError("rank deficient")
        piv = live[0]
        for r in live[1:]:
            while r[col]:
                if abs(r[col]) < abs(piv[col]):
                    piv, r = r, piv
                q = r[col] // piv[col]
                r = [x - q * y for x, y in zip(r, piv)]
            rest.append(r)
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        rows = rest
    out.reverse()
    # reduce below-diagonal entries, rightmost column first so earlier
    # reductions are not disturbed (pivot rows have zeros to their right)
    for i in range(m):
        for j in range(i - 1, -1, -1):
            q = out[i][j] // out[j][j]
            if q:
                out[i] = [x - q * y for x, y in zip(out[i], out[j])]
    return out


def test_hnf_trivial_cases():
    assert hnf([[2]]) == [[2]]
    for n in (1, 2, 4):
        assert hnf(zl.identity(n)) == zl.identity(n)


def test_hnf_derived_example():
    assert hnf([[1, 1], [-1, 1]]) == [[2, 0], [1, 1]]


def test_hnf_matches_reference_on_random_inputs():
    rng = random.Random(SEED)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        try:
            expected = reference_hnf(a)
        except zl.RankDeficiencyError:
            with pytest.raises(zl.RankDeficiencyError):
                hnf(a)
            continue
        assert hnf(a) == expected


def test_hnf_rank_deficiency_error():
    with pytest.raises(zl.RankDeficiencyError):
        hnf([[1, 2], [2, 4]])


def test_hnf_row_span_preserved():
    rng = random.Random(SEED + 1)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = m + rng.randint(0, 2)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        try:
            h = hnf(a)
        except zl.RankDeficiencyError:
            continue
        # rows of a lie in the span of h and vice versa (exact solving)
        _, den = zl.solve_left(h, a)
        assert den == 1
        # h rows in span of a: stack and compare spans via hnf equality
        assert hnf(a + h) == h


def test_hnf_with_modulus_trivial():
    assert zl.hnf_with_modulus([[2]], 2) == [[2]]


def test_hnf_with_modulus_examples():
    assert zl.hnf_with_modulus([[1, 1], [-1, 1]], 2) == hnf([[1, 1], [-1, 1], [2, 0], [0, 2]])
    assert zl.hnf_with_modulus([[6], [10]], 2) == [[2]]


def test_hnf_with_modulus_matches_stacked_hnf():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        lam = rng.randint(1, 30)
        a = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
        a += [[lam if i == j else 0 for j in range(m)] for i in range(m)]
        expected = hnf(a)
        assert zl.hnf_with_modulus(a, lam) == expected


def with_modulus_rows(a, lam):
    m = len(a[0])
    return a + [[lam if i == j else 0 for j in range(m)] for i in range(m)]


def test_hnf_with_modulus_is_hnf_of_span_plus_modulus():
    # the lam * I rows are not part of the input: the result is the HNF of
    # span(a) + lam * Z^m whether or not lam * Z^m lies in span(a)
    rng = random.Random(SEED + 4)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        lam = rng.choice([1, 2, 12, rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 12)])
        a = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)] for _ in range(n)]
        h = zl.hnf_with_modulus(a, lam)
        assert h == hnf(with_modulus_rows(a, lam))
        assert all(0 <= x <= lam for row in h for x in row)


def test_ext_gcd_bezout_identity():
    edge = [(0, 0), (0, 5), (0, -5), (7, 0), (-7, 0), (1, 1), (-1, 1), (1, -1),
            (6, 3), (-6, 3), (3, 6), (3, -6), (12, 18), (-12, -18), (1, 10 ** 40),
            (10 ** 40 + 1, -(10 ** 40)), (2 ** 64, 2 ** 63)]
    rng = random.Random(SEED)
    pairs = edge + [(rng.randint(-10 ** d, 10 ** d), rng.randint(-10 ** d, 10 ** d))
                    for d in (1, 3, 12, 40) for _ in range(50)]
    for a, b in pairs:
        g, u, v = zl.ext_gcd(a, b)
        assert u * a + v * b == g == gcd(a, b), (a, b)


def test_hnf_with_modulus_edge_cases():
    # lam = 1: the whole of Z^m
    assert zl.hnf_with_modulus([[5, 7, -3]], 1) == zl.identity(3)
    # fewer rows than columns
    a = [[4, 6, 2]]
    assert zl.hnf_with_modulus(a, 8) == hnf(with_modulus_rows(a, 8))
    # all-zero rows, alone and among others
    assert zl.hnf_with_modulus([[0, 0], [0, 0]], 6) == [[6, 0], [0, 6]]
    a = [[0, 0, 0], [3, 0, 9], [0, 0, 0]]
    assert zl.hnf_with_modulus(a, 9) == hnf(with_modulus_rows(a, 9))
    # a pivot equal to lam: no row reaches the last column
    a = [[2, 0], [1, 0]]
    assert zl.hnf_with_modulus(a, 10) == [[1, 0], [0, 10]]
    assert zl.hnf_with_modulus(a, 10) == hnf(with_modulus_rows(a, 10))
    with pytest.raises(ValueError):
        zl.hnf_with_modulus([[1]], 0)


def test_hnf_with_modulus_on_divisible_entries_and_zero_columns():
    # entries are small multiples of divisors of lam, so a pivot often
    # divides the next row's entry (the step with no extended gcd); some
    # columns are zero, and lam = 1 is among the moduli
    rng = random.Random(SEED + 5)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        lam = rng.choice([1, 2, 6, 12, 36, 2 ** 10, 720, 10 ** 12])
        divisors = [q for q in range(1, min(lam, 50) + 1) if lam % q == 0]
        zero_cols = {c for c in range(m) if rng.random() < 0.25}
        a = [[0 if c in zero_cols else rng.choice(divisors) * rng.randint(-4, 4)
              for c in range(m)] for _ in range(n)]
        h = zl.hnf_with_modulus(a, lam)
        assert h == hnf(with_modulus_rows(a, lam)), (a, lam)
        assert all(h[c][c] == lam for c in zero_cols)


def cramer_solve(a, b):
    det = zl.det_bareiss(a)
    n = len(a)
    out = []
    for i in range(n):
        cols = [[a[r][c] if c != i else b[r] for c in range(n)] for r in range(n)]
        out.append(Fraction(zl.det_bareiss(cols), det))
    return out


def solve_right(a, b):
    """x with a x = b, through the left solver on the transpose."""
    (num,), den = zl.solve_left(zl.transpose(a), [b])
    assert den > 0
    return [Fraction(x, den) for x in num]


def test_solve_left_trivial():
    assert solve_right([[2, 1], [1, 1]], [3, 2]) == [Fraction(1), Fraction(1)]
    b = [7, -3, 11]
    assert solve_right(zl.identity(3), b) == [Fraction(x) for x in b]


def test_solve_left_matches_cramer():
    rng = random.Random(SEED + 5)
    done = 0
    while done < 25:
        n = 5
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if zl.det_bareiss(a) == 0:
            continue
        b = [rng.randint(-20, 20) for _ in range(n)]
        assert solve_right(a, b) == cramer_solve(a, b)
        # the inverse form: lowest terms, and a^-1 * a = I exactly
        num, den = zl.solve_left(a, zl.identity(n))
        assert gcd(den, *(x for row in num for x in row)) == 1
        assert zl.mat_mul(num, a) == [[den * x for x in row] for row in zl.identity(n)]
        done += 1


def test_solve_left_orientation():
    a = [[2, 1], [1, 1]]
    (num,), den = zl.solve_left(a, [[3, 2]])
    x = [Fraction(v, den) for v in num]
    assert [x[0] * 2 + x[1] * 1, x[0] * 1 + x[1] * 1] == [3, 2]


def test_solve_left_singular_raises():
    with pytest.raises(zl.SingularMatrixError):
        solve_right([[1, 2], [2, 4]], [1, 1])


@pytest.mark.parametrize("ragged", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], [5, 6, 7]]])
def test_kernels_refuse_a_ragged_matrix(ragged):
    # the odd row may come first or last; mat_mul checks both factors
    square = [[1, 0], [0, 1]]
    calls = [lambda: zl.hnf_with_modulus(ragged, 6), lambda: zl.solve_left(ragged, square),
             lambda: zl.det_bareiss(ragged),
             lambda: zl.mat_mul(ragged, square), lambda: zl.mat_mul(square, ragged),
             lambda: zl.vec_mat([1] * len(ragged), ragged)]
    for call in calls:
        with pytest.raises(ValueError, match="ragged matrix"):
            call()


def test_z_snf_fixed_cases():
    assert zl.z_snf([[2, 0], [0, 6]]) == [[2, 0], [0, 6]]
    assert zl.z_snf([[2, 0], [0, 3]]) == [[1, 0], [0, 6]]
    assert zl.z_snf([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]


def test_z_snf_divisibility_and_det():
    rng = random.Random(SEED + 7)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        s = zl.z_snf(a)
        d = [s[i][i] for i in range(n)]
        for i in range(n - 1):
            if d[i + 1]:
                assert d[i + 1] % max(d[i], 1) == 0 if d[i] else d[i] == 0
            if d[i] == 0:
                assert d[i + 1] == 0
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(zl.det_bareiss(a))
