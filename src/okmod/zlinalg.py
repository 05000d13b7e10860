"""Exact integer matrix kernels: HNF, modular HNF, exact solving, SNF.

Matrices are dense ``list[list[int]]`` with arbitrary-precision entries and
rows spanning the lattice.  Hermite forms are lower triangular with positive
diagonal and every entry below a pivot reduced into ``[0, pivot)``, so the
(1,1) entry of an ideal basis is the ideal's minimum.

``hnf_with_modulus`` is the Hermite form modulo a known multiple ``lam``
(Domich, Kannan and Trotter; Cohen, GTM 138, Alg. 2.4.8): it never lets an
entry grow past ``lam``; every caller knows such a multiple (a norm or a
minimum of an ideal, ``|det A|`` or ``det(A^t A)``), so no unbounded echelon
form is needed.
"""

from __future__ import annotations

from math import gcd

Mat = list[list[int]]


class RankDeficiencyError(ValueError):
    """Raised when a matrix does not have the full column rank an operation needs."""


class SingularMatrixError(RankDeficiencyError):
    """Raised when a square system has no unique solution: a singular square
    matrix lacks full column rank."""


def shape(a: Mat) -> tuple[int, int]:
    if not a or not a[0]:
        raise ValueError("empty matrix")
    if len(set(map(len, a))) != 1:
        raise ValueError("ragged matrix")
    return len(a), len(a[0])


def identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(n: int, m: int) -> Mat:
    return [[0] * m for _ in range(n)]


def mat_copy(a: Mat) -> Mat:
    return [row[:] for row in a]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2:
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def vec_mat(v: list[int], a: Mat) -> list[int]:
    """Row vector times matrix."""
    n, m = shape(a)
    if len(v) != n:
        raise ValueError("dimension mismatch")
    return [sum(v[i] * a[i][j] for i in range(n)) for j in range(m)]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0.

    v is the inverse of b/g modulo |a/g| (C-level ``pow``), and u follows by
    exact division; a zero input or a/g = +-1 is answered directly.
    """
    g = gcd(a, b)
    if not b:
        return g, -1 if a < 0 else 1, 0
    if not a:
        return g, 0, -1 if b < 0 else 1
    a1, b1 = a // g, b // g
    if a1 == 1 or a1 == -1:
        return g, a1, 0
    v = pow(b1, -1, abs(a1))
    return g, (1 - v * b1) // a1, v


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf_with_modulus(a: Mat, lam: int) -> Mat:
    """Hermite normal form of span(a) + lam * Z^m, with no entry above lam.

    Equal to the Hermite form of span(a) whenever lam * Z^m lies inside it.
    The rows are reduced mod lam.  Each column j, from the last, starts a
    pivot with value p = lam and row lam * e_j, of which only the p and the
    j entries left of it are kept.  Every row with a nonzero j-th entry y is
    folded into it: when p divides y, the row just drops q = y / p times
    the pivot, which is what the extended gcd would give, and the pivot
    stays; otherwise the extended gcd of p and y rebuilds both.  Column j
    comes out exact and the columns left of it mod lam, since lam * e_k for
    k < j is still to be added.  Rows left with a zero in column j go on to
    the next column.  The entries left of each pivot are reduced into
    [0, pivot) at the end.
    """
    if lam <= 0:
        raise ValueError("modulus must be positive")
    _, m = shape(a)
    work = [[x % lam for x in row] for row in a]
    out: Mat = []
    for j in range(m - 1, -1, -1):
        p, piv = lam, [0] * j
        rest = []
        for row in work:
            y = row[j]
            if not y:
                row = row[:j]
            elif y % p:
                g, u, v = ext_gcd(p, y)
                s, t = p // g, y // g
                piv, row = ([(u * w + v * x) % lam for w, x in zip(piv, row)],
                            [(s * x - t * w) % lam for w, x in zip(piv, row)])
                p = g
            else:
                q = y // p
                row = [(x - q * w) % lam for w, x in zip(piv, row)]
            if any(row):
                rest.append(row)
        out.append(piv + [p] + [0] * (m - 1 - j))
        work = rest
    out.reverse()
    for i in range(m):
        row = out[i]
        for k in range(i - 1, -1, -1):
            q = row[k] // out[k][k]
            if q:
                row = [x - q * y for x, y in zip(row, out[k])]
        out[i] = row
    return out


# ---------------------------------------------------------------------------
# Exact linear solving


def solve_left(a: Mat, b: Mat) -> tuple[Mat, int]:
    """Exact rational X with X * a = b (row convention), ``a`` square nonsingular.

    Fraction-free Gauss-Jordan elimination on the transposed system
    a^t X^t = b^t: each step divides exactly by the previous pivot, so every
    entry stays an integer minor.  Returns (N, D) with X = N / D, D > 0 and
    gcd(D, entries of N) = 1, i.e. D is the least common denominator of X.
    ``solve_left(a, identity(n))`` is the inverse of ``a``.
    """
    n, m = shape(a)
    if n != m:
        raise ValueError("matrix not square")
    if any(len(row) != n for row in b):
        raise ValueError("dimension mismatch")
    work = [list(col) + [row[i] for row in b] for i, col in enumerate(zip(*a))]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        prow = work[col]
        p = prow[col]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [(p * x - f * y) // prev for x, y in zip(work[r], prow)]
        prev = p
    # every diagonal entry now equals the last pivot, +-det(a)
    num = [[work[i][n + t] for i in range(n)] for t in range(len(b))]
    g = gcd(prev, *(x for row in num for x in row))
    if prev < 0:
        g = -g
    return [[x // g for x in row] for row in num], prev // g


def det_bareiss(a: Mat) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n, m = shape(a)
    if n != m:
        raise ValueError("matrix not square")
    w = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if w[r][k]), None)
            if piv is None:
                return 0
            w[k], w[piv] = w[piv], w[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Integer Smith normal form (test oracle)


def z_snf(a: Mat) -> Mat:
    """Smith normal form over Z with nonnegative divisors in a divisibility chain.

    Elementary row/column operation algorithm; used as an oracle, not in any
    production path.
    """
    n, m = shape(a)
    w = mat_copy(a)

    def min_nonzero(t: int) -> tuple[int, int] | None:
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = abs(w[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        return piv

    t = 0
    while t < min(n, m):
        piv = min_nonzero(t)
        if piv is None:
            break
        while True:
            i, j = piv
            w[t], w[i] = w[i], w[t]
            for row in w:
                row[t], row[j] = row[j], row[t]
            p = w[t][t]
            dirty = False
            for i2 in range(t + 1, n):
                if w[i2][t]:
                    q = w[i2][t] // p
                    w[i2] = [x - q * y for x, y in zip(w[i2], w[t])]
                    dirty = dirty or w[i2][t] != 0
            for j2 in range(t + 1, m):
                if w[t][j2]:
                    q = w[t][j2] // p
                    for row in w:
                        row[j2] -= q * row[t]
                    dirty = dirty or w[t][j2] != 0
            if not dirty:
                break
            piv = min_nonzero(t)
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        offender = None
        for i2 in range(t + 1, n):
            if any(w[i2][j2] % w[t][t] for j2 in range(t + 1, m)):
                offender = i2
                break
        if offender is not None:
            w[t] = [x + y for x, y in zip(w[t], w[offender])]
            continue
        t += 1
    out = zero_matrix(n, m)
    for i in range(min(n, m)):
        out[i][i] = abs(w[i][i])
    return out
