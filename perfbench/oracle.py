"""Output checks computed with sympy, apart from okmod.

Every field of the benchmark uses the power basis as its integral basis, so
an element with coefficient vector c and denominator k is the polynomial
(sum c_i x^i) / k modulo the defining polynomial f.  Products, determinants,
Hermite forms and norms are all computed here with sympy from that plain
data; okmod supplies only the inputs and the outputs under test.

Functions take plain data: an element is ``(coeffs, den)``, an ideal is
``(num, den)`` with ``num`` the d x d numerator basis rows, a pseudo-matrix is
``(rows, ideals)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from sympy import QQ, ZZ, Symbol
from sympy.polys.densearith import dup_mul, dup_rem
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form


class CheckFailed(AssertionError):
    pass


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _dup(coeffs):
    """Dense sympy polynomial (highest degree first) of a coefficient list."""
    out = [ZZ(int(c)) for c in reversed(coeffs)]
    while out and not out[0]:
        out.pop(0)
    return out


def _coeffs(dup, d):
    low = [int(c) for c in reversed(dup)]
    return low + [0] * (d - len(low))


class Field:
    """Multiplication modulo the defining polynomial, with sympy."""

    def __init__(self, poly):
        self.d = len(poly) - 1
        self.f = _dup(poly)

    def mul(self, a, b):
        """Product of two integer coefficient vectors, as a vector."""
        return _coeffs(dup_rem(dup_mul(_dup(a), _dup(b), ZZ), self.f, ZZ), self.d)


# -- lattices ------------------------------------------------------------------


def absolute_rows(F, rows, ideals):
    """Integer Z-basis rows of the module sum_i ideal_i * row_i in O_K^m."""
    out = []
    for row, (num, den) in zip(rows, ideals):
        for eps in num:
            flat = []
            for coeffs, k in row:
                prod_ = F.mul(eps, coeffs)
                scale = den * k
                _require(all(c % scale == 0 for c in prod_),
                         "module is not inside O_K^m")
                flat.extend(c // scale for c in prod_)
            out.append(flat)
    return out


def lattice_hnf(a):
    """Hermite form (sympy, modulo a nonzero maximal minor) of the row
    lattice of an integer matrix of full column rank."""
    ncols = len(a[0])
    at = DomainMatrix([[ZZ(x) for x in row] for row in a], (len(a), ncols), ZZ).transpose()
    _, pivots = at.to_field().rref()
    _require(len(pivots) == ncols, "lattice is not of full rank")
    minor = DomainMatrix([[ZZ(a[i][j]) for j in range(ncols)] for i in pivots],
                         (ncols, ncols), ZZ)
    dm = abs(int(minor.det()))
    h = hermite_normal_form(at, D=ZZ(dm))
    return [[int(x) for x in row] for row in h.to_list()]


def lattice_index(h):
    """Index in Z^n of the lattice with square Hermite form h."""
    return abs(prod(h[i][i] for i in range(len(h))))


def ideal_norm(d, num, den):
    n = int(DomainMatrix([[ZZ(x) for x in r] for r in num], (d, d), ZZ).det())
    return Fraction(abs(n), den ** d)


# -- checks ----------------------------------------------------------------------


def check_hnf_output(F, pm, out):
    """Shape of a pseudo-Hermite form, integral ideals, and the same module."""
    rows, ideals = out
    n, m = len(rows), len(rows[0])
    for r in range(m):
        _require(rows[r][r] == ([1] + [0] * (F.d - 1), 1), f"diagonal entry {r} is not 1")
        _require(all(not any(rows[r][t][0]) for t in range(r + 1, m)),
                 f"row {r} is not lower triangular")
    for r in range(m, n):
        _require(all(not any(e[0]) for e in rows[r]), f"row {r} is not zero")
    for num, den in ideals:
        _require(all(x % den == 0 for row in num for x in row), "ideal is not integral")
    _require(lattice_hnf(absolute_rows(F, *pm)) == lattice_hnf(absolute_rows(F, *out)),
             "output module differs from the input module")


def check_det(F, rows, value):
    """value equals the determinant of the polynomial matrix modulo f."""
    n = len(rows)
    dom = ZZ[Symbol("x")]
    mat = DomainMatrix([[dom.ring.from_list(_dup(c)) for c, _k in row] for row in rows],
                       (n, n), dom)
    det = mat.det()
    got = _coeffs(dup_rem(det.to_dense(), F.f, ZZ), F.d)
    _require(value == (got, 1), "determinant differs from sympy's")


def check_detideal(F, pm, ideal):
    """N(ideal) is a nonzero multiple of [O_K^m : M]."""
    num, den = ideal
    norm = ideal_norm(F.d, num, den)
    index = lattice_index(lattice_hnf(absolute_rows(F, *pm)))
    _require(norm != 0 and norm.denominator == 1 and norm.numerator % index == 0,
             "ideal norm is not a multiple of the module index")


def check_snf_chain(F, bp, chain):
    """Product of the divisor norms equals [M : N] for M = sum_i b_i e_i and
    N = sum_j a_j * column_j."""
    rows, row_ideals, col_ideals = bp
    n, d = len(rows), F.d
    big = []
    for j, (num, den) in enumerate(col_ideals):
        for eps in num:
            vec = []
            for i in range(n):
                coeffs, k = rows[i][j]
                vec.extend(Fraction(c, den * k) for c in F.mul(eps, coeffs))
            big.append(vec)
    det_n = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in big],
                         (n * d, n * d), QQ).det()
    index = Fraction(abs(int(det_n.numerator)), int(det_n.denominator))
    for num, den in row_ideals:
        index /= ideal_norm(d, num, den)
    chain_norm = prod(ideal_norm(d, num, den) for num, den in chain)
    _require(chain_norm == index, "divisor chain norm differs from the quotient index")
    _require(all(x % den == 0 for num, den in chain for r in num for x in r),
             "divisor is not integral")
