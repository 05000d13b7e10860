"""Fractional ideal arithmetic in Hermite-form representation.

A fractional ideal is stored as an integral numerator ideal, given by its
unique lower-triangular Hermite basis over the integral basis, divided by a
minimal positive integer denominator.  Every Hermite computation runs
through ``hnf_with_modulus`` with a known multiple of the largest elementary
divisor (products and gcds of ideal minima and norms), which is what keeps
the entries small.

Identities skip the Hermite kernel where the answer is known: ``O_K`` is
recognized from its minimum in O(1), ``a * O_K = a`` and ``O_K^-1 = O_K``,
and multiplying by a rational p/q scales the Hermite numerator by |p| and the
denominator by q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .numberfield import FieldElement, NumberField
from .numeric import log2_ub
from .zlinalg import Mat, hnf_with_modulus, identity, mat_mul, solve_left, transpose


class IdealError(ValueError):
    pass


def _vec_mul(field: NumberField, u, v) -> list[int]:
    """Coefficient vector of the product of two integral coefficient vectors."""
    d = field.degree
    out = [0] * d
    struct = field.struct
    for i, ui in enumerate(u):
        if not ui:
            continue
        srow = struct[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            t = ui * vj
            sij = srow[j]
            for k in range(d):
                if sij[k]:
                    out[k] += t * sij[k]
    return out


class FractionalIdeal:
    """Nonzero fractional ideal of the ring of integers of a number field."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: Mat, den: int = 1):
        d = field.degree
        if len(num) != d or any(len(r) != d for r in num):
            raise IdealError("numerator must be a d x d matrix")
        if den <= 0:
            raise IdealError("denominator must be positive")
        for i in range(d):
            if num[i][i] <= 0:
                raise IdealError("numerator is not a full-rank Hermite basis")
            if any(num[i][j] for j in range(i + 1, d)):
                raise IdealError("numerator is not lower triangular")
        g = den
        for row in num:
            for x in row:
                g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        self.field = field
        self.num = tuple(tuple(row) for row in num)
        self.den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_row_lattice(cls, field: NumberField, rows: Mat, den: int,
                         multiple: int) -> "FractionalIdeal":
        """Ideal den^-1 * (Z-lattice of the rows); the rows must already span
        an O_K-stable lattice.  ``multiple`` is any positive integer with
        multiple * Z^d inside the row span.
        """
        work = [list(r) for r in rows if any(r)]
        if not work:
            raise IdealError("zero ideal is not representable")
        return cls(field, hnf_with_modulus(work, multiple), den)

    @classmethod
    def from_generators(cls, field: NumberField, gens) -> "FractionalIdeal":
        """Smallest fractional ideal containing the given field elements."""
        gens = [g for g in gens if g]
        if not gens:
            raise IdealError("at least one nonzero generator required")
        den = 1
        for g in gens:
            den = den * g.den // gcd(den, g.den)
        rows: Mat = []
        lam = 0
        for g in gens:
            scaled = field.element([c * (den // g.den) for c in g.coeffs])
            m = field.regular_representation(scaled)
            rows.extend(m)
            lam = gcd(lam, abs(field.norm(scaled).numerator))
        return cls.from_row_lattice(field, rows, den, multiple=lam)

    @classmethod
    def principal(cls, field: NumberField, elt: FieldElement) -> "FractionalIdeal":
        return cls.from_generators(field, [elt])

    @classmethod
    def unit(cls, field: NumberField) -> "FractionalIdeal":
        return cls(field, identity(field.degree), 1)

    @classmethod
    def from_rational(cls, field: NumberField, q) -> "FractionalIdeal":
        q = Fraction(q)
        if q == 0:
            raise IdealError("zero ideal is not representable")
        num = [[abs(q.numerator) if i == j else 0 for j in range(field.degree)]
               for i in range(field.degree)]
        return cls(field, num, q.denominator)

    # -- basic structure -----------------------------------------------------

    def is_integral(self) -> bool:
        return self.den == 1

    def is_unit(self) -> bool:
        """Whether this is O_K: an integral ideal of minimum 1 contains 1, the
        first integral basis element."""
        return self.den == 1 and self.num[0][0] == 1

    def minimum(self) -> int:
        """Smallest positive rational integer in the ideal (integral ideals only)."""
        if self.den != 1:
            raise IdealError("minimum is defined for integral ideals")
        return self.num[0][0]

    def norm(self) -> Fraction:
        det = 1
        for i in range(self.field.degree):
            det *= self.num[i][i]
        return Fraction(det, self.den ** self.field.degree)

    def size(self) -> Fraction:
        d = self.field.degree
        s = Fraction(0)
        if self.num[0][0] > 1:
            s += d * d * log2_ub(self.num[0][0])
        if self.den > 1:
            s += d * d * log2_ub(self.den)
        return s

    def basis_elements(self) -> list[FieldElement]:
        return [FieldElement(self.field, list(row), self.den) for row in self.num]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        return (self.field is other.field and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def __repr__(self) -> str:
        return f"FractionalIdeal(num={[list(r) for r in self.num]}, den={self.den})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        self._same_field(other)
        k, l = self.den, other.den
        g = gcd(k, l)
        big = k * (l // g)
        sa = big // k
        sb = big // l
        rows_a = [[x * sa for x in row] for row in self.num]
        rows_b = [[x * sb for x in row] for row in other.num]
        lam = gcd(rows_a[0][0], rows_b[0][0])
        return FractionalIdeal.from_row_lattice(self.field, rows_a + rows_b, big,
                                                multiple=lam)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.elt_mul(other)
        if isinstance(other, int):
            return self.int_mul(other)
        self._same_field(other)
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        field = self.field
        rows: Mat = []
        for u in self.num:
            for v in other.num:
                rows.append(_vec_mul(field, u, v))
        lam = self.num[0][0] * other.num[0][0]
        return FractionalIdeal.from_row_lattice(field, rows, self.den * other.den,
                                                multiple=lam)

    __rmul__ = __mul__

    def __truediv__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        return self * other.inverse()

    def elt_mul(self, alpha: FieldElement) -> "FractionalIdeal":
        if not alpha:
            raise IdealError("multiplication by the zero element")
        field = self.field
        d = field.degree
        if not any(alpha.coeffs[1:]):
            # a rational p/q: |p| times a Hermite basis is a Hermite basis
            p = abs(alpha.coeffs[0])
            return FractionalIdeal(field, [[x * p for x in row] for row in self.num],
                                   self.den * alpha.den)
        num_elt = field.element(list(alpha.coeffs))
        m = field.regular_representation(num_elt)
        rows = [[sum(u[i] * m[i][k] for i in range(d)) for k in range(d)]
                for u in self.num]
        lam = abs(field.norm(num_elt).numerator) * self.num[0][0]
        return FractionalIdeal.from_row_lattice(field, rows, self.den * alpha.den,
                                                multiple=lam)

    def int_mul(self, m: int) -> "FractionalIdeal":
        if m == 0:
            raise IdealError("multiplication by zero")
        m = abs(m)
        return FractionalIdeal(self.field, [[x * m for x in row] for row in self.num],
                               self.den)

    def inverse(self) -> "FractionalIdeal":
        """Exact inverse via the trace dual.

        For the integral numerator b, let H be the Hermite basis of the
        product b * B, where T is the trace matrix and B = den(T^-1) *
        (codifferent) the codifferent numerator.  The trace dual of b * B is
        den(T^-1)^-1 * b^-1, so the rows of X with X * T * H^t = den(T^-1) * I
        span b^-1.  For X = N / D, D * Z^d lies in the span of N because b^-1
        contains O_K.
        """
        if self.is_unit():
            return self
        field = self.field
        d = field.degree
        numerator = self if self.den == 1 else FractionalIdeal(field, self.num, 1)
        h = (numerator * field.codifferent_numerator).num
        rhs = [[field.trace_den if i == j else 0 for j in range(d)] for i in range(d)]
        num, den = solve_left(mat_mul(field.trace_mat, transpose(h)), rhs)
        inv_integral = FractionalIdeal(field, hnf_with_modulus(num, den), den)
        return inv_integral.int_mul(self.den) if self.den > 1 else inv_integral

    # -- predicates ------------------------------------------------------------

    def contains(self, alpha: FieldElement) -> bool:
        """Whether den * alpha lies in the lattice of the Hermite numerator,
        decided by exact division from the last column."""
        if not alpha:
            return True
        v = []
        for c in alpha.coeffs:
            q, r = divmod(c * self.den, alpha.den)
            if r:
                return False
            v.append(q)
        for j in range(self.field.degree - 1, -1, -1):
            row = self.num[j]
            q, r = divmod(v[j], row[j])
            if r:
                return False
            if q:
                for k in range(j):
                    v[k] -= q * row[k]
        return True

    __contains__ = contains

    def is_subset(self, other: "FractionalIdeal") -> bool:
        self._same_field(other)
        k, l = self.den, other.den
        g = gcd(k, l)
        big = k * (l // g)
        rows_a = [[x * (big // k) for x in row] for row in self.num]
        rows_b = [[x * (big // l) for x in row] for row in other.num]
        lam = rows_b[0][0]
        return hnf_with_modulus(rows_a + rows_b, lam) == rows_b

    def _same_field(self, other: "FractionalIdeal") -> None:
        if not isinstance(other, FractionalIdeal):
            raise TypeError("expected a fractional ideal")
        if other.field is not self.field:
            raise IdealError("ideals of different fields")


def idempotents(a: FractionalIdeal, b: FractionalIdeal) -> tuple[FieldElement, FieldElement]:
    """Elements alpha in a and beta in b with alpha + beta = 1, for coprime
    integral ideals.

    Reads alpha off the first row of the lower-left block of the Hermite form
    of the stacked 2d x 2d matrix [[Ma, Ma], [0, Mb]].  Its lower-right block
    is the Hermite basis of a + b (lam * Z^(2d) lies in the span), so the
    ideals are coprime exactly when its first pivot is 1.
    """
    if not (a.is_integral() and b.is_integral()):
        raise IdealError("idempotents require integral ideals")
    a._same_field(b)
    field = a.field
    d = field.degree
    big: Mat = []
    for row in a.num:
        big.append(list(row) + list(row))
    for row in b.num:
        big.append([0] * d + list(row))
    lam = a.num[0][0] * b.num[0][0]
    h = hnf_with_modulus(big, lam)
    if h[d][d] != 1:
        raise IdealError("ideals are not coprime")
    v = h[d][:d]
    alpha = field.element(v)
    beta = field.one() + (-alpha)
    if not (a.contains(alpha) and b.contains(beta)):
        raise IdealError("internal error: idempotent postcondition failed")
    return alpha, beta
