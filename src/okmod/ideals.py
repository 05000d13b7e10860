"""Fractional ideal arithmetic in Hermite-form representation.

A fractional ideal is stored as an integral numerator ideal, given by its
unique lower-triangular Hermite basis over the integral basis, divided by a
minimal positive integer denominator.  Every Hermite computation runs
through ``hnf_with_modulus`` with a known multiple of the largest elementary
divisor (products and gcds of ideal minima and norms), which is what keeps
the entries small.  An inverse is the trace dual of a product with the
codifferent numerator, solved by back substitution against its Hermite
basis, and a norm that bounds a Hermite computation is the element norm
from ``NumberField.norm``.

Identities skip the Hermite kernel where the answer is known: ``O_K`` is
recognized from its minimum in O(1), ``a * O_K = a`` and ``O_K^-1 = O_K``,
and multiplying by a rational p/q scales the Hermite numerator by |p| and the
denominator by q.  Containment is decided by memberships of a basis, with no
Hermite form.

Two constructors build ideals.  ``FractionalIdeal(field, num, den)`` is the
way in for values from outside: it checks that ``den > 0`` and that ``num``
is the reduced Hermite basis of an integral ideal, a d x d lower triangular
matrix with positive diagonal, each entry left of the diagonal in
[0, pivot of its column), whose rows times every basis element stay in its
lattice.  The module-private ``_make_ideal(field, num, den)`` trusts that
``num`` is the Hermite basis of an integral ideal and ``den > 0``, and only
divides out the content; the arithmetic here builds the Hermite forms it
computes through it, and ``numerator`` rewraps an ideal's Hermite basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .numberfield import FieldElement, NumberField
from .numeric import log2_ub
from .zlinalg import Mat, hnf_with_modulus, identity


class IdealError(ValueError):
    pass


_new_ideal = object.__new__


def _make_ideal(field: NumberField, num: Mat, den: int) -> "FractionalIdeal":
    """Ideal num / den with the content divided out, trusting that ``num`` is
    the Hermite basis of an integral ideal and ``den > 0``: no check.  For
    the Hermite forms the arithmetic computes; outside values go through
    ``FractionalIdeal``."""
    ideal = _new_ideal(FractionalIdeal)
    ideal.field = field
    ideal.num, ideal.den = _without_content(num, den)
    return ideal


def _without_content(num: Mat, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(num, den) divided by the gcd of den and every entry of num."""
    g = den
    for row in num:
        if g == 1:
            break
        g = gcd(g, *row)
    if g > 1:
        num = [[x // g for x in row] for row in num]
        den //= g
    return tuple(tuple(row) for row in num), den


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
            if any(not 0 <= num[i][k] < num[k][k] for k in range(i)):
                raise IdealError("numerator is not the Hermite basis of an ideal")
        self.field = field
        self.num, self.den = _without_content(num, den)
        omegas = identity(d)
        if not all(self._holds(field.coeff_mul(row, w), self.den)
                   for row in self.num for w in omegas):
            raise IdealError("numerator is not the Hermite basis of an ideal")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_row_lattice(cls, field: NumberField, rows: Mat, den: int,
                         multiple: int) -> "FractionalIdeal":
        """Ideal den^-1 * (Z-lattice of the rows); the rows must already span
        an O_K-stable lattice.  ``multiple`` is any positive integer with
        multiple * Z^d inside the row span.
        """
        if not any(map(any, rows)):
            raise IdealError("zero ideal is not representable")
        return _make_ideal(field, hnf_with_modulus(rows, multiple), den)

    @classmethod
    def from_generators(cls, field: NumberField, gens) -> "FractionalIdeal":
        """Smallest fractional ideal containing the given field elements."""
        for g in gens:
            _same_field_element(field, g)
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
            rows.extend(field.regular_representation(scaled))
            lam = gcd(lam, field.norm(scaled).numerator)
        return cls.from_row_lattice(field, rows, den, multiple=lam)

    @classmethod
    def principal(cls, field: NumberField, elt: FieldElement) -> "FractionalIdeal":
        return cls.from_generators(field, [elt])

    @classmethod
    def unit(cls, field: NumberField) -> "FractionalIdeal":
        return _make_ideal(field, identity(field.degree), 1)

    @classmethod
    def from_rational(cls, field: NumberField, q) -> "FractionalIdeal":
        q = Fraction(q)
        if q == 0:
            raise IdealError("zero ideal is not representable")
        num = [[abs(q.numerator) if i == j else 0 for j in range(field.degree)]
               for i in range(field.degree)]
        return _make_ideal(field, num, q.denominator)

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

    def numerator(self) -> "FractionalIdeal":
        """The integral ideal den * self, whose Hermite basis is ``num``."""
        return self if self.den == 1 else _make_ideal(self.field, self.num, 1)

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
                rows.append(field.coeff_mul(u, v))
        lam = self.num[0][0] * other.num[0][0]
        return FractionalIdeal.from_row_lattice(field, rows, self.den * other.den,
                                                multiple=lam)

    __rmul__ = __mul__

    def __truediv__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        return self * other.inverse()

    def elt_mul(self, alpha: FieldElement) -> "FractionalIdeal":
        _same_field_element(self.field, alpha)
        if not alpha:
            raise IdealError("multiplication by the zero element")
        field = self.field
        if not any(alpha.coeffs[1:]):
            # a rational p/q: |p| times a Hermite basis is a Hermite basis
            p = abs(alpha.coeffs[0])
            return _make_ideal(field, [[x * p for x in row] for row in self.num],
                               self.den * alpha.den)
        # N(den * alpha) lies in the ideal (den * alpha)
        lam = abs(field.norm(field.element(alpha.coeffs)).numerator) * self.num[0][0]
        rows = [field.coeff_mul(u, alpha.coeffs) for u in self.num]
        return FractionalIdeal.from_row_lattice(field, rows, self.den * alpha.den,
                                                multiple=lam)

    def int_mul(self, m: int) -> "FractionalIdeal":
        if m == 0:
            raise IdealError("multiplication by zero")
        m = abs(m)
        return _make_ideal(self.field, [[x * m for x in row] for row in self.num], self.den)

    def inverse(self) -> "FractionalIdeal":
        """Exact inverse via the trace dual.

        For the integral numerator b, let H be the Hermite basis of the
        product b * B, where T is the trace matrix and B = den(T^-1) *
        (codifferent) the codifferent numerator.  The trace dual of b * B is
        den(T^-1)^-1 * b^-1, so the rows of X with X * T * H^t = den(T^-1) * I
        span b^-1.  Since den(T^-1) * T^-1 is the field's ``trace_inv_num``,
        X solves H^t X = ``trace_inv_num``, a triangular system solved by
        back substitution.  For X = N / D, D * Z^d lies in the span of N
        because b^-1 contains O_K.
        """
        if self.is_unit():
            return self
        field = self.field
        h = (self.numerator() * field.codifferent_numerator).num
        num, den = _solve_transposed_lower(h, field.trace_inv_num)
        inv_integral = _make_ideal(field, hnf_with_modulus(num, den), den)
        return inv_integral.int_mul(self.den) if self.den > 1 else inv_integral

    # -- predicates ------------------------------------------------------------

    def contains(self, alpha: FieldElement) -> bool:
        """Whether den * alpha lies in the lattice of the Hermite numerator,
        decided by exact division from the last column."""
        _same_field_element(self.field, alpha)
        return self._holds(alpha.coeffs, alpha.den)

    __contains__ = contains

    def is_subset(self, other: "FractionalIdeal") -> bool:
        """Whether self lies in other: every Hermite basis element of self is
        a member of other."""
        self._same_field(other)
        return all(other._holds(row, self.den) for row in self.num)

    def _holds(self, coeffs, den: int) -> bool:
        """Whether the element coeffs / den is a member (``contains``)."""
        v = []
        for c in coeffs:
            q, r = divmod(c * self.den, den)
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

    def _same_field(self, other: "FractionalIdeal") -> None:
        if not isinstance(other, FractionalIdeal):
            raise TypeError("expected a fractional ideal")
        if other.field is not self.field:
            raise IdealError("ideals of different fields")


def _solve_transposed_lower(h: Mat, rhs: Mat) -> tuple[Mat, int]:
    """(N, D) with H^t (N / D) = rhs for a lower triangular H with positive
    diagonal, D > 0 the least common denominator, by back substitution.

    Row i of X = N / D is (rhs_i - sum_(k>i) H[k][i] X_k) / H[i][i]; the
    rows below stay over one running denominator, which grows by the part
    of H[i][i] that the new row does not cancel.
    """
    d = len(h)
    rows: list = [None] * d
    den = 1
    for i in range(d - 1, -1, -1):
        v = [den * x for x in rhs[i]]
        for k in range(i + 1, d):
            c = h[k][i]
            if c:
                v = [x - c * y for x, y in zip(v, rows[k])]
        p = h[i][i]
        g = gcd(p, *v)
        if g != p:
            s = p // g
            den *= s
            for k in range(i + 1, d):
                rows[k] = [s * y for y in rows[k]]
        rows[i] = [x // g for x in v]
    return _without_content(rows, den)


def _same_field_element(field: NumberField, alpha: FieldElement) -> None:
    """Refuse an element of another field than ``field``."""
    if alpha.field is not field:
        raise IdealError("element of a different field")


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
