"""Number field contexts and exact element arithmetic over a fixed integral basis.

A :class:`NumberField` is an immutable bundle of precomputed data for a field
``K = Q[x]/(f)`` together with an integral basis given over the power basis:
structure constants, trace matrix and its scaled inverse, discriminants, the
power-basis transformation, certified embedding enclosures, and the growth
constants used in size bounds.  Elements are integer coefficient vectors over
the integral basis with a minimal positive denominator.

Two constructors build elements.  ``FieldElement(field, coeffs, den)`` is the
way in for values from outside (parser, users, tests): it converts each
coefficient with ``int``, checks the length and refuses ``den = 0``.  The
module-private ``_make(field, coeffs, den)`` trusts its inputs, an int list
of the right length and ``den > 0``, and only reduces them to lowest terms;
the arithmetic here and in ``reduction`` builds its results through it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import numeric
from .numeric import Ball, frac_sqrt_ub, frac_up, log2_ub, over_common_denominator
from .zlinalg import Mat, SingularMatrixError, det_bareiss, identity, solve_left


class FieldError(ValueError):
    pass


_new_element = object.__new__


def _make(field: "NumberField", coeffs: list[int], den: int) -> "FieldElement":
    """Element coeffs / den in lowest terms, trusting that ``coeffs`` is an
    int list of the field's degree and ``den > 0``: no conversion and no
    check.  For results the arithmetic builds itself; outside values go
    through ``FieldElement``."""
    elt = _new_element(FieldElement)
    elt.field = field
    elt.coeffs, elt.den = _lowest_terms(coeffs, den)
    return elt


def _lowest_terms(coeffs: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(coeffs, den) divided by their gcd, for den > 0."""
    if den != 1:
        g = gcd(den, *coeffs)
        if g != 1:
            return tuple([c // g for c in coeffs]), den // g
    return tuple(coeffs), den


class FieldElement:
    """Element of a number field: integer coefficients over the integral basis / den.

    The constructor validates: each coefficient goes through ``int``, the
    length must be the field's degree, and ``den`` must be nonzero (a
    negative one moves its sign to the coefficients)."""

    __slots__ = ("field", "coeffs", "den")

    def __init__(self, field: "NumberField", coeffs, den: int = 1):
        coeffs = [int(c) for c in coeffs]
        if len(coeffs) != field.degree:
            raise FieldError("coefficient vector has wrong length")
        den = int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            coeffs = [-c for c in coeffs]
            den = -den
        self.field = field
        self.coeffs, self.den = _lowest_terms(coeffs, den)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.field is other.field and self.coeffs == other.coeffs
                and self.den == other.den)

    def __hash__(self):
        return hash((id(self.field), self.coeffs, self.den))

    def __neg__(self) -> "FieldElement":
        return _make(self.field, [-c for c in self.coeffs], self.den)

    def __add__(self, other) -> "FieldElement":
        return self.field.add(self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        return self.field.sub(self, self._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return self.field.sub(self._coerce(other), self)

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field.scalar_mul(other, self)
        if isinstance(other, Fraction):
            return self.field.scalar_div(self.field.scalar_mul(other.numerator, self),
                                         other.denominator)
        return self.field.mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        if isinstance(other, int):
            return self.field.scalar_div(self, other)
        return self.field.mul(self, self.field.inv(self._coerce(other)))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            e = self.field.from_int(other.numerator)
            return self.field.scalar_div(e, other.denominator)
        raise TypeError(f"cannot coerce {other!r}")

    def is_integral(self) -> bool:
        return self.den == 1

    def norm(self) -> Fraction:
        return self.field.norm(self)

    def trace(self) -> Fraction:
        return self.field.trace(self)

    def __repr__(self) -> str:
        body = " ".join(str(c) for c in self.coeffs)
        return f"<{body} / {self.den}>"


def _poly_mul_mod(a: list[Fraction], b: list[Fraction], f: list[Fraction]) -> list[Fraction]:
    """Product of polynomials modulo the monic polynomial f (coefficients low-first)."""
    d = len(f) - 1
    res = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    res[i + j] += x * y
    for k in range(len(res) - 1, d - 1, -1):
        c = res[k]
        if c:
            for j in range(d + 1):
                res[k - d + j] -= c * f[j]
    out = res[:d]
    return out + [Fraction(0)] * (d - len(out))


def _sylvester_resultant(f: list[int], g: list[int]) -> int:
    m = len(f) - 1
    n = len(g) - 1
    size = m + n
    rows: Mat = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return det_bareiss(rows)


class NumberField:
    """Immutable precomputed context for exact arithmetic in a number field."""

    def __init__(self, *, _token=None, **data):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use build_field() to construct a NumberField")
        self.__dict__.update(data)
        self._roots: list[Ball] | None = None
        self._root_prec = 0
        self._lattice = None
        self._codifferent = None
        self._two_elt = None
        self._residue_systems: dict[int, object] = {}
        # primes below 2^62 not dividing disc(f), in decreasing order;
        # extended on demand by residues.plan_primes
        self.admissible_primes: list[int] = []
        self._basis_cache = None

    # -- constructors ------------------------------------------------------

    def from_int(self, n: int) -> FieldElement:
        coeffs = [0] * self.degree
        coeffs[0] = int(n)
        return FieldElement(self, coeffs, 1)

    def zero(self) -> FieldElement:
        return self.from_int(0)

    def one(self) -> FieldElement:
        return self.from_int(1)

    def element(self, coeffs, den: int = 1) -> FieldElement:
        return FieldElement(self, coeffs, den)

    def to_power_coords(self, elt: FieldElement) -> list[Fraction]:
        d = self.degree
        out = [Fraction(0)] * d
        for i, c in enumerate(elt.coeffs):
            if c:
                for j in range(d):
                    out[j] += Fraction(c, elt.den) * self.basis_pow[i][j]
        return out

    # -- additive and scalar structure --------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        k, l = a.den, b.den
        g = gcd(k, l)
        ka, lb = l // g, k // g
        return _make(self, [ka * x + lb * y for x, y in zip(a.coeffs, b.coeffs)], k * ka)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        k, l = a.den, b.den
        g = gcd(k, l)
        ka, lb = l // g, k // g
        return _make(self, [ka * x - lb * y for x, y in zip(a.coeffs, b.coeffs)], k * ka)

    def scalar_mul(self, m: int, a: FieldElement) -> FieldElement:
        """m * a for an int m."""
        return _make(self, [m * c for c in a.coeffs], a.den)

    def scalar_div(self, a: FieldElement, m: int) -> FieldElement:
        """a / m for a nonzero int m."""
        if m == 0:
            raise ZeroDivisionError("division by zero integer")
        if m < 0:
            return _make(self, [-c for c in a.coeffs], -a.den * m)
        return _make(self, list(a.coeffs), a.den * m)

    # -- multiplicative structure -------------------------------------------

    def coeff_mul(self, u, v) -> list[int]:
        """Coefficient vector of the product of two coefficient vectors.

        One pass over the nonzero structure constants of ``struct_terms``.
        """
        out = [0] * self.degree
        terms = self.struct_terms
        for i, ui in enumerate(u):
            if ui:
                row = terms[i]
                for j, vj in enumerate(v):
                    if vj:
                        t = ui * vj
                        for k, c in row[j]:
                            out[k] += t * c
        return out

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return _make(self, self.coeff_mul(a.coeffs, b.coeffs), a.den * b.den)

    def lincomb(self, a: FieldElement, x: FieldElement, b: FieldElement,
                y: FieldElement) -> FieldElement:
        """a*x + b*y, with one reduction to lowest terms."""
        k, l = a.den * x.den, b.den * y.den
        g = gcd(k, l)
        ka, lb = l // g, k // g
        u, v = self.coeff_mul(a.coeffs, x.coeffs), self.coeff_mul(b.coeffs, y.coeffs)
        return _make(self, [ka * s + lb * t for s, t in zip(u, v)], k * ka)

    def regular_representation(self, gamma: FieldElement) -> Mat:
        """Matrix of beta -> gamma*beta in row convention: row(beta) @ M = row(gamma*beta)."""
        if gamma.den != 1:
            raise FieldError("regular representation requires an integral element")
        return [self.coeff_mul(e, gamma.coeffs) for e in identity(self.degree)]

    def inv(self, a: FieldElement) -> FieldElement:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if not any(a.coeffs[1:]):
            # a rational c/q, the first basis element being 1
            return self.scalar_div(self.from_int(a.den), a.coeffs[0])
        num = FieldElement(self, list(a.coeffs), 1)
        m = self.regular_representation(num)
        (x,), den = solve_left(m, [[1] + [0] * (self.degree - 1)])
        return FieldElement(self, [a.den * c for c in x], den)

    def norm(self, a: FieldElement) -> Fraction:
        num = FieldElement(self, list(a.coeffs), 1)
        det = det_bareiss(self.regular_representation(num))
        return Fraction(det, a.den ** self.degree)

    def trace(self, a: FieldElement) -> Fraction:
        t = sum(c * self.trace_vec[i] for i, c in enumerate(a.coeffs))
        return Fraction(t, a.den)

    # -- size and certified geometry ----------------------------------------

    def size(self, a: FieldElement) -> Fraction:
        """Coefficient bit-size surrogate, rounded up; 0 for the zero element."""
        if not a:
            return Fraction(0)
        d = self.degree
        mx = max(abs(c) for c in a.coeffs if c)
        s = Fraction(0) if mx == 1 else d * log2_ub(mx)
        if a.den > 1:
            s += d * log2_ub(a.den)
        return s

    def roots(self, min_prec: int = 0) -> list[Ball]:
        """Certified disjoint enclosures of the roots of the defining
        polynomial, every radius below 2^-want with want >= min_prec.

        Each solve runs at 32 guard bits above want, so the disks certify at
        once: the first call solves from scratch, and the cache keeps the
        largest p with every radius below 2^-p.  A request above it refines
        the cached enclosures by Newton's method; if that fails its
        certificate the plain solve takes over at the same precision, and a
        plain solve whose disks are still too wide doubles the precision.
        """
        want = max(min_prec, 64 + 4 * max(abs(c) for c in self.poly).bit_length())
        if self._roots is None or self._root_prec < want:
            start = self._roots
            prec = want + 32
            while True:
                balls = numeric.certified_roots(list(self.poly), prec, start)
                if balls is not None and all(b.r < Fraction(1, 1 << want) for b in balls):
                    # r < 2^-p  <=>  2^p <= (den - 1) // num; exact roots never
                    # need refining
                    self._roots = balls
                    self._root_prec = min(
                        (((b.r.denominator - 1) // b.r.numerator).bit_length() - 1
                         for b in balls if b.r), default=float("inf"))
                    break
                if start is not None:
                    start = None
                else:
                    prec *= 2
        return self._roots

    # -- lazy heavyweight attachments ----------------------------------------

    @property
    def lattice_context(self):
        if self._lattice is None:
            from . import lattice
            self._lattice = lattice.build_context(self)
        return self._lattice

    @property
    def codifferent_numerator(self):
        """The integral ideal generated by the rows of den(T^-1) * T^-1."""
        if self._codifferent is None:
            from .ideals import FractionalIdeal
            self._codifferent = FractionalIdeal.from_row_lattice(
                self, self.trace_inv_num, 1, multiple=self.trace_den)
        return self._codifferent

    @property
    def two_element_rep(self):
        """A pair of integral elements generating the codifferent numerator.

        Found by a deterministic search over small combinations of the reduced
        basis, in increasing certified T2 order, validated by ideal equality.
        Regular representations of both generators are returned alongside.
        """
        if self._two_elt is None:
            from . import twoelt
            self._two_elt = twoelt.two_element_rep(self)
        return self._two_elt

    def residue_system(self, p: int):
        if p not in self._residue_systems:
            from . import residues
            self._residue_systems[p] = residues.split_prime(self, p)
        return self._residue_systems[p]

    @property
    def basis_cache(self):
        """Field-wide ``ReducedBasisCache`` for reductions and normalizations
        called without a cache of their own."""
        if self._basis_cache is None:
            from .reduction import ReducedBasisCache
            self._basis_cache = ReducedBasisCache(self.lattice_context)
        return self._basis_cache

    def __repr__(self) -> str:
        return f"NumberField(degree={self.degree}, disc={self.disc})"


_BUILD_TOKEN = object()


def build_field(poly_coeffs: list[int], basis_rows=None) -> NumberField:
    """Build the full precomputed field context.

    ``poly_coeffs`` is the monic defining polynomial, constant term first.
    ``basis_rows`` gives the integral basis over the power basis, one row per
    basis element (rationals); the default is the power basis itself.  The
    first basis element must be 1 and the rows must span an order; maximality
    of that order is the caller's responsibility.
    """
    poly = [int(c) for c in poly_coeffs]
    if len(poly) < 2:
        raise FieldError("polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise FieldError("polynomial must be monic")
    d = len(poly) - 1
    if basis_rows is None:
        basis_rows = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    basis = [[Fraction(x) for x in row] for row in basis_rows]
    if len(basis) != d or any(len(r) != d for r in basis):
        raise FieldError("basis matrix must be d x d")
    if basis[0] != [Fraction(1)] + [Fraction(0)] * (d - 1):
        raise FieldError("first basis element must be 1")

    if d == 1:
        disc_f = 1
    else:
        fp = [i * c for i, c in enumerate(poly)][1:]
        res = _sylvester_resultant(poly, fp)
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        disc_f = sign * res
    if disc_f == 0:
        raise FieldError("defining polynomial is not squarefree (gcd(f, f') != 1)")

    scale = lcm(*(q.denominator for row in basis for q in row))
    try:
        binv_num, binv_den = solve_left([[int(q * scale) for q in row] for row in basis],
                                        identity(d))
    except SingularMatrixError:
        raise FieldError("basis matrix is singular") from None
    binv = [[Fraction(scale * x, binv_den) for x in row] for row in binv_num]
    m_cols = [[binv[j][i] for j in range(d)] for i in range(d)]  # M[i][j] = binv[j][i]
    if any(q.denominator != 1 for row in m_cols for q in row):
        raise FieldError("power basis is not integral over the given basis")
    power_to_basis = [[int(q) for q in row] for row in m_cols]
    index = abs(det_bareiss(power_to_basis))
    if index == 0:
        raise FieldError("basis matrix is singular")
    if disc_f % (index * index):
        raise FieldError("disc(f) not divisible by index squared; basis is not an order basis")
    disc = disc_f // (index * index)

    fq = [Fraction(c) for c in poly]
    struct: list[list[tuple[int, ...]]] = []
    for i in range(d):
        row_i = []
        for j in range(d):
            if j < i:
                row_i.append(struct[j][i])
                continue
            prod = _poly_mul_mod(list(basis[i]), list(basis[j]), fq)
            coords = [sum(prod[t] * binv[t][k] for t in range(d)) for k in range(d)]
            if any(q.denominator != 1 for q in coords):
                raise FieldError("basis is not multiplicatively closed (not an order)")
            row_i.append(tuple(int(q) for q in coords))
        struct.append(row_i)
    struct_t = tuple(tuple(r) for r in struct)

    trace_vec = tuple(sum(struct_t[k][i][i] for i in range(d)) for k in range(d))
    trace_mat = [[sum(struct_t[i][j][k] * trace_vec[k] for k in range(d)) for j in range(d)]
                 for i in range(d)]
    if any(trace_mat[i][j] != trace_mat[j][i] for i in range(d) for j in range(d)):
        raise FieldError("trace matrix is not symmetric")
    if det_bareiss(trace_mat) != disc:
        raise FieldError("det of trace matrix does not match the discriminant")
    trace_inv_num, trace_den = solve_left(trace_mat, identity(d))

    c3 = max(abs(x) for row in struct_t for s in row for x in s)
    # struct_terms[i][j]: the nonzero (k, c) of struct[i][j], for coeff_mul
    terms = tuple(tuple(tuple((k, c) for k, c in enumerate(s) if c) for s in row)
                  for row in struct_t)

    field = NumberField(
        _token=_BUILD_TOKEN,
        degree=d,
        poly=tuple(poly),
        basis_pow=tuple(tuple(row) for row in basis),
        power_to_basis=power_to_basis,
        struct=struct_t,
        struct_terms=terms,
        trace_vec=trace_vec,
        trace_mat=trace_mat,
        trace_den=trace_den,
        trace_inv_num=trace_inv_num,
        disc_f=disc_f,
        disc=disc,
        index=index,
        struct_bound=c3,
        embed_bound_sq=None,
        coeff_bound=None,
        growth_constant=None,
    )
    _attach_constants(field)
    return field


def _attach_constants(field: NumberField) -> None:
    """Certified growth constants: coefficient/T2 conversion bounds and size growth.

    The coefficient-to-T2 constant must satisfy |alpha| <= C1 * max|a_i|,
    which needs the triangle-inequality factor d on top of max_i |omega_i|.
    Both it and the coefficient bound come from one set of enclosures of the
    basis elements at the cached roots (``_conversion_constants``), and both
    are valid bounds however wide those enclosures are.
    """
    d = field.degree
    omegas = [field.to_power_coords(field.element([1 if t == i else 0 for t in range(d)]))
              for i in range(d)]
    roots = field.roots()
    c1_sq, c2 = _conversion_constants([[numeric.eval_at_root(w, r) for r in roots]
                                       for w in omegas], field.trace_inv_num, field.trace_den)
    field.embed_bound_sq = c1_sq
    field.coeff_bound = c2

    log_c1 = log2_ub(c1_sq) / 2 if c1_sq > 1 else Fraction(0)
    log_c2 = log2_ub(c2) if c2 > 1 else Fraction(0)
    log_d = log2_ub(d) if d > 1 else Fraction(0)
    log_c3 = log2_ub(field.struct_bound) if field.struct_bound > 1 else Fraction(0)
    arm1 = 2 * d * log_d + d * log_c3
    arm2 = d * d * log_c1 + d * log_c2
    field.growth_constant = max(arm1, arm2)


def _conversion_constants(vals: list[list[Ball]], tinv_num: Mat,
                          tinv_den: int) -> tuple[Fraction, Fraction]:
    """(C1^2, C2) from the enclosures vals[i][j] of basis element i at root j
    and the inverse trace matrix T^-1 = tinv_num / tinv_den.

    C1^2 is d^2 times the largest row sum of squared modulus bounds.  C2
    bounds the largest column 2-norm of V^-1, where V[i][j] = omega_i(z_j)
    over all d roots.  Then V V^t = T, so V^-1 = V^t T^-1, and column k of
    V^-1 is enclosed entrywise by the centers c_jk = sum_i vals[i][j]
    T^-1[i][k] and the radii r_jk = sum_i r_ij |T^-1[i][k]|; its norm is at
    most |c_k| + |r_k|.  Every sum runs on integers over one common
    denominator and every rounded quantity is reduced once; each is a sum
    or a maximum over the roots, so the order of the roots does not matter.
    """
    d = len(vals)
    # entry (i, j), basis element i at root j, sits at index i*d + j
    nums, den = over_common_denominator([x for row in vals for b in row for x in (b.re, b.im)])
    rads, r_den = over_common_denominator([b.r for row in vals for b in row])
    c2 = Fraction(0)
    for k in range(d):
        col = [tinv_num[i][k] for i in range(d)]
        c_sq = sum(sum(nums[2 * (i * d + j) + part] * col[i] for i in range(d)) ** 2
                   for j in range(d) for part in (0, 1))
        r_sq = sum(sum(rads[i * d + j] * abs(col[i]) for i in range(d)) ** 2 for j in range(d))
        c2 = max(c2, frac_sqrt_ub(Fraction(c_sq, (den * tinv_den) ** 2))
                 + frac_sqrt_ub(Fraction(r_sq, (r_den * tinv_den) ** 2)))
    c1_sq = max(frac_up(_abs_sq_ub_sum(row), 128) for row in vals) * (d * d)
    return c1_sq, frac_up(c2, 96)


def _abs_sq_ub_sum(balls: list[Ball]) -> Fraction:
    """sum_j (|center_j| + r_j)^2, with ``Ball.center_abs_ub`` for |center_j|."""
    nums, den = over_common_denominator([b.center_abs_ub() for b in balls]
                                        + [b.r for b in balls])
    n = len(balls)
    return Fraction(sum((nums[j] + nums[n + j]) ** 2 for j in range(n)), den * den)
