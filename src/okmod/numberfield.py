"""Number field contexts and exact element arithmetic over a fixed integral basis.

A :class:`NumberField` is an immutable bundle of precomputed data for a field
``K = Q[x]/(f)`` together with an integral basis given over the power basis:
structure constants and the product compiled from them, trace matrix and
its scaled inverse, discriminants, the power-basis transformation, certified
embedding enclosures, and the conversion constants C1 and C2 between
coefficients and embeddings used in size bounds.  Elements are integer
coefficient vectors over the integral basis with a minimal positive
denominator.  The basis is kept as integer rows over their common
denominator (``basis_num`` / ``basis_den``), and ``build_field`` computes
the structure constants, the basis inverse and the field constants from
them on integers.  Each invariant has one derivation: disc(O) is the
determinant of the trace matrix, and disc(f) = index^2 disc(O), so a
defining polynomial that is not squarefree shows as a singular trace form.
Norms and inverses of elements take no linear solve: the traces of the
powers of an element give its characteristic polynomial by Newton's
identities, whose constant term is the norm and which gives the inverse by
Cayley-Hamilton.

Two constructors build elements.  ``FieldElement(field, coeffs, den)`` is the
way in for values from outside (parser, users, tests): it takes each
coefficient and the denominator through ``operator.index``, so a float or a
Fraction is refused rather than truncated, checks the length and refuses
``den = 0``.  The
module-private ``_make(field, coeffs, den)`` trusts its inputs, an int list
of the right length and ``den > 0``, and only reduces them to lowest terms;
the arithmetic here and in ``reduction`` builds its results through it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import numeric
from .numeric import Ball, _lowest, _over_lcm, _sqrt_ub, _up, log2_ub
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

    The constructor validates: each coefficient and ``den`` must be an
    integer (``operator.index``, so 0.5 or Fraction(7, 2) raises TypeError),
    the length must be the field's degree, and ``den`` must be nonzero (a
    negative one moves its sign to the coefficients)."""

    __slots__ = ("field", "coeffs", "den")

    def __init__(self, field: "NumberField", coeffs, den: int = 1):
        coeffs = [operator.index(c) for c in coeffs]
        if len(coeffs) != field.degree:
            raise FieldError("coefficient vector has wrong length")
        den = operator.index(den)
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
        if isinstance(other, FieldElement):
            return self.field.mul(self, self._coerce(other))
        if isinstance(other, int):
            return self.field.scalar_mul(other, self)
        if isinstance(other, Fraction):
            return self.field.scalar_div(self.field.scalar_mul(other.numerator, self),
                                         other.denominator)
        # an ideal times an element is the ideal's product
        return NotImplemented

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


def _char_poly(field: "NumberField", u) -> tuple[list[list[int]], list[int]]:
    """Powers and characteristic polynomial of the integral element alpha
    with coefficient vector ``u``.

    Returns ([alpha^1, ..., alpha^d], [e_0, ..., e_d]): the powers as
    coefficient vectors from ``coeff_mul``, and e_k the k-th elementary
    symmetric function of the conjugates of alpha, so that the
    characteristic polynomial is sum_k (-1)^k e_k x^(d-k) and N(alpha) = e_d.
    The power sums t_k = Tr(alpha^k) are ``trace_vec`` times the powers, and
    Newton's identities k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) t_i give the
    e_k; each division by k is exact, since alpha is integral.
    """
    mul, tv = field.coeff_mul, field.trace_vec
    powers = [list(u)]
    t = [0, sum(map(operator.mul, tv, u))]
    for _ in range(field.degree - 1):
        powers.append(mul(powers[-1], u))
        t.append(sum(map(operator.mul, tv, powers[-1])))
    e = [1]
    for k in range(1, len(t)):
        s = 0
        for i in range(1, k + 1):
            s += e[k - i] * t[i] if i % 2 else -e[k - i] * t[i]
        q, r = divmod(s, k)
        if r:
            raise FieldError("internal error: Newton's identities left a remainder")
        e.append(q)
    return powers, e


def _poly_mul_mod(a: list[int], b: list[int], f: list[int]) -> list[int]:
    """Product of integer polynomials modulo the monic polynomial f
    (coefficients low-first)."""
    d = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] += x * y
    for k in range(len(res) - 1, d - 1, -1):
        c = res[k]
        if c:
            for j in range(d + 1):
                res[k - d + j] -= c * f[j]
    out = res[:d]
    return out + [0] * (d - len(out))


def _compile_product(struct):
    """The product of two coefficient vectors over the basis with structure
    constants ``struct[i][j][k]``, as one straight-line function.

    Since w_i w_j = w_j w_i, each pair i <= j with a nonzero constant gives
    one term, u_i v_i or u_i v_j + u_j v_i, computed once and kept in a local
    when several coordinates use it; coordinate k is the fixed sum of the
    terms times their constants.  The source is built from integer indices
    and constants alone, and the function sees no builtins.
    """
    d = len(struct)
    lines = ["def coeff_mul(u, v):",
             "    " + "".join(f"u{i}, " for i in range(d)) + "= u",
             "    " + "".join(f"v{i}, " for i in range(d)) + "= v"]
    sums: list[list[str]] = [[] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            ks = [k for k in range(d) if struct[i][j][k]]
            if not ks:
                continue
            term = f"u{i}*v{i}" if i == j else f"(u{i}*v{j} + u{j}*v{i})"
            if len(ks) > 1:
                lines.append(f"    t{i}_{j} = {term}")
                term = f"t{i}_{j}"
            for k in ks:
                c = struct[i][j][k]
                sign = "-" if c < 0 else "+"
                sums[k].append(f"{sign} {term}" if abs(c) == 1 else f"{sign} {abs(c):d}*{term}")
    coords = [" ".join(s).removeprefix("+ ") if s else "0" for s in sums]
    lines.append(f"    return [{', '.join(coords)}]")
    namespace = {"__builtins__": {}}
    exec(compile("\n".join(lines), f"<coeff_mul, degree {d}>", "exec"), namespace)
    return namespace["coeff_mul"]


class NumberField:
    """Immutable precomputed context for exact arithmetic in a number field.

    ``coeff_mul(u, v)`` is the coefficient vector of the product of two
    coefficient vectors, a function that ``build_field`` compiles from the
    structure constants; every element and ideal product goes through it.
    """

    def __init__(self, *, _token=None, **data):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use build_field() to construct a NumberField")
        self.__dict__.update(data)
        self._roots: list[Ball] | None = None
        self._root_prec = 0
        self._root_values: tuple | None = None
        self._residue_systems: dict[int, object] = {}
        # plan primes not dividing disc(f), in decreasing order: the table
        # primes below 2^126, then primes below 2^62; extended on demand by
        # residues.plan_primes
        self.admissible_primes: list[int] = []

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
        """a^-1 by Cayley-Hamilton: for alpha = den * a with characteristic
        polynomial sum_j (-1)^j e_j x^(d-j),
        alpha^-1 = (-1)^(d+1) sum_j (-1)^j e_j alpha^(d-1-j) / e_d."""
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if not any(a.coeffs[1:]):
            # a rational c/q, the first basis element being 1
            return self.scalar_div(self.from_int(a.den), a.coeffs[0])
        return self._cayley_hamilton(a, *_char_poly(self, a.coeffs))

    def norm(self, a: FieldElement) -> Fraction:
        """N(a) = e_d / den^d, e_d the constant term of the characteristic
        polynomial of den * a up to the sign (-1)^d; (c/q)^d for a rational
        c/q."""
        if not any(a.coeffs[1:]):
            return Fraction(a.coeffs[0] ** self.degree, a.den ** self.degree)
        return Fraction(_char_poly(self, a.coeffs)[1][-1], a.den ** self.degree)

    def inv_and_norm(self, a: FieldElement) -> tuple[FieldElement, Fraction]:
        """(``inv(a)``, ``norm(a)``), from one characteristic polynomial."""
        if not any(a.coeffs[1:]):
            # a rational (zero included, which inv refuses): no polynomial
            return self.inv(a), self.norm(a)
        powers, e = _char_poly(self, a.coeffs)
        return self._cayley_hamilton(a, powers, e), Fraction(e[-1], a.den ** self.degree)

    def _cayley_hamilton(self, a: FieldElement, powers: list[list[int]],
                         e: list[int]) -> FieldElement:
        """a^-1 from the powers and characteristic polynomial of den * a
        (``_char_poly``), as ``inv`` describes it.  A zero constant term
        e_d makes the nonzero a a zero divisor, so f is reducible."""
        d = self.degree
        if not e[d]:
            raise FieldError("element has no inverse: the defining polynomial "
                             "must be irreducible")
        # sum_j (-1)^j e_j alpha^(d-1-j), alpha^0 being the first basis element
        acc = [0] * d
        for j in range(d - 1):
            c = e[j] if j % 2 == 0 else -e[j]
            acc = [x + c * y for x, y in zip(acc, powers[d - 2 - j])]
        acc[0] += e[d - 1] if d % 2 == 1 else -e[d - 1]
        # the factor (-1)^(d+1) den / e_d, its sign moved to the numerator
        f = a.den if (d % 2 == 1) == (e[d] > 0) else -a.den
        return _make(self, [f * x for x in acc], abs(e[d]))

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

        want is at least the precision that the Gram enclosure of the
        default lattice context asks (``lattice.gram_precision``), so the
        first call solves once for C1, C2 and the Gram matrix alike.  Each
        solve runs from scratch at 32 guard bits above want, so the disks
        certify at once, and doubles the precision if they are still too
        wide; the cache keeps the largest p with every radius below 2^-p, and
        a request above it solves again.
        """
        from .lattice import gram_precision
        want = max(min_prec, gram_precision(self))
        if self._roots is None or self._root_prec < want:
            prec = want + 32
            while True:
                balls = numeric.certified_roots(list(self.poly), prec)
                if balls is not None and all(b.rn << want < b.rd for b in balls):
                    # r < 2^-p  <=>  2^p <= (den - 1) // num; exact roots are
                    # good at every precision
                    self._roots = balls
                    self._root_prec = min(
                        (((b.rd - 1) // b.rn).bit_length() - 1 for b in balls if b.rn),
                        default=float("inf"))
                    break
                prec *= 2
        return self._roots

    def root_values(self, min_prec: int = 0) -> list[list[Ball]]:
        """vals[i][j], the enclosure of basis element i at root j of
        ``roots(min_prec)`` (``numeric.basis_values``), kept with those
        roots: C1, C2 and the Gram enclosure share one evaluation."""
        roots = self.roots(min_prec)
        if self._root_values is None or self._root_values[0] is not roots:
            self._root_values = roots, numeric.basis_values(self.basis_num, self.basis_den, roots)
        return self._root_values[1]

    # -- lazy heavyweight attachments ----------------------------------------

    @cached_property
    def root_grams(self):
        """The per-root data of the row bound of ``determinant`` (built
        there by ``determinant.root_grams`` from ``root_values``)."""
        from . import determinant
        return determinant.root_grams(self)

    @cached_property
    def lattice_context(self):
        from . import lattice
        return lattice.build_context(self)

    @cached_property
    def codifferent_numerator(self):
        """The integral ideal generated by the rows of den(T^-1) * T^-1."""
        from .ideals import FractionalIdeal
        return FractionalIdeal.from_row_lattice(self, self.trace_inv_num, 1,
                                                multiple=self.trace_den)

    @cached_property
    def two_element_rep(self):
        """A pair of integral elements generating the codifferent numerator.

        Found by a deterministic search over small combinations of the reduced
        basis, in increasing certified T2 order, validated by ideal equality.
        Regular representations of both generators are returned alongside.
        """
        from . import twoelt
        return twoelt.two_element_rep(self)

    def residue_system(self, p: int):
        if p not in self._residue_systems:
            from . import residues
            self._residue_systems[p] = residues.split_prime(self, p)
        return self._residue_systems[p]

    @cached_property
    def basis_cache(self):
        """Field-wide ``ReducedBasisCache`` for reductions and normalizations
        called without a cache of their own."""
        from .reduction import ReducedBasisCache
        return ReducedBasisCache(self.lattice_context)

    def __repr__(self) -> str:
        return f"NumberField(degree={self.degree}, disc={self.disc})"


_BUILD_TOKEN = object()


def build_field(poly_coeffs: list[int], basis_rows=None) -> NumberField:
    """Build the full precomputed field context.

    ``poly_coeffs`` is the monic defining polynomial, constant term first.
    ``basis_rows`` gives the integral basis over the power basis, one row per
    basis element (rationals); the default is the power basis itself.  The
    first basis element must be 1 and the rows must span an order; maximality
    of that order is the caller's responsibility.  The polynomial must be
    irreducible: only a squarefree one is refused here, and a reducible one
    makes inverting a zero divisor raise ``FieldError``.
    """
    poly = [int(c) for c in poly_coeffs]
    if len(poly) < 2:
        raise FieldError("polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise FieldError("polynomial must be monic")
    d = len(poly) - 1
    basis = [[Fraction(x) for x in row]
             for row in (identity(d) if basis_rows is None else basis_rows)]
    if len(basis) != d or any(len(r) != d for r in basis):
        raise FieldError("basis matrix must be d x d")
    if basis[0] != [Fraction(1)] + [Fraction(0)] * (d - 1):
        raise FieldError("first basis element must be 1")

    # the basis rows over their common denominator: w_i = rows[i] / scale
    scale = lcm(*(q.denominator for row in basis for q in row))
    rows = [[q.numerator * (scale // q.denominator) for q in row] for row in basis]
    try:
        binv_num, binv_den = solve_left(rows, identity(d))
    except SingularMatrixError:
        raise FieldError("basis matrix is singular") from None
    # the inverse of the basis matrix is scale * binv_num / binv_den, and its
    # transpose takes power coordinates to basis coordinates
    if any(scale * x % binv_den for row in binv_num for x in row):
        raise FieldError("power basis is not integral over the given basis")
    power_to_basis = [[scale * binv_num[j][i] // binv_den for j in range(d)] for i in range(d)]
    index = abs(det_bareiss(power_to_basis))

    # w_i w_j = (rows[i] rows[j] mod f) / scale^2, whose basis coordinates are
    # (rows[i] rows[j] mod f) binv_num / (scale binv_den)
    struct_den = scale * binv_den
    struct: list[list[tuple[int, ...]]] = []
    for i in range(d):
        row_i = []
        for j in range(d):
            if j < i:
                row_i.append(struct[j][i])
                continue
            prod = _poly_mul_mod(rows[i], rows[j], poly)
            coords = [sum(prod[t] * binv_num[t][k] for t in range(d)) for k in range(d)]
            if any(c % struct_den for c in coords):
                raise FieldError("basis is not multiplicatively closed (not an order)")
            row_i.append(tuple(c // struct_den for c in coords))
        struct.append(row_i)
    struct_t = tuple(tuple(r) for r in struct)

    trace_vec = tuple(sum(struct_t[k][i][i] for i in range(d)) for k in range(d))
    trace_mat = [[sum(struct_t[i][j][k] * trace_vec[k] for k in range(d)) for j in range(d)]
                 for i in range(d)]
    # disc(O) is the determinant of the trace form on the basis; on the power
    # basis, whose lattice has index ``index`` in it, that determinant is
    # disc(f) = index^2 disc(O)
    disc = det_bareiss(trace_mat)
    if disc == 0:
        raise FieldError("defining polynomial is not squarefree (gcd(f, f') != 1)")
    trace_inv_num, trace_den = solve_left(trace_mat, identity(d))

    field = NumberField(
        _token=_BUILD_TOKEN,
        degree=d,
        poly=tuple(poly),
        basis_num=tuple(tuple(row) for row in rows),
        basis_den=scale,
        power_to_basis=power_to_basis,
        struct=struct_t,
        coeff_mul=_compile_product(struct_t),
        trace_vec=trace_vec,
        trace_mat=trace_mat,
        trace_den=trace_den,
        trace_inv_num=trace_inv_num,
        disc_f=disc * index * index,
        disc=disc,
        index=index,
    )
    # C1^2 and C2 from the enclosures of the basis elements at the roots that
    # the Gram enclosure reads too
    field.embed_bound_sq, field.coeff_bound = _conversion_constants(
        field.root_values(), trace_inv_num, trace_den)
    return field


def _conversion_constants(vals: list[list[Ball]], tinv_num: Mat,
                          tinv_den: int) -> tuple[Fraction, Fraction]:
    """(C1^2, C2) from the enclosures vals[i][j] of basis element i at root j
    and the inverse trace matrix T^-1 = tinv_num / tinv_den.

    C1^2 is d^2 times the largest row sum of squared modulus bounds: the
    factor d of the triangle inequality, on top of max_i |omega_i|, makes
    |alpha| <= C1 * max|a_i| hold.  C2 bounds the largest column 2-norm of
    V^-1, where V[i][j] = omega_i(z_j) over all d roots.  Then V V^t = T, so V^-1 = V^t T^-1, and column k of
    V^-1 is enclosed entrywise by the centers c_jk = sum_i vals[i][j]
    T^-1[i][k] and the radii r_jk = sum_i r_ij |T^-1[i][k]|; its norm is at
    most |c_k| + |r_k|.  Every sum runs on integers over one common
    denominator and every rounded quantity is reduced once; each is a sum
    or a maximum over the roots, so the order of the roots does not matter.
    """
    d = len(vals)
    # entry (i, j), basis element i at root j, sits at index i*d + j
    flat = [b for row in vals for b in row]
    nums, den = _over_lcm([(x, b.q) for b in flat for x in (b.x, b.y)])
    rads, r_den = _over_lcm([(b.rn, b.rd) for b in flat])
    # the real parts, imaginary parts and radii at root j, over i
    parts = [nums[2 * j + part::2 * d] for j in range(d) for part in (0, 1)]
    radii = [rads[j::d] for j in range(d)]
    c2 = (0, 1)
    for col in zip(*tinv_num):
        abs_col = [abs(t) for t in col]
        c_sq = sum(sum(map(operator.mul, v, col)) ** 2 for v in parts)
        r_sq = sum(sum(map(operator.mul, v, abs_col)) ** 2 for v in radii)
        c, cd = _sqrt_ub(*_lowest(c_sq, (den * tinv_den) ** 2))
        r, rd = _sqrt_ub(*_lowest(r_sq, (r_den * tinv_den) ** 2))
        if (c * rd + r * cd) * c2[1] > c2[0] * cd * rd:
            c2 = (c * rd + r * cd, cd * rd)
    c1_sq = max(Fraction(*_up(*_abs_sq_ub_sum(row), 128)) for row in vals) * (d * d)
    return c1_sq, Fraction(*_up(*_lowest(*c2), 96))


def _abs_sq_ub_sum(balls: list[Ball]) -> tuple[int, int]:
    """sum_j (|center_j| + r_j)^2, with ``Ball.center_abs_ub`` for |center_j|,
    in lowest terms as an integer pair."""
    nums, den = _over_lcm([b.center_abs_ub() for b in balls] + [(b.rn, b.rd) for b in balls])
    n = len(balls)
    return _lowest(sum((nums[j] + nums[n + j]) ** 2 for j in range(n)), den * den)
