"""Element reduction modulo fractional ideals and pseudo-row normalization.

Reduction rewrites alpha in the rational basis spanned by a Z-basis of the
ideal's numerator and subtracts the rounded coordinates, which keeps the
difference inside the ideal by construction.  With an LLL-reduced basis the
output satisfies the certified trace-form bound; with the Hermite basis and
floor rounding it is the unique canonical representative of its class, which
the uniqueness pass of the pseudo-Hermite form takes by back substitution
(``_canonical_rep``).  ``reduce_row`` reduces a row against one basis and one
basis inverse; ``reduce_mod_ideal`` is its one-entry case.

``ReducedBasisCache`` memoizes the ideal arithmetic of one normal-form call, and
keeps a factor map, ideal -> (eps, Q) with ideal = eps * Q and Q small: the
reduced basis of such an ideal starts its LLL from eps times the reduced
basis of Q rather than from its Hermite basis.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import lattice
from .ideals import FractionalIdeal, IdealError, _same_field_element
from .numberfield import FieldElement, _make
from .zlinalg import identity, solve_left


class ReducedBasis(list):
    """Rows of a reduced ideal basis, with its inverse ``adj / den`` solved
    the first time a reduction needs it: ``den > 0`` and basis^-1 = adj / den.
    """

    __slots__ = ("_inverse",)

    def __init__(self, rows):
        super().__init__(rows)
        self._inverse = None

    def inverse(self) -> tuple:
        """(columns of adj, den) of the basis inverse, so that the
        coordinates of a row vector t are sum(t * col) / den per column."""
        if self._inverse is None:
            adj, den = solve_left(self, identity(len(self)))
            self._inverse = list(zip(*adj)), den
        return self._inverse


class ReducedBasisCache:
    """Memoizes the ideal arithmetic of one normal-form call, keyed on the
    ideal's (numerator, denominator): reduced numerator bases, inverses,
    products and the ideal-only part of ``normalize_row``; and the inverses
    and norms of elements (pivot entries and the pairs of Euclidean steps),
    both from one characteristic polynomial.  ``pseudo_hnf`` and
    ``pseudo_snf`` build one on entry, which serves the multiple, the
    elimination and the rerun of ``run``, so no ideal is inverted twice in
    one call and the memo dies with the call.

    It also knows factorizations ideal = eps * Q with Q small: ``pseudo_hnf``
    records its own multiple delta * P of square input, and ``product(a, b)`` with
    a = eps * Q records a * b = eps * (Q * b).  A reduced basis of such an
    ideal starts its LLL from eps times the reduced basis of Q, which is
    nearly reduced already, instead of from the Hermite basis.

    Lookups and inserts are plain dict operations on immutable values, safe
    under concurrent readers (two readers may both solve a basis's inverse,
    with equal results); confine one cache per thread if in doubt.
    """

    def __init__(self, ctx: lattice.LatticeContext):
        self.ctx = ctx
        self._map: dict = {}
        self._inverses: dict = {}
        self._products: dict = {}
        self._normalizations: dict = {}
        self._factors: dict = {}
        self._elements: dict = {}

    def run(self, work):
        """``work(self)``; after a ``QualityError``, once more on a context at
        twice the exponent, keeping the exact memos (inverses, products,
        factors, element inverses and norms) and dropping the reduced bases
        and normalizations; a second miss propagates.  It replaces ``ctx``: for
        per-call caches only."""
        try:
            return work(self)
        except lattice.QualityError:
            self.ctx = lattice.build_context(self.ctx.field, 2 * self.ctx.e)
            self._map.clear()
            self._normalizations.clear()
            return work(self)

    def record_factor(self, ideal: FractionalIdeal, eps: FieldElement,
                      q: FractionalIdeal) -> None:
        """Note that ideal = eps * q; checked when a reduced basis uses it."""
        self._factors[(ideal.num, ideal.den)] = (eps, q)

    def reduced_basis(self, ideal: FractionalIdeal) -> ReducedBasis:
        key = (ideal.num, ideal.den)
        basis = self._map.get(key)
        if basis is None:
            field = ideal.field
            numerator = ideal.numerator()
            factor = self._factors.get(key)
            if factor is None or field.degree == 1 or factor[1] == ideal:
                rows = lattice.reduce_ideal_basis(numerator, self.ctx)
            else:
                # den * ideal = (den * eps / Q.den) * numerator of Q
                eps, q = factor
                scale = field.scalar_div(field.scalar_mul(ideal.den, eps), q.den)
                start = [field.mul(scale, field.element(r)) for r in self.reduced_basis(q)]
                if any(x.den != 1 for x in start):
                    raise IdealError("internal error: start rows are not a basis of the ideal")
                rows = lattice.reduce_start_basis(numerator, [x.coeffs for x in start],
                                                  self.ctx)
            basis = self._map[key] = ReducedBasis(rows)
        return basis

    def inverse(self, ideal: FractionalIdeal) -> FractionalIdeal:
        key = (ideal.num, ideal.den)
        inv = self._inverses.get(key)
        if inv is None:
            inv = self._inverses[key] = ideal.inverse()
        return inv

    def element_inverse(self, x: FieldElement) -> FieldElement:
        return self._element(x)[0]

    def element_norm(self, x: FieldElement) -> Fraction:
        return self._element(x)[1]

    def _element(self, x: FieldElement) -> tuple[FieldElement, Fraction]:
        """(x^-1, N(x)), memoized together: one characteristic polynomial
        gives both (``NumberField.inv_and_norm``)."""
        key = (x.coeffs, x.den)
        data = self._elements.get(key)
        if data is None:
            data = self._elements[key] = x.field.inv_and_norm(x)
        return data

    def product(self, a: FractionalIdeal, b: FractionalIdeal) -> FractionalIdeal:
        key = (a.num, a.den, b.num, b.den)
        prod = self._products.get(key)
        if prod is None:
            prod = self._products[key] = a * b
            factor = self._factors.get((a.num, a.den))
            if factor is not None:
                eps, q = factor
                self._factors[(prod.num, prod.den)] = (eps, self.product(q, b))
        return prod

    def normalization(self, ideal: FractionalIdeal):
        """(new_ideal, scalar, scalar^-1) of ``normalize_row`` for ``ideal``."""
        key = (ideal.num, ideal.den)
        hit = self._normalizations.get(key)
        if hit is None:
            hit = self._normalizations[key] = _normalize_ideal(ideal, self)
        return hit


def reduce_mod_ideal(alpha: FieldElement, a: FractionalIdeal,
                     cache: ReducedBasisCache | None = None,
                     basis=None, centered: bool = True) -> FieldElement:
    """Representative of alpha modulo the fractional ideal ``a``.

    The difference alpha - result lies in ``a`` exactly.  With the default
    LLL basis and centered (round-half-up) residues the result satisfies the
    trace-form bound d^(3/2) l^(d(d-1)/2) N(a)^(1/d) sqrt|disc|; passing the
    numerator Hermite basis with centered=False yields the canonical
    positive-box representative instead.  ``reduce_row`` of one entry.
    """
    return reduce_row([alpha], a, cache, basis, centered)[0]


def reduce_row(row: list[FieldElement], a: FractionalIdeal,
               cache: ReducedBasisCache | None = None,
               basis=None, centered: bool = True) -> list[FieldElement]:
    """``reduce_mod_ideal`` of each entry of ``row``, zeros kept, with one
    basis and one basis inverse for the whole row."""
    field = a.field
    for alpha in row:
        _same_field_element(field, alpha)
    basis = (ReducedBasis(basis) if basis is not None
             else (field.basis_cache if cache is None else cache).reduced_basis(a))
    (adj_cols, den), cols, l = basis.inverse(), list(zip(*basis)), a.den
    out = []
    for alpha in row:
        if not alpha:
            out.append(alpha)
            continue
        k = alpha.den
        target = [l * c for c in alpha.coeffs]
        # coordinates of alpha in the basis are v / (den * k)
        v = [sum(map(mul, target, col)) for col in adj_cols]
        dk = den * k
        r = [lattice._round_half_up(x, dk) if centered else x // dk for x in v]
        new = [t - k * sum(map(mul, r, col)) for t, col in zip(target, cols)]
        out.append(_make(field, new, k * l))
    return out


def _canonical_rep(alpha: FieldElement, a: FractionalIdeal) -> FieldElement:
    """``reduce_mod_ideal(alpha, a, basis=num, centered=False)`` for the Hermite
    numerator ``num`` of ``a``, by back substitution from its last column."""
    num, l, k = a.num, a.den, alpha.den
    target = [l * c for c in alpha.coeffs]
    # w / dk is what target / k leaves after the coordinates right of j
    w, dk, r = target, k, [0] * len(num)
    for j in range(len(num) - 1, -1, -1):
        p = num[j][j]
        r[j] = w[j] // (dk * p)
        w, dk = [p * x - w[j] * y for x, y in zip(w[:j], num[j])], dk * p
    new = [t - k * sum(map(mul, r, col)) for t, col in zip(target, zip(*num))]
    return _make(alpha.field, new, k * l)


def check_reduced_bound(alpha: FieldElement, a: FractionalIdeal,
                        ctx: lattice.LatticeContext) -> bool:
    """Certified check of the reduction output bound: ub(|alpha|^2)^d against
    the d-th power of the squared bound, compared exactly."""
    d = ctx.field.degree
    nrm = a.norm()
    return ctx.t2_bound(alpha.coeffs, alpha.den) ** d <= (
        Fraction(d ** 3) ** d * ctx.quality_sq ** (d * d * (d - 1) // 2)
        * nrm * nrm * Fraction(abs(ctx.field.disc)) ** d)


def normalize_row(row: list[FieldElement], a: FractionalIdeal,
                  cache: ReducedBasisCache | None = None):
    """Rescale a pseudo-row so its coefficient ideal is integral and small.

    Returns (new_row, new_ideal, scalar) with new_ideal = scalar * a integral
    of norm at most l^(d^2) sqrt|disc|, new_row = row / scalar, and the
    products a*row_t = new_ideal*new_row_t unchanged.  The part that depends
    on ``a`` alone is memoized in ``cache`` (default: the field's
    ``basis_cache``), whose lattice context gives the norm bound.
    """
    field = a.field
    if cache is None:
        cache = field.basis_cache
    new_ideal, scalar, inv_scalar = cache.normalization(a)
    if inv_scalar.den == 1 and inv_scalar.coeffs[0] == 1 and not any(inv_scalar.coeffs[1:]):
        # scalar 1: the row is its own rescaling
        return list(row), new_ideal, scalar
    new_row = [field.mul(entry, inv_scalar) if entry else entry for entry in row]
    return new_row, new_ideal, scalar


def _normalize_ideal(a: FractionalIdeal, cache: ReducedBasisCache):
    """(new_ideal, scalar, scalar^-1) of ``normalize_row``; raises when the
    new ideal is not integral or misses its norm bound."""
    field = a.field
    k = a.den
    numerator = a.numerator()
    # an integral ideal's inverse is often in the memo already, stored by
    # the Euclidean step that produced it
    binv = cache.inverse(numerator)
    l = binv.den
    c_ideal = binv.numerator()
    alpha = field.element(cache.reduced_basis(c_ideal)[0])
    scalar = field.scalar_mul(k, field.scalar_div(alpha, l))
    new_ideal = numerator.elt_mul(field.scalar_div(alpha, l))
    if not new_ideal.is_integral():
        raise IdealError("internal error: normalized ideal is not integral")
    nrm = new_ideal.norm()
    if nrm * nrm > cache.ctx.norm_bound_sq():
        raise lattice.QualityError("normalized ideal misses its norm bound")
    return new_ideal, scalar, field.inv(scalar)
