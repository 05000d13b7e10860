"""Element reduction modulo fractional ideals and pseudo-row normalization.

Reduction rewrites alpha in the rational basis spanned by a Z-basis of the
ideal's numerator and subtracts the rounded coordinates, which keeps the
difference inside the ideal by construction.  With an LLL-reduced basis the
output satisfies the certified trace-form bound; with the Hermite basis and
floor rounding it is the unique canonical representative of its class, which
is what the uniqueness pass of the pseudo-Hermite form uses.
"""

from __future__ import annotations

from fractions import Fraction

from . import lattice
from .ideals import FractionalIdeal, IdealError
from .numberfield import FieldElement
from .zlinalg import identity, solve_left, vec_mat


class ReducedBasis(list):
    """Rows of a reduced ideal basis, carrying its inverse as ``adj / den``.

    ``den > 0`` and ``basis^-1 = adj / den``; computed once, when the basis
    enters a cache, so reducing against it needs no linear solve.
    """

    __slots__ = ("adj", "den")

    def __init__(self, rows):
        super().__init__(rows)
        self.adj, self.den = solve_left(rows, identity(len(rows)))


class ReducedBasisCache:
    """Memoizes the ideal arithmetic of one elimination, keyed on the ideal's
    (numerator, denominator): reduced numerator bases, inverses, products
    and the ideal-only part of ``normalize_row``.  ``pseudo_hnf`` and
    ``pseudo_snf`` build one per call, so the memo dies with the call.

    Lookups and inserts are plain dict operations on immutable values, safe
    under concurrent readers; confine one cache per thread if in doubt.
    """

    def __init__(self, ctx: lattice.LatticeContext):
        self.ctx = ctx
        self._map: dict = {}
        self._inverses: dict = {}
        self._products: dict = {}
        self._normalizations: dict = {}

    def reduced_basis(self, ideal: FractionalIdeal) -> ReducedBasis:
        key = (ideal.num, ideal.den)
        basis = self._map.get(key)
        if basis is None:
            numerator = FractionalIdeal(ideal.field, [list(r) for r in ideal.num], 1)
            basis = ReducedBasis(lattice.reduce_ideal_basis(numerator, self.ctx))
            self._map[key] = basis
        return basis

    def inverse(self, ideal: FractionalIdeal) -> FractionalIdeal:
        key = (ideal.num, ideal.den)
        inv = self._inverses.get(key)
        if inv is None:
            inv = self._inverses[key] = ideal.inverse()
        return inv

    def product(self, a: FractionalIdeal, b: FractionalIdeal) -> FractionalIdeal:
        key = (a.num, a.den, b.num, b.den)
        prod = self._products.get(key)
        if prod is None:
            prod = self._products[key] = a * b
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
    positive-box representative instead.
    """
    field = alpha.field
    l = a.den
    k = alpha.den
    target = [l * c for c in alpha.coeffs]
    if basis is None:
        if cache is None:
            cache = field.basis_cache
        basis = cache.reduced_basis(a)
        v, den = vec_mat(target, basis.adj), basis.den
    else:
        (v,), den = solve_left(basis, [target])
    # coordinates of alpha in the basis are v / (den * k)
    dk = den * k
    if centered:
        r = [lattice._round_half_up(x, dk) for x in v]
    else:
        r = [x // dk for x in v]
    d = field.degree
    new = [target[t] - k * sum(r[i] * basis[i][t] for i in range(d)) for t in range(d)]
    return FieldElement(field, new, k * l)


def reduction_bound_sq_scaled(a: FractionalIdeal, ctx: lattice.LatticeContext) -> Fraction:
    """d-th power of the squared reduction bound: compare against ub(|x|^2)^d."""
    d = ctx.field.degree
    nrm = a.norm()
    return (Fraction(d ** 3) ** d * ctx.quality_sq ** (d * d * (d - 1) // 2)
            * nrm * nrm * Fraction(abs(ctx.field.disc)) ** d)


def check_reduced_bound(alpha: FieldElement, a: FractionalIdeal,
                        ctx: lattice.LatticeContext) -> bool:
    """Certified check of the reduction output bound (exact comparison)."""
    ub = ctx.t2_bound(alpha.coeffs, alpha.den)
    d = ctx.field.degree
    return ub ** d <= reduction_bound_sq_scaled(a, ctx)


def normalize_row(row: list[FieldElement], a: FractionalIdeal,
                  ctx: lattice.LatticeContext | None = None,
                  cache: ReducedBasisCache | None = None):
    """Rescale a pseudo-row so its coefficient ideal is integral and small.

    Returns (new_row, new_ideal, scalar) with new_ideal = scalar * a integral
    of norm at most l^(d^2) sqrt|disc|, new_row = row / scalar, and the
    products a*row_t = new_ideal*new_row_t unchanged.  The part that depends
    on ``a`` alone is memoized in ``cache`` (default: the field's
    ``basis_cache``), whose lattice context gives the norm bound; ``ctx`` is
    not read and stays only for positional callers.
    """
    field = a.field
    if cache is None:
        cache = field.basis_cache
    new_ideal, scalar, inv_scalar = cache.normalization(a)
    new_row = [field.mul(entry, inv_scalar) if entry else entry for entry in row]
    return new_row, new_ideal, scalar


def _normalize_ideal(a: FractionalIdeal, cache: ReducedBasisCache):
    """(new_ideal, scalar, scalar^-1) of ``normalize_row``; raises when the
    new ideal is not integral or misses its norm bound."""
    field = a.field
    k = a.den
    numerator = FractionalIdeal(field, [list(r) for r in a.num], 1)
    binv = numerator.inverse()
    l = binv.den
    c_ideal = FractionalIdeal(field, [list(r) for r in binv.num], 1)
    alpha = field.element(cache.reduced_basis(c_ideal)[0])
    scalar = field.scalar_mul(k, field.scalar_div(alpha, l))
    new_ideal = numerator.elt_mul(field.scalar_div(alpha, l))
    if not new_ideal.is_integral():
        raise IdealError("internal error: normalized ideal is not integral")
    nrm = new_ideal.norm()
    if nrm * nrm > cache.ctx.norm_bound_sq():
        raise lattice.QualityError("normalized ideal misses its norm bound")
    return new_ideal, scalar, field.inv(scalar)
