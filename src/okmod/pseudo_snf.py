"""Pseudo-Smith normal form: elementary divisors of a module quotient.

A bi-pseudo matrix (A, (b_i), (a_j)) with a_ij in b_i a_j^-1 presents a
quotient of two rank-n modules.  Alternating column and row gcd passes with
quotient-preserving normalizations drive it to the identity while extracting
the divisor chain; off-diagonal obstructions (entries whose content is not
yet inside the divisor the pivot gives with the modulus) are folded into the
pivot row before a divisor is finalized, exactly like the classical Smith
procedure over Z.

The pivot steps are those of the pseudo-Hermite form (``_clear_column`` of
``pseudo_hnf``), run on the rows with their inverse ideals b_i^-1.  The
working state keeps one ideal per side, the column ideals a_j and the
inverse row ideals b_i^-1, and takes their inverses from the per-call memo.
Mirroring the state (A -> A^T, a_j <-> b_i^-1) turns columns into rows, so
the column pass and the initial column normalization are the row ones on
the mirror.
"""

from __future__ import annotations

from . import determinant, reduction
from .ideals import FractionalIdeal, IdealError
from .numberfield import FieldElement, NumberField
from .pseudo_hnf import _clear_column


class BiPseudoMatrix:
    """Square matrix over K with row ideals (b_i) and column ideals (a_j)."""

    __slots__ = ("field", "rows", "row_ideals", "col_ideals")

    def __init__(self, field: NumberField, rows, row_ideals, col_ideals):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("bi-pseudo matrix must be square and nonempty")
        if len(row_ideals) != n or len(col_ideals) != n:
            raise ValueError("need n row ideals and n column ideals")
        for e in (x for r in rows for x in r):
            if not isinstance(e, FieldElement) or e.field is not field:
                raise ValueError("entry from a different field")
        for a in (*row_ideals, *col_ideals):
            if not isinstance(a, FractionalIdeal) or a.field is not field:
                raise ValueError("ideal from a different field")
        self.field = field
        self.rows = rows
        self.row_ideals = list(row_ideals)
        self.col_ideals = list(col_ideals)
        bad = self.integrality_violation()
        if bad is not None:
            raise IdealError(f"entry {bad} is not in b_i * a_j^-1")

    @property
    def n(self) -> int:
        return len(self.rows)

    def integrality_violation(self):
        """First (i, j) with a_ij outside b_i a_j^-1, or None.

        a_ij lies in b_i a_j^-1 exactly when a_ij * a_j lies in b_i, that is
        when b_i contains a_ij * w for each Hermite basis element w of a_j.
        """
        col_bases = [a.basis_elements() for a in self.col_ideals]
        for i, (row, b) in enumerate(zip(self.rows, self.row_ideals)):
            for j, e in enumerate(row):
                if e and not all(b.contains(e * w) for w in col_bases[j]):
                    return (i, j)
        return None


class DivisorChain:
    """Elementary divisor ideals d_1 | ... with d_(i-1) contained in d_i."""

    __slots__ = ("ideals",)

    def __init__(self, ideals):
        ideals = tuple(ideals)
        for a in ideals:
            if not a.is_integral():
                raise IdealError("divisors must be integral ideals")
        for i in range(1, len(ideals)):
            if not ideals[i - 1].is_subset(ideals[i]):
                raise IdealError("divisor chain violates containment")
        self.ideals = ideals

    def __iter__(self):
        return iter(self.ideals)

    def __len__(self):
        return len(self.ideals)

    def __getitem__(self, k):
        return self.ideals[k]

    def __eq__(self, other):
        return isinstance(other, DivisorChain) and self.ideals == other.ideals

    def __repr__(self):
        return f"DivisorChain({list(self.ideals)})"


class SnfState:
    """Working state of the elimination on the ``ReducedBasisCache`` of its
    ``pseudo_snf`` call, keeping a_j and b_i^-1 (inverses from
    ``cache.inverse``); exposed for the pivot-step operations."""

    def __init__(self, bp: BiPseudoMatrix, det_ideal: FractionalIdeal, cache):
        self.field = bp.field
        self.cache = cache
        self.a = [row[:] for row in bp.rows]
        self.col_ideals = list(bp.col_ideals)
        self.row_inv = [self.cache.inverse(b) for b in bp.row_ideals]
        self.modulus = det_ideal

    @property
    def n(self) -> int:
        return len(self.a)

    def transpose(self) -> None:
        """Mirror the state: A -> A^T and a_j <-> b_i^-1.

        a_ij in b_i a_j^-1 reads a_ji in (a_j^-1) (b_i^-1)^-1, so the mirror
        is a state again, and a row step here is a column step on the mirror.
        """
        self.a = [list(col) for col in zip(*self.a)]
        self.col_ideals, self.row_inv = self.row_inv, self.col_ideals

    def reduce_entry(self, r: int, c: int) -> None:
        e = self.a[r][c]
        if e:
            inv, prod = self.cache.inverse, self.cache.product
            mod_ideal = prod(prod(self.modulus, inv(self.col_ideals[c])), inv(self.row_inv[r]))
            self.a[r][c] = reduction.reduce_mod_ideal(e, mod_ideal, self.cache)

    def normalize_row(self, k: int) -> None:
        """Normalize (row k, b_k^-1); quotient-preserving by the scaling lemma."""
        self.a[k], self.row_inv[k], _ = reduction.normalize_row(self.a[k], self.row_inv[k],
                                                                self.cache)


def row_pivot(state: SnfState, i: int) -> bool:
    """Clear column i above the pivot by row steps; True when nothing
    needed elimination.

    The steps are ``_clear_column`` on the rows and their ideals b_k^-1: a
    plain transvection when the entry's content already lies inside the
    pivot's, and otherwise a Euclidean step, which strictly grows the
    pivot's content ideal and so makes the surrounding pivot loop
    terminate.
    """
    def reduce(k: int) -> None:
        for c in range(i + 1):
            state.reduce_entry(k, c)

    return _clear_column(state.a, state.row_inv, i, i, state.cache, state.normalize_row, reduce)


def col_pivot(state: SnfState, i: int) -> bool:
    """Clear row i left of the pivot; True when nothing needed elimination.

    This is row_pivot on the mirrored state (see SnfState.transpose).
    """
    state.transpose()
    step_over = row_pivot(state, i)
    state.transpose()
    return step_over


def pivot_divisor(state: SnfState, i: int) -> FractionalIdeal:
    """The divisor d_i the pivot gives now, piv a_i b_i^-1 + M for the
    modulus M (M alone when piv = 0), with a_i b_i^-1 from the call's memo."""
    piv = state.a[i][i]
    if not piv:
        return state.modulus
    return state.cache.product(state.col_ideals[i], state.row_inv[i]).elt_mul(piv) + state.modulus


def offdiag_obstruction_scan(state: SnfState, i: int, divisor: FractionalIdeal):
    """First entry above-left of the pivot whose content escapes the pivot's
    divisor (``pivot_divisor``), with a witness multiplier from b_i b_k^-1.

    The witness g makes e g escape piv a_i a_l^-1 + M a_l^-1 b_i, the ideal
    that ``reduce_entry(i, l)`` reduces modulo, so that adding g times row k
    to row i leaves an entry that neither the reduction clears nor a
    degenerate column step absorbs.  One exists: if every g kept e g inside,
    e a_l b_k^-1 would lie in d_i.
    """
    a = state.a
    field = state.field
    inv, prod = state.cache.inverse, state.cache.product
    piv = a[i][i]
    for k in range(i):
        for l in range(i):
            e = a[k][l]
            if not e:
                continue
            # e a_l b_k^-1 lies in the divisor when e w does for its basis w
            if all(divisor.contains(field.mul(e, w))
                   for w in prod(state.col_ideals[l], state.row_inv[k]).basis_elements()):
                continue
            gid = inv(state.row_inv[i]) * state.row_inv[k]
            target = state.modulus * inv(state.col_ideals[l]) * inv(state.row_inv[i])
            if piv:
                target = (state.col_ideals[i] * inv(state.col_ideals[l])).elt_mul(piv) + target
            for h_row in gid.num:
                gelt = FieldElement(field, list(h_row), gid.den)
                if gelt and not target.contains(e * gelt):
                    return k, l, gelt
            raise RuntimeError("internal error: obstruction witness must exist")
    return None


_MAX_PIVOT_ROUNDS = 10000


def pseudo_snf(bp: BiPseudoMatrix, det_ideal: FractionalIdeal | None = None,
               verify: bool = False) -> DivisorChain:
    """Elementary divisor chain of the quotient presented by ``bp``.

    ``det_ideal`` must equal det(A) * prod(a_j) * prod(b_i)^-1 (it is computed
    when omitted); a non-integral one is refused with IdealError.  The output
    ideals are integral, each contains the one before it, and their product
    is exactly ``det_ideal``.

    One ``ReducedBasisCache`` serves an omitted ``det_ideal``, whose
    inverses b_i^-1 the elimination reuses, and the elimination; a reduced
    basis or normalization that misses its certified bound
    (``QualityError``) reruns it once on a context at twice the precision
    exponent, keeping the ideal memo (``ReducedBasisCache.run``); a second
    miss propagates.
    """
    cache = reduction.ReducedBasisCache(bp.field.lattice_context)
    if det_ideal is None:
        # quotient_determinantal_ideal with the inverses b_i^-1 that the
        # elimination reads from the memo
        det_ideal = (determinant.det_times_ideals(bp.field, bp.rows, bp.col_ideals)
                     * determinant.product_of_ideals([cache.inverse(b) for b in bp.row_ideals]))
    if not det_ideal.is_integral():
        raise IdealError("determinantal ideal of an integral quotient must be integral")
    chain = cache.run(lambda cache: _eliminate(bp, det_ideal, cache, verify))
    if verify and determinant.product_of_ideals(chain.ideals) != det_ideal:
        raise RuntimeError("verify: divisor product differs from the determinantal ideal")
    return chain


def _eliminate(bp: BiPseudoMatrix, det_ideal: FractionalIdeal, cache,
               verify: bool) -> DivisorChain:
    """The elimination of ``pseudo_snf`` on the call's cache."""
    field = bp.field
    n = bp.n
    state = SnfState(bp, det_ideal, cache)
    # the columns as the rows of the mirror, then the rows
    for _side in range(2):
        state.transpose()
        for k in range(n):
            state.normalize_row(k)
    for r in range(n):
        for c in range(n):
            state.reduce_entry(r, c)
    divisors: list[FractionalIdeal | None] = [None] * n
    for i in range(n - 1, -1, -1):
        prev_track = None
        stall = 0
        for _round in range(_MAX_PIVOT_ROUNDS):
            col_pivot(state, i)
            step_over = row_pivot(state, i)
            if verify or step_over:
                divisor = pivot_divisor(state, i)
            if verify:
                # the pivot's content ideal is the divisor it gives
                if prev_track is not None and not step_over:
                    if not prev_track.is_subset(divisor):
                        raise RuntimeError("verify: pivot content ideal shrank")
                    # strict growth can stall on rounds whose eliminations are
                    # absorbed by the pivot; it must resume within a few rounds
                    stall = 0 if prev_track != divisor else stall + 1
                    if stall >= 6:
                        raise RuntimeError("verify: pivot content ideal failed to grow")
                prev_track = divisor
            if step_over:
                viol = offdiag_obstruction_scan(state, i, divisor)
                if viol is not None:
                    k, _l, gelt = viol
                    state.a[i] = [x + gelt * y for x, y in zip(state.a[i], state.a[k])]
                    for c in range(i + 1):
                        state.reduce_entry(i, c)
                    step_over = False
            if step_over:
                break
        else:
            raise RuntimeError("pivot loop failed to terminate")
        # the last round left the state its divisor was built on
        piv = state.a[i][i]
        if piv:
            state.col_ideals[i] = state.col_ideals[i].elt_mul(piv)
        else:
            # pivot class absorbed by the modulus
            state.col_ideals[i] = state.modulus * state.cache.inverse(state.row_inv[i])
        state.a[i][i] = field.one()
        divisors[i] = divisor
        state.modulus = state.modulus * state.cache.inverse(divisor)
    return DivisorChain(divisors)


def quotient_determinantal_ideal(bp: BiPseudoMatrix) -> FractionalIdeal:
    """det(A) * prod(a_j) * prod(b_i)^-1, the modulus of the quotient."""
    rows_prod = determinant.product_of_ideals(bp.row_ideals)
    return determinant.det_times_ideals(bp.field, bp.rows, bp.col_ideals) * rows_prod.inverse()
