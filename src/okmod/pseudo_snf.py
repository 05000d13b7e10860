"""Pseudo-Smith normal form: elementary divisors of a module quotient.

A bi-pseudo matrix (A, (b_i), (a_j)) with a_ij in b_i a_j^-1 presents a
quotient of two rank-n modules.  Alternating column and row gcd passes with
quotient-preserving normalizations drive it to the identity while extracting
the divisor chain; off-diagonal obstructions (entries whose content is not
yet divisible by the pivot's) are folded into the pivot row before a divisor
is finalized, exactly like the classical Smith procedure over Z.
"""

from __future__ import annotations

from . import determinant, reduction
from .ideals import FractionalIdeal, IdealError
from .numberfield import FieldElement, NumberField
from .pseudo_hnf import euclidean_step


class BiPseudoMatrix:
    """Square matrix over K with row ideals (b_i) and column ideals (a_j)."""

    __slots__ = ("field", "rows", "row_ideals", "col_ideals")

    def __init__(self, field: NumberField, rows, row_ideals, col_ideals,
                 validate: bool = True):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("bi-pseudo matrix must be square and nonempty")
        if len(row_ideals) != n or len(col_ideals) != n:
            raise ValueError("need n row ideals and n column ideals")
        self.field = field
        self.rows = rows
        self.row_ideals = list(row_ideals)
        self.col_ideals = list(col_ideals)
        if validate:
            bad = self.integrality_violation()
            if bad is not None:
                raise IdealError(f"entry {bad} is not in b_i * a_j^-1")

    @property
    def n(self) -> int:
        return len(self.rows)

    def integrality_violation(self):
        """First (i, j) with a_ij outside b_i a_j^-1, or None."""
        inv_cols = [a.inverse() for a in self.col_ideals]
        for i in range(self.n):
            for j in range(self.n):
                e = self.rows[i][j]
                if e and not (self.row_ideals[i] * inv_cols[j]).contains(e):
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
    """Working state of the elimination; exposed for the pivot-step operations."""

    def __init__(self, bp: BiPseudoMatrix, det_ideal: FractionalIdeal):
        field = bp.field
        self.field = field
        self.a = [row[:] for row in bp.rows]
        self.row_ideals = list(bp.row_ideals)
        self.col_ideals = list(bp.col_ideals)
        self.row_inv = [x.inverse() for x in self.row_ideals]
        self.col_inv = [x.inverse() for x in self.col_ideals]
        self.modulus = det_ideal
        self.ctx = field.lattice_context
        self.cache = reduction.ReducedBasisCache(self.ctx)

    @property
    def n(self) -> int:
        return len(self.a)

    def reduce_entry(self, r: int, c: int) -> None:
        e = self.a[r][c]
        if e:
            mod_ideal = self.modulus * self.col_inv[c] * self.row_ideals[r]
            self.a[r][c] = reduction.reduce_mod_ideal(e, mod_ideal, self.cache)

    def normalize_row_pair(self, i: int) -> None:
        """Normalize (A_i, b_i^-1); quotient-preserving by the scaling lemma."""
        field = self.field
        self.a[i], new_inv, scalar = reduction.normalize_row(
            self.a[i], self.row_inv[i], self.ctx, self.cache)
        self.row_inv[i] = new_inv
        self.row_ideals[i] = self.row_ideals[i].elt_mul(field.inv(scalar))

    def normalize_col_pair(self, j: int) -> None:
        field = self.field
        col = [self.a[r][j] for r in range(self.n)]
        col, new_ideal, scalar = reduction.normalize_row(
            col, self.col_ideals[j], self.ctx, self.cache)
        for r in range(self.n):
            self.a[r][j] = col[r]
        self.col_ideals[j] = new_ideal
        self.col_inv[j] = self.col_inv[j].elt_mul(field.inv(scalar))


def col_pivot(state: SnfState, i: int) -> None:
    """Clear row i left of the pivot by column gcd steps.

    When the entry's content ideal already lies inside the pivot's, the
    Euclidean step is taken with the degenerate splitting (1/pivot, 0), i.e.
    a plain transvection that leaves column i alone; otherwise the generic
    two-by-two step strictly grows the pivot's content ideal, which is what
    makes the surrounding pivot loop terminate.
    """
    a = state.a
    field = state.field
    for j in range(i - 1, -1, -1):
        if not a[i][j]:
            continue
        if not a[i][i]:
            for r in range(state.n):
                a[r][i], a[r][j] = a[r][j], a[r][i]
            state.col_ideals[i], state.col_ideals[j] = state.col_ideals[j], state.col_ideals[i]
            state.col_inv[i], state.col_inv[j] = state.col_inv[j], state.col_inv[i]
            continue
        lam = field.mul(a[i][j], field.inv(a[i][i]))
        if (state.col_ideals[i] * state.col_inv[j]).contains(lam):
            for r in range(state.n):
                a[r][j] = a[r][j] - lam * a[r][i]
            for k in range(i + 1):
                state.reduce_entry(k, j)
            continue
        g, ginv, gamma, delta = euclidean_step(state.col_ideals[i], state.col_ideals[j],
                                               a[i][i], a[i][j])
        piv, other = a[i][i], a[i][j]
        for r in range(state.n):
            x, y = a[r][j], a[r][i]
            a[r][j] = piv * x - other * y
            a[r][i] = gamma * y + delta * x
        state.col_ideals[j] = state.col_ideals[i] * state.col_ideals[j] * ginv
        state.col_inv[j] = state.col_inv[i] * state.col_inv[j] * g
        state.col_ideals[i] = g
        state.col_inv[i] = ginv
        state.normalize_col_pair(j)
        state.normalize_col_pair(i)
        for k in range(i + 1):
            state.reduce_entry(k, j)
            state.reduce_entry(k, i)


def row_pivot(state: SnfState, i: int) -> bool:
    """Clear column i above the pivot; True when nothing needed elimination.

    Divisible entries are removed by a transvection (degenerate splitting) so
    row i is not refilled; see col_pivot.
    """
    a = state.a
    field = state.field
    step_over = True
    for j in range(i - 1, -1, -1):
        if not a[j][i]:
            continue
        if not a[i][i]:
            # swapping refills row i left of the pivot; force another round
            a[i], a[j] = a[j], a[i]
            state.row_ideals[i], state.row_ideals[j] = state.row_ideals[j], state.row_ideals[i]
            state.row_inv[i], state.row_inv[j] = state.row_inv[j], state.row_inv[i]
            step_over = False
            continue
        lam = field.mul(a[j][i], field.inv(a[i][i]))
        if (state.row_ideals[j] * state.row_inv[i]).contains(lam):
            a[j] = [x - lam * y for x, y in zip(a[j], a[i])]
            for k in range(i + 1):
                state.reduce_entry(j, k)
            step_over = False
            continue
        g, ginv, gamma, delta = euclidean_step(state.row_inv[i], state.row_inv[j],
                                               a[i][i], a[j][i])
        piv, other = a[i][i], a[j][i]
        old_j, old_i = a[j], a[i]
        a[j] = [piv * x - other * y for x, y in zip(old_j, old_i)]
        a[i] = [gamma * y + delta * x for x, y in zip(old_j, old_i)]
        state.row_inv[j] = state.row_inv[j] * state.row_inv[i] * ginv
        state.row_ideals[j] = state.row_ideals[j] * state.row_ideals[i] * g
        state.row_inv[i] = g
        state.row_ideals[i] = ginv
        state.normalize_row_pair(j)
        state.normalize_row_pair(i)
        for k in range(i + 1):
            state.reduce_entry(j, k)
            state.reduce_entry(i, k)
        step_over = False
    return step_over


def offdiag_obstruction_scan(state: SnfState, i: int):
    """First entry above-left of the pivot whose content escapes the pivot's
    candidate divisor, with a witness multiplier from b_i b_k^-1."""
    a = state.a
    field = state.field
    piv = a[i][i]
    cand = None
    if piv:
        cand = (state.col_ideals[i] * state.row_inv[i]).elt_mul(piv)
    for k in range(i):
        for l in range(i):
            e = a[k][l]
            if not e:
                continue
            content = (state.col_ideals[l] * state.row_inv[k]).elt_mul(e)
            if cand is not None and content.is_subset(cand):
                continue
            gid = state.row_ideals[i] * state.row_inv[k]
            target = None
            if piv:
                target = (state.col_ideals[i] * state.col_inv[l]).elt_mul(piv)
            for h_row in gid.num:
                gelt = FieldElement(field, list(h_row), gid.den)
                if not gelt:
                    continue
                prod = e * gelt
                if target is None or not target.contains(prod):
                    return k, l, gelt
            raise RuntimeError("internal error: obstruction witness must exist")
    return None


_MAX_PIVOT_ROUNDS = 10000


def pseudo_snf(bp: BiPseudoMatrix, det_ideal: FractionalIdeal | None = None,
               verify: bool = False) -> DivisorChain:
    """Elementary divisor chain of the quotient presented by ``bp``.

    ``det_ideal`` must equal det(A) * prod(a_j) * prod(b_i)^-1 (it is computed
    when omitted).  The output ideals are integral, each contains the one
    before it, and their product is exactly ``det_ideal``.
    """
    field = bp.field
    n = bp.n
    if det_ideal is None:
        det_ideal = quotient_determinantal_ideal(bp)
    if not det_ideal.is_integral() and verify:
        raise IdealError("determinantal ideal of an integral quotient must be integral")
    state = SnfState(bp, det_ideal)
    for j in range(n):
        state.normalize_col_pair(j)
    for i in range(n):
        state.normalize_row_pair(i)
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
            if verify:
                track = state.modulus
                if state.a[i][i]:
                    track = track + (state.col_ideals[i] * state.row_inv[i]).elt_mul(state.a[i][i])
                if prev_track is not None and not step_over:
                    if not prev_track.is_subset(track):
                        raise RuntimeError("verify: pivot content ideal shrank")
                    # strict growth can stall on rounds whose eliminations are
                    # absorbed by the pivot; it must resume within a few rounds
                    stall = 0 if prev_track != track else stall + 1
                    if stall >= 6:
                        raise RuntimeError("verify: pivot content ideal failed to grow")
                prev_track = track
            if step_over:
                viol = offdiag_obstruction_scan(state, i)
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
        piv = state.a[i][i]
        if piv:
            state.col_ideals[i] = state.col_ideals[i].elt_mul(piv)
            state.col_inv[i] = state.col_inv[i].elt_mul(field.inv(piv))
            state.a[i][i] = field.one()
            d_i = state.col_ideals[i] * state.row_inv[i] + state.modulus
        else:
            # pivot class absorbed by the modulus
            d_i = state.modulus
            state.col_ideals[i] = state.modulus * state.row_ideals[i]
            state.col_inv[i] = state.col_ideals[i].inverse()
            state.a[i][i] = field.one()
        divisors[i] = d_i
        state.modulus = state.modulus * d_i.inverse()
    chain = DivisorChain(divisors)
    if verify:
        prod = chain[0]
        for a in chain.ideals[1:]:
            prod = prod * a
        if prod != det_ideal:
            raise RuntimeError("verify: divisor product differs from the determinantal ideal")
    return chain


def quotient_determinantal_ideal(bp: BiPseudoMatrix) -> FractionalIdeal:
    """det(A) * prod(a_j) * prod(b_i)^-1, the modulus of the quotient."""
    out = determinant.det_times_ideals(bp.field, bp.rows, bp.col_ideals)
    for b in bp.row_ideals:
        out = out * b.inverse()
    return out
