"""Pseudo-Smith form: divisor chains, oracles, pivot-step operations."""

import importlib
from fractions import Fraction
from itertools import combinations

import pytest

from okmod import (BiPseudoMatrix, DivisorChain, FractionalIdeal, cli, determinant, lattice,
                   pseudo_snf, quotient_determinantal_ideal)
from okmod.ideals import IdealError
from okmod.pseudo_snf import SnfState, col_pivot, offdiag_obstruction_scan, row_pivot
from okmod.reduction import ReducedBasisCache
from okmod.zlinalg import SingularMatrixError, det_bareiss, z_snf

from conftest import (ALL_FIELDS, QM5_OBSTRUCTION_IN_MODULUS, cofactor_det, get_field,
                      random_element, random_ideal, reinverted, seeded, spy_inversions)

# every randomized test draws from its own generator, so its inputs do not
# depend on which other tests run before it


def trivial_bp(Q, mat):
    u = FractionalIdeal.unit(Q)
    n = len(mat)
    rows = [[Q.from_int(x) for x in row] for row in mat]
    return BiPseudoMatrix(Q, rows, [u] * n, [u] * n)


def test_diag_examples():
    Q = get_field("Q")
    chain = pseudo_snf(trivial_bp(Q, [[2, 0], [0, 6]]), verify=True)
    assert [a.num[0][0] for a in chain] == [6, 2]
    chain = pseudo_snf(trivial_bp(Q, [[1, 0], [0, 1]]), verify=True)
    assert all(a.is_unit() for a in chain)


def test_gaussian_diag_example():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    one, i = K.one(), K.element([0, 1])
    bp = BiPseudoMatrix(K, [[one + i, K.zero()], [K.zero(), one]], [u, u], [u, u])
    chain = pseudo_snf(bp, verify=True)
    assert chain[1].is_unit()
    assert chain[0] == FractionalIdeal.from_generators(K, [one + i])
    # quotient order = N(1+i) = 2
    prod = chain[0] * chain[1]
    assert prod.norm() == 2


def test_integrality_validation():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    two = FractionalIdeal.from_generators(K, [K.from_int(2)])
    # entry 1 is not inside (2)*O_K^-1 = (2)
    with pytest.raises(IdealError):
        BiPseudoMatrix(K, [[K.one()]], [two], [u])


def test_entries_and_ideals_of_another_field_are_refused():
    # a row ideal of Q(i) over entries of Q(sqrt -5) once failed only inside
    # pseudo_snf, and a zero entry of another field was never refused
    K, L = get_field("Qm5"), get_field("Qi")
    u, v = FractionalIdeal.unit(K), FractionalIdeal.unit(L)
    one, zero = K.one(), K.zero()
    rows = [[one, zero], [zero, one]]
    assert pseudo_snf(BiPseudoMatrix(K, rows, [u, u], [u, u]), verify=True)[0].is_unit()
    for bad_rows, row_ideals, col_ideals, message in (
            ([[one, L.zero()], [zero, one]], [u, u], [u, u], "entry from a different field"),
            ([[one, zero], [zero, L.one()]], [u, u], [u, u], "entry from a different field"),
            (rows, [u, v], [u, u], "ideal from a different field"),
            (rows, [u, u], [v, u], "ideal from a different field")):
        with pytest.raises(ValueError, match=message):
            BiPseudoMatrix(K, bad_rows, row_ideals, col_ideals)


def reference_integrality_violation(bp):
    """First (i, j) with a_ij outside the product ideal b_i a_j^-1, or None:
    the reference of ``integrality_violation``."""
    inv_cols = [a.inverse() for a in bp.col_ideals]
    for i in range(bp.n):
        for j in range(bp.n):
            e = bp.rows[i][j]
            if e and not (bp.row_ideals[i] * inv_cols[j]).contains(e):
                return (i, j)
    return None


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_integrality_violation_matches_the_product_form(name):
    field = get_field(name)
    local = seeded(f"test_pseudo_snf integrality violation {name}")
    planted = 0
    for _ in range(8):
        n = local.randint(1, 3)
        bp = random_integral_bp(field, n, local)
        assert bp.integrality_violation() is None
        assert reference_integrality_violation(bp) is None
        # shift a few entries by elements with denominators; some land
        # outside b_i a_j^-1, and the first of those is the one reported
        for _ in range(local.randint(1, 3)):
            i, j = local.randrange(n), local.randrange(n)
            bp.rows[i][j] = bp.rows[i][j] + random_element(local, field, max_den=6)
        found = bp.integrality_violation()
        assert found == reference_integrality_violation(bp)
        planted += found is not None
    assert planted >= 4


def test_singularity_detected():
    Q = get_field("Q")
    with pytest.raises(SingularMatrixError):
        pseudo_snf(trivial_bp(Q, [[1, 1], [1, 1]]))


def test_d1_oracle_random():
    Q = get_field("Q")
    rng = seeded("test_pseudo_snf d1 oracle", 1)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        mat = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        if det_bareiss(mat) == 0:
            continue
        chain = pseudo_snf(trivial_bp(Q, mat), verify=True)
        snf = z_snf(mat)
        assert sorted(a.num[0][0] for a in chain) == sorted(snf[i][i] for i in range(n))
        # containment order: d_(i-1) inside d_i
        for i in range(1, n):
            assert chain[i - 1].is_subset(chain[i])
        done += 1


def random_integral_bp(field, n, rng):
    """Random integral bi-pseudo matrix built from basis products."""
    bI = [random_ideal(rng, field) for _ in range(n)]
    aI = [random_ideal(rng, field) for _ in range(n)]
    rows = []
    for i in range(n):
        bbasis = bI[i].basis_elements()
        row = []
        for j in range(n):
            abasis = aI[j].inverse().basis_elements()
            e = field.zero()
            for _ in range(field.degree):
                e = e + rng.randint(-2, 2) * (
                    bbasis[rng.randrange(len(bbasis))] * abasis[rng.randrange(len(abasis))])
            row.append(e)
        rows.append(row)
    return BiPseudoMatrix(field, rows, bI, aI)


def test_chain_and_product_identity(field):
    rng = seeded("test_pseudo_snf chain and product", 2)
    done = 0
    while done < 6:
        n = rng.randint(1, 3)
        bp = random_integral_bp(field, n, rng)
        try:
            det_ideal = quotient_determinantal_ideal(bp)
        except SingularMatrixError:
            continue
        chain = pseudo_snf(bp, det_ideal, verify=True)
        assert all(a.is_integral() for a in chain)
        prod = chain[0]
        for a in chain.ideals[1:]:
            prod = prod * a
        assert prod == det_ideal
        for i in range(1, n):
            assert chain[i - 1].is_subset(chain[i])
        done += 1


def test_quotient_determinantal_ideal_inverts_once(monkeypatch):
    field = get_field("Qm5")
    rng = seeded("test_pseudo_snf one inverse", 4)
    bp = random_integral_bp(field, 3, rng)
    while any(b.is_unit() for b in bp.row_ideals):
        bp = random_integral_bp(field, 3, rng)
    expected = determinant.det_times_ideals(field, bp.rows, bp.col_ideals)
    for b in bp.row_ideals:
        expected = expected * b.inverse()
    calls = []
    real = FractionalIdeal.inverse
    monkeypatch.setattr(FractionalIdeal, "inverse", lambda self: calls.append(self) or real(self))
    assert quotient_determinantal_ideal(bp) == expected
    assert len(calls) == 1


def absolute_index(bp):
    """|M/N| by absolute lattices: |det(abs(N))| / |det(abs(M))|."""
    from okmod.pseudo_hnf import PseudoMatrix, to_absolute
    field = bp.field
    n = bp.n
    eye = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    m_abs = to_absolute(PseudoMatrix(field, eye, bp.row_ideals))
    cols = [[bp.rows[i][j] for i in range(n)] for j in range(n)]
    n_abs = to_absolute(PseudoMatrix(field, cols, bp.col_ideals))
    dm = det_bareiss(m_abs)
    dn = det_bareiss(n_abs)
    return abs(Fraction(dn, dm))


def test_quotient_order_matches_absolute_index():
    rng = seeded("test_pseudo_snf absolute index", 3)
    for name in ("Q", "Qi"):
        field = get_field(name)
        done = 0
        while done < 6:
            n = rng.randint(1, 3)
            bp = random_integral_bp(field, n, rng)
            try:
                chain = pseudo_snf(bp, verify=True)
            except SingularMatrixError:
                continue
            prod = chain[0]
            for a in chain.ideals[1:]:
                prod = prod * a
            assert prod.norm() == absolute_index(bp)
            done += 1


def test_obstruction_scan_example():
    Q = get_field("Q")
    bp = trivial_bp(Q, [[6, 0], [0, 4]])
    state = SnfState(bp, quotient_determinantal_ideal(bp), ReducedBasisCache(Q.lattice_context))
    col_pivot(state, 1)
    assert row_pivot(state, 1) is True
    viol = offdiag_obstruction_scan(state, 1)
    assert viol is not None
    k, l, g = viol
    assert (k, l) == (0, 0) and g == Q.one()


def test_obstruction_scan_clean_diag():
    Q = get_field("Q")
    bp = trivial_bp(Q, [[6, 0], [0, 2]])  # correctly ordered divisors
    state = SnfState(bp, quotient_determinantal_ideal(bp), ReducedBasisCache(Q.lattice_context))
    col_pivot(state, 1)
    assert row_pivot(state, 1) is True
    assert offdiag_obstruction_scan(state, 1) is None


def test_row_pivot_reports_no_op():
    Q = get_field("Q")
    bp = trivial_bp(Q, [[3, 0], [0, 5]])
    state = SnfState(bp, quotient_determinantal_ideal(bp), ReducedBasisCache(Q.lattice_context))
    assert row_pivot(state, 1) is True


def test_pivots_report_elimination():
    Q = get_field("Q")
    for mat, pivot in (([[1, 3], [0, 5]], row_pivot), ([[1, 0], [3, 5]], col_pivot),
                       ([[0, 3], [0, 0]], row_pivot), ([[0, 0], [3, 0]], col_pivot)):
        bp = BiPseudoMatrix(Q, [[Q.from_int(x) for x in row] for row in mat],
                            [FractionalIdeal.unit(Q)] * 2, [FractionalIdeal.unit(Q)] * 2)
        state = SnfState(bp, FractionalIdeal.unit(Q), ReducedBasisCache(Q.lattice_context))
        assert pivot(state, 1) is False


def test_divisor_chain_validation():
    Q = get_field("Q")
    two = FractionalIdeal.from_rational(Q, 2)
    six = FractionalIdeal.from_rational(Q, 6)
    DivisorChain([six, two])
    with pytest.raises(IdealError):
        DivisorChain([two, six])
    with pytest.raises(IdealError):
        DivisorChain([FractionalIdeal.from_rational(Q, Fraction(1, 2))])


def nonsingular_bp(field, local, n_max):
    while True:
        bp = random_integral_bp(field, local.randint(1, n_max), local)
        try:
            return bp, quotient_determinantal_ideal(bp)
        except SingularMatrixError:
            continue


def transposed_bp(bp):
    """(A^t, (a_j^-1), (b_i^-1)): the same quotient with rows and columns swapped."""
    cols = [list(c) for c in zip(*bp.rows)]
    return BiPseudoMatrix(bp.field, cols, [a.inverse() for a in bp.col_ideals],
                          [b.inverse() for b in bp.row_ideals])


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_divisor_chain_of_transpose(name):
    field = get_field(name)
    local = seeded(f"test_pseudo_snf transpose {name}")
    for _ in range(3):
        bp, det_ideal = nonsingular_bp(field, local, 3)
        bpt = transposed_bp(bp)
        assert quotient_determinantal_ideal(bpt) == det_ideal
        assert pseudo_snf(bpt, verify=True) == pseudo_snf(bp, verify=True)


def assert_mirrored(state, mirror):
    assert state.a == [list(c) for c in zip(*mirror.a)]
    assert state.col_ideals == mirror.row_inv
    assert state.row_inv == mirror.col_ideals


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_row_pivot_is_col_pivot_of_the_mirror(name):
    field = get_field(name)
    local = seeded(f"test_pseudo_snf mirror {name}")
    for _ in range(3):
        bp, det_ideal = nonsingular_bp(field, local, 3)
        state = SnfState(bp, det_ideal, ReducedBasisCache(field.lattice_context))
        mirror = SnfState(transposed_bp(bp), det_ideal,
                          ReducedBasisCache(field.lattice_context))
        assert_mirrored(state, mirror)
        for i in range(bp.n - 1, -1, -1):
            assert row_pivot(state, i) == col_pivot(mirror, i)
            assert_mirrored(state, mirror)
            assert col_pivot(state, i) == row_pivot(mirror, i)
            assert_mirrored(state, mirror)


@pytest.mark.parametrize("name", ["Qm5", "quartic"])
def test_quality_error_reruns_on_a_finer_context(name, monkeypatch):
    field = get_field(name)
    bp, det_ideal = nonsingular_bp(field, seeded(f"test_pseudo_snf quality retry {name}"), 3)
    expected = pseudo_snf(bp, det_ideal)
    real = lattice._check_quality
    refused = []

    def fail_on_default(ideal, basis, ctx):
        if ctx is field.lattice_context:
            refused.append(ctx)
            raise lattice.QualityError("refused on the default context")
        return real(ideal, basis, ctx)

    monkeypatch.setattr(lattice, "_check_quality", fail_on_default)
    counts = spy_inversions(monkeypatch)
    assert pseudo_snf(bp, det_ideal, verify=True) == expected
    assert refused
    # the rerun keeps the call's ideal memo
    assert counts and reinverted(counts) == []

    def fail_always(ideal, basis, ctx):
        refused.append(ctx)
        raise lattice.QualityError("refused on every context")

    monkeypatch.setattr(lattice, "_check_quality", fail_always)
    with pytest.raises(lattice.QualityError, match="every context"):
        pseudo_snf(bp, det_ideal)
    assert len({id(ctx) for ctx in refused[-2:]}) == 2


@pytest.mark.parametrize("name", ["Qm5", "cubic", "quartic"])
def test_one_call_inverts_no_ideal_twice(name, monkeypatch):
    # the elimination, its normalizations and the obstruction scan of one
    # call read one ideal memo
    field = get_field(name)
    rng = seeded(f"test_pseudo_snf one memo {name}")
    counts = spy_inversions(monkeypatch)
    for _ in range(3):
        bp, det_ideal = nonsingular_bp(field, rng, 3)
        counts.clear()
        pseudo_snf(bp, det_ideal, verify=True)
        assert counts and reinverted(counts) == []


@pytest.mark.parametrize("name", ["Qm5", "cubic"])
def test_omitted_det_ideal_inverts_each_row_ideal_once(name, monkeypatch):
    # without det_ideal, pseudo_snf takes the quotient's determinantal ideal
    # with the b_i^-1 of its own memo, which the elimination reads too; on
    # [14 + 4 sqrt-5] with row ideal P = (2, 1 + sqrt-5) it once inverted P
    # for the determinantal ideal and again for the elimination
    K = get_field(name)
    rng = seeded(f"test_pseudo_snf omitted det_ideal {name}")
    u = FractionalIdeal.unit(K)
    cases = []
    if name == "Qm5":
        p = FractionalIdeal.from_generators(K, [K.from_int(2), K.element([1, 1])])
        cases.append((p, K.element([14, 4])))
    while len(cases) < 4:
        b = random_ideal(rng, K)
        if not b.is_unit():
            cases.append((b, b.basis_elements()[-1] * random_element(rng, K, 4)))
    counts = spy_inversions(monkeypatch)
    for b, entry in cases:
        bp = BiPseudoMatrix(K, [[entry]], [b], [u])
        det_ideal = quotient_determinantal_ideal(bp)
        counts.clear()
        chain = pseudo_snf(bp, verify=True)
        assert counts and reinverted(counts) == []
        assert chain == pseudo_snf(bp, det_ideal)
        assert determinant.product_of_ideals(chain.ideals) == det_ideal


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("name", ["Qm5", "cubic"])
def test_non_integral_det_ideal_refused_up_front(name, verify, monkeypatch):
    field = get_field(name)
    local = seeded(f"test_pseudo_snf non-integral {name}")
    bp, det_ideal = nonsingular_bp(field, local, 3)
    bad = det_ideal * FractionalIdeal.from_rational(field, Fraction(1, 10007))
    # the refusal must come before any elimination step
    monkeypatch.setattr(importlib.import_module("okmod.pseudo_snf"), "SnfState", None)
    with pytest.raises(IdealError, match="determinantal ideal"):
        pseudo_snf(bp, bad, verify=verify)


def minor_ideal_sum(bp, k):
    """Sum over the k x k minors of det(A_IJ) prod_J a_j prod_I b_i^-1, by
    cofactor expansion: by the elementary divisor theorem, the product of the
    last k divisors of the chain."""
    field = bp.field
    total = None
    for rows in combinations(range(bp.n), k):
        for cols in combinations(range(bp.n), k):
            d = cofactor_det(field, [[bp.rows[i][j] for j in cols] for i in rows])
            if not d:
                continue
            term = FractionalIdeal.principal(field, d)
            for j in cols:
                term = term * bp.col_ideals[j]
            for i in rows:
                term = term * bp.row_ideals[i].inverse()
            total = term if total is None else total + term
    return total


def test_obstruction_inside_the_modulus_terminates():
    # the content escapes the pivot's ideal but not the divisor d_i it gives
    # with the modulus; the scan compares against d_i
    field = get_field("Qm5")
    bp = cli.parse_matrix_text(QM5_OBSTRUCTION_IN_MODULUS, field)
    chain = pseudo_snf(bp, verify=True)
    assert all(a.is_integral() for a in chain)
    for i in range(1, bp.n):
        assert chain[i - 1].is_subset(chain[i])
    assert determinant.product_of_ideals(chain.ideals) == quotient_determinantal_ideal(bp)
    for k in range(1, bp.n + 1):
        assert determinant.product_of_ideals(chain.ideals[bp.n - k:]) == minor_ideal_sum(bp, k)
    p = FractionalIdeal.from_generators(field, [field.from_int(2), field.element([1, 1])])
    assert chain[1] == chain[2] == p and chain[3].is_unit()
