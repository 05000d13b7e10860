"""Acceptance criteria: one seeded, timed, self-reporting test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Every tolerance is pinned here; the certified-bound checks are exact rational
comparisons against the stored reduction-quality constants.
"""

import random
import time
from fractions import Fraction
from math import gcd, log2

from okmod import (BiPseudoMatrix, FractionalIdeal, PseudoMatrix, canonicalize,
                   det, determinantal_ideal, determinantal_ideal_multiple,
                   module_hnf, plan_primes, project_element, pseudo_hnf,
                   pseudo_snf, quotient_determinantal_ideal, split_prime)
from okmod import residues as rs
from okmod import zlinalg as zl
from okmod.numeric import frac_sqrt_ub
from okmod.reduction import ReducedBasisCache, check_reduced_bound, normalize_row, reduce_mod_ideal
from okmod.zlinalg import RankDeficiencyError, det_bareiss, hnf_with_modulus, z_snf

from conftest import cofactor_det, echelon_hnf_upper, get_field, hnf

SEED = 20250810
FIELDS = ("Q", "Qi", "Qm5", "cubic")


def report(num, name, started):
    print(f"ACCEPTANCE {num} {name}: PASS ({time.time() - started:.1f}s)")


def rand_elt(rng, K, lim=9, max_den=1, nonzero=True):
    while True:
        den = rng.randint(1, max_den) if max_den > 1 else 1
        e = K.element([rng.randint(-lim, lim) for _ in range(K.degree)], den)
        if e or not nonzero:
            return e


def rand_ideal(rng, K, lim=6, fractional=False):
    a = FractionalIdeal.from_generators(K, [rand_elt(rng, K, lim)])
    if rng.random() < 0.5:
        a = a + FractionalIdeal.from_generators(K, [rand_elt(rng, K, lim)])
    if fractional and rng.random() < 0.4:
        a = a * FractionalIdeal.from_rational(K, Fraction(1, rng.randint(2, 5)))
    return a


def test_criterion_1_hnf_howell_consistency():
    started = time.time()
    rng = random.Random(SEED + 1)
    print(f"[seed] criterion 1 seed={SEED + 1}")
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        lam = rng.randint(1, 10 ** 6)
        a = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)] for _ in range(n)]
        a += [[lam if i == j else 0 for j in range(m)] for i in range(m)]
        assert hnf_with_modulus(a, lam) == hnf(a)
    report(1, "integer HNF/Howell consistency (200 instances)", started)


def test_criterion_2_field_and_ideal_algebra():
    started = time.time()
    rng = random.Random(SEED + 2)
    print(f"[seed] criterion 2 seed={SEED + 2}")
    for name in FIELDS:
        K = get_field(name)
        unit = FractionalIdeal.unit(K)
        for _ in range(500):
            alpha = rand_elt(rng, K, lim=20, max_den=6)
            assert alpha * K.inv(alpha) == K.one()
            beta = rand_elt(rng, K, lim=20, max_den=6)
            assert K.norm(alpha) * K.norm(beta) == K.norm(alpha * beta)
            a = rand_ideal(rng, K, fractional=True)
            assert a * a.inverse() == unit
            b = rand_ideal(rng, K)
            assert (a * b).norm() == a.norm() * b.norm()
            ai = FractionalIdeal(K, [list(r) for r in a.num], 1)
            k = rng.randint(1, 9)
            assert ai.minimum() * b.minimum() % (ai * b).minimum() == 0
            assert gcd(ai.minimum(), b.minimum()) % (ai + b).minimum() == 0
            assert ai.inverse().den == ai.minimum()
            assert ai.int_mul(k).minimum() == k * ai.minimum()
            assert ai.norm() % ai.minimum() == 0
    report(2, "field/ideal algebra (4 fields x 500)", started)


def test_criterion_3_reduction_contract():
    started = time.time()
    rng = random.Random(SEED + 3)
    print(f"[seed] criterion 3 seed={SEED + 3}")
    for name in FIELDS:
        K = get_field(name)
        ctx = K.lattice_context
        cache = ReducedBasisCache(ctx)
        for _ in range(500):
            a = rand_ideal(rng, K, fractional=True)
            alpha = rand_elt(rng, K, lim=80, max_den=9)
            red = reduce_mod_ideal(alpha, a, cache)
            assert a.contains(alpha - red)
            assert check_reduced_bound(red, a, ctx)
    report(3, "reduction contract (4 fields x 500)", started)


def _row_lattice(field, row, ideal, scale):
    rows = []
    for eps in ideal.basis_elements():
        flat = []
        for entry in row:
            prod = eps * entry * scale
            assert prod.den == 1
            flat.extend(prod.coeffs)
        rows.append(flat)
    return echelon_hnf_upper(rows, len(rows[0]))


def test_criterion_4_normalization_contract():
    started = time.time()
    rng = random.Random(SEED + 4)
    print(f"[seed] criterion 4 seed={SEED + 4}")
    for name in FIELDS:
        K = get_field(name)
        ctx = K.lattice_context
        cache = ReducedBasisCache(ctx)
        bound_sq = ctx.norm_bound_sq()
        for _ in range(500):
            a = rand_ideal(rng, K, fractional=True)
            m = rng.randint(1, 3)
            row = [rand_elt(rng, K, lim=12, max_den=4) for _ in range(m)]
            nrow, nid, _ = normalize_row(row, a, cache)
            assert nid.is_integral()
            n = nid.norm()
            assert n * n <= bound_sq
            scale = a.den * nid.den
            for old, new in zip(row, nrow):
                scale *= old.den * new.den
            assert _row_lattice(K, row, a, scale) == _row_lattice(K, nrow, nid, scale)
    report(4, "normalization contract (4 fields x 500)", started)


def test_criterion_5_determinant_oracle():
    started = time.time()
    rng = random.Random(SEED + 5)
    print(f"[seed] criterion 5 seed={SEED + 5}")
    for name in FIELDS:
        K = get_field(name)
        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[rand_elt(rng, K, lim=9, nonzero=False) or K.zero()
                     for _ in range(n)] for _ in range(n)]
            assert det(K, rows) == cofactor_det(K, rows)
        # CRT round-trip recovery
        plan = plan_primes(K, 24)
        systems = [split_prime(K, p) for p in plan.primes]
        half = plan.modulus // 2
        for _ in range(200):
            beta = K.element([rng.randint(-half + 1, half) for _ in range(K.degree)])
            per_prime = [rs.crt_combine_factors(project_element(beta, s), s)
                         for s in systems]
            coeffs = rs.crt_combine_primes(per_prime, plan, K.degree)
            assert rs.lift_to_field(coeffs, K, plan.modulus) == beta
    report(5, "determinant vs cofactor + CRT round trip", started)


def test_criterion_6_pseudo_hnf_master_oracle():
    started = time.time()
    rng = random.Random(SEED + 6)
    print(f"[seed] criterion 6 seed={SEED + 6}")
    for name in FIELDS:
        K = get_field(name)
        unit = FractionalIdeal.unit(K)
        done = 0
        while done < 100:
            n = rng.randint(2, 10)
            m = rng.randint(1, min(6, n))
            rows = [[K.element([rng.randint(-10 ** 4, 10 ** 4)
                                for _ in range(K.degree)]) for _ in range(m)]
                    for _ in range(n)]
            ideals = [rand_ideal(rng, K) if rng.random() < 0.4 else unit
                      for _ in range(n)]
            pm = PseudoMatrix(K, rows, ideals)
            try:
                dd = determinantal_ideal_multiple(pm)
            except RankDeficiencyError:
                continue
            out = pseudo_hnf(pm, dd, verify=True)
            assert module_hnf(pm) == module_hnf(out)
            for r in range(m):
                assert out.rows[r][r] == K.one()
                assert all(not out.rows[r][t] for t in range(r + 1, m))
            if n == m:
                assert determinantal_ideal(PseudoMatrix(K, out.rows[:m], out.ideals[:m])) \
                    == determinantal_ideal(pm)
            done += 1
    report(6, "pseudo-HNF master oracle (4 fields x 100)", started)


def test_criterion_7_d1_degeneration():
    started = time.time()
    rng = random.Random(SEED + 7)
    print(f"[seed] criterion 7 seed={SEED + 7}")
    Q = get_field("Q")
    unit = FractionalIdeal.unit(Q)
    done = 0
    while done < 100:
        m = rng.randint(1, 5)
        n = m + rng.randint(0, 2)
        mat = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
        try:
            classical = hnf(mat)
        except RankDeficiencyError:
            continue
        pm = PseudoMatrix(Q, [[Q.from_int(x) for x in row] for row in mat], [unit] * n)
        out = canonicalize(pseudo_hnf(pm, determinantal_ideal_multiple(pm)))
        # documented encoding: scale row r by the positive generator of its ideal
        encoded = []
        for r in range(m):
            g = Fraction(out.ideals[r].num[0][0], out.ideals[r].den)
            row = []
            for e in out.rows[r]:
                v = Fraction(e.coeffs[0], e.den) * g
                assert v.denominator == 1
                row.append(int(v))
            encoded.append(row)
        assert encoded == classical
        assert repr(encoded) == repr(classical)  # byte-exact under the encoding
        done += 1
    report(7, "d=1 degeneration to classical HNF (100 instances)", started)


def _random_integral_bp(rng, K, n):
    bI = [rand_ideal(rng, K) for _ in range(n)]
    aI = [rand_ideal(rng, K) for _ in range(n)]
    rows = []
    for i in range(n):
        bbasis = bI[i].basis_elements()
        row = []
        for j in range(n):
            abasis = aI[j].inverse().basis_elements()
            e = K.zero()
            for _ in range(K.degree):
                e = e + rng.randint(-2, 2) * (
                    bbasis[rng.randrange(len(bbasis))] * abasis[rng.randrange(len(abasis))])
            row.append(e)
        rows.append(row)
    return BiPseudoMatrix(K, rows, bI, aI)


def test_criterion_8_pseudo_snf():
    started = time.time()
    rng = random.Random(SEED + 8)
    print(f"[seed] criterion 8 seed={SEED + 8}")
    Q = get_field("Q")
    unit = FractionalIdeal.unit(Q)
    # (a) d=1 oracle
    done = 0
    while done < 100:
        n = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_bareiss(mat) == 0:
            continue
        bp = BiPseudoMatrix(Q, [[Q.from_int(x) for x in row] for row in mat],
                            [unit] * n, [unit] * n)
        chain = pseudo_snf(bp, verify=True)
        snf = z_snf(mat)
        assert sorted(a.num[0][0] for a in chain) == sorted(snf[i][i] for i in range(n))
        for i in range(1, n):
            assert chain[i - 1].is_subset(chain[i])
        done += 1
    # (b) chain + product identity over every field
    for name in FIELDS:
        K = get_field(name)
        done = 0
        while done < 10:
            bp = _random_integral_bp(rng, K, rng.randint(1, 3))
            try:
                det_ideal = quotient_determinantal_ideal(bp)
            except zl.SingularMatrixError:
                continue
            chain = pseudo_snf(bp, det_ideal, verify=True)
            assert all(a.is_integral() for a in chain)
            prod = chain[0]
            for a in chain.ideals[1:]:
                prod = prod * a
            assert prod == det_ideal
            done += 1
    # (c) quotient order equals the absolute index for d <= 2
    from okmod.pseudo_hnf import to_absolute
    for name in ("Q", "Qi"):
        K = get_field(name)
        done = 0
        while done < 25:
            n = rng.randint(1, 4)
            bp = _random_integral_bp(rng, K, n)
            try:
                chain = pseudo_snf(bp, verify=True)
            except zl.SingularMatrixError:
                continue
            eye = [[K.one() if i == j else K.zero() for j in range(n)] for i in range(n)]
            m_abs = to_absolute(PseudoMatrix(K, eye, bp.row_ideals))
            cols = [[bp.rows[i][j] for i in range(n)] for j in range(n)]
            n_abs = to_absolute(PseudoMatrix(K, cols, bp.col_ideals))
            index = abs(Fraction(det_bareiss(n_abs), det_bareiss(m_abs)))
            prod = chain[0]
            for a in chain.ideals[1:]:
                prod = prod * a
            assert prod.norm() == index
            done += 1
    report(8, "pseudo-SNF (d=1 oracle, chain laws, quotient order)", started)


def size_line(case, label, trace, bound_int, ok, out):
    """One row of the criterion 9 table: the trajectory's worst ideal
    minimum, log2 of the norm of the multiple used, and the largest raw entry.
    A trajectory is empty when the reduction modulo D * a_i^-1 clears every
    entry below the diagonal, as D = O_K does."""
    nrm = out.det_ideal.norm()
    log_norm = log2(nrm.numerator) - log2(nrm.denominator)
    bits = max(max(abs(c).bit_length() for c in e.coeffs) + e.den.bit_length()
               for row in out.rows for e in row)
    worst = max(trace, default="-")
    print(f"  {case:>6} {label:>8} {len(trace):>10} {worst:>13} {bound_int:>6} {ok}"
          f" {log_norm:>9.1f} {bits:>8}")


def test_criterion_9_size_growth_measurement():
    started = time.time()
    rng = random.Random(SEED + 9)
    print(f"[seed] criterion 9 seed={SEED + 9}")
    K = get_field("cubic")
    ctx = K.lattice_context
    unit = FractionalIdeal.unit(K)
    bound = frac_sqrt_ub(ctx.norm_bound_sq())
    bound_int = bound.numerator // bound.denominator + 1
    print(f"  static bound l^(d^2) sqrt|disc| rounded up: {bound_int}")
    print("  each case runs modulo the witness multiple, then modulo pseudo_hnf's own")
    print(f"  {'matrix':>6} {'multiple':>8} {'iterations':>10} {'max min(b_i)':>13} {'bound':>6} ok"
          f" {'log2 N(D)':>9} {'raw bits':>8}")
    for case in range(3):
        n, m = 20, 10
        rows = [[K.element([rng.randint(-100, 100) for _ in range(K.degree)])
                 for _ in range(m)] for _ in range(n)]
        ideals = [rand_ideal(rng, K) if rng.random() < 0.3 else unit for _ in range(n)]
        pm = PseudoMatrix(K, rows, ideals)
        dd = determinantal_ideal_multiple(pm)
        trace = []
        out = pseudo_hnf(pm, dd, verify=True, trace=trace)
        assert module_hnf(pm) == module_hnf(out)
        worst = max(trace)
        ok = worst <= bound
        size_line(case, "witness", trace, bound_int, ok, out)
        assert ok, f"active ideal minimum {worst} exceeded the static bound"
        own_trace = []
        own = pseudo_hnf(pm, verify=True, trace=own_trace)
        own_ok = all(x <= bound for x in own_trace)
        size_line(case, "own", own_trace, bound_int, own_ok, own)
        assert own_ok, f"active ideal minimum {max(own_trace)} exceeded the static bound"
        c_witness, c_own = canonicalize(out), canonicalize(own)
        assert (c_witness.rows, c_witness.ideals) == (c_own.rows, c_own.ideals)
    report(9, "size growth stays below the static bound (3 x 20x10, cubic)", started)
