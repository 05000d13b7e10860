"""Euclidean step, modular pseudo-Hermite form, canonicalization, absolutes."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from okmod import (FractionalIdeal, PseudoMatrix, canonicalize,
                   determinantal_ideal, determinantal_ideal_multiple,
                   euclidean_step, module_hnf, pseudo_hnf, to_absolute)
from okmod import determinant, lattice, reduction
from okmod.ideals import IdealError
from okmod.zlinalg import (RankDeficiencyError, det_bareiss, hnf_with_modulus, mat_mul,
                          transpose)

from conftest import (ALL_FIELDS, get_field, hnf, random_element, random_ideal,
                      reference_euclidean_step, reinverted, seeded, spy_inversions)


def random_pseudo(rng, field, n, m, lim=9, with_ideals=True):
    u = FractionalIdeal.unit(field)
    rows = [[field.element([rng.randint(-lim, lim) for _ in range(field.degree)])
             for _ in range(m)] for _ in range(n)]
    ideals = [random_ideal(rng, field) if with_ideals and rng.random() < 0.5 else u
              for _ in range(n)]
    return PseudoMatrix(field, rows, ideals)


# -- absolute oracle ----------------------------------------------------------


def test_module_hnf_matches_plain_hnf(field):
    rng = seeded("test_pseudo_hnf::test_module_hnf_matches_plain_hnf")
    # module_hnf works modulo |det A| or det(A^t A); plain hnf stays the
    # reference on inputs small enough for it
    done = 0
    while done < 8:
        n = rng.randint(1, 3 if field.degree == 3 else 4)
        pm = random_pseudo(rng, field, n, rng.randint(1, n))
        try:
            ref = hnf(to_absolute(pm))
        except RankDeficiencyError:
            with pytest.raises(RankDeficiencyError):
                module_hnf(pm)
            continue
        assert module_hnf(pm) == ref
        done += 1
    u = FractionalIdeal.unit(field)
    one = field.one()
    with pytest.raises(RankDeficiencyError):
        module_hnf(PseudoMatrix(field, [[one, one], [one + one, one + one]], [u, u]))


def gram_modulus_hnf(pm):
    """module_hnf modulo det(A^t A) whatever the shape of A: the reference of
    the square modulus |det A|."""
    a = to_absolute(pm)
    lam = det_bareiss(mat_mul(transpose(a), a))
    if lam == 0:
        raise RankDeficiencyError("module does not have full rank")
    return hnf_with_modulus(a, lam)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_square_modulus_gives_the_gram_modulus_form(name):
    field = get_field(name)
    local = seeded(f"test_pseudo_hnf square modulus {name}")
    for n in (1, 2, 3, 3):
        pm = random_pseudo(local, field, n, n)
        assert module_hnf(pm) == gram_modulus_hnf(pm)
    tall = random_pseudo(local, field, 3, 2)
    assert module_hnf(tall) == gram_modulus_hnf(tall)
    # a row that is a multiple of another: |det A| = 0 is refused as before
    pm = random_pseudo(local, field, 3, 3)
    pm.rows[2] = [e * field.from_int(3) for e in pm.rows[0]]
    with pytest.raises(RankDeficiencyError):
        module_hnf(pm)


# -- euclidean step ---------------------------------------------------------


def test_euclidean_step_integers():
    Q = get_field("Q")
    u = FractionalIdeal.unit(Q)
    g, ginv, gamma, delta = euclidean_step(u, u, Q.from_int(4), Q.from_int(6))
    assert g == FractionalIdeal.from_rational(Q, 2)
    assert (g * ginv).is_unit()
    assert (u * ginv).contains(gamma) and (u * ginv).contains(delta)
    assert Q.from_int(4) * gamma + Q.from_int(6) * delta == Q.one()


def test_euclidean_step_units():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    g, ginv, gamma, delta = euclidean_step(u, u, K.one(), K.one())
    assert g.is_unit()
    assert gamma + delta == K.one()
    assert u.contains(gamma) and u.contains(delta)


def test_euclidean_step_coprime_gaussians():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    a, b = K.element([2, 1]), K.element([2, -1])
    g, ginv, gamma, delta = euclidean_step(u, u, a, b)
    assert g.is_unit()
    assert a * gamma + b * delta == K.one()
    assert u.contains(gamma) and u.contains(delta)


def test_euclidean_step_rejects_zero():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    with pytest.raises(ValueError):
        euclidean_step(u, u, K.zero(), K.one())


def test_euclidean_step_inverts_the_gcd_through_the_cache(monkeypatch):
    from okmod.reduction import ReducedBasisCache
    K = get_field("Qm5")
    a = FractionalIdeal.from_generators(K, [K.from_int(2), K.element([1, 1])])
    x, y = K.from_int(3), K.element([1, 1])
    plain = euclidean_step(a, a, x, y)
    g = plain[0]
    inverted = []
    real = FractionalIdeal.inverse
    monkeypatch.setattr(FractionalIdeal, "inverse",
                        lambda self: inverted.append(self == g) or real(self))
    cache = ReducedBasisCache(K.lattice_context)
    for _ in range(3):
        assert euclidean_step(a, a, x, y, cache) == plain
    assert inverted.count(True) == 1


def test_euclidean_step_contract_random(field):
    rng = seeded("test_pseudo_hnf::test_euclidean_step_contract_random")
    for _ in range(10):
        a = random_ideal(rng, field, fractional=True)
        b = random_ideal(rng, field, fractional=True)
        x = random_element(rng, field, max_den=3)
        y = random_element(rng, field, max_den=3)
        g, ginv, gamma, delta = euclidean_step(a, b, x, y)
        assert g == a.elt_mul(x) + b.elt_mul(y)
        assert (g * ginv).is_unit()
        assert (a * ginv).contains(gamma)
        assert (b * ginv).contains(delta)
        assert x * gamma + y * delta == field.one()


def _element_of(rng, ideal):
    """Nonzero random integer combination of an ideal's Hermite basis."""
    while True:
        e = sum((rng.randint(-3, 3) * eps for eps in ideal.basis_elements()),
                ideal.field.zero())
        if e:
            return e


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_euclidean_step_matches_the_general_step(name):
    # the degenerate branch returns exactly what the ideal sum and
    # idempotents return; elsewhere gamma and delta are one choice among
    # many, so the step keeps the reference's g and g^-1 and the splitting
    # contract, with and without a memo, on each kind of input
    from okmod.reduction import ReducedBasisCache
    rng = seeded("test_pseudo_hnf::test_euclidean_step_matches_the_general_step")
    K = get_field(name)
    u = FractionalIdeal.unit(K)
    cache = ReducedBasisCache(K.lattice_context)
    kinds = {"unit": 0, "degenerate": 0, "general": 0}
    for _ in range(4):
        a = random_ideal(rng, K)
        x = random_element(rng, K, max_den=3)
        # b = O_K and beta = 1: the common step of the elimination
        cases = [("unit", a, u, x, K.one())]
        # alpha = beta*t with t in b and a integral, so alpha*a lies in beta*b
        b = random_ideal(rng, K, fractional=True)
        while True:
            beta = random_element(rng, K, max_den=2)
            if abs(beta.norm()) != 1:
                break
        cases.append(("degenerate", a, b, beta * _element_of(rng, b), beta))
        cases.append(("general", random_ideal(rng, K, fractional=True), b,
                      random_element(rng, K, max_den=3), beta))
        for kind, a_, b_, alpha, beta_ in cases:
            ref = reference_euclidean_step(a_, b_, alpha, beta_)
            for step in (euclidean_step(a_, b_, alpha, beta_),
                         euclidean_step(a_, b_, alpha, beta_, cache)):
                if kind == "degenerate":
                    assert step == ref
                    continue
                g, ginv, gamma, delta = step
                assert (g, ginv) == ref[:2]
                assert alpha * gamma + beta_ * delta == K.one()
                assert (a_ * ginv).contains(gamma) and (b_ * ginv).contains(delta)
            kinds[kind] += not ref[2]
    assert kinds["degenerate"] == 4 and kinds["general"] < 4


def test_degenerate_steps_skip_idempotents(monkeypatch):
    # on a seeded 6x6 input over Q(sqrt-5) some steps are degenerate, so
    # idempotents runs less often than the Euclidean step
    ph = importlib.import_module("okmod.pseudo_hnf")  # the name is also a function
    rng = seeded("test_pseudo_hnf::test_degenerate_steps_skip_idempotents")
    K = get_field("Qm5")
    calls = {"euclidean_step": 0, "idempotents": 0}

    def counted(name):
        real = getattr(ph, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ph, name, wrapper)

    counted("euclidean_step")
    counted("idempotents")
    while True:
        pm = random_pseudo(rng, K, 6, 6)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        break
    out = pseudo_hnf(pm, dd, verify=True)
    assert module_hnf(out) == module_hnf(pm)
    assert 0 < calls["idempotents"] < calls["euclidean_step"]


def test_idempotents_run_only_on_a_common_factor_of_the_norms(monkeypatch):
    # A = alpha*a*g^-1 and B = beta*b*g^-1 contain their norms; coprime
    # norms give the splitting by a Bezout relation, and only a common
    # factor calls idempotents.  Over Q(sqrt-5), 3 = P3 P3' with A = P3 and
    # B = P3' of norm 3 each for alpha = beta = 1.
    ph = importlib.import_module("okmod.pseudo_hnf")  # the name is also a function
    K = get_field("Qm5")
    calls = []
    real = ph.idempotents
    monkeypatch.setattr(ph, "idempotents", lambda a, b: calls.append((a, b)) or real(a, b))
    one, three = K.one(), K.from_int(3)
    p3 = FractionalIdeal.from_generators(K, [three, K.element([1, 1])])
    p3c = FractionalIdeal.from_generators(K, [three, K.element([1, -1])])
    assert p3 != p3c and p3 * p3c == FractionalIdeal.from_rational(K, 3)
    g, ginv, gamma, delta = euclidean_step(p3, p3c, one, one)
    assert g.is_unit() and calls == [(p3, p3c)]
    assert gamma + delta == one and p3.contains(gamma) and p3c.contains(delta)
    rng = seeded("test_pseudo_hnf::test_idempotents_run_only_on_a_common_factor_of_the_norms")
    coprime = 0
    for _ in range(20):
        a, b = (random_ideal(rng, K, fractional=True) for _ in range(2))
        x, y = (random_element(rng, K, max_den=3) for _ in range(2))
        g = a.elt_mul(x) + b.elt_mul(y)
        ginv = g.inverse()
        norms = [(a.elt_mul(x) * ginv).norm(), (b.elt_mul(y) * ginv).norm()]
        assert all(n.denominator == 1 for n in norms)
        calls.clear()
        g_, _, gamma, delta = euclidean_step(a, b, x, y)
        assert g_ == g and x * gamma + y * delta == one
        common = gcd(*(n.numerator for n in norms)) != 1
        assert len(calls) == common
        coprime += not common
    assert coprime >= 10


def test_a_step_inverts_its_pivot_entry_once(monkeypatch):
    # the transvection test and the Euclidean step share the pivot entry's
    # inverse through the call's memo
    ph = importlib.import_module("okmod.pseudo_hnf")
    K = get_field("Qm5")
    u = FractionalIdeal.unit(K)
    y0, x0 = K.element([2, 1]), K.element([3, 1])   # neither quotient is integral
    vecs = [[x0, K.one()], [y0, K.zero()]]
    ideals = [u, u]
    inverted = []
    real = type(K).inv
    monkeypatch.setattr(type(K), "inv", lambda self, a: inverted.append(a) or real(self, a))
    cache = reduction.ReducedBasisCache(K.lattice_context)
    ph._clear_column(vecs, ideals, 1, 0, cache, lambda k: None, lambda k: None)
    assert not vecs[0][0] and vecs[1][0]
    assert inverted.count(y0) == 1


def _full_rank(rng, K, n, m):
    while True:
        pm = random_pseudo(rng, K, n, m)
        try:
            determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        return pm


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_verify_checks_every_reduced_entry_against_the_bound(name):
    rng = seeded("test_pseudo_hnf::test_verify_checks_every_reduced_entry_against_the_bound")
    K = get_field(name)
    for n, m in ((3, 3), (4, 2)):
        pm = _full_rank(rng, K, n, m)
        out = pseudo_hnf(pm, verify=True)
        assert module_hnf(out) == module_hnf(pm)


def test_verify_catches_a_reduction_that_skips_the_rounding(monkeypatch):
    K = get_field("Qm5")
    u = FractionalIdeal.unit(K)
    big = 2 * 10 ** 6
    rows = [[K.from_int(2), K.zero()], [K.zero(), K.from_int(2)],
            [K.from_int(big), K.from_int(big + 2)]]
    pm = PseudoMatrix(K, rows, [u] * 3)
    good = pseudo_hnf(pm, verify=True)
    assert module_hnf(good) == module_hnf(pm)
    monkeypatch.setattr(reduction, "reduce_row", lambda row, a, cache=None: list(row))
    with pytest.raises(RuntimeError, match="reduction bound"):
        pseudo_hnf(pm, verify=True)


# -- pseudo-HNF -------------------------------------------------------------


def test_identity_fixed_point(field):
    u = FractionalIdeal.unit(field)
    m = 3
    rows = [[field.one() if i == j else field.zero() for j in range(m)] for i in range(m)]
    pm = PseudoMatrix(field, rows, [u] * m)
    out = pseudo_hnf(pm, FractionalIdeal.unit(field), verify=True)
    assert module_hnf(out) == module_hnf(pm)
    for r in range(m):
        assert out.rows[r][r] == field.one()


def test_d1_three_row_example():
    Q = get_field("Q")
    u = FractionalIdeal.unit(Q)
    rows = [[Q.from_int(2), Q.zero()], [Q.zero(), Q.from_int(2)], [Q.one(), Q.one()]]
    pm = PseudoMatrix(Q, rows, [u] * 3)
    out = pseudo_hnf(pm, FractionalIdeal.from_rational(Q, 2), verify=True)
    assert module_hnf(out) == hnf([[2, 0], [1, 1]])


def test_gaussian_three_row_example():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    one, i = K.one(), K.element([0, 1])
    rows = [[one + i, K.zero()], [K.zero(), one + i], [one, one]]
    pm = PseudoMatrix(K, rows, [u] * 3)
    dd = determinantal_ideal_multiple(pm)
    out = pseudo_hnf(pm, dd, verify=True)
    assert module_hnf(out) == module_hnf(pm)
    assert out.rows[0][0] == K.one() and out.rows[1][1] == K.one()


def test_master_oracle(field):
    rng = seeded("test_pseudo_hnf::test_master_oracle")
    done = 0
    while done < 8:
        n = rng.randint(2, 6)
        m = rng.randint(1, min(4, n))
        pm = random_pseudo(rng, field, n, m)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        out = pseudo_hnf(pm, dd, verify=True)
        assert module_hnf(pm) == module_hnf(out)
        for r in range(m):
            assert out.rows[r][r] == field.one()
            assert all(not out.rows[r][t] for t in range(r + 1, m))
        for r in range(m, n):
            assert all(not x for x in out.rows[r])
        done += 1


def test_determinantal_ideal_preserved(field):
    rng = seeded("test_pseudo_hnf::test_determinantal_ideal_preserved")
    done = 0
    while done < 5:
        n = m = rng.randint(2, 3)
        pm = random_pseudo(rng, field, n, m)
        try:
            exact = determinantal_ideal(pm)
        except Exception:
            continue
        out = pseudo_hnf(pm, exact, verify=True)
        top = PseudoMatrix(field, out.rows[:m], out.ideals[:m])
        assert determinantal_ideal(top) == exact
        done += 1


def test_coefficient_ideal_norm_bound(field):
    rng = seeded("test_pseudo_hnf::test_coefficient_ideal_norm_bound")
    # runtime trace: active ideal minima stay below the static bound
    ctx = field.lattice_context
    from okmod.numeric import frac_sqrt_ub
    bound = frac_sqrt_ub(ctx.norm_bound_sq())
    done = 0
    while done < 4:
        pm = random_pseudo(rng, field, 4, 3)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        trace = []
        pseudo_hnf(pm, dd, verify=True, trace=trace)
        assert trace
        for mx in trace:
            assert Fraction(mx) <= bound
        done += 1


def test_denominator_bound(field):
    rng = seeded("test_pseudo_hnf::test_denominator_bound")
    # while a row's ideal is integral every entry denominator divides its minimum
    done = 0
    while done < 5:
        pm = random_pseudo(rng, field, 3, 2)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        out = pseudo_hnf(pm, dd)
        for row, a in zip(out.rows, out.ideals):
            assert a.is_integral()
            for e in row:
                if e:
                    assert a.minimum() % e.den == 0
        done += 1


def test_any_determinantal_multiple_works(field):
    rng = seeded("test_pseudo_hnf::test_any_determinantal_multiple_works")
    # the modulus only needs to be a nonzero multiple of the determinantal
    # ideal; an inflated one must give the same module
    done = 0
    while done < 3:
        pm = random_pseudo(rng, field, 3, 2)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        inflated = dd * FractionalIdeal.from_rational(field, 6)
        out = pseudo_hnf(pm, inflated, verify=True)
        assert module_hnf(pm) == module_hnf(out)
        done += 1


def test_rank_deficiency_detected():
    Q = get_field("Q")
    u = FractionalIdeal.unit(Q)
    rows = [[Q.one(), Q.one()], [Q.one(), Q.one()], [Q.from_int(2), Q.from_int(2)]]
    pm = PseudoMatrix(Q, rows, [u] * 3)
    with pytest.raises(RankDeficiencyError):
        determinantal_ideal_multiple(pm)


# -- canonical form ---------------------------------------------------------


def test_canonicalize_d1_reduction():
    Q = get_field("Q")
    two = FractionalIdeal.from_rational(Q, 2)
    u = FractionalIdeal.unit(Q)
    pm = PseudoMatrix(Q, [[Q.one(), Q.zero()], [Q.from_int(3), Q.one()]], [two, u])
    out = canonicalize(pm)
    assert out.rows[1][0] == Q.one()  # 3 reduced mod (2) into [0, 2)
    assert module_hnf(out) == module_hnf(pm)


def test_canonicalize_fixed_point(field):
    rng = seeded("test_pseudo_hnf::test_canonicalize_fixed_point")
    done = 0
    while done < 3:
        pm = random_pseudo(rng, field, 3, 3)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        out = canonicalize(pseudo_hnf(pm, dd))
        again = canonicalize(out)
        assert out.rows == again.rows and out.ideals == again.ideals
        done += 1


def test_canonicalize_unique_across_row_orders(field):
    rng = seeded("test_pseudo_hnf::test_canonicalize_unique_across_row_orders")
    done = 0
    while done < 4:
        n, m = 4, 2
        pm = random_pseudo(rng, field, n, m)
        perm = list(range(n))
        rng.shuffle(perm)
        pm2 = PseudoMatrix(field, [pm.rows[p] for p in perm],
                           [pm.ideals[p] for p in perm])
        try:
            c1 = canonicalize(pseudo_hnf(pm, determinantal_ideal_multiple(pm)))
            c2 = canonicalize(pseudo_hnf(pm2, determinantal_ideal_multiple(pm2)))
        except RankDeficiencyError:
            continue
        assert c1.rows[:m] == c2.rows[:m]
        assert c1.ideals[:m] == c2.ideals[:m]
        done += 1


def test_canonicalize_independent_of_determinantal_multiple(field):
    # the zero rows of a tall form carry whatever ideal the elimination left
    # there, which depends on the multiple of the determinantal ideal used;
    # the canonical form must not
    local = seeded("test_canonicalize_independent_of_determinantal_multiple", 1)
    u = FractionalIdeal.unit(field)
    done = 0
    while done < 6:
        rows = [[field.element([local.randint(-9, 9) for _ in range(field.degree)])
                 for _ in range(2)] for _ in range(4)]
        ideals = [random_ideal(local, field) if local.random() < 0.5 else u
                  for _ in range(4)]
        pm = PseudoMatrix(field, rows, ideals)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        c1 = canonicalize(pseudo_hnf(pm, dd))
        for p in (2, 3):
            c2 = canonicalize(pseudo_hnf(pm, dd * FractionalIdeal.from_rational(field, p)))
            assert c1.rows == c2.rows and c1.ideals == c2.ideals
        assert all(a.is_unit() for a in c1.ideals[2:])
        done += 1


def test_canonicalize_requires_hermite_shape():
    Q = get_field("Q")
    u = FractionalIdeal.unit(Q)
    pm = PseudoMatrix(Q, [[Q.from_int(2)]], [u])
    with pytest.raises(ValueError):
        canonicalize(pm)
    # a nonzero row below the pivot rows
    pm = PseudoMatrix(Q, [[Q.one()], [Q.one()]], [u, u])
    with pytest.raises(ValueError):
        canonicalize(pm)


# -- absolute form ----------------------------------------------------------


def test_to_absolute_examples():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    pm = PseudoMatrix(K, [[K.one()]], [u])
    assert to_absolute(pm) == [[1, 0], [0, 1]]
    onepi = FractionalIdeal.from_generators(K, [K.element([1, 1])])
    pm = PseudoMatrix(K, [[K.one()]], [onepi])
    assert hnf(to_absolute(pm)) == hnf([[1, 1], [-1, 1]])


def test_to_absolute_rejects_fractional_module():
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    pm = PseudoMatrix(K, [[K.element([1, 0], 2)]], [u])
    with pytest.raises(IdealError):
        to_absolute(pm)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_pseudo_hnf_refuses_a_module_outside_the_ring_power(name):
    # reduction modulo D * a^-1 is right only when D * O_K^m lies inside the
    # module, which needs the module inside O_K^m: a row 1/2 * e_1 with ideal
    # O_K is refused; a row 1/2 * v with ideal 2 * a spans a * v and is accepted
    K = get_field(name)
    pm = full_rank_pseudo(K, f"test_pseudo_hnf outside ring power {name}", n=3, m=2)
    half = K.element([1] + [0] * (K.degree - 1), 2)
    rows = [[half * e for e in pm.rows[0]]] + pm.rows[1:]
    u = FractionalIdeal.unit(K)
    with_unit = PseudoMatrix(K, [[half, K.zero()], *rows[1:]], [u, *pm.ideals[1:]])
    assert not with_unit.module_in_ring_power()
    with pytest.raises(IdealError, match="not contained in O_K"):
        pseudo_hnf(with_unit)
    with_two = PseudoMatrix(K, rows, [pm.ideals[0].int_mul(2), *pm.ideals[1:]])
    assert with_two.module_in_ring_power()
    out = pseudo_hnf(with_two, verify=True)
    assert module_hnf(out) == module_hnf(with_two) == module_hnf(pm)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_tall_input_spanning_the_ring_power_needs_no_elimination(name, monkeypatch):
    # identity rows under rows with proper ideals span O_K^m; the multiple is
    # O_K, so the form is the identity with unit ideals and zero trailing
    # rows, with no elimination, and the elimination modulo 2 * O_K agrees
    K = get_field(name)
    rng = seeded(f"test_pseudo_hnf ring power shortcut {name}")
    m, u = 3, FractionalIdeal.unit(K)
    pairs = [([K.one() if j == i else K.zero() for j in range(m)], u) for i in range(m)]
    pairs += [([random_element(rng, K, 4) for _ in range(m)], random_ideal(rng, K))
              for _ in range(2)]
    rng.shuffle(pairs)
    pm = PseudoMatrix(K, [row for row, _ in pairs], [a for _, a in pairs])
    checked = pseudo_hnf(pm, FractionalIdeal.from_rational(K, 2), verify=True)
    calls = []
    # the package's pseudo_hnf attribute is the function; this is its module
    module = importlib.import_module("okmod.pseudo_hnf")
    real = module._eliminate

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "_eliminate", spy)
    out = pseudo_hnf(pm, verify=True)
    assert calls == []
    identity = [[K.one() if j == i else K.zero() for j in range(m)] for i in range(5)]
    assert out.rows == identity and all(a.is_unit() for a in out.ideals)
    assert out.det_ideal.is_unit()
    assert dump(canonicalize(checked)) == dump(out) == dump(canonicalize(out))
    assert module_hnf(out) == module_hnf(pm)


def test_refusals_come_before_the_multiple(monkeypatch):
    # a module outside O_K^m is refused before any multiple is computed, and
    # rank-deficient tall input still raises RankDeficiencyError
    K = get_field("Qm5")
    u = FractionalIdeal.unit(K)
    one, half = K.one(), K.element([1, 0], 2)
    outside = PseudoMatrix(K, [[half, K.zero()], [K.zero(), one], [one, one]], [u] * 3)
    real = determinant._elimination_multiple
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(determinant, "_elimination_multiple", spy)
    with pytest.raises(IdealError, match="not contained in O_K"):
        pseudo_hnf(outside)
    assert calls == []
    two = K.from_int(2)
    deficient = PseudoMatrix(K, [[one, two], [two, 2 * two], [K.zero(), K.zero()]], [u] * 3)
    with pytest.raises(RankDeficiencyError, match="rank 1 < 2"):
        pseudo_hnf(deficient)
    assert len(calls) == 1


def test_absolute_invariant_under_valid_forms(field):
    rng = seeded("test_pseudo_hnf::test_absolute_invariant_under_valid_forms")
    done = 0
    while done < 3:
        pm = random_pseudo(rng, field, 3, 2)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        out = pseudo_hnf(pm, dd)
        can = canonicalize(out)
        assert module_hnf(pm) == module_hnf(out) == module_hnf(can)
        done += 1


def test_verify_raises_with_assertions_off():
    # a normalize_row that returns a non-integral ideal must be caught by
    # verify=True even under python -O, which strips assert statements
    script = """
from fractions import Fraction
from okmod import FractionalIdeal, PseudoMatrix, build_field, pseudo_hnf, reduction
K = build_field([5, 0, 1])
half = FractionalIdeal.from_rational(K, Fraction(1, 2))
reduction.normalize_row = lambda row, a, ctx, cache: (row, half, K.one())
u = FractionalIdeal.unit(K)
pm = PseudoMatrix(K, [[K.from_int(2), K.one()], [K.one(), K.from_int(3)]], [u, u])
try:
    pseudo_hnf(pm, verify=True)
except RuntimeError as exc:
    print("raised:", exc)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: verify: normalized coefficient ideal")


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_pseudo_hnf_memo_lives_one_call(name):
    # pseudo_hnf memoizes on a cache of its own: the field-wide cache is left
    # as it was, and a second call recomputes the same output
    K = get_field(name)
    local = seeded("test_pseudo_hnf memo scope", offset=1)
    u = FractionalIdeal.unit(K)
    shared = K.basis_cache
    before = (dict(shared._map), dict(shared._inverses), dict(shared._normalizations))
    while True:
        rows = [[K.element([local.randint(-9, 9) for _ in range(K.degree)])
                 for _ in range(3)] for _ in range(4)]
        ideals = [random_ideal(local, K) if local.random() < 0.5 else u for _ in range(4)]
        pm = PseudoMatrix(K, rows, ideals)
        try:
            first = pseudo_hnf(pm)
        except RankDeficiencyError:
            continue
        break
    second = pseudo_hnf(pm)
    assert (first.rows, first.ideals) == (second.rows, second.ideals)
    assert (dict(shared._map), dict(shared._inverses), dict(shared._normalizations)) == before


# -- warm-started moduli and the QualityError retry ---------------------------


def full_rank_pseudo(K, label, n=4, m=3):
    local = seeded(label)
    u = FractionalIdeal.unit(K)
    while True:
        rows = [[K.element([local.randint(-9, 9) for _ in range(K.degree)])
                 for _ in range(m)] for _ in range(n)]
        ideals = [random_ideal(local, K) if local.random() < 0.5 else u for _ in range(n)]
        pm = PseudoMatrix(K, rows, ideals)
        try:
            determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        return pm


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_warm_and_cold_moduli_give_one_canonical_form(name, monkeypatch):
    # without det_ideal the moduli of square input, delta * (P * a^-1),
    # start their LLL from delta times a reduced basis of P * a^-1; tall
    # input and a supplied det_ideal start from the Hermite basis; the
    # canonical forms must agree
    K = get_field(name)
    warm_starts = []
    real = lattice.reduce_start_basis

    def spy(ideal, start, ctx):
        warm_starts.append(ideal)
        return real(ideal, start, ctx)

    monkeypatch.setattr(lattice, "reduce_start_basis", spy)
    local = seeded(f"test_pseudo_hnf warm and cold unit minor {name}")
    u = FractionalIdeal.unit(K)
    # a unit witness minor: det_ideal = 1 * O_K is its own small factor
    unit_minor = PseudoMatrix(K, [[K.from_int(int(i == j)) for j in range(3)] for i in range(3)]
                              + [[random_element(local, K) for _ in range(3)]], [u] * 4)
    inputs = [full_rank_pseudo(K, f"test_pseudo_hnf warm and cold {name}", n=3 + t, m=3)
              for t in range(3)]
    for pm in inputs + [unit_minor]:
        cold_before = len(warm_starts)
        cold = pseudo_hnf(pm, determinantal_ideal_multiple(pm), verify=True)
        assert len(warm_starts) == cold_before
        warm = pseudo_hnf(pm, verify=True)
        c1, c2 = canonicalize(warm), canonicalize(cold)
        assert (c1.rows, c1.ideals) == (c2.rows, c2.ideals)
        assert module_hnf(warm) == module_hnf(pm)
    assert warm_starts or K.degree == 1


@pytest.mark.parametrize("name", ["Qi", "cubic", "quintic"])
def test_a_wrong_factor_is_refused(name):
    K = get_field(name)
    pm = full_rank_pseudo(K, f"test_pseudo_hnf wrong factor {name}", n=3)
    dd, (delta, prod) = determinant._elimination_multiple(
        K, pm.rows, pm.ideals, reduction.ReducedBasisCache(K.lattice_context))
    # 2 delta * P lies inside dd but has 2^d times its norm; delta / 2 * P
    # is not inside it; the right factor is accepted
    for eps in (K.scalar_mul(2, delta), K.scalar_div(delta, 2)):
        cache = reduction.ReducedBasisCache(K.lattice_context)
        cache.record_factor(dd, eps, prod)
        with pytest.raises(IdealError, match="not a basis of the ideal"):
            cache.reduced_basis(dd)
    cache = reduction.ReducedBasisCache(K.lattice_context)
    cache.record_factor(dd, delta, prod)
    basis = cache.reduced_basis(dd)
    assert (FractionalIdeal.from_generators(K, [K.element(r) for r in basis])
            == FractionalIdeal(K, [list(r) for r in dd.num], 1))


def dump(pm):
    """Bytes of the rows and ideals of a pseudo-matrix."""
    return repr(([[(e.coeffs, e.den) for e in row] for row in pm.rows],
                 [(a.num, a.den) for a in pm.ideals])).encode()


def test_det_ideal_attribute_is_not_an_input():
    # the attribute only records the multiple an output was computed modulo;
    # read as an input, O_K here would give the identity form of another
    # module
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    i = K.element([0, 1])
    rows = [[K.from_int(2), K.zero()], [1 + i, K.from_int(3)]]
    plain = pseudo_hnf(PseudoMatrix(K, rows, [u, u]))
    recorded = pseudo_hnf(PseudoMatrix(K, rows, [u, u], det_ideal=u))
    assert dump(recorded) == dump(plain)
    assert recorded.det_ideal == plain.det_ideal
    assert module_hnf(recorded) == module_hnf(PseudoMatrix(K, rows, [u, u]))


@pytest.mark.parametrize("verify", [False, True])
def test_non_integral_multiple_is_refused(verify, monkeypatch):
    # a module inside O_K^m has an integral determinantal ideal, so every
    # multiple of it is integral; reduced modulo (1/2), this one came back
    # as the identity rows with ideals (1), (1/2), outside O_K^m
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    i = K.element([0, 1])
    pm = PseudoMatrix(K, [[K.from_int(2), K.zero()], [1 + i, K.from_int(3)]], [u, u])
    half = FractionalIdeal.from_rational(K, Fraction(1, 2))
    with monkeypatch.context() as patch:
        # the refusal comes before any work
        patch.setattr(reduction, "ReducedBasisCache", None)
        with pytest.raises(IdealError, match="must be integral"):
            pseudo_hnf(pm, half, verify=verify)
    # handed such a multiple anyway, the elimination's verify catches the output
    eliminate = importlib.import_module("okmod.pseudo_hnf")._eliminate
    with pytest.raises(RuntimeError, match="output coefficient ideal is not integral"):
        eliminate(pm, half, reduction.ReducedBasisCache(K.lattice_context), True, None)


def test_a_wrong_multiple_of_square_input_is_refused():
    # the rows [2, 0], [1 + i, 3] over Q(i) span a module of determinantal
    # ideal (6); handed O_K, pseudo_hnf once returned the identity form of
    # O_K^2, and handed (2) or (3), other modules
    K = get_field("Qi")
    u = FractionalIdeal.unit(K)
    i = K.element([0, 1])
    pm = PseudoMatrix(K, [[K.from_int(2), K.zero()], [1 + i, K.from_int(3)]], [u, u])
    for wrong in (u, FractionalIdeal.from_rational(K, 2), FractionalIdeal.from_rational(K, 3)):
        with pytest.raises(IdealError, match="not a multiple of the determinantal ideal"):
            pseudo_hnf(pm, wrong)
    six = FractionalIdeal.from_rational(K, 6)
    assert module_hnf(pseudo_hnf(pm, six, verify=True)) == module_hnf(pm)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_square_input_takes_exactly_the_multiples_of_its_determinantal_ideal(name):
    # delta * P of square input is its determinantal ideal: every multiple
    # of it gives the one canonical form, and an ideal strictly containing
    # it is refused
    K = get_field(name)
    pm = full_rank_pseudo(K, f"test_pseudo_hnf square multiples {name}", n=3, m=3)
    dd = determinantal_ideal_multiple(pm)
    expected = dump(canonicalize(pseudo_hnf(pm)))
    for c in (1, 2, 6):
        out = pseudo_hnf(pm, dd * FractionalIdeal.from_rational(K, c), verify=True)
        assert dump(canonicalize(out)) == expected
    larger = [dd + FractionalIdeal.from_rational(K, p) for p in (2, 3, 5, 7)]
    larger = [a for a in larger if a != dd]
    assert larger
    for a in larger:
        with pytest.raises(IdealError, match="not a multiple of the determinantal ideal"):
            pseudo_hnf(pm, a)


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_a_non_unit_pivot_absorbing_its_column_takes_transvections(name, monkeypatch):
    # upper triangular rows whose entries above each pivot d_k are d_k times
    # elements of the pivot row's ideal: every entry is absorbed by its
    # pivot, so the elimination clears each column by transvections, and
    # the only Euclidean steps are the last steps, whose beta is 1
    K = get_field(name)
    rng = seeded(f"test_pseudo_hnf transvection under a non-unit pivot {name}")
    u = FractionalIdeal.unit(K)
    while True:
        pivot = random_element(rng, K, 3)
        if abs(pivot.norm()) > 1:
            break
    pivots = [K.from_int(2), pivot, K.from_int(2)]
    proper = []
    while len(proper) < 2:
        a = random_ideal(rng, K)
        if not a.is_unit():
            proper.append(a)
    ideals = [proper[0], u, proper[1]]
    rows = [[K.zero()] * 3 for _ in range(3)]
    for k in range(3):
        rows[k][k] = pivots[k]
        basis = ideals[k].basis_elements()
        for j in range(k):
            c = K.zero()
            for w in basis:
                c = c + rng.randint(-4, 4) * w
            rows[j][k] = pivots[k] * (c or basis[0])
    pm = PseudoMatrix(K, rows, ideals)
    module = importlib.import_module("okmod.pseudo_hnf")
    betas = []
    real = module.euclidean_step

    def spy(a, b, alpha, beta, cache=None):
        betas.append(beta)
        return real(a, b, alpha, beta, cache)

    monkeypatch.setattr(module, "euclidean_step", spy)
    raw = pseudo_hnf(pm, verify=True)
    assert betas == [K.one()] * 3
    assert module_hnf(raw) == module_hnf(pm)
    assert (dump(canonicalize(raw))
            == dump(canonicalize(pseudo_hnf(pm, determinantal_ideal_multiple(pm)))))


@pytest.mark.parametrize("name", ["Qi", "Qm5", "cubic", "quartic"])
def test_one_call_inverts_no_ideal_twice(name, monkeypatch):
    # the multiple, the normalizations, the reductions and the Euclidean
    # steps of one call read one ideal memo, on square and tall input
    K = get_field(name)
    rng = seeded(f"test_pseudo_hnf one memo {name}")
    counts = spy_inversions(monkeypatch)
    for n in (3, 4, 5):
        pm = full_rank_pseudo(K, f"test_pseudo_hnf one memo {name} {n}", n=n, m=3)
        ideals = [random_ideal(rng, K) for _ in range(n)]
        assert not all(a.is_unit() for a in ideals)
        # twice the last column: the module is not O_K^m, so the elimination runs
        pm = PseudoMatrix(K, [row[:-1] + [2 * row[-1]] for row in pm.rows], ideals)
        counts.clear()
        pseudo_hnf(pm, verify=True)
        assert counts and reinverted(counts) == []


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_tall_input_gives_the_canonical_form_of_the_witness_multiple(name):
    # on tall input pseudo_hnf reduces modulo a sum of maximal-minor ideals,
    # which contains the witness multiple; the canonical form is the one
    # computed modulo the witness multiple
    K = get_field(name)
    for t in range(3):
        pm = full_rank_pseudo(K, f"test_pseudo_hnf tall canonical {name} {t}", n=4 + t, m=3)
        witness = determinantal_ideal_multiple(pm)
        raw = pseudo_hnf(pm, verify=True)
        assert witness.is_subset(raw.det_ideal)
        assert module_hnf(raw) == module_hnf(pm)
        assert (dump(canonicalize(raw))
                == dump(canonicalize(pseudo_hnf(pm, witness, verify=True))))


@pytest.mark.parametrize("name", ["Qi", "cubic", "quartic"])
def test_only_square_input_records_a_factor(name, monkeypatch):
    # square input keeps the factored witness multiple delta * P and warm
    # starts its moduli; tall input records no factor and starts none
    K = get_field(name)
    factors, warm_starts = [], []
    real_record = reduction.ReducedBasisCache.record_factor
    real_start = lattice.reduce_start_basis

    def record(cache, ideal, eps, q):
        factors.append((ideal, eps, q))
        return real_record(cache, ideal, eps, q)

    def start(ideal, basis, ctx):
        warm_starts.append(ideal)
        return real_start(ideal, basis, ctx)

    monkeypatch.setattr(reduction.ReducedBasisCache, "record_factor", record)
    monkeypatch.setattr(lattice, "reduce_start_basis", start)
    square = full_rank_pseudo(K, f"test_pseudo_hnf square factor {name}", n=3, m=3)
    out = pseudo_hnf(square, verify=True)
    dd, (delta, prod) = determinant._elimination_multiple(
        K, square.rows, square.ideals, reduction.ReducedBasisCache(K.lattice_context))
    assert out.det_ideal == dd == determinantal_ideal_multiple(square)
    assert factors == [(out.det_ideal, delta, prod)]
    assert warm_starts
    factors.clear()
    warm_starts.clear()
    tall = full_rank_pseudo(K, f"test_pseudo_hnf tall factor {name}", n=5, m=3)
    # twice the last column: the module is not O_K^m, so the elimination runs
    tall = PseudoMatrix(K, [row[:-1] + [2 * row[-1]] for row in tall.rows], tall.ideals)
    out = pseudo_hnf(tall, verify=True)
    assert not out.det_ideal.is_unit()
    assert factors == [] and warm_starts == []


@pytest.mark.parametrize("name", ["Qm5", "quartic"])
def test_quality_error_reruns_on_a_finer_context(name, monkeypatch):
    K = get_field(name)
    pm = full_rank_pseudo(K, f"test_pseudo_hnf quality retry {name}")
    # twice the last column: the module is not O_K^m, so the elimination runs
    pm = PseudoMatrix(K, [row[:-1] + [2 * row[-1]] for row in pm.rows], pm.ideals)
    expected_trace = []
    expected = canonicalize(pseudo_hnf(pm, trace=expected_trace))
    real = lattice._check_quality
    refused = []

    def fail_on_default(ideal, basis, ctx):
        if ctx is K.lattice_context:
            refused.append(ctx)
            raise lattice.QualityError("refused on the default context")
        return real(ideal, basis, ctx)

    monkeypatch.setattr(lattice, "_check_quality", fail_on_default)
    trace = []
    counts = spy_inversions(monkeypatch)
    raw = pseudo_hnf(pm, verify=True, trace=trace)
    assert refused
    # the rerun keeps the call's ideal memo
    assert counts and reinverted(counts) == []
    out = canonicalize(raw)
    assert (out.rows, out.ideals) == (expected.rows, expected.ideals)
    assert len(trace) == len(expected_trace)

    def fail_always(ideal, basis, ctx):
        refused.append(ctx)
        raise lattice.QualityError("refused on every context")

    monkeypatch.setattr(lattice, "_check_quality", fail_always)
    with pytest.raises(lattice.QualityError, match="every context"):
        pseudo_hnf(pm)
    assert len({id(ctx) for ctx in refused[-2:]}) == 2
