"""Spot checks on fields beyond the standing four: index > 1 basis transport,
quartic and quintic degrees, a cyclotomic field."""

import pytest

from okmod import (FractionalIdeal, PseudoMatrix, build_field, idempotents,
                   determinantal_ideal_multiple, module_hnf, pseudo_hnf,
                   reduce_mod_ideal, normalize_row)
from okmod.reduction import ReducedBasisCache, check_reduced_bound
from okmod.zlinalg import RankDeficiencyError

from conftest import EXTRA_SPECS, check_prime_plan, get_field, seeded


@pytest.fixture(params=list(EXTRA_SPECS), scope="module")
def xfield(request):
    return get_field(request.param)


def rand_elt(rng, K, lim=9, max_den=1):
    while True:
        den = rng.randint(1, max_den) if max_den > 1 else 1
        e = K.element([rng.randint(-lim, lim) for _ in range(K.degree)], den)
        if e:
            return e


def rand_ideal(rng, K):
    a = FractionalIdeal.from_generators(K, [rand_elt(rng, K, 5)])
    if rng.random() < 0.5:
        a = a + FractionalIdeal.from_generators(K, [rand_elt(rng, K, 5)])
    return a


def test_construction_facts():
    golden = build_field(*EXTRA_SPECS["golden"])
    assert golden.index == 2 and golden.disc == 5
    assert build_field(EXTRA_SPECS["quartic"][0]).disc == -283
    assert build_field(EXTRA_SPECS["zeta5"][0]).disc == 125
    dedekind = build_field(*EXTRA_SPECS["dedekind"])
    assert dedekind.index == 2 and dedekind.disc == -503


def test_dedekind_prime_plan_skips_index_divisor():
    K = get_field("dedekind")
    assert K.index == 2
    for bound in (20, 150, 500):
        check_prime_plan(K, bound)


def test_element_and_ideal_algebra(xfield):
    rng = seeded("test_higher_degree::test_element_and_ideal_algebra")
    u = FractionalIdeal.unit(xfield)
    for _ in range(10):
        x = rand_elt(rng, xfield, 15, 4)
        assert x * xfield.inv(x) == xfield.one()
        a = rand_ideal(rng, xfield)
        assert a * a.inverse() == u
        assert a.inverse().den == a.minimum()


def test_reduction_and_normalization(xfield):
    rng = seeded("test_higher_degree::test_reduction_and_normalization")
    ctx = xfield.lattice_context
    cache = ReducedBasisCache(ctx)
    for _ in range(8):
        a = rand_ideal(rng, xfield)
        x = rand_elt(rng, xfield, 40, 5)
        red = reduce_mod_ideal(x, a, cache)
        assert a.contains(x - red)
        assert check_reduced_bound(red, a, ctx)
        nrow, nid, _ = normalize_row([rand_elt(rng, xfield, 8, 2)], a, cache)
        assert nid.is_integral()
        assert nid.norm() ** 2 <= ctx.norm_bound_sq()


def test_idempotents(xfield):
    rng = seeded("test_higher_degree::test_idempotents")
    done = 0
    while done < 3:
        a, b = rand_ideal(rng, xfield), rand_ideal(rng, xfield)
        if not (a + b).is_unit():
            continue
        al, be = idempotents(a, b)
        assert a.contains(al) and b.contains(be) and al + be == xfield.one()
        done += 1


def test_pseudo_hnf_oracle(xfield):
    rng = seeded("test_higher_degree::test_pseudo_hnf_oracle")
    u = FractionalIdeal.unit(xfield)
    done = 0
    while done < 3:
        n, m = 3, 2
        rows = [[rand_elt(rng, xfield, 6) for _ in range(m)] for _ in range(n)]
        ideals = [rand_ideal(rng, xfield) if rng.random() < 0.4 else u for _ in range(n)]
        pm = PseudoMatrix(xfield, rows, ideals)
        try:
            dd = determinantal_ideal_multiple(pm)
        except RankDeficiencyError:
            continue
        out = pseudo_hnf(pm, dd, verify=True)
        assert module_hnf(pm) == module_hnf(out)
        done += 1
