"""Uniqueness of the canonical pseudo-Hermite form as hypothesis properties on
all test fields: ``canonicalize(pseudo_hnf(pm))`` depends only on the module,
not on the order of the rows or on the multiple of the determinantal ideal.

The runs are derandomized (a fixed seed per test) and keep no example
database, so every run draws the same examples.
"""

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from okmod import (FractionalIdeal, PseudoMatrix, canonicalize,
                   determinantal_ideal_multiple, pseudo_hnf)
from okmod.zlinalg import RankDeficiencyError

from conftest import ALL_FIELDS, get_field
from test_ideal_laws import elements, ideals

# no shrink phase: each shrink step runs pseudo_hnf again, and shrinking a
# failure took minutes where reporting the first failing example takes seconds
LAWS = settings(max_examples=10, deadline=None, derandomize=True, database=None,
                phases=[Phase.explicit, Phase.generate],
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

fields = pytest.mark.parametrize("name", ALL_FIELDS)


@st.composite
def pseudo_matrices(draw, K):
    """(pm, dd): an integral pseudo-matrix of full column rank, 1 to 3 columns
    and up to two extra rows, about half of its rows with a proper ideal, and
    the witness multiple of its determinantal ideal."""
    m = draw(st.integers(1, 3))
    n = m + draw(st.integers(0, 2))
    entries = st.one_of(st.just(K.zero()), elements(K, lim=9))
    rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    unit = FractionalIdeal.unit(K)
    row_ideals = [draw(st.one_of(st.just(unit), ideals(K, fractional=False)))
                  for _ in range(n)]
    pm = PseudoMatrix(K, rows, row_ideals)
    try:
        dd = determinantal_ideal_multiple(pm)
    except RankDeficiencyError:
        assume(False)
    return pm, dd


def assert_identical(a, b):
    assert a.rows == b.rows
    assert a.ideals == b.ideals


@fields
@LAWS
@given(data=st.data())
def test_canonical_form_ignores_row_order(name, data):
    K = get_field(name)
    pm, _ = data.draw(pseudo_matrices(K))
    perm = data.draw(st.permutations(range(pm.nrows)))
    shuffled = PseudoMatrix(K, [pm.rows[i] for i in perm], [pm.ideals[i] for i in perm])
    assert_identical(canonicalize(pseudo_hnf(pm)), canonicalize(pseudo_hnf(shuffled)))


@fields
@LAWS
@given(data=st.data())
def test_canonical_form_ignores_the_determinantal_multiple(name, data):
    K = get_field(name)
    pm, dd = data.draw(pseudo_matrices(K))
    c = data.draw(ideals(K, fractional=False).filter(lambda a: not a.is_unit()))
    assert_identical(canonicalize(pseudo_hnf(pm, dd)), canonicalize(pseudo_hnf(pm, dd * c)))
