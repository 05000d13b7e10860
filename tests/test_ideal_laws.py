"""Ideal laws as hypothesis properties over small generators on all test fields.

The runs are derandomized (a fixed seed per test) and keep no example
database, so every run draws the same examples.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from okmod import FractionalIdeal, idempotents

from conftest import ALL_FIELDS, get_field

LAWS = settings(max_examples=12, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

fields = pytest.mark.parametrize("name", ALL_FIELDS)


@st.composite
def elements(draw, K, lim=6, max_den=1):
    coeffs = draw(st.lists(st.integers(-lim, lim), min_size=K.degree,
                           max_size=K.degree).filter(any))
    return K.element(coeffs, draw(st.integers(1, max_den)))


@st.composite
def ideals(draw, K, fractional=True):
    """Ideal generated by one or two small elements, with denominators up to
    3 when ``fractional``."""
    gens = draw(st.lists(elements(K, max_den=3 if fractional else 1),
                         min_size=1, max_size=2))
    return FractionalIdeal.from_generators(K, gens)


@st.composite
def coprime_pairs(draw, K):
    """(a, b) with 1 - x in b for some x in a, so a + b = O_K."""
    a = draw(ideals(K, fractional=False))
    x = a.basis_elements()[draw(st.integers(0, K.degree - 1))] * draw(elements(K, lim=3))
    first = K.one() - x
    gens = [first if first else K.one()] + draw(st.lists(elements(K), max_size=1))
    return a, FractionalIdeal.from_generators(K, gens)


@fields
@LAWS
@given(data=st.data())
def test_inverse_law(name, data):
    K = get_field(name)
    a = data.draw(ideals(K))
    assert a * a.inverse() == FractionalIdeal.unit(K)


@fields
@LAWS
@given(data=st.data())
def test_inverse_of_product(name, data):
    K = get_field(name)
    a, b = data.draw(ideals(K)), data.draw(ideals(K))
    assert (a * b).inverse() == a.inverse() * b.inverse()


@fields
@LAWS
@given(data=st.data())
def test_unit_ideal_is_neutral(name, data):
    K = get_field(name)
    a = data.draw(ideals(K))
    unit = FractionalIdeal.unit(K)
    assert a * unit == a == unit * a


@fields
@LAWS
@given(data=st.data())
def test_product_distributes_over_sum(name, data):
    K = get_field(name)
    a, b, c = (data.draw(ideals(K)) for _ in range(3))
    assert (a + b) * c == a * c + b * c


@fields
@LAWS
@given(data=st.data())
def test_idempotents_of_coprime_pairs(name, data):
    K = get_field(name)
    a, b = data.draw(coprime_pairs(K))
    alpha, beta = idempotents(a, b)
    assert alpha + beta == K.one()
    assert a.contains(alpha) and b.contains(beta)
