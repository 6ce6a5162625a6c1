"""Property tests of arithmetic in K over random towers, p in {2, 3, 5}, e, f <= 3."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import field_product_oracle  # noqa: E402
from padicdist import FieldSpec  # noqa: E402


@st.composite
def towers(draw):
    """K with the default unramified layer and a random Eisenstein polynomial."""
    p = draw(st.sampled_from((2, 3, 5)))
    e, f = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    small = st.integers(-p, p)
    a0 = [draw(st.integers(1, p - 1))] + [draw(small) for _ in range(f - 1)]
    eisenstein = [tuple(p * c for c in a0)]
    for _ in range(e - 1):
        eisenstein.append(tuple(p * draw(small) for _ in range(f)))
    return FieldSpec(p, e=e, f=f, precision=4, eisenstein=eisenstein)


def scalars(field):
    """Scalars with small rational coordinates, p among the denominators."""
    coord = st.builds(
        Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 5, 7, field.p**2))
    )
    return st.lists(coord, min_size=field.degree, max_size=field.degree).map(
        field.from_coords
    )


SETTINGS = hypothesis.settings(max_examples=80, deadline=None)


@SETTINGS
@hypothesis.given(data=st.data())
def test_ring_axioms(data):
    field = data.draw(towers())
    x, y, z = (data.draw(scalars(field)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x * field.one() == x


@SETTINGS
@hypothesis.given(data=st.data())
def test_inverse_and_valuation(data):
    field = data.draw(towers())
    x, y = data.draw(scalars(field)), data.draw(scalars(field))
    hypothesis.assume(not x.is_zero and not y.is_zero)
    assert x * x.inv() == field.one()
    assert (x * y).valuation == x.valuation + y.valuation


@SETTINGS
@hypothesis.given(data=st.data())
def test_products_match_polynomial_division(data):
    field = data.draw(towers())
    x, y = data.draw(scalars(field)), data.draw(scalars(field))
    assert (x * y).coords == field_product_oracle(field, x, y)
    pi = field.uniformizer()
    assert (pi * x).coords == field_product_oracle(field, pi, x)
