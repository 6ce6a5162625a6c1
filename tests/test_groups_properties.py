"""Property tests of the group law.

The compiled law polynomial is checked against the element path (bch
plus the chart fixed point, which the compiler shares), on the built-in
class-2 lattices and a class-3 filiform one, and against the independent
3x3 matrix oracle on the class-2 lattices; ``bch`` is checked against
the matrix oracle too.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import heisenberg_bch_oracle, heisenberg_law_oracle  # noqa: E402
from padicdist import LieLattice, heisenberg, heisenberg2  # noqa: E402
from padicdist.radii import kappa  # noqa: E402


def filiform(p):
    """d = 4, class 3: [X1, X2] = p^kappa X3 and [X1, X3] = p^kappa X4."""
    c = p ** kappa(p)
    return LieLattice(p, 4, {(0, 1): (0, 0, c, 0), (0, 2): (0, 0, 0, c)},
                      name=f"filiform(p={p})")


LATTICES = [heisenberg(3), heisenberg2(), filiform(3), filiform(2)]


def numeric_law(lat, x, y):
    """Second-kind coordinates of h^x h^y by bch and the chart fixed point."""
    def first(v):
        return lat.element_second(tuple(Fraction(c) for c in v)).first()
    return lat.element_first(lat.bch(first(x), first(y))).second()


SETTINGS = hypothesis.settings(max_examples=150, deadline=None)


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_compiled_law_matches_numeric_path(lat, data):
    point = st.lists(st.integers(-40, 40), min_size=lat.d, max_size=lat.d).map(tuple)
    x, y = data.draw(point), data.draw(point)
    assert lat.second_kind_law((*x, *y)) == numeric_law(lat, x, y)


@pytest.mark.parametrize("lat", LATTICES[:2], ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_compiled_law_matches_matrix_oracle(lat, data):
    point = st.lists(st.integers(-40, 40), min_size=3, max_size=3).map(tuple)
    x, y = data.draw(point), data.draw(point)
    assert lat.second_kind_law((*x, *y)) == heisenberg_law_oracle(x, y, lat.brackets[0][1][2])


def p_integral(p):
    return st.builds(
        Fraction, st.integers(-50, 50),
        st.integers(1, 30).filter(lambda q: q % p),
    )


@pytest.mark.parametrize("lat", LATTICES[:2], ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_bch_matches_matrix_oracle(lat, data):
    coords = st.lists(p_integral(lat.p), min_size=3, max_size=3).map(tuple)
    x, y = data.draw(coords), data.draw(coords)
    c = lat.brackets[0][1][2]
    assert lat.bch(x, y) == heisenberg_bch_oracle(x, y, c)
