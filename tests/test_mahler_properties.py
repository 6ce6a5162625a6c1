"""Property test of the separable Mahler transform against its defining sum."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import box, signed_binom, simplex  # noqa: E402
from padicdist import mahler_coefficients  # noqa: E402


def _grid(d, N, blocks):
    """The simplex {|x| <= N} in N_0^d, or the product of ``blocks`` copies."""
    points = [()]
    for _ in range(blocks):
        points = [x + y for x in points for y in simplex(d, N)]
    return points


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    d=st.integers(1, 3), N=st.integers(0, 3), blocks=st.integers(1, 2), data=st.data(),
)
def test_mahler_coefficients_match_signed_binomial_sum(d, N, blocks, data):
    points = _grid(d, N, blocks)
    f = dict(zip(points, data.draw(st.lists(
        st.integers(-10**6, 10**6), min_size=len(points), max_size=len(points)))))
    table = mahler_coefficients(dict(f), N, blocks * d)
    for alpha in points:
        expect = sum(signed_binom(alpha, beta) * f[beta] for beta in box(alpha))
        assert table[alpha] == expect, alpha
