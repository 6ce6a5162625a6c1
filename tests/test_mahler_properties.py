"""Property tests of the separable Mahler transform: against its defining
sum, and on packed ints against one run per slot."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import box, signed_binom, simplex  # noqa: E402
from padicdist import mahler_coefficients  # noqa: E402
from padicdist.mahler import _slot_width, _unpack  # noqa: E402


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


def _pack(slots, width):
    return sum(v << width * i for i, v in enumerate(slots))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    d=st.integers(1, 2), N=st.integers(0, 3), count=st.integers(1, 6),
    bound=st.integers(1, 10**6), data=st.data(),
)
def test_packed_transform_matches_each_slot(d, N, count, bound, data):
    """Grid functions on simplex x simplex, ``count`` of them bounded by
    ``bound``, packed at the width the table build derives: one transform
    of the packed ints decodes to the transform of each slot."""
    points = _grid(d, N, 2)
    width = _slot_width(bound, N)
    grids = [dict(zip(points, data.draw(st.lists(
        st.integers(-bound, bound), min_size=len(points), max_size=len(points)))))
        for _ in range(count)]
    packed = mahler_coefficients({x: _pack([f[x] for f in grids], width) for x in points},
                                 N, 2 * d)
    per_slot = [mahler_coefficients(dict(f), N, 2 * d) for f in grids]
    for x, slots in zip(points, _unpack(packed.values(), width, count)):
        assert dict(slots) == {i: t[x] for i, t in enumerate(per_slot) if t[x]}, x
    # the decoder at the extreme slot values, next to zero slots
    top = (1 << width - 1) - 1
    edge = [top, 0, -top, 0, -1, top, 1, -top]
    (slots,) = _unpack([_pack(edge, width)], width, len(edge))
    assert dict(slots) == {i: v for i, v in enumerate(edge) if v}
