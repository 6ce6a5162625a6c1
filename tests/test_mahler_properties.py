"""Property tests of the separable Mahler transform: against its defining
sum, and on packed ints against one run per slot."""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import box, signed_binom, simplex  # noqa: E402
from padicdist import mahler_coefficients  # noqa: E402
from padicdist.mahler import _slot_width, _unpack  # noqa: E402


@st.composite
def _down_set(draw, d, top):
    """A downward-closed set in {0..top}^d, in a drawn order: a simplex, a
    box, or the down-closure of a few drawn points."""
    kind = draw(st.sampled_from(["simplex", "box", "closure"]))
    if kind == "simplex":
        points = simplex(d, draw(st.integers(0, top)))
    elif kind == "box":
        points = list(box(draw(st.tuples(*[st.integers(0, top)] * d))))
    else:
        tops = draw(st.lists(st.tuples(*[st.integers(0, top)] * d), min_size=1, max_size=4))
        points = sorted({x for t in tops for x in box(t)})
    return draw(st.permutations(points))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(dims=st.lists(st.integers(0, 3), min_size=1, max_size=3), data=st.data())
def test_mahler_coefficients_match_signed_binomial_sum(dims, data):
    """1 to 3 factors of dimension 0 to 3, each a down-set; the flat grid
    runs over their product with the last factor fastest."""
    top = {1: 3, 2: 2, 3: 1}[len(dims)]
    factors = [data.draw(_down_set(d, top)) for d in dims]
    grid = [sum(xs, ()) for xs in product(*factors)]
    f = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(grid), max_size=len(grid)))
    values = dict(zip(grid, f))
    table = mahler_coefficients(list(f), factors)
    for alpha, c in zip(grid, table):
        assert c == sum(signed_binom(alpha, beta) * values[beta] for beta in box(alpha)), alpha


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
    points = simplex(d, N)
    factors = [points, points]
    grid = [x + y for x in points for y in points]
    width = _slot_width(bound, N)
    grids = [dict(zip(grid, data.draw(st.lists(
        st.integers(-bound, bound), min_size=len(grid), max_size=len(grid)))))
        for _ in range(count)]
    packed = mahler_coefficients([_pack([f[x] for f in grids], width) for x in grid], factors)
    per_slot = [mahler_coefficients([f[x] for x in grid], factors) for f in grids]
    for n, slots in enumerate(_unpack(packed, width, count)):
        assert dict(slots) == {i: t[n] for i, t in enumerate(per_slot) if t[n]}, grid[n]
    # the decoder at the extreme slot values, next to zero slots
    top = (1 << width - 1) - 1
    edge = [top, 0, -top, 0, -1, top, 1, -top]
    (slots,) = _unpack([_pack(edge, width)], width, len(edge))
    assert dict(slots) == {i: v for i, v in enumerate(edge) if v}
