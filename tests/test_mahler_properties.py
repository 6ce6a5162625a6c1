"""Property tests of the separable Mahler transform: against its defining
sum, and on packed ints against one run per slot."""

from itertools import accumulate, product

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


def _pack(slots, widths):
    return sum(v << s for v, s in zip(slots, accumulate(widths, initial=0)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    d=st.integers(1, 2), N=st.integers(0, 3),
    bounds=st.lists(st.integers(1, 10**6), min_size=1, max_size=3), data=st.data(),
)
def test_packed_transform_matches_each_slot(d, N, bounds, data):
    """Grid functions on simplex x simplex in groups, one per bound, as
    the table build groups its slots by degree: each function is bounded
    by its group's bound and packed at the width the build derives from
    it, the slots in a drawn order and labelled by a drawn permutation.
    One transform of the packed ints decodes, at every point where a slot
    is nonzero, to the transform of each slot under its label, in label
    order."""
    points = simplex(d, N)
    factors = [points, points]
    grid = [x + y for x in points for y in points]
    slot_bounds = data.draw(st.lists(st.sampled_from(bounds), min_size=1, max_size=6))
    widths = [_slot_width(bound, N) for bound in slot_bounds]
    labels = data.draw(st.permutations(range(len(widths))))
    grids = [dict(zip(grid, data.draw(st.lists(
        st.integers(-bound, bound), min_size=len(grid), max_size=len(grid)))))
        for bound in slot_bounds]
    packed = mahler_coefficients([_pack([f[x] for f in grids], widths) for x in grid], factors)
    per_slot = [mahler_coefficients([f[x] for x in grid], factors) for f in grids]
    expected = {}
    for n in range(len(grid)):
        entries = sorted((label, t[n]) for label, t in zip(labels, per_slot) if t[n])
        if entries:
            expected[n] = entries
    assert dict(_unpack(packed, widths, labels)) == expected
    # the decoder at each slot's own extreme values, next to zero slots and
    # slots of the other widths, between two zero ints
    edge_widths, edge = [], []
    for bound in bounds:
        width = _slot_width(bound, N)
        top = (1 << width - 1) - 1
        edge_widths += [width] * 8
        edge += [top, 0, -top, 0, -1, top, 1, -top]
    labels = range(len(edge) - 1, -1, -1)
    assert list(_unpack([0, _pack(edge, edge_widths), 0], edge_widths, labels)) == \
        [(1, sorted((label, v) for label, v in zip(labels, edge) if v))]
