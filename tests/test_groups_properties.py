"""Property tests of the compiled group-law maps.

Each lattice compiles five maps: the law F(x, y) of h^x h^y, the charts
E (second kind to first kind) and L (first kind to second kind), the
inverse I in the second-kind chart and the commutator C(x, y) of h^x and
h^y.  On the class-2 lattices they are checked against the independent
3x3 matrix oracle; on the class-3 filiform lattice, against ``bch`` (the
Hausdorff series over Fractions) through the identities that define
them.  Inputs are p-integral Fractions; a denominator divisible by p is
refused by every map, and C refuses a law F or I with p in a coefficient
denominator.  Group elements, which hold int numerators over one
denominator, are checked against the Fraction element oracle of
``helpers``: products, inverses, commutators, p-th powers, levels,
valuations and coset keys.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    FractionElement,
    coset_key_oracle,
    filiform,
    heisenberg_bch_oracle,
    heisenberg_commutator_oracle,
    heisenberg_law_oracle,
    heisenberg_second_kind_oracle,
    valuation_formula_oracle,
)
from padicdist import heisenberg, heisenberg2  # noqa: E402
from padicdist.errors import (  # noqa: E402
    InvalidArgument,
    LawNotPIntegral,
    NotPIntegral,
    PadicError,
)
from padicdist.groups import SecondKindLaw, _LawPoly, second_kind_valuation_formula  # noqa: E402
from padicdist.towers import _coset_key  # noqa: E402


LATTICES = [heisenberg(3), heisenberg2(), filiform(3), filiform(2)]
CLASS_2, CLASS_3 = LATTICES[:2], LATTICES[2:]


def numeric_law(lat, x, y):
    """Second-kind coordinates of h^x h^y by bch between the charts."""
    return lat.to_second_kind(lat.bch(lat.to_first_kind(x), lat.to_first_kind(y)))


SETTINGS = hypothesis.settings(max_examples=150, deadline=None)
FEW = hypothesis.settings(max_examples=40, deadline=None)


def p_integral(p):
    return st.builds(
        Fraction, st.integers(-50, 50),
        st.integers(1, 30).map(lambda q: q if q % p else q + 1),
    )


def points(lat):
    return st.lists(p_integral(lat.p), min_size=lat.d, max_size=lat.d).map(tuple)


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_compiled_law_matches_numeric_path(lat, data):
    point = st.lists(st.integers(-40, 40), min_size=lat.d, max_size=lat.d).map(tuple)
    x, y = data.draw(point), data.draw(point)
    assert lat.second_kind_law((*x, *y)) == numeric_law(lat, x, y)


@pytest.mark.parametrize("name", ["second_kind_law", "commutator_law"])
@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_grid_matches_pointwise_ints(lat, name, data):
    """``grid(xs, ys)`` gives, per x and coordinate k, the numerators n_k
    over ys with n_k / denoms[k] the coordinate of h^x h^y or [h^x, h^y]
    that the Fraction element oracle gives through the uncompiled
    Hausdorff path (None where all of them are zero), on int point lists
    that may be empty or hold one point."""
    law = getattr(lat, name)

    def oracle(x, y):
        g, h = FractionElement(lat, "second", x), FractionElement(lat, "second", y)
        return (g * h if name == "second_kind_law" else g.commutator(h)).second()

    point = st.lists(st.integers(-40, 40), min_size=lat.d, max_size=lat.d).map(tuple)
    xs = data.draw(st.lists(point, max_size=4))
    ys = data.draw(st.lists(point, max_size=4))
    rows = list(law.grid(xs, ys))
    assert len(rows) == len(xs)
    for x, per_coord in zip(xs, rows):
        assert len(per_coord) == lat.d
        expected = [oracle(x, y) for y in ys]
        for k, row in enumerate(per_coord):
            column = [z[k] for z in expected]
            if row is None:
                assert not any(column)
            else:
                assert [Fraction(n, law.denoms[k]) for n in row] == column


def test_grid_marks_zero_coordinates_and_takes_empty_lists():
    """C_1 and C_2 of heisenberg2 vanish identically and come back as
    None; a single point and empty point lists need no special case."""
    law = heisenberg2().commutator_law
    assert list(law.grid([(1, -2, 3)], [(-4, 5, 6)])) == [[None, None, [4 * (1 * 5 - (-2) * (-4))]]]
    assert list(law.grid([], [(1, 0, 0)])) == []
    assert list(law.grid([(1, 0, 0)], [])) in ([[None, None, []]], [[None, None, None]])


@pytest.mark.parametrize("lat", CLASS_2, ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_compiled_law_matches_matrix_oracle(lat, data):
    point = st.lists(st.integers(-40, 40), min_size=3, max_size=3).map(tuple)
    x, y = data.draw(point), data.draw(point)
    assert lat.second_kind_law((*x, *y)) == heisenberg_law_oracle(x, y, lat.brackets[0][1][2])


@pytest.mark.parametrize("lat", CLASS_2, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_compiled_maps_match_matrix_oracle_at_fractions(lat, data):
    x, y, z = data.draw(points(lat)), data.draw(points(lat)), data.draw(points(lat))
    c = lat.brackets[0][1][2]
    assert lat.second_kind_law((*x, *y)) == heisenberg_law_oracle(x, y, c)
    assert lat.to_second_kind(z) == heisenberg_second_kind_oracle(z, c)
    # the oracle's chart is injective, so this pins E(x)
    assert heisenberg_second_kind_oracle(lat.to_first_kind(x), c) == x
    assert heisenberg_law_oracle(x, lat.second_kind_inverse(x), c) == (0, 0, 0)


@pytest.mark.parametrize("lat", CLASS_3, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_compiled_maps_satisfy_their_identities(lat, data):
    x, y, z = data.draw(points(lat)), data.draw(points(lat)), data.draw(points(lat))
    E = lat.to_first_kind
    assert lat.bch(E(x), E(y)) == E(lat.second_kind_law((*x, *y)))
    assert E(lat.to_second_kind(z)) == z
    assert lat.second_kind_law((*x, *lat.second_kind_inverse(x))) == (0,) * lat.d


@pytest.mark.parametrize("lat", CLASS_2, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_commutator_matches_matrix_oracle(lat, data):
    x, y = data.draw(points(lat)), data.draw(points(lat))
    c = lat.brackets[0][1][2]
    assert lat.commutator_law((*x, *y)) == heisenberg_commutator_oracle(x, y, c)


@pytest.mark.parametrize("lat", CLASS_3, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_commutator_is_the_five_call_product(lat, data):
    x, y = data.draw(points(lat)), data.draw(points(lat))
    ex, ey = lat.to_first_kind(x), lat.to_first_kind(y)
    inverses = lat.bch(tuple(-c for c in ex), tuple(-c for c in ey))
    expected = lat.to_second_kind(lat.bch(lat.bch(inverses, ex), ey))
    assert lat.commutator_law((*x, *y)) == expected
    g, h = lat.element_second(x), lat.element_second(y)
    assert (g.inverse() * h.inverse() * g * h).second() == expected


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_elements_run_on_the_compiled_maps(lat, data):
    x, y = data.draw(points(lat)), data.draw(points(lat))
    g, h = lat.element_second(x), lat.element_second(y)
    assert (g * h).second() == lat.second_kind_law((*x, *y))
    assert g.inverse().second() == lat.second_kind_inverse(x)
    assert g.commutator(h).second() == lat.commutator_law((*x, *y))
    assert g.first() == lat.to_first_kind(x)
    assert lat.element_first(x).second() == lat.to_second_kind(x)


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_compiled_maps_refuse_denominators_divisible_by_p(lat, data):
    x = list(data.draw(points(lat)))
    k = data.draw(st.integers(0, lat.d - 1))
    x[k] = Fraction(data.draw(st.integers(-50, 50).filter(lambda n: n % lat.p)), lat.p)
    x = tuple(x)
    ok = (0,) * lat.d
    for call in (
        lambda: lat.second_kind_law((*x, *ok)),
        lambda: lat.second_kind_law((*ok, *x)),
        lambda: lat.to_first_kind(x),
        lambda: lat.to_second_kind(x),
        lambda: lat.second_kind_inverse(x),
        lambda: lat.commutator_law((*x, *ok)),
        lambda: lat.commutator_law((*ok, *x)),
        lambda: lat.element_second(x).first(),
        lambda: lat.element_second(x).inverse(),
        lambda: lat.element_second(x) * lat.identity(),
        lambda: lat.element_second(x).commutator(lat.identity()),
        lambda: lat.element_first(x).second(),
    ):
        with pytest.raises(NotPIntegral):
            call()


@pytest.mark.parametrize("lat", CLASS_2, ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_bch_matches_matrix_oracle(lat, data):
    coords = st.lists(p_integral(lat.p), min_size=3, max_size=3).map(tuple)
    x, y = data.draw(coords), data.draw(coords)
    c = lat.brackets[0][1][2]
    assert lat.bch(x, y) == heisenberg_bch_oracle(x, y, c)


@pytest.mark.parametrize("name", ["second_kind_law", "second_kind_inverse"])
def test_commutator_refuses_a_law_with_p_in_a_denominator(name):
    """C stands for three F and two I calls; a planted F or I whose
    coefficients are not p-integral is refused once, when C is compiled."""
    lat = heisenberg(3)
    arity = 2 if name == "second_kind_law" else 1
    x0 = _LawPoly({((0, 1),): Fraction(1, 3)})
    planted = SecondKindLaw(3, [x0, x0 * 0, x0 * 0], arity * lat.d)
    setattr(lat, name, planted)  # the cached property's slot
    with pytest.raises(LawNotPIntegral, match=name):
        lat.commutator_law


def test_commutator_refuses_elements_of_two_lattices():
    g, h = heisenberg(3).generator(0), heisenberg(3).generator(1)
    with pytest.raises(InvalidArgument, match="same lattice"):
        g.commutator(h)


def sparse_points(lat):
    """p-integral points with some zero coordinates, scaled by p^s, s <= 3,
    so levels above 1 and the identity occur."""
    coord = st.one_of(st.just(Fraction(0)), p_integral(lat.p))
    return st.tuples(st.lists(coord, min_size=lat.d, max_size=lat.d),
                     st.integers(0, 3)).map(lambda t: tuple(c * lat.p ** t[1] for c in t[0]))


def _outcome(fn):
    try:
        return fn()
    except PadicError as exc:
        return type(exc)


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_int_elements_match_the_fraction_path(lat, data):
    x, y = data.draw(sparse_points(lat)), data.draw(sparse_points(lat))
    mode = data.draw(st.sampled_from(("first", "second")))
    g = lat.element_first(x) if mode == "first" else lat.element_second(x)
    h = lat.element_second(y)
    G, H = FractionElement(lat, mode, x), FractionElement(lat, "second", y)
    assert g.first() == G.first() and g.second() == G.second()
    pairs = [
        (g, G), (h, H), (g * h, G * H), (g.inverse(), G.inverse()),
        (g.commutator(h), G.commutator(H)), (g ** lat.p, G ** lat.p),
        (h ** Fraction(1, lat.p + 1), H ** Fraction(1, lat.p + 1)),
    ]
    for elt, ref in pairs:
        assert elt.second() == ref.second() and elt.first() == ref.first()
        assert _outcome(elt.level) == _outcome(ref.level)
        assert elt.p_valuation() == ref.p_valuation()
        assert second_kind_valuation_formula(elt) == valuation_formula_oracle(ref)


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_levels_read_the_denominator(lat, data):
    """A second-kind point with p^j in a denominator needs no compiled map
    for its level and valuation formula, which count -j as the Fraction
    path does."""
    x = list(data.draw(sparse_points(lat)))
    k, j = data.draw(st.integers(0, lat.d - 1)), data.draw(st.integers(1, 3))
    x[k] = Fraction(data.draw(st.integers(1, 50).filter(lambda n: n % lat.p)), lat.p**j)
    g, ref = lat.element_second(x), FractionElement(lat, "second", x)
    assert g.level() == ref.level() <= 1 - j
    assert g.p_valuation() == ref.p_valuation()
    assert second_kind_valuation_formula(g) == valuation_formula_oracle(ref)


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_coset_keys_match_the_fraction_path(lat, data):
    x, y = data.draw(sparse_points(lat)), data.draw(sparse_points(lat))
    m = data.draw(st.integers(0, 3))
    g, h = lat.element_second(x), lat.element_first(y)
    G, H = FractionElement(lat, "second", x), FractionElement(lat, "first", y)
    for elt, ref in ((g, G), (h, H), (g * h, G * H), (h.inverse() * g, H.inverse() * G)):
        assert _coset_key(elt, m) == coset_key_oracle(ref, m)
