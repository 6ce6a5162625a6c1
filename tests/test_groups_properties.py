"""Property tests of the compiled group-law maps.

Each lattice compiles five maps: the law F(x, y) of h^x h^y, the charts
E (second kind to first kind) and L (first kind to second kind), the
inverse I in the second-kind chart and the commutator C(x, y) of h^x and
h^y.  On the class-2 lattices they are checked against the independent
3x3 matrix oracle; on the class-3 filiform lattice, against ``bch`` (the
Hausdorff series over Fractions) through the identities that define
them.  Inputs are p-integral Fractions; a denominator divisible by p is
refused by every map, and C refuses a law F or I with p in a coefficient
denominator.  The list evaluator ``reduced_all`` is checked point by
point against the Fraction element oracle of ``helpers``, on an
o-additive restriction and a step lattice too, and so are the
binomial-basis numerators, at scaled int points.  Group elements, which
hold int numerators over one denominator, are checked against the same
oracle: products, inverses, commutators, p-th powers, levels,
valuations and coset keys.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    FractionElement,
    binom_rational,
    coset_key_oracle,
    filiform,
    heisenberg_bch_oracle,
    heisenberg_commutator_oracle,
    heisenberg_law_oracle,
    heisenberg_second_kind_oracle,
    valuation_formula_oracle,
)
from padicdist import FieldSpec, heisenberg, heisenberg2, o_additive  # noqa: E402
from padicdist.errors import (  # noqa: E402
    InvalidArgument,
    LawNotPIntegral,
    NotPIntegral,
    PadicError,
)
from padicdist.groups import SecondKindLaw, _LawPoly  # noqa: E402
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
def test_binomial_form_matches_pointwise_ints(lat, name, data):
    """``binomial_numerators(scales)`` gives, per coordinate k, the
    coefficients c with sum c binom(z, index) = n_k(scales z), n_k /
    denoms[k] being the coordinate of h^x h^y or [h^x, h^y], (x, y) =
    scales z, that the Fraction element oracle gives through the
    uncompiled Hausdorff path; each scale is 1, p or p^2 and z is any
    int point, negative coordinates included."""
    law = getattr(lat, name)

    def oracle(x, y):
        g, h = FractionElement(lat, "second", x), FractionElement(lat, "second", y)
        return (g * h if name == "second_kind_law" else g.commutator(h)).second()

    n = 2 * lat.d
    scales = data.draw(st.lists(st.sampled_from([1, lat.p, lat.p**2]), min_size=n, max_size=n))
    z = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    point = [s * t for s, t in zip(scales, z)]
    expected = oracle(point[:lat.d], point[lat.d:])
    coeffs = law.binomial_numerators(scales)
    assert len(coeffs) == lat.d
    for k, terms in enumerate(coeffs):
        assert all(type(c) is int and c for c in terms.values())
        value = sum(c * math.prod(map(binom_rational, z, index)) for index, c in terms.items())
        assert value == expected[k] * law.denoms[k]


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


# every compiled map with its arity; the restriction and the step lattice
# add an abelian map over d = 2 and a class-2 one with brackets in 3 Z_3
MAPS = {"second_kind_law": 2, "commutator_law": 2, "second_kind_inverse": 1,
        "to_first_kind": 1, "to_second_kind": 1}
BATCH_LATTICES = LATTICES + [o_additive(FieldSpec.unramified(3, 2), 1).restrict(),
                             heisenberg(3).step(1)]


def cleared_points(lat, size, min_size=0):
    """Lists of (nums, den) points of ``size`` coordinates, each over its
    own denominator prime to p."""
    den = st.integers(1, 40).map(lambda q: q if q % lat.p else q + 1)
    nums = st.lists(st.integers(-60, 60), min_size=size, max_size=size).map(tuple)
    return st.lists(st.tuples(nums, den), min_size=min_size, max_size=6)


@pytest.mark.parametrize("lat", BATCH_LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_reduced_all_matches_reduced_point_by_point(lat, data):
    """``reduced_all`` returns, in order, each point's output in lowest
    terms (den > 0, gcd(den, *nums) = 1), equal to what the Fraction
    element oracle gives through the first-kind chart and ``bch``, on lists
    (empty ones included) whose points have mixed denominators prime to p;
    heisenberg(3)'s E and L have denominator 2."""
    d = lat.d

    def oracle(name, point):
        x, y = point[:d], point[d:]
        if name == "to_second_kind":
            return FractionElement(lat, "first", x).second()
        g = FractionElement(lat, "second", x)
        if name == "to_first_kind":
            return g.first()
        if name == "second_kind_inverse":
            return g.inverse().second()
        h = FractionElement(lat, "second", y)
        return (g * h if name == "second_kind_law" else g.commutator(h)).second()

    for name, arity in MAPS.items():
        points = data.draw(cleared_points(lat, arity * d))
        outputs = getattr(lat, name).reduced_all(points)
        assert len(outputs) == len(points)
        for (nums, den), (out, out_den) in zip(points, outputs):
            assert out_den > 0 and math.gcd(out_den, *out) == 1
            point = tuple(Fraction(n, den) for n in nums)
            assert tuple(Fraction(n, out_den) for n in out) == oracle(name, point)


@pytest.mark.parametrize("lat", BATCH_LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_reduced_all_refuses_a_p_divisible_denominator_anywhere(lat, data):
    for name, arity in MAPS.items():
        points = data.draw(cleared_points(lat, arity * lat.d, min_size=1))
        at = data.draw(st.integers(0, len(points) - 1))
        nums, den = points[at]
        points[at] = nums, den * lat.p
        with pytest.raises(NotPIntegral):
            getattr(lat, name).reduced_all(points)


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


def test_compiled_maps_are_shared_per_structure():
    """Lattices with one (p, d, brackets) share each compiled map; a law
    planted on one lattice reaches no other, and C still checks the F and
    I of its own lattice after C of that structure is compiled."""
    first, second = heisenberg(3), heisenberg(3)
    assert first.commutator_law is second.commutator_law
    assert first.step(1).second_kind_law is not first.second_kind_law
    planted = heisenberg(3)
    x0 = _LawPoly({((0, 1),): Fraction(1, 3)})
    planted.second_kind_law = SecondKindLaw(3, [x0, x0 * 0, x0 * 0], 2 * planted.d)
    with pytest.raises(LawNotPIntegral, match="second_kind_law"):
        planted.commutator_law
    assert heisenberg(3).second_kind_law is first.second_kind_law


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
        assert elt.p_valuation() == valuation_formula_oracle(lat, ref.second())


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
    assert g.p_valuation() == valuation_formula_oracle(lat, ref.second())


@pytest.mark.parametrize("lat", LATTICES, ids=repr)
@FEW
@hypothesis.given(data=st.data())
def test_coset_keys_match_the_fraction_path(lat, data):
    x, y = data.draw(sparse_points(lat)), data.draw(sparse_points(lat))
    m = data.draw(st.integers(0, 3))
    g, h = lat.element_second(x), lat.element_first(y)
    G, H = FractionElement(lat, "second", x), FractionElement(lat, "first", y)
    for elt, ref in ((g, G), (h, H), (g * h, G * H), (h.inverse() * g, H.inverse() * G)):
        assert _coset_key((elt.nums, elt.den), lat.p, m) == coset_key_oracle(ref, m)
