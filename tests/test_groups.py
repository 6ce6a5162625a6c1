import math
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    FractionElement,
    filiform,
    heisenberg_bch_oracle,
    heisenberg_second_kind_oracle,
    p_valuation_oracle,
    pro2_sweep_oracle,
    random_element_oracle,
    valuation_formula_oracle,
)
from padicdist import (
    DistAlgebra,
    FieldSpec,
    LGroupSpec,
    LieLattice,
    abelian,
    check_p_valuation,
    check_powerful_commutator,
    heisenberg,
    heisenberg2,
    o_additive,
)
from padicdist.errors import (
    CounterexampleFound,
    InvalidArgument,
    InvalidBasis,
    InvalidBracket,
    NotNilpotent,
    NotPowerful,
    PadicError,
)
from padicdist.groups import SecondKindLaw, _LawPoly
from padicdist.samplers import random_element

INF = math.inf


def test_abelian_bch_is_addition():
    lat = abelian(3, p=3)
    x, y = (Fraction(1), Fraction(2), Fraction(4)), (Fraction(5), Fraction(0), Fraction(1))
    assert lat.bch(x, y) == (6, 2, 5)
    assert lat.bch(x, tuple(-c for c in x)) == (0, 0, 0)


def test_heisenberg_bch_matches_matrix_oracle(heis):
    rng = random.Random(11)
    for _ in range(40):
        x = tuple(Fraction(rng.randrange(-30, 30)) for _ in range(3))
        y = tuple(Fraction(rng.randrange(-30, 30)) for _ in range(3))
        assert heis.bch(x, y) == heisenberg_bch_oracle(x, y, 3)


def test_heisenberg_central_coordinate(heis):
    z = heis.bch((1, 0, 0), (0, 1, 0))
    assert z == (1, 1, Fraction(3, 2))


def test_bch_associative_sampled(heis):
    rng = random.Random(12)
    for _ in range(15):
        x, y, z = (
            tuple(Fraction(rng.randrange(0, 27)) for _ in range(3)) for _ in range(3)
        )
        assert heis.bch(heis.bch(x, y), z) == heis.bch(x, heis.bch(y, z))


@pytest.mark.parametrize("i", [3, -1])
def test_lattice_generator_refuses_an_index_outside_the_lattice(heis, i):
    """h_(i+1) exists for i in 0..d-1 only, here d = 3; the index is not
    read as the identity."""
    with pytest.raises(InvalidArgument, match=f"index {i} is outside 0..2"):
        heis.generator(i)


def test_chart_roundtrip(heis):
    rng = random.Random(13)
    for _ in range(20):
        g = heis.element_second(tuple(rng.randrange(0, 81) for _ in range(3)))
        assert heis.element_first(g.first()).second() == g.second()
        h = heis.element_first(tuple(rng.randrange(0, 81) for _ in range(3)))
        assert heis.element_second(h.second()).first() == h.first()


def test_second_kind_matches_matrix_oracle(heis):
    rng = random.Random(14)
    for _ in range(20):
        coords = tuple(Fraction(rng.randrange(-20, 20)) for _ in range(3))
        g = heis.element_first(coords)
        assert g.second() == heisenberg_second_kind_oracle(coords, 3)


def test_second_kind_chart_is_exact_at_small_precision():
    # the chart fixed point stops at a zero defect, so the defect 27/2 of
    # the first product, of valuation 3, is still corrected
    lat = heisenberg(3)

    def first(v):
        return lat.element_second(v).first()

    g = lat.element_first(lat.bch(first((1, 0, 0)), first((0, 9, 0))))
    assert g.second() == (1, 9, 0)
    c = lat.brackets[0][1][2]
    for x1, x2, y1, y2 in product((0, 1, 2, 9, 10), repeat=4):
        x, y = (x1, x2, 0), (y1, y2, 0)
        z = lat.bch(first(x), first(y))
        expect = heisenberg_second_kind_oracle(z, c)
        assert lat.element_first(z).second() == expect
        assert lat.second_kind_law((*x, *y)) == expect


def test_chart_refuses_basis_not_adapted_to_central_series():
    # heisenberg on X1, X2, X3 + X1: [X1, X2] = 3 X3 leaves the last basis
    # line, so the fixed point's defect never sinks to exactly zero
    lat = LieLattice(3, 3, {(0, 1): (-3, 0, 3), (1, 2): (3, 0, -3)})
    assert lat.depth == 2
    with pytest.raises(InvalidBasis, match="adapted"):
        lat.element_first((1, 1, 0)).second()


def test_abelian_chart_is_identity():
    lat = abelian(2, p=3)
    g = lat.element_first((4, 7))
    assert g.second() == (4, 7)
    assert lat.identity().second() == (0, 0)


def test_power_agrees_with_iteration(heis):
    g = heis.element_second((2, 1, 5))
    acc = heis.identity()
    for _ in range(6):
        acc = acc * g
    assert (g**6).second() == acc.second()
    assert (g**0).second() == (0, 0, 0)
    assert (g**1).second() == g.second()


def test_power_abelian_scaling():
    lat = abelian(2, p=3)
    h1 = lat.generator(0)
    assert (h1**3).second() == (3, 0)


def test_levels(heis):
    h1 = heis.generator(0)
    assert h1.level() == 1
    assert (h1**3).level() == 2
    lat2 = abelian(2, p=3)
    g = lat2.element_second((9, 27))
    assert g.level() == 3
    # h_1^p h_2^{p^2}
    g = lat2.element_second((3, 9))
    assert g.level() == 2


def test_omega(heis, heis2):
    assert heis.generator(0).p_valuation() == 1
    assert heis.identity().p_valuation() == INF
    # p = 2 shift
    assert heis2.generator(0).p_valuation() == 2
    lat = abelian(1, p=2)
    assert (lat.generator(0) ** 2).p_valuation() == 3


def test_bch_refuses_non_p_integral(heis):
    with pytest.raises(PadicError, match="p-integral"):
        heis.bch((Fraction(1, 3), 0, 0), (0, 1, 0))


def test_pow_refuses_non_p_integral_exponent(heis):
    with pytest.raises(PadicError, match="p-integral"):
        heis.generator(0) ** Fraction(2, 3)


def test_level_rejects_identity(heis):
    with pytest.raises(ValueError):
        heis.identity().level()


def test_level_is_exact_at_any_depth():
    # the level is 1 + min v_p of the exact coordinates, however deep
    assert abelian(1, p=3).element_second((3**45,)).level() == 46


def test_p_valuation_axioms(heis, heis2):
    rng = random.Random(15)
    for lat in (heis, heis2, abelian(2, p=3)):
        pairs = []
        for _ in range(60):
            a = lat.element_second(tuple(rng.randrange(0, 64) for _ in range(lat.d)))
            b = lat.element_second(tuple(rng.randrange(0, 64) for _ in range(lat.d)))
            pairs.append((a, b))
        assert check_p_valuation(pairs) == []


def _levelled_pairs(lat, seed):
    """Every ordered pair of the identity, elements at levels 1, 2 and 3
    (the level-2 one over the denominator 5) and three sampled ones."""
    rng = random.Random(seed)
    elements = [lat.identity()]
    for k, den in ((0, 1), (1, 5), (2, 1)):
        elements.append(lat.element_second(
            tuple(Fraction(lat.p**k * (i + 1), den) for i in range(lat.d))
        ))
    elements += [random_element(lat, rng) for _ in range(3)]
    assert [g.level() for g in elements[1:4]] == [1, 2, 3]
    return [(g, h) for g in elements for h in elements]


@pytest.mark.parametrize("lat", [heisenberg(3), heisenberg2(), filiform(3), filiform(2)], ids=repr)
def test_p_valuation_check_matches_the_fraction_oracle(lat):
    """The batch check, its valuations read off the compiled maps' ints,
    finds what the Fraction path of ``helpers`` finds, identity included."""
    pairs = _levelled_pairs(lat, 24)
    found = [
        (kind, g.second(), None if h is None else h.second())
        for kind, g, h in check_p_valuation(pairs)
    ]
    assert found == p_valuation_oracle(pairs)


def _p_valuation_loop(pairs):
    """``check_p_valuation`` one pair at a time through the ``GroupElement``
    operations, each one single-point ``SecondKindLaw.reduced_all`` call of
    whatever map the lattice holds."""
    violations = []
    for g, h in pairs:
        og, oh = g.p_valuation(), h.p_valuation()
        if (g * h.inverse()).p_valuation() < min(og, oh):
            violations.append(("ultrametric", g, h))
        if g.commutator(h).p_valuation() < og + oh:
            violations.append(("commutator", g, h))
        for elt, om in ((g, og), (h, oh)):
            if om is INF:
                continue
            if (elt ** elt.lattice.p).p_valuation() != om + 1:
                violations.append(("p-power", elt, None))
            # omega of the first-kind coordinates E(x), read as a point
            if elt.lattice.element_second(elt.first()).p_valuation() != om:
                violations.append(("coordinate-formula", elt, None))
    return violations


def test_p_valuation_check_reports_planted_violations_in_order():
    """On heisenberg2 with F halved, C without its factor 4 and E with its
    third coordinate doubled, the batch check reports violations of every
    kind, entry by entry as the per-pair loop does.  The wrong E alone
    makes the coordinate-formula ones: at the elements where the Fraction
    oracle, given the same E, finds kappa + min v_p(E(x)) off omega, which
    are those whose x_3 alone has the least valuation, as (4, 8, 2)."""
    lat = heisenberg2()
    shallow = lat.element_second((4, 8, 2))
    pairs = _levelled_pairs(lat, 25)
    pairs += [(shallow, g) for g, _ in pairs[::8]]  # with each element
    assert check_p_valuation(pairs) == []
    x = [_LawPoly({((v, 1),): Fraction(1)}) for v in range(6)]
    assert lat.to_first_kind((3, 5, 7)) == (3, 5, 7 + 2 * 3 * 5)  # x_3 + 2 x_1 x_2
    wrong = SecondKindLaw(2, [x[0], x[1], (x[2] + x[0] * x[1] * 2) * 2], 3)
    lat.to_first_kind = wrong
    lat.second_kind_law = SecondKindLaw(2, [(x[k] + x[k + 3]) * Fraction(1, 2) for k in range(3)], 6)
    lat.commutator_law = SecondKindLaw(2, [0, 0, x[0] * x[4]], 6)
    found = check_p_valuation(pairs)
    assert found == _p_valuation_loop(pairs)
    assert {kind for kind, _, _ in found} == {"ultrametric", "commutator", "p-power", "coordinate-formula"}
    formula = [(g.second(), h) for kind, g, h in found if kind == "coordinate-formula"]
    assert formula == [
        (elt.second(), None) for pair in pairs for elt in pair
        if any(elt.nums)
        and valuation_formula_oracle(lat, wrong(elt.second())) != FractionElement.of(elt).p_valuation()
    ]
    assert formula == [(shallow.second(), None)] * 7


def _planted_pairs(*names):
    """The pairs of the planted-violations test on heisenberg2 with the
    named maps planted: as there F halved (outputs over den = 2), C
    without its factor 4 and E with x_3 doubled; L halved, which breaks
    the p-power axiom alone; or E with x_3 doubled together with its
    inverse L, which keeps g^p = L(p E(x)) and breaks the coordinate
    formula alone."""
    lat = heisenberg2()
    x = [_LawPoly({((v, 1),): Fraction(1)}) for v in range(6)]
    wrong_e = SecondKindLaw(2, [x[0], x[1], (x[2] + x[0] * x[1] * 2) * 2], 3)
    planted = {
        "F": {"second_kind_law": SecondKindLaw(
            2, [(x[k] + x[k + 3]) * Fraction(1, 2) for k in range(3)], 6)},
        "C": {"commutator_law": SecondKindLaw(2, [0, 0, x[0] * x[4]], 6)},
        "E": {"to_first_kind": wrong_e},
        "L": {"to_second_kind": SecondKindLaw(2, [x[k] * Fraction(1, 2) for k in range(3)], 3)},
        "E and its L": {"to_first_kind": wrong_e, "to_second_kind": SecondKindLaw(
            2, [x[0], x[1], x[2] * Fraction(1, 2) - x[0] * x[1] * 2], 3)},
    }
    lat.commutator_law  # compiled from the sound F: a halved one is refused there
    for name in names:
        for attr, law in planted[name].items():
            setattr(lat, attr, law)
    shallow = lat.element_second((4, 8, 2))
    pairs = _levelled_pairs(lat, 25)
    return pairs + [(shallow, g) for g, _ in pairs[::8]]


def _pro2_law_pairs():
    """The 300 pairs of the pro2-law pvaluation record at seed 0: the
    suite draws them from ``SuiteEnv.rng("pvaluation")``."""
    lat, rng = heisenberg2(), random.Random("0:pvaluation")
    return [(random_element(lat, rng), random_element(lat, rng)) for _ in range(300)]


def _identity_pair(shift_l=False):
    """The identity on both sides of heisenberg2; with ``shift_l`` its L
    has a constant term, so that L(p E(1)) is not the identity: a check
    that did not skip the identity's p-power and formula axioms, as the
    pair loop does, would report it."""
    lat = heisenberg2()
    if shift_l:
        x = [_LawPoly({((v, 1),): Fraction(1)}) for v in range(3)]
        lat.to_second_kind = SecondKindLaw(2, [x[0] + 1, x[1], x[2]], 3)
        assert lat.identity() ** 2 != lat.identity()
    return [(lat.identity(), lat.identity())]


@pytest.mark.parametrize("make_pairs, kinds", [
    (_pro2_law_pairs, set()),
    (lambda: _levelled_pairs(filiform(2), 24), set()),
    (lambda: _planted_pairs("F"), {"ultrametric"}),
    (lambda: _planted_pairs("C"), {"commutator"}),
    (lambda: _planted_pairs("E"), {"p-power", "coordinate-formula"}),
    (lambda: _planted_pairs("L"), {"p-power"}),
    (lambda: _planted_pairs("E and its L"), {"coordinate-formula"}),
    (_identity_pair, set()),
    (lambda: _identity_pair(shift_l=True), set()),
], ids=["pro2-law-seed-0", "filiform2-levelled", "planted-F", "planted-C",
        "planted-E", "planted-L", "planted-E-and-its-L", "identity", "identity-shifted-L"])
def test_column_check_matches_the_pair_loop(make_pairs, kinds):
    """The check, omega read once per column, reports what
    ``_p_valuation_loop`` reports, entry by entry and in order: nothing
    on sound maps, and on each planted map alone the violations of its
    axioms.  All three planted together are the planted-violations
    test's own case."""
    pairs = make_pairs()
    found = check_p_valuation(pairs)
    assert found == _p_valuation_loop(pairs)
    assert {kind for kind, _, _ in found} == kinds


@pytest.mark.parametrize("seed", [0, 7, 13])
@pytest.mark.parametrize("lat", [
    heisenberg(3), heisenberg2(), abelian(2, p=3), o_additive(FieldSpec.unramified(3, 2), 1).restrict(),
], ids=repr)
def test_random_element_matches_the_element_second_oracle(lat, seed):
    """The sampler hands its drawn ints to ``GroupElement`` over den = 1:
    the same elements as building through ``element_second``, after the
    same draws."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(60):
        g = random_element(lat, rng)
        assert g == random_element_oracle(lat, oracle_rng)
        assert g.den == 1 and type(g.nums) is tuple and all(type(n) is int for n in g.nums)
    assert rng.getstate() == oracle_rng.getstate()


def test_p_valuation_check_refuses_elements_of_two_lattices(heis):
    with pytest.raises(InvalidArgument, match="one lattice"):
        check_p_valuation([(heis.generator(0), heis.generator(1)), (heisenberg(3).generator(0),) * 2])
    assert check_p_valuation([]) == []


def test_commutator_valuation(heis):
    h1, h2 = heis.generator(0), heis.generator(1)
    assert h1.commutator(h2).p_valuation() >= 2


def test_powerfulness_validation():
    with pytest.raises(NotPowerful):
        LieLattice(3, 3, {(0, 1): (0, 0, 1)})  # v_p = 0 < kappa
    with pytest.raises(NotPowerful):
        LieLattice(2, 3, {(0, 1): (0, 0, 2)})  # v_2 = 1 < kappa = 2


def test_jacobi_validation():
    # [X1,X2] = 3X2 and [X2,X3] = -3X1 leave a defect 9X1 in the Jacobi sum
    with pytest.raises(ValueError, match="Jacobi"):
        LieLattice(3, 3, {(0, 1): (0, 3, 0), (1, 2): (-3, 0, 0)})


def test_pro2_check_takes_any_level_from_i_plus_j():
    # both windows hold 2^3 points at i = j = 1, from level 2 up
    assert check_powerful_commutator(heisenberg2(), 2, 1, 1) == 64
    assert check_powerful_commutator(heisenberg2(), 40, 1, 1) == 64


def test_pro2_commutator_check(heis2):
    assert check_powerful_commutator(heis2, 5, 1, 1) > 0
    assert check_powerful_commutator(heis2, 5, 1, 2) > 0
    assert check_powerful_commutator(heis2, 5, 2, 2) > 0


def test_pro2_counterexample_carries_the_commutator():
    """A planted C(x, y) = (0, 0, x_1 y_2), the heisenberg2 commutator
    without its factor 4, escapes P_3: the sweep reads the level off the
    numerators and builds the witness (a, b, second-kind coordinates)."""
    lat = heisenberg2()
    lat.commutator_law = SecondKindLaw(2, [0, 0, _LawPoly({((0, 1), (4, 1)): Fraction(1)})], 6)
    with pytest.raises(CounterexampleFound, match=r"\[P_1, P_1\] escapes P_3") as info:
        check_powerful_commutator(lat, 5, 1, 1)
    a, b, c = info.value.witness
    assert c == (0, 0, Fraction(a[0] * b[1]))
    assert a[0] * b[1] % 4 != 0


@pytest.mark.parametrize("lat", [heisenberg2(), filiform(2)], ids=repr)
def test_pro2_sweep_matches_the_per_point_loop(lat):
    level = 5
    for i in range(1, level):
        for j in range(1, level - i):
            assert check_powerful_commutator(lat, level, i, j) == pro2_sweep_oracle(lat, level, i, j)[0]


def test_pro2_counterexample_is_the_earliest_pair():
    """A planted C(x, y) = (0, 2 x_1 y_2, 2 x_1 y_3) escapes P_3, by one
    level, in two coordinates: at a = (1, 0, 0) the second first fails at
    b = (0, 1, 0), the third already at b = (0, 0, 1).  The witness is the
    earliest pair in (a, b) order over all coordinates, as in the
    per-point loop."""
    lat = heisenberg2()
    x1, y2, y3 = (_LawPoly({((v, 1),): Fraction(1)}) for v in (0, 4, 5))
    lat.commutator_law = SecondKindLaw(2, [0, x1 * y2 * 2, x1 * y3 * 2], 6)
    with pytest.raises(CounterexampleFound, match=r"\[P_1, P_1\] escapes P_3") as info:
        check_powerful_commutator(lat, 5, 1, 1)
    assert info.value.witness == ((1, 0, 0), (0, 0, 1), (0, 0, 2))
    assert info.value.witness == pro2_sweep_oracle(lat, 5, 1, 1)[1]


@pytest.mark.parametrize("i, j, witness", [
    (1, 3, ((0, 1, 0), (0, 4, 0), (0, 8, 0))),
    (3, 1, ((0, 4, 0), (0, 1, 0), (0, 8, 0))),
])
def test_pro2_sweep_with_unequal_windows(i, j, witness):
    """At level 5 the windows of [P_1, P_3] hold 512 a and 8 b, and those
    of [P_3, P_1] 8 a and 512 b; either way the shorter is outside.  A
    planted C(x, y) = (0, 2 x_2 y_2, 2 x_1 y_3) escapes P_5 in both
    coordinates.  In [P_1, P_3] the first b to escape, (0, 0, 4), first
    does so at a = (1, 0, 0), after a = (0, 1, 0), which escapes with
    b = (0, 4, 0): the witness is still the earliest pair in (a, b)
    order, as in the per-point loop.  Doubled, C passes, with the loop's
    pair count."""
    lat = heisenberg2()
    x1, x2, y2, y3 = (_LawPoly({((v, 1),): Fraction(1)}) for v in (0, 1, 4, 5))
    lat.commutator_law = SecondKindLaw(2, [0, x2 * y2 * 2, x1 * y3 * 2], 6)
    with pytest.raises(CounterexampleFound, match=rf"\[P_{i}, P_{j}\] escapes P_5") as info:
        check_powerful_commutator(lat, 5, i, j)
    assert info.value.witness == witness == pro2_sweep_oracle(lat, 5, i, j)[1]
    lat.commutator_law = SecondKindLaw(2, [0, x2 * y2 * 4, x1 * y3 * 4], 6)
    assert check_powerful_commutator(lat, 5, i, j) == 4096
    assert pro2_sweep_oracle(lat, 5, i, j) == (4096, None)


def test_pro2_sweep_reads_a_cubic_law_with_a_half_coefficient():
    """A planted C(x, y) = (0, 4 x_2 y_2, x_1 (x_1 - 1) (x_1 - 2) y_3 / 2)
    has 2 in a coefficient denominator, and its third coordinate is
    3 binom(x_1, 3) y_3 in the binomial basis.  That coefficient lies
    outside the windows of [P_1, P_1] and of [P_2, P_1] at level 5, whose
    a-windows hold x_1 in {0, 1} and {0, 2}, so both pass; in every other
    window it escapes.  Each verdict, pair count and witness is that of
    the per-point loop."""
    lat = heisenberg2()
    x1, x2, y2, y3 = (_LawPoly({((v, 1),): Fraction(1)}) for v in (0, 1, 4, 5))
    lat.commutator_law = SecondKindLaw(2, [0, x2 * y2 * 4, x1 * (x1 - 1) * (x1 - 2) * y3 * Fraction(1, 2)], 6)
    assert lat.commutator_law.denoms == [1, 1, 2]
    for i, j in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        checked, witness = pro2_sweep_oracle(lat, 5, i, j)
        if witness is None:
            assert (i, j) in [(1, 1), (2, 1)]
            assert check_powerful_commutator(lat, 5, i, j) == checked
        else:
            with pytest.raises(CounterexampleFound, match=rf"\[P_{i}, P_{j}\] escapes") as info:
                check_powerful_commutator(lat, 5, i, j)
            assert info.value.witness == witness
    assert witness == ((4, 0, 0), (0, 0, 1), (0, 0, 12))


def test_pro2_requires_p2(heis):
    with pytest.raises(ValueError):
        check_powerful_commutator(heis, 4, 1, 1)


def test_scalar_restrict_abelian(k3u2):
    lg = o_additive(k3u2, 1)
    lat = lg.restrict()
    assert lat.d == 2
    assert lat.abelian
    assert lat.labels == ("b11", "b21")
    assert lg.flat_index(1, 1) == 0 and lg.flat_index(2, 1) == 1


def test_scalar_restrict_identity_for_qp(q3):
    lg = o_additive(q3, 2)
    lat = lg.restrict()
    assert lat.d == 2 and lat.abelian


def test_step_scaling(heis, k3u2):
    stepped = heis.step(1)
    assert stepped.brackets[0][1][2] == 9
    lg = o_additive(k3u2, 1)
    assert lg.step(2).restrict().abelian


def test_lgroup_v1_must_be_one(k3u2):
    with pytest.raises(ValueError):
        LGroupSpec(k3u2, [k3u2.unram_gen(), k3u2.one()], 1)


def _nonabelian_lgroup(field):
    # [x_1, x_2] = p x_2 over L; the induced bracket constants carry v_p = 1
    n = field.degree
    zero_o = (0,) * n
    p_o = (field.p,) + (0,) * (n - 1)
    basis = [field.one(), field.unram_gen()]
    return LGroupSpec(field, basis, 2, {(1, 2): (zero_o, p_o)}, name="solv")


def test_restrict_step_commutes(k3u2):
    lg = _nonabelian_lgroup(k3u2)
    direct = lg.step(1).restrict()
    other = lg.restrict().step(1)
    assert direct.brackets == other.brackets
    assert not direct.abelian


@pytest.mark.parametrize("use", [
    lambda lat, K: lat.bch((0,) * lat.d, (0,) * lat.d),
    lambda lat, K: lat.second_kind_law,
    lambda lat, K: DistAlgebra(lat, K, 2).table.row((1, 0, 0, 0), (0, 1, 0, 0)),
], ids=["bch", "second_kind_law", "table-row"])
def test_non_nilpotent_lattice_refused_on_group_law_use(k3u2, use):
    lg = _nonabelian_lgroup(k3u2)
    lat = lg.restrict()  # construction, brackets and steps still work
    assert lat.step(1).brackets == lg.step(1).restrict().brackets
    with pytest.raises(PadicError, match="lower central series") as info:
        use(lat, k3u2)
    assert isinstance(info.value, NotNilpotent)


def test_restrict_rejects_unpowerful(k3u2):
    n = k3u2.degree
    one_o = (1,) + (0,) * (n - 1)
    lg = LGroupSpec(k3u2, [k3u2.one(), k3u2.unram_gen()], 2,
                    {(1, 2): ((0,) * n, one_o)})
    with pytest.raises(NotPowerful):
        lg.restrict()


def test_restrict_multiplies_in_K(k3u2):
    # [x_1, x_2] = 3 x_2 over Q_9 = Q_3(w), w^2 = -1: [v_a x_1, v_b x_2] =
    # 3 v_a v_b x_2, so [b21, b22] = 3 w^2 x_2 = -3 b12
    zero_o, three_o = (0, 0), (3, 0)
    lg = LGroupSpec(k3u2, [k3u2.one(), k3u2.unram_gen()], 2, {(1, 2): (zero_o, three_o)})
    lat = lg.restrict()
    assert lat.labels == ("b11", "b21", "b12", "b22")
    assert lat.brackets[0][2] == (0, 0, 3, 0)  # [b11, b12] = 3 b12
    assert lat.brackets[0][3] == lat.brackets[1][2] == (0, 0, 0, 3)  # 3 w x_2 = 3 b22
    assert lat.brackets[1][3] == (0, 0, -3, 0)
    assert lat.brackets[0][1] == lat.brackets[2][3] == (0, 0, 0, 0)
    # the bracket given at (2, 1) is the negated one at (1, 2)
    flipped = LGroupSpec(k3u2, [k3u2.one(), k3u2.unram_gen()], 2, {(2, 1): (zero_o, (-3, 0))})
    assert flipped.restrict().brackets == lat.brackets


def test_lgroup_refuses_v_basis_without_ring_closure():
    # 1, w span a rank-2 submodule of the cubic unramified ring; w^2 leaves it
    k3u3 = FieldSpec.unramified(3, 3)
    with pytest.raises(ValueError, match="products leave the span"):
        LGroupSpec(k3u3, [k3u3.one(), k3u3.unram_gen()], 1)


def test_lgroup_refuses_non_integral_products(k3u2):
    # (w/3)^2 = -1/9 has a non-integral coordinate on the basis 1, w/3
    with pytest.raises(ValueError, match="non-integral"):
        LGroupSpec(k3u2, [k3u2.one(), k3u2.unram_gen() / 3], 1)


def _k3u3():
    return FieldSpec.unramified(3, 3)


@pytest.mark.parametrize("build, error, match", [
    (lambda K: LGroupSpec(K, [K.unram_gen(), K.one()], 1), InvalidBasis, "v_1 must be 1"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(1, 2): ((0, 0),)}),
     InvalidBracket, "d o-elements"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(1, 1): ((0, 0), (0, 0))}),
     InvalidBracket, "with itself"),
    (lambda K: LGroupSpec(_k3u3(), [_k3u3().one(), _k3u3().unram_gen()], 1),
     InvalidBasis, "products leave the span"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen() / 3], 1), InvalidBasis, "non-integral"),
    (lambda K: LGroupSpec(K, [1, 2], 1), InvalidBasis, "v-basis is linearly dependent"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen(), K.one() + K.unram_gen()], 1),
     InvalidBasis, "v-basis is linearly dependent"),
    (lambda K: LGroupSpec(K, [K.one(), 3 * K.unram_gen()], 1), InvalidBasis, "valuation ring of L"),
    (lambda K: LieLattice(3, 3, {(0, 1): (0, 3, 0), (1, 2): (-3, 0, 0)}),
     InvalidBracket, "Jacobi"),
    (lambda K: LieLattice(3, 3, {(0, 5): (0, 0, 3)}), InvalidBracket, "generator indices in 0..2"),
    (lambda K: LieLattice(3, 3, {(-1, 0): (0, 0, 3)}), InvalidBracket, "generator indices"),
    (lambda K: LieLattice(3, 3, {(0, 1): (0, 0, 3.0)}), InvalidBracket, "ints or Fractions"),
    (lambda K: LieLattice(3, 3, {(0, 1): (0, 0, "3")}), InvalidBracket, "ints or Fractions"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(0, 1): ((0, 0), (3, 0))}),
     InvalidBracket, "generator indices in 1..2"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(2, 5): ((0, 0), (3, 0))}),
     InvalidBracket, "generator indices"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(1, 2): ((0, 0), (3.0, 0))}),
     InvalidBracket, "ints or Fractions"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(1, 2): ((0, 0), (Fraction(1, 3), 0))}),
     InvalidBracket, "p-integral coordinates"),
    # the defect is -3^42 X5, which a check to valuation 40 would accept
    (lambda K: LieLattice(3, 5, {(0, 1): (0, 0, 3, 0, 0), (0, 2): (0, 0, 0, 3, 0),
                                 (1, 2): (0, 0, 0, 3, 0), (0, 3): (0, 0, 0, 0, 3),
                                 (1, 3): (0, 0, 0, 0, 3 + 3**41)}),
     InvalidBracket, "Jacobi"),
], ids=["v1", "bracket-shape", "self-bracket", "span", "integrality", "dependent",
        "dependent-three", "non-maximal", "jacobi",
        "key-out-of-range", "key-negative", "float-constant", "string-constant",
        "lgroup-key-zero", "lgroup-key-out-of-range", "lgroup-float-constant",
        "lgroup-non-integral-constant", "jacobi-deep"])
def test_structure_refusals_are_typed(k3u2, build, error, match):
    with pytest.raises(PadicError, match=match) as info:
        build(k3u2)
    assert isinstance(info.value, error)


@pytest.mark.parametrize("build, match", [
    (lambda: LieLattice(3, 2, labels=("a",)), "one label per generator"),
    (lambda: heisenberg(3).identity() * heisenberg(3).identity(), "same lattice"),
    (lambda: heisenberg(3).element_second((1, 2)), r"needs 3 int or Fraction .*, not \(1, 2\)"),
    (lambda: heisenberg(3).element_second((1, 2, 3, 4)), r"needs 3 int or Fraction .* 4\)"),
    (lambda: heisenberg(3).element_first((1, 2)), r"needs 3 int or Fraction .*, not \(1, 2\)"),
    (lambda: DistAlgebra(heisenberg(3), FieldSpec.qp(3), 3).delta(
        heisenberg(3).element_second((1, 2))), "needs 3 int or Fraction coordinates"),
    (lambda: heisenberg(3).element_second((0.1, 0, 0)), "int or Fraction coordinates"),
    (lambda: heisenberg(3).element_first((0, "1/2", 0)), "int or Fraction coordinates"),
    (lambda: heisenberg(3).generator(0) ** 0.1, "exponent must be an int or a Fraction"),
    (lambda: heisenberg(3).generator(0) * 3, "same lattice"),
    (lambda: heisenberg(3).generator(0).commutator(None), "same lattice"),
    (lambda: heisenberg(3).generator(0).conjugate(2), "same lattice"),
    (lambda: heisenberg(3).identity().level(), "identity"),
    (lambda: check_powerful_commutator(heisenberg2(), 0, 1, 1), "level 0 is below i"),
    (lambda: check_powerful_commutator(heisenberg(3), 4, 1, 1), "p = 2"),
    (lambda: check_powerful_commutator(heisenberg2(), 2, 1, 2), "below i"),
    (lambda: check_powerful_commutator(heisenberg2(), 4, 0, 1), "1 <= i, j"),
    (lambda: check_powerful_commutator(heisenberg2(), 4, 2, -1), "1 <= i, j"),
    (lambda: abelian(2).step(-1), "m = -1 must be >= 0"),
    (lambda: o_additive(FieldSpec.unramified(3, 2), 1).step(-1), "m = -1 must be >= 0"),
], ids=["labels", "lattices", "short-point", "long-point", "short-first-point",
        "short-point-delta", "float-coordinate", "string-coordinate", "float-exponent",
        "product-with-int", "commutator-with-none", "conjugate-by-int", "identity-level",
        "quotient-level", "prime", "step-pair", "step-index-zero", "step-index-negative",
        "lattice-step", "lgroup-step"])
def test_group_argument_refusals_are_typed(build, match):
    with pytest.raises(PadicError, match=match) as info:
        build()
    assert isinstance(info.value, InvalidArgument)
