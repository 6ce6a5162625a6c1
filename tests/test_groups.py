import math
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    filiform,
    heisenberg_bch_oracle,
    heisenberg_second_kind_oracle,
    pro2_sweep_oracle,
)
from padicdist import (
    DistAlgebra,
    FieldSpec,
    FiniteQuotient,
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


def test_finite_quotient_takes_any_level_from_one():
    assert FiniteQuotient(heisenberg2(), 40).level == 40


def test_pro2_commutator_check(heis2):
    q = FiniteQuotient(heis2, 5)
    assert check_powerful_commutator(q, 1, 1) > 0
    assert check_powerful_commutator(q, 1, 2) > 0
    assert check_powerful_commutator(q, 2, 2) > 0


def test_pro2_counterexample_carries_the_commutator():
    """A planted C(x, y) = (0, 0, x_1 y_2), the heisenberg2 commutator
    without its factor 4, escapes P_3: the sweep reads the level off the
    numerators and builds the witness (a, b, second-kind coordinates)."""
    lat = heisenberg2()
    lat.commutator_law = SecondKindLaw(2, [0, 0, _LawPoly({((0, 1), (4, 1)): Fraction(1)})], 6)
    with pytest.raises(CounterexampleFound, match=r"\[P_1, P_1\] escapes P_3") as info:
        check_powerful_commutator(FiniteQuotient(lat, 5), 1, 1)
    a, b, c = info.value.witness
    assert c == (0, 0, Fraction(a[0] * b[1]))
    assert a[0] * b[1] % 4 != 0


@pytest.mark.parametrize("lat", [heisenberg2(), filiform(2)], ids=repr)
def test_pro2_sweep_matches_the_per_point_loop(lat):
    level = 5
    quotient = FiniteQuotient(lat, level)
    for i in range(1, level):
        for j in range(1, level - i):
            assert check_powerful_commutator(quotient, i, j) == pro2_sweep_oracle(lat, level, i, j)[0]


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
        check_powerful_commutator(FiniteQuotient(lat, 5), 1, 1)
    assert info.value.witness == ((1, 0, 0), (0, 0, 1), (0, 0, 2))
    assert info.value.witness == pro2_sweep_oracle(lat, 5, 1, 1)[1]


def test_pro2_requires_p2(heis):
    q = FiniteQuotient(heis, 4)
    with pytest.raises(ValueError):
        check_powerful_commutator(q, 1, 1)


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


def test_o_multiplication_table(k3u2):
    lg = o_additive(k3u2, 1)
    # w * w = -1 mod the defining polynomial w^2 + 1
    prod = lg.o_mul((0, 1), (0, 1))
    assert prod == (Fraction(-1), Fraction(0))


def test_lgroup_refuses_v_basis_without_ring_closure():
    # 1, w span a rank-2 submodule of the cubic unramified ring; w^2 leaves it
    k3u3 = FieldSpec.unramified(3, 3, precision=24)
    with pytest.raises(ValueError, match="products leave the span"):
        LGroupSpec(k3u3, [k3u3.one(), k3u3.unram_gen()], 1)


def test_lgroup_refuses_non_integral_products(k3u2):
    # (w/3)^2 = -1/9 has a non-integral coordinate on the basis 1, w/3
    with pytest.raises(ValueError, match="non-integral"):
        LGroupSpec(k3u2, [k3u2.one(), k3u2.unram_gen() / 3], 1)


def _k3u3():
    return FieldSpec.unramified(3, 3, precision=24)


@pytest.mark.parametrize("build, error, match", [
    (lambda K: LGroupSpec(K, [K.unram_gen(), K.one()], 1), InvalidBasis, "v_1 must be 1"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(1, 2): ((0, 0),)}),
     InvalidBracket, "d o-elements"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen()], 2, {(1, 1): ((0, 0), (0, 0))}),
     InvalidBracket, "with itself"),
    (lambda K: LGroupSpec(_k3u3(), [_k3u3().one(), _k3u3().unram_gen()], 1),
     InvalidBasis, "products leave the span"),
    (lambda K: LGroupSpec(K, [K.one(), K.unram_gen() / 3], 1), InvalidBasis, "non-integral"),
    (lambda K: LieLattice(3, 3, {(0, 1): (0, 3, 0), (1, 2): (-3, 0, 0)}),
     InvalidBracket, "Jacobi"),
    # the defect is -3^42 X5, which a check to valuation 40 would accept
    (lambda K: LieLattice(3, 5, {(0, 1): (0, 0, 3, 0, 0), (0, 2): (0, 0, 0, 3, 0),
                                 (1, 2): (0, 0, 0, 3, 0), (0, 3): (0, 0, 0, 0, 3),
                                 (1, 3): (0, 0, 0, 0, 3 + 3**41)}),
     InvalidBracket, "Jacobi"),
], ids=["v1", "bracket-shape", "self-bracket", "span", "integrality", "jacobi",
        "jacobi-deep"])
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
    (lambda: FiniteQuotient(heisenberg(3), 0), "level must be >= 1"),
    (lambda: check_powerful_commutator(FiniteQuotient(heisenberg(3), 4), 1, 1), "p = 2"),
    (lambda: check_powerful_commutator(FiniteQuotient(heisenberg2(), 2), 1, 2), "below i"),
    (lambda: check_powerful_commutator(FiniteQuotient(heisenberg2(), 4), 0, 1), "1 <= i, j"),
    (lambda: check_powerful_commutator(FiniteQuotient(heisenberg2(), 4), 2, -1), "1 <= i, j"),
], ids=["labels", "lattices", "short-point", "long-point", "short-first-point",
        "short-point-delta", "float-coordinate", "string-coordinate", "float-exponent",
        "product-with-int", "commutator-with-none", "conjugate-by-int", "identity-level",
        "quotient-level", "prime", "step-pair", "step-index-zero", "step-index-negative"])
def test_group_argument_refusals_are_typed(build, match):
    with pytest.raises(PadicError, match=match) as info:
        build()
    assert isinstance(info.value, InvalidArgument)
