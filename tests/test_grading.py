import random
from fractions import Fraction
from itertools import permutations

import pytest

from padicdist import (
    LaurentScalar,
    Symbol,
    SymbolContext,
    check_regular_sequence,
    finite_rank_quotient,
    quotient_iso_check,
    symbol_class_nonzero,
)
from padicdist.errors import (
    CounterexampleFound,
    DegreeMismatch,
    InvalidArgument,
    NonUnitLeading,
    PadicError,
)


@pytest.fixture(scope="module")
def ctx2(k3u2):
    return SymbolContext(k3u2, 1, Fraction(1, 4), ("X11", "X21"))


@pytest.fixture(scope="module")
def kfield(k3u2):
    return k3u2.residue_field


def fshape(ctx, kfield, i_var, one_var, h, vbar, p=3):
    step = p**h
    nvars = len(ctx.xlabels)
    e_i = tuple(step if t == i_var else 0 for t in range(nvars))
    e_1 = tuple(step if t == one_var else 0 for t in range(nvars))
    return Symbol(ctx, {(-h, e_i): kfield.one(), (-h, e_1): -vbar})


def test_symbol_arithmetic(ctx2, kfield):
    one = kfield.one()
    x1 = Symbol(ctx2, {(0, (1, 0)): one})
    x2 = Symbol(ctx2, {(0, (0, 1)): one})
    prod = x1 * x2
    assert prod.terms == {(0, (1, 1)): one}
    assert prod.degree == Fraction(1, 2)
    e0 = Symbol(ctx2, {(1, (0, 0)): one})  # the symbol of pi
    e0_inv = Symbol(ctx2, {(-1, (0, 0)): one})
    assert (e0 * e0_inv).terms == {(0, (0, 0)): one}
    # bilinear expansion
    vbar = kfield.gen()
    s = Symbol(ctx2, {(0, (0, 1)): one, (0, (1, 0)): -vbar})
    t = s * x1
    assert t.terms == {(0, (1, 1)): one, (0, (2, 0)): -vbar}


def test_degree_mismatch(ctx2, kfield):
    one = kfield.one()
    x1 = Symbol(ctx2, {(0, (1, 0)): one})
    x2sq = Symbol(ctx2, {(0, (0, 2)): one})
    with pytest.raises(DegreeMismatch):
        x1 + x2sq
    with pytest.raises(DegreeMismatch):
        Symbol(ctx2, {(0, (1, 0)): one, (0, (0, 2)): one})


def test_homogeneity_across_e0(ctx2, kfield):
    # e0^4 has degree 4; X^alpha with |alpha| = 16 at rexp 1/4 also 4
    s = Symbol(ctx2, {(4, (0, 0)): kfield.one(), (0, (16, 0)): kfield.one()})
    assert s.degree == 4


def test_single_linear_regular(ctx2, kfield):
    s = fshape(ctx2, kfield, 1, 0, 0, kfield.gen())
    assert check_regular_sequence([s], 4)


def test_regular_sequence_h1_single(ctx2, kfield):
    s = fshape(ctx2, kfield, 1, 0, 1, kfield.gen())
    assert check_regular_sequence([s], 9)


def test_repeated_element_fails(ctx2, kfield):
    s = fshape(ctx2, kfield, 1, 0, 0, kfield.gen())
    with pytest.raises(CounterexampleFound):
        check_regular_sequence([s, s], 4)


def test_ordering_sweep_refuses_seven_members(ctx2, kfield):
    s = fshape(ctx2, kfield, 1, 0, 0, kfield.gen())
    with pytest.raises(PadicError, match="size <= 6"):
        check_regular_sequence([s] * 7, 4)


def test_family_all_orderings(k3u2, kfield):
    ctx4 = SymbolContext(k3u2, 1, Fraction(1, 4), ("X11", "X21", "X12", "X22"))
    vbar = kfield.gen()
    for h in (0, 1):
        fam = [
            fshape(ctx4, kfield, 1, 0, h, vbar),
            fshape(ctx4, kfield, 3, 2, h, vbar),
        ]
        for order in permutations(fam):
            assert check_regular_sequence(list(order), 3**h + 3)


def test_genuine_zero_divisor_detected(ctx2, kfield):
    one = kfield.one()
    x1 = Symbol(ctx2, {(0, (1, 0)): one})
    x1x2 = Symbol(ctx2, {(0, (1, 1)): one})
    # x2 * x1 lies in (x1 x2) but x2 does not
    with pytest.raises(CounterexampleFound):
        check_regular_sequence([x1, x1x2], 4)


def test_quotient_iso_dimensions(kfield):
    vbars = [kfield.one(), kfield.gen()]
    assert quotient_iso_check(2, 1, vbars, kfield, cap=5)
    assert quotient_iso_check(2, 2, vbars, kfield, cap=5)
    assert quotient_iso_check(1, 2, [kfield.one()], kfield, cap=5)


def test_quotient_iso_larger_extension(kfield):
    vbars = [kfield.one(), kfield.gen(), kfield.gen() ** 2]
    assert quotient_iso_check(3, 2, vbars, kfield, cap=4)


def test_symbol_class_nonzero(ctx2, kfield):
    one = kfield.one()
    vbar = kfield.gen()
    pure = Symbol(ctx2, {(0, (2, 0)): one})  # X11^2: a normal form
    assert symbol_class_nonzero(pure, 0, [one, vbar], 2, 1)
    gen = fshape(ctx2, kfield, 1, 0, 0, vbar)
    assert not symbol_class_nonzero(gen, 0, [one, vbar], 2, 1)
    assert not symbol_class_nonzero(gen * pure, 0, [one, vbar], 2, 1)


def test_finite_rank_examples(kfield):
    one = kfield.one()

    def L(d=None, **terms):
        return LaurentScalar(kfield, {w: c for w, c in terms.items()})

    # d = 1, P = X -> rank 1
    P = [LaurentScalar(kfield), LaurentScalar(kfield, {0: one})]
    assert finite_rank_quotient([P], kfield) == 1
    # d = 2, P1 = X^2 - e0, P2 = X^3 -> rank 6
    P1 = [LaurentScalar(kfield, {1: -one}), LaurentScalar(kfield),
          LaurentScalar(kfield, {0: one})]
    P2 = [LaurentScalar(kfield)] * 3 + [LaurentScalar(kfield, {0: one})]
    assert finite_rank_quotient([P1, P2], kfield) == 6


def test_finite_rank_random(kfield):
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randrange(1, 4)
        polys, expect = [], 1
        for _ in range(d):
            deg = rng.randrange(1, 5)
            expect *= deg
            coeffs = [
                LaurentScalar(
                    kfield,
                    {rng.randrange(-2, 3): kfield.elem((rng.randrange(3), rng.randrange(3)))},
                )
                for _ in range(deg)
            ]
            coeffs.append(
                LaurentScalar(kfield, {rng.randrange(-1, 2): kfield.elem((rng.randrange(1, 3), 0))})
            )
            polys.append(coeffs)
        assert finite_rank_quotient(polys, kfield) == expect


def test_argument_refusals_are_typed(ctx2, kfield):
    one = kfield.one()
    mixed = Symbol(ctx2, {(1, (0, 0)): one, (0, (4, 0)): one})  # both of degree 1
    with pytest.raises(InvalidArgument, match="mixes e0-exponents"):
        mixed.x_part()
    with pytest.raises(InvalidArgument, match="nonconstant"):
        finite_rank_quotient([[LaurentScalar(kfield, {0: one})]], kfield)


def test_finite_rank_refuses_nonunit_leading(kfield):
    one = kfield.one()
    bad = [LaurentScalar(kfield), LaurentScalar(kfield, {0: one, 1: one})]
    with pytest.raises(NonUnitLeading):
        finite_rank_quotient([bad], kfield)
    with pytest.raises(ValueError):
        finite_rank_quotient([[LaurentScalar(kfield, {0: one})]], kfield)


@pytest.mark.parametrize("gens, cand", [
    (((1, 0),), (1, 1)),        # x1 x2 is zero modulo (x1): w has degree 0
    (((1, 1),), (2, 0)),        # x2 * x1^2 lies in (x1 x2): w has degree 1
    (((1, 0), (0, 2)), (0, 1)),  # x1 and x2 both kill x2; only x2 is outside I
])
def test_zero_divisor_witness_is_genuine(ctx2, kfield, gens, cand):
    one = kfield.one()
    family = [Symbol(ctx2, {(0, alpha): one}) for alpha in gens + (cand,)]
    with pytest.raises(CounterexampleFound) as info:
        check_regular_sequence(family, 4)
    w = Symbol(ctx2, {(0, alpha): c for alpha, c in info.value.witness.items()})
    assert not w.is_zero

    def in_ideal(sym):  # a monomial ideal: some generator divides every term
        return all(any(all(a >= b for a, b in zip(alpha, g)) for g in gens)
                   for (_w, alpha) in sym.terms)

    assert in_ideal(w * family[-1])
    assert not in_ideal(w)
