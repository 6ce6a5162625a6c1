import random
from fractions import Fraction
from itertools import permutations

import pytest

from helpers import hilbert_oracle, in_ideal_oracle, regular_sequence_oracle
from padicdist import (
    DistAlgebra,
    Symbol,
    SymbolContext,
    build_kernel_family,
    check_regular_sequence,
    finite_rank_quotient,
    get_group,
    heisenberg,
    kernel_symbol_family,
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
from padicdist.grading import GroebnerBasis
from padicdist.indices import iter_exact_degree
from padicdist.radii import Radius
from padicdist.suites import _radius_with_dominant_index


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
    # homogeneity is checked on int keys; the refusal lists the degrees as
    # Fractions, in increasing order
    with pytest.raises(DegreeMismatch) as info:
        Symbol(ctx2, {(0, (0, 2)): one, (1, (0, 0)): one, (0, (1, 0)): one})
    assert str(info.value) == (
        "inhomogeneous symbol with degrees [Fraction(1, 4), Fraction(1, 2), Fraction(1, 1)]"
    )


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


def test_seven_member_family_certified(k3u2, kfield):
    """The kernel-symbol shape of a group over a quadratic field with d = 7:
    seven members in 14 variables, one certificate for every ordering."""
    ctx14 = SymbolContext(k3u2, 1, Fraction(1, 4), tuple(f"X{i}{j}" for j in range(1, 8)
                                                         for i in (1, 2)))
    for h in (0, 1):
        fam = [fshape(ctx14, kfield, 2 * j + 1, 2 * j, h, kfield.gen()) for j in range(7)]
        assert check_regular_sequence(fam)
        assert check_regular_sequence(fam[::-1])


def test_unit_and_zero_members_refused(ctx2, kfield):
    """R/(unit) = 0, so no family with a unit member is regular, e0 being
    a unit too; a zero member divides zero."""
    one = Symbol(ctx2, {(0, (0, 0)): kfield.one()})
    e0 = Symbol(ctx2, {(1, (0, 0)): kfield.one()})
    x1 = Symbol(ctx2, {(0, (1, 0)): kfield.one()})
    for family in ([one], [x1, one], [e0, x1]):
        with pytest.raises(InvalidArgument, match="X-degree 0"):
            check_regular_sequence(family, 4)
    with pytest.raises(InvalidArgument, match="zero member"):
        check_regular_sequence([x1, Symbol(ctx2, {})], 4)


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
    assert quotient_iso_check(2, 1, vbars, kfield)
    assert quotient_iso_check(2, 2, vbars, kfield)
    assert quotient_iso_check(1, 2, [kfield.one()], kfield)


def test_quotient_iso_larger_extension(kfield):
    vbars = [kfield.one(), kfield.gen(), kfield.gen() ** 2]
    assert quotient_iso_check(3, 2, vbars, kfield)


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
    # d = 1, P = X -> rank 1
    P = [{}, {0: one}]
    assert finite_rank_quotient([P]) == 1
    # d = 2, P1 = X^2 - e0, P2 = X^3 -> rank 6
    P1 = [{1: -one}, {}, {0: one}]
    P2 = [{}] * 3 + [{0: one}]
    assert finite_rank_quotient([P1, P2]) == 6


def test_finite_rank_random(kfield):
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randrange(1, 4)
        polys, expect = [], 1
        for _ in range(d):
            deg = rng.randrange(1, 5)
            expect *= deg
            coeffs = [
                {rng.randrange(-2, 3): kfield.elem((rng.randrange(3), rng.randrange(3)))}
                for _ in range(deg)
            ]
            coeffs.append(
                {rng.randrange(-1, 2): kfield.elem((rng.randrange(1, 3), 0))}
            )
            polys.append(coeffs)
        assert finite_rank_quotient(polys) == expect


def test_argument_refusals_are_typed(ctx2, kfield):
    one = kfield.one()
    mixed = Symbol(ctx2, {(1, (0, 0)): one, (0, (4, 0)): one})  # both of degree 1
    with pytest.raises(InvalidArgument, match="mixes e0-exponents"):
        mixed.x_part()
    with pytest.raises(InvalidArgument, match="nonconstant"):
        finite_rank_quotient([[{0: one}]])


def test_zero_symbol_has_no_x_part(ctx2):
    """The zero symbol is refused for having no X-part, not as a symbol
    that mixes e0-exponents."""
    with pytest.raises(PadicError, match="the zero symbol has no X-part"):
        Symbol(ctx2, {}).x_part()


def test_finite_rank_refuses_nonunit_leading(kfield):
    one = kfield.one()
    bad = [{}, {0: one, 1: one}]
    with pytest.raises(NonUnitLeading):
        finite_rank_quotient([bad])
    with pytest.raises(ValueError):
        finite_rank_quotient([[{0: one}]])


def test_finite_rank_reads_all_zero_coefficients_as_zero(kfield):
    """A coefficient map whose values are all zero is the zero
    coefficient, wherever it stands, and one nonzero value is a unit."""
    one, zero = kfield.one(), kfield.zero()
    assert finite_rank_quotient([[{0: zero, 2: zero}, {0: one}, {1: zero}]]) == 1
    assert finite_rank_quotient([[{-1: one}, {0: zero}, {3: one, 4: zero}]]) == 2
    with pytest.raises(InvalidArgument, match="P_1 must be nonconstant"):
        finite_rank_quotient([[{0: one}, {1: zero}]])


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


# ---------------------------------------------------------------------------
# the Groebner verdicts against the bounded rank-count oracle

def _agrees_with_oracle(family, regular, degree=6):
    """The verdict and the Hilbert function of the family's ideal, in
    degrees <= ``degree``, match the rank-count oracle's."""
    ctx = family[0].context
    kfield = ctx.field.residue_field
    nvars = len(ctx.xlabels)
    polys = [sym.x_part()[1] for sym in family]
    assert regular_sequence_oracle(polys, degree, nvars, kfield) is regular
    if regular:
        assert check_regular_sequence(family)
    else:
        with pytest.raises(CounterexampleFound):
            check_regular_sequence(family)
    gb = GroebnerBasis(polys, nvars, kfield)
    for m in range(degree + 1):
        assert len(gb.standard_monomials(m)) == hilbert_oracle(polys, m, nvars, kfield)


@pytest.mark.parametrize("h", [0, 1])
@pytest.mark.parametrize("group, field", [
    ("o-additive(1)", "k3u2"), ("o-additive(2)", "k3u2"), ("o-additive(1)", "k3r2"),
])
def test_kernel_families_match_the_oracle(request, group, field, h):
    fld = request.getfixturevalue(field)
    fam = build_kernel_family(get_group(group, field=fld), 4)
    r = _radius_with_dominant_index(h, fld.kappa, fld.p)
    _agrees_with_oracle(kernel_symbol_family(fam, r), regular=True)


@pytest.fixture(scope="module")
def ctx3(k3u2):
    return SymbolContext(k3u2, 1, Fraction(1, 4), ("X1", "X2", "X3"))


@pytest.mark.parametrize("gens", [
    ((1, 1, 0), (1, 0, 1)),     # a shared factor: X1 X3 * X2 lies in (X1 X2)
    ((1, 0, 0), (1, 1, 0)),     # X1 X2 lies in (X1)
])
def test_planted_monomial_zero_divisors(ctx3, kfield, gens):
    family = [Symbol(ctx3, {(0, alpha): kfield.one()}) for alpha in gens]
    _agrees_with_oracle(family, regular=False)
    with pytest.raises(CounterexampleFound) as info:
        check_regular_sequence(family)
    g = info.value.witness
    first = family[0].x_part()[1]
    prod = (Symbol(ctx3, {(0, a): c for a, c in g.items()}) * family[1]).x_part()[1]
    assert in_ideal_oracle(prod, [first], kfield)
    assert not in_ideal_oracle(g, [first], kfield)


def test_planted_repeated_symbol(ctx3, kfield):
    s = fshape(ctx3, kfield, 2, 0, 1, kfield.gen())
    _agrees_with_oracle([s, fshape(ctx3, kfield, 1, 0, 0, kfield.one()), s], regular=False)


def test_random_families_match_the_oracle(ctx3, kfield):
    """Homogeneous families whose leads share variables, so Buchberger
    reduces S-polynomials; regular and not, as the oracle decides."""
    rng = random.Random(27)
    seen = set()
    for _ in range(30):
        family = []
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 3)
            monos = rng.sample(list(iter_exact_degree(3, deg)), rng.randrange(1, 4))
            family.append(Symbol(ctx3, {(0, a): kfield.elem((rng.randrange(1, 3), rng.randrange(3)))
                                        for a in monos}))
        polys = [sym.x_part()[1] for sym in family]
        regular = regular_sequence_oracle(polys, 6, 3, kfield)
        seen.add(regular)
        _agrees_with_oracle(family, regular)
    assert seen == {True, False}


def test_symbols_of_two_radii_are_refused(k3u2):
    """X1 at 3^-1/4 times X2 at 3^-2/3 is refused; it came out as X1 * X2
    of degree 1/2.  Their sum is refused the same way, also with a zero
    symbol of the other radius."""
    alg = DistAlgebra(heisenberg(3), k3u2, 6)
    x1 = alg.generator(0).principal_symbol(Radius(1, 4))
    x2 = alg.generator(1).principal_symbol(Radius(2, 3))
    with pytest.raises(InvalidArgument, match="a product needs symbols of one filtration"):
        x1 * x2
    zero = Symbol(x2.context, {})
    for op in (lambda: x1 + x2, lambda: x1 + zero, lambda: zero + x1, lambda: x1 - x2):
        with pytest.raises(InvalidArgument, match="a sum needs symbols of one filtration"):
            op()
    # an equal context built apart is the same filtration
    again = alg.generator(1).principal_symbol(Radius(1, 4))
    assert (x1 * again).degree == Fraction(1, 2)
