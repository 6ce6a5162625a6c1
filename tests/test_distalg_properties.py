"""Property tests of ``distalg``.

The filtration exponents (``norm``, ``leading_support``, the per-term
keys of ``SymbolContext`` and ``mul_tail_bound``) are checked against the
Fraction formulas of ``tests/helpers.py``, over e in {1, 2, 3} and radii
whose denominator does and does not share a factor with e.  ``delta`` is
checked against products of ``binom_rational`` values at p-integral
rational points.  ``mul`` is checked against a Fraction convolution on
fields whose basis products are not integral, on Q_3, with coordinates up
to 2^70 and at the edge of its packed slot width.  Subtraction is checked
against adding the negation, dict order included."""

import math
from fractions import Fraction
from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import (  # noqa: E402
    binom_rational,
    exponent_oracle,
    leading_support_oracle,
    mul_oracle,
    mul_tail_oracle,
    norm_oracle,
)
from padicdist import DistAlgebra, FieldSpec, abelian, heisenberg, heisenberg2  # noqa: E402
from padicdist import SymbolContext, mul_tail_bound  # noqa: E402
from padicdist.indices import iter_multi_indices  # noqa: E402
from padicdist.radii import Radius  # noqa: E402

N = 4

# field -> (a radius whose b shares a factor with e, one whose b does not);
# for e = 1 no b shares a factor, so both are coprime
FIELDS = {
    "Q_3": ((3, 1, 1), (Radius(1, 2), Radius(2, 3))),
    "e=2,f=2 over Q_3": ((3, 2, 2), (Radius(3, 4), Radius(2, 5))),
    "e=3 over Q_2": ((2, 3, 1), (Radius(5, 6), Radius(1, 4))),
    "e=3 over Q_5": ((5, 3, 1), (Radius(1, 3), Radius(3, 7))),
}
CASES = [
    (name, r, nonabelian)
    for name, (_spec, radii) in FIELDS.items()
    for r in radii
    for nonabelian in (False, True)
]


@cache
def _algebra(name, nonabelian):
    p, e, f = FIELDS[name][0]
    field = FieldSpec(p, e=e, f=f)
    if not nonabelian:
        lattice = abelian(2, p=p)
    else:
        lattice = heisenberg2() if p == 2 else heisenberg(p)
    return DistAlgebra(lattice, field, N)


def distributions(alg, max_degree):
    """Up to four terms, coefficients unit * pi^v with |v| <= 3."""
    field = alg.field
    unit = st.builds(
        lambda a, b: field.scalar(a) + (field.unram_gen() * b if field.f > 1 else 0),
        st.integers(1, field.p - 1), st.integers(0, field.p - 1),
    )
    coeff = st.builds(lambda u, v: u * field.uniformizer() ** v, unit, st.integers(-3, 3))
    index = st.sampled_from(list(iter_multi_indices(alg.d, max_degree)))
    return st.dictionaries(index, coeff, max_size=4).map(alg.from_terms)


@pytest.mark.parametrize(
    "name,r,nonabelian", CASES,
    ids=[f"{n}-{r}-{'heis' if h else 'ab'}" for n, r, h in CASES],
)
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(data=st.data())
def test_exponents_match_fraction_formula(name, r, nonabelian, data):
    alg = _algebra(name, nonabelian)
    lam = data.draw(distributions(alg, N))
    mu = data.draw(distributions(alg, N))

    got = lam.norm(r)
    assert got == norm_oracle(lam, r)
    assert isinstance(got, Fraction) or (lam.is_zero and got == math.inf)
    assert sorted(lam.leading_support(r)) == sorted(leading_support_oracle(lam, r))
    scale = alg.symbol_context(r)
    for alpha, c in lam.coeffs.items():
        assert scale.unscale(scale.key(c, alpha)) == exponent_oracle(c, alpha, alg.kappa, r)
    assert mul_tail_bound(lam, mu, r) == mul_tail_oracle(lam, mu, r)


@pytest.mark.parametrize("name", list(FIELDS))
@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(data=st.data())
def test_sub_is_add_of_the_negation(name, data):
    """a - b equals a + (-b), coefficient by coefficient and in dict order;
    b repeats some terms of a, so those cancel."""
    alg = _algebra(name, False)
    a = data.draw(distributions(alg, 2))
    b = data.draw(distributions(alg, 2))
    shared = data.draw(st.sets(st.sampled_from(list(a.coeffs)))) if a.coeffs else set()
    b = alg.from_terms({**b.coeffs, **{alpha: a.coeffs[alpha] for alpha in shared}})
    got, want = a - b, a + (-b)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)


def test_cases_cover_both_kinds_of_denominator():
    shares = {math.gcd(r.b, FIELDS[name][0][1]) > 1 for name, r, _h in CASES}
    assert shares == {True, False}
    assert {FIELDS[name][0][1] for name, _r, _h in CASES} == {1, 2, 3}


@cache
def _delta_algebra(group):
    lattice = heisenberg(3) if group == "heisenberg" else abelian(2, p=3)
    return DistAlgebra(lattice, FieldSpec.qp(3), 6)


# p-integral rationals: denominators prime to p = 3
_P_INTEGRAL = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 100).filter(lambda q: q % 3)
)


@pytest.mark.parametrize("group", ["heisenberg", "abelian(2)"])
@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(data=st.data())
def test_delta_matches_binomial_products(group, data):
    """delta_g has coefficient prod_k binom(x_k, alpha_k) at every |alpha| <= N,
    x the second-kind coordinates of g, against the Fraction loop of
    ``binom_rational``."""
    alg = _delta_algebra(group)
    x = data.draw(st.tuples(*[_P_INTEGRAL] * alg.d))
    want = {}
    for alpha in iter_multi_indices(alg.d, alg.N):
        value = math.prod(binom_rational(t, a) for t, a in zip(x, alpha))
        if value:
            want[alpha] = alg.field.scalar(value)
    assert alg.delta(alg.lattice.element_second(x)).coeffs == want


# nonabelian algebras over fields with a non-integral Eisenstein
# coefficient (x^3 + 4x^2 + (2/3)x + 6 over Q_2) or e = 2 over F_9
# (x^2 + (9 + 3w)x + 3 + 6w), and one of degree 1
MUL_CASES = {
    "heisenberg2 over e=3 above Q_2": (2, 3, 1, [6, Fraction(2, 3), 4]),
    "heisenberg over e=2 above F_9": (3, 2, 2, [(3, 6), (9, 3)]),
    "heisenberg over Q_3": (3, 1, 1, None),
}


@cache
def _mul_algebra(name):
    p, e, f, eisenstein = MUL_CASES[name]
    field = FieldSpec(p, e=e, f=f, eisenstein=eisenstein)
    return DistAlgebra(heisenberg2() if p == 2 else heisenberg(p), field, N)


def rational_distributions(alg, large=False):
    """Up to five terms with rational coordinates, p and 3 among their
    denominators: small ones, or (``large``) numerators up to 2^70 over
    p^k * 3, which widen the packed slots of ``mul``."""
    field = alg.field
    if large:
        coord = st.builds(Fraction, st.integers(-2**70, 2**70),
                          st.sampled_from([field.p**k * 3 for k in range(4)]))
    else:
        coord = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 3, field.p, field.p**2)))
    coeff = st.lists(coord, min_size=field.degree, max_size=field.degree).map(field.from_coords)
    index = st.sampled_from(list(iter_multi_indices(alg.d, N)))
    return st.dictionaries(index, coeff, max_size=5).map(alg.from_terms)


@pytest.mark.parametrize("name", list(MUL_CASES))
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_mul_matches_fraction_convolution(name, data):
    alg = _mul_algebra(name)
    lam, mu = data.draw(rational_distributions(alg)), data.draw(rational_distributions(alg))
    got = {gamma: c.coords for gamma, c in alg.mul(lam, mu).coeffs.items()}
    assert got == mul_oracle(alg, lam, mu)


@pytest.mark.parametrize("name", list(MUL_CASES))
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_mul_matches_fraction_convolution_at_large_magnitude(name, data):
    alg = _mul_algebra(name)
    lam = data.draw(rational_distributions(alg, large=True))
    mu = data.draw(rational_distributions(alg, large=True))
    got = {gamma: c.coords for gamma, c in alg.mul(lam, mu).coeffs.items()}
    assert got == mul_oracle(alg, lam, mu)


def test_mul_slot_at_the_certified_bound():
    """One product whose slot sum equals the bound ``mul`` certifies its
    slot width for: one support pair, a table entry c of the largest |c|,
    and coefficients x (1 + w), y (1 + w) over F_9, so the w slot at gamma
    is 2 c x y = pairs * max|c| * [K:Q_p] * max|x| * max|y|.  A width one
    bit short reads that slot as negative."""
    field = FieldSpec(3, f=2)
    alg = DistAlgebra(heisenberg(3), field, 3)
    table = alg.table
    gammas = list(iter_multi_indices(alg.d, 3))
    c, alpha, beta = max(((n, a, b) for a in gammas for b in gammas for _, n in table.int_row(a, b)),
                         key=lambda t: abs(t[0]))
    x, y = 2**70 + 1, (3**40 + 2) * (1 if c > 0 else -1)
    pairs = 1
    assert 2 * c * x * y == pairs * table._peak * field.degree * x * abs(y)
    lam = alg.monomial(alpha, field.from_coords((x, x)))
    mu = alg.monomial(beta, field.from_coords((y, y)))
    got = {gamma: s.coords for gamma, s in alg.mul(lam, mu).coeffs.items()}
    assert got == mul_oracle(alg, lam, mu)


def test_mul_cases_cover_non_integral_basis_products():
    assert _mul_algebra("heisenberg2 over e=3 above Q_2").field._den == 3


# unramified, ramified, and ramified with non-integral basis products
KEY_FIELDS = {
    "Q_3": (3, 1, 1, None),
    "Q_9": (3, 1, 2, None),
    "e=2 above F_9": MUL_CASES["heisenberg over e=2 above F_9"],
    "e=3 above Q_2, basis denominator 3": MUL_CASES["heisenberg2 over e=3 above Q_2"],
}


@cache
def _key_field(name):
    p, e, f, eisenstein = KEY_FIELDS[name]
    return FieldSpec(p, e=e, f=f, eisenstein=eisenstein)


@pytest.mark.parametrize("name", list(KEY_FIELDS))
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_context_key_unscales_to_the_exponent_formula(name, data):
    """``ctx.unscale(ctx.key(c, alpha))`` is v(c)/e + kappa |alpha| a/b,
    the Fraction formula of a symbol term's degree, for every kappa and
    radius exponent a/b in (0, 1), b sharing a factor with e or not."""
    field = _key_field(name)
    b = data.draw(st.integers(2, 12))
    rexp = Fraction(data.draw(st.integers(1, b - 1)), b)
    kappa = data.draw(st.sampled_from((1, 2)))
    ctx = SymbolContext(field, kappa, rexp, ("X1", "X2"))
    coord = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 3, field.p, field.p**2)))
    c = data.draw(st.lists(coord, min_size=field.degree, max_size=field.degree)
                  .map(field.from_coords).filter(lambda c: not c.is_zero))
    alpha = data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    want = Fraction(c.valuation, field.e) + kappa * sum(alpha) * rexp
    assert ctx.unscale(ctx.key(c, alpha)) == want


# fields whose coefficients ``format`` writes with several parts, in
# parentheses: Q_9, the e = 2 extension of Q_3 and e = 2 over F_9
TEXT_FIELDS = {"Q_9": (3, 1, 2), "e=2 over Q_3": (3, 2, 1), "e=2,f=2 over Q_3": (3, 2, 2)}


@cache
def _text_algebra(name):
    p, e, f = TEXT_FIELDS[name]
    return DistAlgebra(heisenberg(p), FieldSpec(p, e=e, f=f), N)


@pytest.mark.parametrize("name", list(TEXT_FIELDS))
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_parse_inverts_format(name, data):
    """parse(format(x)) == x for distributions whose coefficients have
    several parts, with rational and negative coordinates."""
    alg = _text_algebra(name)
    lam = data.draw(rational_distributions(alg))
    assert alg.parse(alg.format(lam)) == lam
