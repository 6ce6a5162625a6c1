import math
import random
import re
from fractions import Fraction

import pytest

from helpers import mul_oracle, scan_min_exponent_oracle
from padicdist import (
    DistAlgebra, Distribution, FieldSpec, abelian, dominant_log_index, heisenberg2,
    mul_tail_bound,
)
from padicdist.errors import (
    DegreeOverflow, InvalidArgument, PadicError, ParseError, ZeroDistribution,
)
from padicdist.indices import iter_multi_indices, sparse_sum
from padicdist.radii import Radius, _scan_min_exponent, log_tail_exponent
from padicdist.samplers import random_distribution

INF = math.inf


@pytest.fixture(scope="module")
def ab1(q3):
    return DistAlgebra(abelian(1, p=3), q3, 10)


def test_abelian_monomial_products(ab1):
    b = ab1.generator(0)
    assert ab1.mul(b, b).coeffs == ab1.monomial((2,), 1).coeffs
    assert ab1.mul(ab1.one(), b).coeffs == b.coeffs


def test_delta_unit_and_generator(heis_alg):
    lat = heis_alg.lattice
    assert heis_alg.delta(lat.identity()).coeffs == heis_alg.one().coeffs
    d1 = heis_alg.delta(lat.generator(0))
    assert d1.coeffs == (heis_alg.one() + heis_alg.generator(0)).coeffs


def test_delta_power_binomials(ab1):
    lat = ab1.lattice
    g = lat.generator(0) ** 3
    d = ab1.delta(g)
    for k in range(7):
        want = Fraction(math.comb(3, k))
        got = d.coeffs.get((k,))
        assert (got is None and want == 0) or got == ab1.field.scalar(want)
    # cross-check against the cube of (1 + b)
    cube = ab1.mul(ab1.mul(ab1.delta(lat.generator(0)), ab1.delta(lat.generator(0))),
                   ab1.delta(lat.generator(0)))
    assert cube.coeffs == d.coeffs


def test_delta_homomorphism(heis_alg):
    rng = random.Random(31)
    lat = heis_alg.lattice
    for _ in range(8):
        g = lat.element_second(tuple(rng.randrange(0, 27) for _ in range(3)))
        h = lat.element_second(tuple(rng.randrange(0, 27) for _ in range(3)))
        assert heis_alg.mul(heis_alg.delta(g), heis_alg.delta(h)).coeffs == \
            heis_alg.delta(g * h).coeffs


def test_delta_inverse(heis_alg):
    rng = random.Random(32)
    lat = heis_alg.lattice
    g = lat.element_second(tuple(rng.randrange(0, 9) for _ in range(3)))
    prod = heis_alg.mul(heis_alg.delta(g), heis_alg.delta(g.inverse()))
    assert prod.coeffs == heis_alg.one().coeffs


def test_norm_examples(ab1):
    r = Radius(1, 4)
    assert ab1.one().norm(r) == 0
    lam = ab1.monomial((2,), 3)  # p * b^2
    assert lam.norm(r) == Fraction(3, 2)
    mu = ab1.from_terms({(1,): 1, (2,): 3})
    assert mu.norm(r) == Fraction(1, 4)
    assert ab1.zero().norm(r) == math.inf


def test_norm_multiplicative(heis_alg):
    rng = random.Random(33)
    radii = [Radius(1, 8), Radius(2, 3), Radius(7, 9)]
    for _ in range(25):
        lam = random_distribution(heis_alg, rng, 3, max_terms=3)
        mu = random_distribution(heis_alg, rng, 3, max_terms=3)
        prod = heis_alg.mul(lam, mu)
        for r in radii:
            assert prod.norm(r) == lam.norm(r) + mu.norm(r)


def test_principal_symbol_examples(ab1, q3):
    r = Radius(1, 2)
    b = ab1.generator(0)
    sym = b.principal_symbol(r)
    assert sym.terms == {(0, (1,)): q3.residue_field.one()}
    p_sym = ab1.from_terms({(0,): 3}).principal_symbol(r)
    assert p_sym.terms == {(1, (0,)): q3.residue_field.one()}  # sigma(p) = e0
    mixed = ab1.from_terms({(1,): 1, (2,): 3})
    assert mixed.principal_symbol(r).terms == {(0, (1,)): q3.residue_field.one()}


def test_symbol_includes_full_leading_form(ab2_alg):
    r = Radius(1, 2)
    lam = ab2_alg.from_terms({(1, 0): 1, (0, 1): 2})
    sym = lam.principal_symbol(r)
    assert len(sym.terms) == 2
    assert sym.degree == Fraction(1, 2)


def test_symbol_multiplicative(heis_alg):
    rng = random.Random(34)
    r = Radius(1, 4)
    for _ in range(15):
        lam = random_distribution(heis_alg, rng, 3, max_terms=3)
        mu = random_distribution(heis_alg, rng, 3, max_terms=3)
        assert heis_alg.mul(lam, mu).principal_symbol(r) == \
            lam.principal_symbol(r) * mu.principal_symbol(r)


def test_zero_symbol_raises(ab1):
    with pytest.raises(ZeroDistribution):
        ab1.zero().principal_symbol(Radius(1, 2))


def test_log_series(ab1):
    ls = ab1.log_series(0)
    assert ls.coeffs[(1,)] == ab1.field.one()
    assert ls.coeffs[(3,)] == ab1.field.scalar(Fraction(1, 3))
    assert ls.coeffs[(3,)].valuation == -1
    one_term = DistAlgebra(ab1.lattice, ab1.field, 1).log_series(0)
    assert set(one_term.coeffs) == {(1,)}
    # norm r^kappa in the h = 0 range
    r = Radius(2, 3)
    assert ls.norm(r) == Fraction(2, 3)


@pytest.mark.parametrize("i", [3, -1])
def test_generator_refuses_an_index_outside_the_lattice(heis_alg, i):
    """b_(i+1) exists for i in 0..d-1 only, here d = 3; the index is not
    read as the unit 1."""
    with pytest.raises(InvalidArgument, match=f"index {i} is outside 0..2"):
        heis_alg.generator(i)


def test_log_series_refuses_an_index_outside_the_lattice(heis_alg):
    """log(1 + b_8) on a d = 3 lattice is refused, not read as index 0."""
    with pytest.raises(InvalidArgument, match="index 7 is outside 0..2"):
        heis_alg.log_series(7)


@pytest.mark.parametrize("alpha", [
    (-1, 1, 0), (1, 0, 0, 0), (1, 0), (0.5, 0, 0), (Fraction(1, 2), 0, 0),
], ids=["negative", "too-long", "too-short", "float", "fraction"])
def test_monomial_and_from_terms_refuse_a_malformed_index(heis_alg, alpha):
    """An index that is not in N_0^3 is refused with a PadicError naming
    it, by both constructors, before it can be stored as another element
    (b^(-1, 1, 0) printed as b1*b2) or fail later with a bare IndexError."""
    for build in (lambda: heis_alg.monomial(alpha), lambda: heis_alg.from_terms({alpha: 1})):
        with pytest.raises(PadicError, match=re.escape(str(alpha))) as info:
            build()
        assert not isinstance(info.value, DegreeOverflow)


def test_monomial_and_from_terms_refuse_a_degree_above_n(heis_alg):
    for build in (lambda: heis_alg.monomial((7, 0, 0)),
                  lambda: heis_alg.from_terms({(0, 0, 0): 1, (3, 2, 2): 1})):
        with pytest.raises(DegreeOverflow, match="outside the degree-6 table"):
            build()


@pytest.mark.parametrize("alpha", [(-1, 1, 0), (1, 0, 0, 0), (True, 0, 0), (7, 0, 0)],
                         ids=["negative", "too-long", "bool", "degree-7"])
def test_distribution_constructor_refuses_a_key_outside_the_table(heis_alg, alpha):
    """The exported constructor checks its keys as ``from_terms`` does: a
    key that is not in N_0^3 is refused with a PadicError naming it (not
    stored to print b^(-1, 1, 0) as b1*b2) and one of degree above N = 6
    with DegreeOverflow (not stored to print as b1^7)."""
    with pytest.raises(PadicError, match=re.escape(str(alpha))) as info:
        Distribution(heis_alg, {alpha: heis_alg.field.one()})
    assert isinstance(info.value, DegreeOverflow) == (sum(alpha) > 6)


def test_distribution_constructor_reads_its_terms_as_from_terms(heis_alg):
    """Coefficients go through ``FieldSpec.scalar``, so a float is refused
    and an int stored as a Scalar, and zero terms are dropped."""
    terms = {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 3), (0, 0, 1): 0}
    built = Distribution(heis_alg, terms)
    assert built.coeffs == {(1, 0, 0): heis_alg.field.scalar(2),
                            (0, 1, 0): heis_alg.field.scalar(Fraction(1, 3))}
    with pytest.raises(InvalidArgument):
        Distribution(heis_alg, {(1, 0, 0): 0.5})


def test_dominant_log_index_examples():
    # |1/k| s^k with |1/p| = p: at s = 3^(-1/4) the k = 3 term (value 3^(1/4))
    # beats k = 1 (3^(-1/4)) and k = 9 (3^(-1/4)), so h = 1
    assert dominant_log_index(Radius(1, 4), 1, 3) == 1
    assert dominant_log_index(Radius(2, 3), 1, 3) == 0
    # ties exactly at r^kappa = p^(-1/(p-1))
    assert dominant_log_index(Radius(1, 2), 1, 3) is None
    assert dominant_log_index(Radius(1, 2), 1, 2) is None
    # p = 2, r^kappa = 2^(-1/3): k = 4 gives 2^(2/3), beating k = 1, 2, 8
    assert dominant_log_index(Radius(1, 3), 1, 2) == 2
    assert dominant_log_index(Radius(1, 6), 2, 2) == 2


def test_dominant_index_h0_region():
    for b in range(2, 12):
        for a in range(1, b):
            r = Radius(a, b)
            if r.exponent > Fraction(1, 2):
                assert dominant_log_index(r, 1, 3) == 0


def test_prime_mismatch_refused(q3):
    with pytest.raises(InvalidArgument, match="different primes"):
        DistAlgebra(heisenberg2(), q3, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scan_matches_the_fraction_path(p):
    """The int scan returns the minimum and argmins of the Fraction one at
    every radius exponent a/b with b <= 40, for both kappa and for scans
    from 1 and from past a truncation."""
    exponents = {Fraction(a, b) for b in range(2, 41) for a in range(1, b)}
    for kap in (1, 2):
        for s_exp in sorted(kap * e for e in exponents):
            for k_min in (1, 7, 15):
                got = _scan_min_exponent(s_exp, p, k_min)
                assert got == scan_min_exponent_oracle(s_exp, p, k_min)
                assert type(got[0]) is Fraction


def test_log_tail_exponent():
    r = Radius(2, 3)
    tail = log_tail_exponent(8, r, 1, 3)
    # k = 9 realizes the minimum: 9*(2/3) - 2 = 4
    assert tail == 4


def test_mul_tail_bound_abelian_exact(ab1):
    r = Radius(1, 2)
    lam = ab1.monomial((2,), 1)
    mu = ab1.monomial((3,), 1)
    assert mul_tail_bound(lam, mu, r) == INF  # 5 <= N: nothing dropped
    big = ab1.monomial((6,), 1)
    assert mul_tail_bound(big, big, r) == Fraction(6)  # dropped at degree 12


def test_parse_and_format(ab1, heis_alg):
    lam = ab1.parse("p*b1^2 + 1/3 * b1 - 2")
    assert lam.coeffs[(2,)] == ab1.field.scalar(3)
    assert lam.coeffs[(1,)] == ab1.field.scalar(Fraction(1, 3))
    assert lam.coeffs[(0,)] == ab1.field.scalar(-2)
    text = ab1.format(lam)
    again = ab1.parse(text)
    assert again.coeffs == lam.coeffs
    mixed = heis_alg.parse("b1*b2^2*b3 + pi^2")
    assert mixed.coeffs[(1, 2, 1)] == heis_alg.field.one()
    with pytest.raises(ParseError):
        ab1.parse("b9")
    with pytest.raises(ParseError):
        ab1.parse("$$")


@pytest.mark.parametrize("text, position", [
    ("2^3^4", 3),      # a stray ^
    ("2/3/4", 3),
    ("/3", 0),         # a stray /
    ("^2", 0),
    ("b1 b2", 3),      # two factors with no * between them
    ("3 3", 2),
    ("*b1", 0),        # a leading operator
    ("b1 +", 4),       # a trailing operator
    ("b1 *", 4),
    ("b1 * * b2", 5),  # a doubled *
    ("b1 + * b2", 5),
    ("1/0", 2),        # a zero denominator
    ("(1 + b1)", 5),   # a generator inside parentheses
    ("(1 + pi", 0),    # an unclosed (
    ("1 + pi) * b1", 6),  # an unmatched )
    ("()", 1),
    ("(1 + pi)^2", 8),  # ^ after a parenthesis
])
def test_parse_refuses_malformed_literals(heis_alg, text, position):
    with pytest.raises(ParseError) as info:
        heis_alg.parse(text)
    assert info.value.position == position
    assert f"(at position {position})" in str(info.value)


def test_parse_refuses_a_monomial_above_the_table(heis_alg):
    """A monomial above N is refused as ``from_terms`` refuses it, with the
    degree it needs."""
    with pytest.raises(DegreeOverflow, match="outside the degree-6 table") as info:
        heis_alg.parse("b1^7")
    assert info.value.required_degree == 7


def test_parse_drops_cancelled_terms(ab1):
    """Terms of one monomial are summed once; a sum that cancels is absent,
    also inside parentheses."""
    one = ab1.field.one()
    assert ab1.parse("b1 - b1 + 2").coeffs == {(0,): ab1.field.scalar(2)}
    assert ab1.parse("(1 - 1) * b1 + 3").coeffs == {(0,): ab1.field.scalar(3)}
    assert ab1.parse("b1 + 2*b1 - b1^2 + b1^2").coeffs == {(1,): one * 3}


def test_sparse_sum_drops_cancelled_keys(q3):
    """One call sums every term; a key whose terms sum to zero is dropped,
    and one that passes through zero and back keeps its first place."""
    x, y = q3.scalar(2), q3.scalar(Fraction(1, 3))
    got = sparse_sum([("a", x), ("b", y), ("a", -x), ("c", x), ("a", x), ("b", -y)])
    assert list(got.items()) == [("a", x), ("c", x)]
    assert sparse_sum([]) == {}


# the draw order of ``random_distribution`` at the parent of the
# ``samplers.random_terms`` split; the norms and symbols suites read it
@pytest.mark.parametrize("seed, text", [(0, "1"), (1, "6 * b2^2"), (2, "9 * b3^2"),
                                        (5, "2 * b1*b3^2")])
def test_random_distribution_draws_pinned(heis_alg, seed, text):
    lam = random_distribution(heis_alg, random.Random(seed), 3, 3)
    assert heis_alg.format(lam) == text
    assert lam.coeffs == heis_alg.parse(text).coeffs


def test_literal_powers_bind_to_their_int(ab1):
    """^ binds to the int it follows: 3^2/4 is 9/4 and 3/4^2 is 3/16."""
    for text, value in [("3^2/4", Fraction(9, 4)), ("3/4^2", Fraction(3, 16)),
                        ("3^2/4^2 * b1", Fraction(9, 16)), ("-2^3", Fraction(-8))]:
        lam = ab1.parse(text)
        assert list(lam.coeffs.values()) == [ab1.field.scalar(value)], text


@pytest.mark.parametrize("field, text, terms", [
    (FieldSpec.unramified(3, 2), "(1 + w) * b1", {(1,): (1, 1)}),
    (FieldSpec.unramified(3, 2), "b1 + (-1/3 + 2*w) * b1^2", {(1,): (1, 0), (2,): (Fraction(-1, 3), 2)}),
    (FieldSpec(3, e=2), "(1 + pi)", {(0,): (1, 1)}),
    (FieldSpec(3, e=2), "-(1 + pi) * (2 + pi) * b1", {(1,): (-5, -3)}),
], ids=["Q_9", "Q_9-two-terms", "e=2", "e=2-product"])
def test_parse_reads_parenthesized_coefficients(field, text, terms):
    """A coefficient of several parts, written in parentheses as ``format``
    writes it, parses to that coefficient; the format of the result is the
    literal again where the literal is in that form."""
    alg = DistAlgebra(abelian(1, p=3), field, 4)
    lam = alg.parse(text)
    assert lam == alg.from_terms({a: field.from_coords(c) for a, c in terms.items()})
    assert alg.parse(alg.format(lam)) == lam
    if text.count("(") == 1:
        assert alg.format(lam) == text


def test_delta_unit_norms(heis_alg):
    rng = random.Random(35)
    r = Radius(1, 4)
    kappa = heis_alg.kappa
    for _ in range(10):
        g = heis_alg.lattice.element_second(
            tuple(rng.randrange(0, 27) for _ in range(3))
        )
        dg = heis_alg.delta(g)
        assert dg.norm(r) == 0
        aug = dg - heis_alg.one()
        assert aug.is_zero or aug.norm(r) >= kappa * r.exponent


def test_truncation_tagging(ab1):
    big = ab1.monomial((6,), 1)
    prod = ab1.mul(big, big)
    assert prod.is_zero  # everything fell beyond N
    small = ab1.mul(ab1.generator(0), ab1.generator(0))
    assert not small.is_zero


def test_mul_walks_nonzero_rows_of_a_dense_operand(heis, q3):
    """A dense operand makes each alpha walk its nonempty rows (fewer than
    the operand's terms) instead of every pair; the product is the
    convolution through ``table.row`` either way, on both sides."""
    alg = DistAlgebra(heis, q3, 3)
    gammas = list(iter_multi_indices(3, 3))
    rng = random.Random(5)
    dense = alg.from_terms({g: Fraction(rng.randint(-9, 9), rng.choice([1, 3, 5])) for g in gammas})
    sparse = alg.from_terms({(1, 0, 0): 2, (0, 1, 1): Fraction(1, 3)})
    assert any(len(alg.table.rows_from(g)) < len(dense.coeffs) for g in gammas)
    for lam, mu in ((dense, sparse), (sparse, dense), (dense, dense)):
        got = {gamma: c.coords for gamma, c in alg.mul(lam, mu).coeffs.items()}
        assert got == mul_oracle(alg, lam, mu)


def test_mul_refuses_an_index_outside_the_table(heis, q3):
    """A term of degree above N, from a wider algebra, is refused with
    InvalidArgument on either side, as every operand of another algebra
    is, also where the other side walks only its nonempty rows."""
    alg, wide = DistAlgebra(heis, q3, 3), DistAlgebra(heis, q3, 5)
    dense = alg.from_terms({g: 1 for g in iter_multi_indices(3, 3)})
    # dense terms first, so each alpha of the other side walks its rows
    high = wide.from_terms({**{g: 1 for g in iter_multi_indices(3, 3)}, (4, 0, 0): 1})
    for lam, mu in ((dense, high), (high, dense)):
        with pytest.raises(InvalidArgument, match="a product needs distributions of one algebra"):
            alg.mul(lam, mu)


def test_mul_refuses_an_operand_of_another_field(heis, k3u2, k3r2):
    """w b1 over Q_9 times pi b2 over the ramified Q_3(pi) is refused; read
    as coefficients of Q_9, the product came out as -1 * b1*b2."""
    alg, other = DistAlgebra(heis, k3u2, 6), DistAlgebra(heis, k3r2, 6)
    a, b = alg.parse("w * b1"), other.parse("pi * b2")
    for lam, mu in ((a, b), (b, a)):
        with pytest.raises(InvalidArgument, match="a product needs distributions of one algebra"):
            alg.mul(lam, mu)
    with pytest.raises(InvalidArgument):
        a * b


def test_sum_refuses_an_operand_of_another_truncation(heis, k3u2):
    """A degree-4 element plus a degree-6 b3^5 is refused, on + and on -;
    the sum was a degree-4 distribution holding b3^5."""
    low, high = DistAlgebra(heis, k3u2, 4), DistAlgebra(heis, k3u2, 6)
    lam, mu = low.parse("b1"), high.parse("b3^5")
    for op in (lambda: lam + mu, lambda: lam - mu, lambda: mu + lam):
        with pytest.raises(InvalidArgument, match="a sum needs distributions of one algebra"):
            op()


def test_mul_tail_bound_refuses_an_operand_of_another_field(heis, k3u2, k3r2):
    """The tail bound of a product across two fields is refused, not
    returned as the bound of a product that ``mul`` refuses."""
    a = DistAlgebra(heis, k3u2, 6).parse("w * b1")
    b = DistAlgebra(heis, k3r2, 6).parse("pi * b2")
    with pytest.raises(InvalidArgument, match="a tail bound needs distributions of one algebra"):
        mul_tail_bound(a, b, Radius(1, 4))


def test_binomial_series_refuses_a_bad_exponent_or_index(heis_alg):
    """v goes through ``FieldSpec.scalar``, and i is checked also at v = 0,
    where the series is empty."""
    assert heis_alg.binomial_series(0, 0).is_zero
    with pytest.raises(InvalidArgument):
        heis_alg.binomial_series(0, 0.5)
    with pytest.raises(InvalidArgument, match="index 3 is outside 0..2"):
        heis_alg.binomial_series(3, 0)
