import math
import random
from fractions import Fraction

import pytest

from helpers import LatticeOracle
from padicdist import (
    build_kernel_family,
    canonicalize,
    domain_smoke_test,
    kernel_symbol,
    kernel_symbol_closed_form,
    o_additive,
    orthogonality_check,
    quotient_norm,
)
from padicdist.errors import CriticalRadius, DegreeOverflow, InvalidArgument, PrecisionExhausted
from padicdist.indices import iter_multi_indices
from padicdist.radii import Radius, log_tail_exponent
from padicdist.samplers import random_scalar

INF = math.inf
R23 = Radius(2, 3)  # 3^(-2/3), dominant index 0
MP = 2


def test_generator_shape(fam31):
    G = fam31.gen(2, 1)
    assert fam31.gen(1, 1).is_zero  # F_{1j} = 0
    lg = fam31.lgspec
    lin = {a: c for a, c in G.coeffs.items() if sum(a) == 1}
    b21 = tuple(1 if t == lg.flat_index(2, 1) else 0 for t in range(2))
    b11 = tuple(1 if t == lg.flat_index(1, 1) else 0 for t in range(2))
    assert lin[b21] == lg.field.one()
    assert lin[b11] == -lg.v_basis[1]
    assert (0, 0) not in G.coeffs  # zero constant term
    # degree-k part is (-1)^(k-1)/k (b_ij^k - v_i b_1j^k)
    assert G.coeffs[(0, 3)] == lg.field.scalar(Fraction(1, 3))


def test_symbol_h0(fam31):
    sym = kernel_symbol(fam31, 2, 1, R23)
    k = fam31.lgspec.field.residue_field
    assert sym.terms == {
        (0, (0, 1)): k.one(),
        (0, (1, 0)): -fam31.lgspec.residue_of_v(2),
    }
    assert sym.degree == fam31.gen(2, 1).norm(R23).exponent


def test_symbol_h0_ramified_nonunit_v(k3r2):
    """Over e = 2, v_2 = pi has residue class 0, so the symbol of G_21 is
    X_21 alone, with no -vbar_2 X_11 term."""
    fam = build_kernel_family(o_additive(k3r2, 1), 4)
    lg = fam.lgspec
    assert lg.residue_of_v(2).is_zero
    sym = kernel_symbol(fam, 2, 1, R23)
    assert sym.terms == {(0, (0, 1)): lg.field.residue_field.one()}


def test_symbol_h2_at_p2(fam21):
    # r = 2^(-1/6): r^kappa = 2^(-1/3), dominant index 2
    r = Radius(1, 6)
    sym = kernel_symbol(fam21, 2, 1, r)
    expected = kernel_symbol_closed_form(fam21, 2, 1, r)
    assert sym == expected
    degrees = {sum(alpha) for (_w, alpha) in sym.terms}
    assert degrees == {4}  # p^h = 4
    ws = {w for (w, _a) in sym.terms}
    assert ws == {-2}  # epsilon^(-2) = e0^(-2) since e = 1


def test_symbol_critical_radius(fam31):
    with pytest.raises(CriticalRadius):
        kernel_symbol(fam31, 2, 1, Radius(1, 2))


def test_orthogonality(fam31, fam32):
    rng = random.Random(51)
    assert orthogonality_check(fam31, R23, 30, rng)
    assert orthogonality_check(fam32, R23, 30, rng)
    # single-term and mixed-valuation spot checks
    alg = fam31.algebra
    f = fam31.gen(2, 1)
    c = alg.field.uniformizer() ** 2
    assert f.scale(c).norm(R23).exponent == 2 + f.norm(R23).exponent


def test_canonicalize_ideal_member(fam31):
    form = canonicalize(fam31, fam31.gen(2, 1), R23, MP)
    assert form.is_zero
    assert form.residual_exponent >= MP


def test_canonicalize_bij(fam31):
    lg = fam31.lgspec
    b21 = fam31.algebra.generator(lg.flat_index(2, 1))
    form = canonicalize(fam31, b21, R23, MP)
    assert form.coeffs[(1,)].leading_residue() == lg.residue_of_v(2)
    assert quotient_norm(fam31, b21, R23, MP).exponent == Fraction(2, 3)
    # canonical symbol is vbar_2 X_11
    sym = form.as_distribution().principal_symbol(R23)
    assert sym.terms == {(0, (1, 0)): lg.residue_of_v(2)}


def test_reduction_tail_is_the_generators_log_tail(fam31):
    """The first step on b_21 subtracts G_21 * 1, a product that drops
    nothing, so its tail is the log tail of the truncation at N = 8:
    min over k > 8 of 2k/3 - v_3(k), which is 4 (k = 9)."""
    assert log_tail_exponent(fam31.algebra.N, R23, 1, 3) == 4
    b21 = fam31.algebra.generator(fam31.lgspec.flat_index(2, 1))
    with pytest.raises(DegreeOverflow, match=r"reach p\^-\(4\) above the target p\^-5"):
        canonicalize(fam31, b21, R23, 5)


def test_canonicalize_idempotent(fam31):
    rng = random.Random(52)
    alg = fam31.algebra
    for _ in range(10):
        terms = {}
        for _t in range(rng.randrange(1, 4)):
            alpha = tuple(rng.randrange(0, 3) for _ in range(2))
            unit = alg.field.scalar(rng.randrange(1, 3))
            if rng.randrange(2):
                unit = unit + alg.field.unram_gen() * rng.randrange(1, 3)
            terms[alpha] = unit * alg.field.uniformizer() ** rng.randrange(0, 2)
        lam = alg.from_terms(terms)
        try:
            form = canonicalize(fam31, lam, R23, MP)
        except DegreeOverflow:
            continue
        again = canonicalize(fam31, form.as_distribution(), R23, MP)
        assert again.coeffs == form.coeffs


def test_quotient_norm_monotone_radius(fam31):
    # already-canonical elements have exact norms at any h=0 radius
    lg = fam31.lgspec
    lam = fam31.lift({(2,): lg.field.scalar(3)})
    assert quotient_norm(fam31, lam, R23, MP).exponent == 1 + 2 * Fraction(2, 3)


def test_quotient_norm_uncertified_raises(fam31):
    # norm above the residual target cannot be certified
    lg = fam31.lgspec
    b21 = fam31.algebra.generator(lg.flat_index(2, 1))
    deep = b21.scale(lg.field.uniformizer() ** 6)
    with pytest.raises((PrecisionExhausted, DegreeOverflow)):
        quotient_norm(fam31, deep, R23, MP)


def test_oracle_agreement(fam31_small):
    """Canonical quotient norms equal brute-force lattice distances."""
    fam = fam31_small
    alg = fam.algebra
    field = alg.field
    span = [
        alg.mul(fam.gen(2, 1), alg.monomial(beta, 1))
        for beta in iter_multi_indices(2, 3)
    ]
    oracle = LatticeOracle(span, R23)
    rng = random.Random(53)
    certified = 0
    agree = 0
    for _ in range(200):
        if certified >= 40:
            break
        terms = {}
        for _t in range(rng.randrange(1, 4)):
            alpha = tuple(rng.randrange(0, 3) for _ in range(2))
            if sum(alpha) > 3:
                continue
            terms[alpha] = field.uniformizer() ** rng.randrange(0, 2) * field.scalar(
                rng.randrange(1, 3)
            )
        if not terms:
            continue
        lam = alg.from_terms(terms)
        try:
            form = canonicalize(fam, lam, R23, MP)
        except DegreeOverflow:
            continue
        assert form.residual_exponent >= MP, lam
        if not form.certified:
            continue
        q = form.norm().exponent
        certified += 1
        if q == oracle.distance(lam):
            agree += 1
    assert certified >= 40
    assert agree == certified


def test_oracle_agreement_ramified(k3r2):
    """Over e = 2 (pi^2 = 3) at the h = 0 radius 3^(-2/3), every residual
    reaches the target p^-M', and canonical quotient norms, with their
    half-integral valuations, equal the brute-force lattice distances."""
    fam = build_kernel_family(o_additive(k3r2, 1), 4)
    alg = fam.algebra
    span = [
        alg.mul(fam.gen(2, 1), alg.monomial(beta, 1))
        for beta in iter_multi_indices(2, 3)
    ]
    oracle = LatticeOracle(span, R23)
    rng = random.Random(55)
    certified = 0
    half_integral = False
    for _ in range(200):
        terms = {}
        for _t in range(rng.randrange(1, 4)):
            alpha = tuple(rng.randrange(0, 3) for _ in range(2))
            if sum(alpha) <= 3:
                terms[alpha] = random_scalar(k3r2, rng)
        if not terms:
            continue
        lam = alg.from_terms(terms)
        try:
            form = canonicalize(fam, lam, R23, MP)
        except DegreeOverflow:
            continue
        assert form.residual_exponent >= MP, lam
        if not form.certified:
            continue
        q = form.norm().exponent
        certified += 1
        half_integral |= (q * 6).denominator == 1 and (q * 3).denominator != 1
        assert q == oracle.distance(lam), lam
    assert certified >= 40
    assert half_integral


def test_domain_smoke(fam31, fam32):
    rng = random.Random(54)
    assert domain_smoke_test(fam31, R23, 15, rng, 12)
    assert domain_smoke_test(fam32, R23, 10, rng, 12)


def test_canonicalize_rejects_large_radius(fam31):
    with pytest.raises((ValueError, CriticalRadius)):
        canonicalize(fam31, fam31.algebra.one(), Radius(1, 8), MP)


def test_canonicalize_refusal_is_typed(fam31):
    # 3^(-1/8) has dominant index 2: outside the h = 0 region
    with pytest.raises(InvalidArgument, match="dominant index h = 2"):
        canonicalize(fam31, fam31.algebra.one(), Radius(1, 8), MP)
