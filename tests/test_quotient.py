import copy
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import LatticeOracle, canonicalize_oracle, orthogonality_oracle
from padicdist import (
    FieldSpec,
    build_kernel_family,
    canonicalize,
    domain_smoke_test,
    kernel_symbol,
    kernel_symbol_closed_form,
    o_additive,
    orthogonality_check,
    quotient_norm,
)
from padicdist.distalg import Distribution
from padicdist.errors import (
    CounterexampleFound,
    CriticalRadius,
    DegreeOverflow,
    InvalidArgument,
    PadicError,
    PrecisionExhausted,
)
from padicdist.indices import iter_multi_indices
from padicdist.radii import Radius, log_tail_exponent
from padicdist.samplers import random_scalar

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import STREAM_MPRIME, STREAM_TRUNCATION, stream_requests  # noqa: E402

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


def test_gen_refuses_labels_outside_the_generators(fam31):
    """o-additive(1) has n = 2 and d = 1: (3, 1) and (1, 2) name no
    generator, directly or through ``kernel_symbol``."""
    for i, j in [(3, 1), (0, 1), (1, 99), (2, 0)]:
        with pytest.raises(InvalidArgument, match=r"1 <= i <= 2 and 1 <= j <= 1"):
            fam31.gen(i, j)
    with pytest.raises(InvalidArgument, match=r"kernel generator \(3, 1\)"):
        kernel_symbol(fam31, 3, 1, R23)


def test_lift_refuses_indices_outside_the_canonical_table(fam31):
    """o-additive(1) has d = 1 first-row generator and N = 8: a beta of
    another length, or with an entry that is negative or not an int, is
    no canonical index, and (99,) and (9,) lie above the table; the
    degree-N index (8,) lifts to b11^8."""
    one = fam31.lgspec.field.one()
    for beta in [(1, 2), (), (-1,), (1.0,), 3]:
        with pytest.raises(PadicError, match=r"is not a multi-index in N_0\^1"):
            fam31.lift({beta: one})
    for beta in [(99,), (9,)]:
        with pytest.raises(DegreeOverflow, match="outside the degree-8 table") as info:
            fam31.lift({beta: one})
        assert info.value.required_degree == beta[0]
    assert fam31.algebra.format(fam31.lift({(8,): one})) == "b11^8"


def test_symbol_h0(fam31):
    sym = kernel_symbol(fam31, 2, 1, R23)
    k = fam31.lgspec.field.residue_field
    assert sym.terms == {
        (0, (0, 1)): k.one(),
        (0, (1, 0)): -fam31.lgspec.vbars[1],
    }
    assert sym.degree == fam31.gen(2, 1).norm(R23)


def test_symbol_h0_ramified_nonunit_v(k3r2):
    """Over e = 2, v_2 = pi has residue class 0, so the symbol of G_21 is
    X_21 alone, with no -vbar_2 X_11 term."""
    fam = build_kernel_family(o_additive(k3r2, 1), 4)
    lg = fam.lgspec
    assert lg.vbars[1].is_zero
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


@pytest.mark.parametrize("refuse", [
    lambda fam, r: kernel_symbol_closed_form(fam, 2, 1, r),
    lambda fam, r: canonicalize(fam, fam.algebra.one(), r, MP),
], ids=["closed_form", "canonicalize"])
def test_critical_radius_refusal_names_the_radius(fam31, refuse):
    """3^(-1/2) is the critical radius at p = 3, kappa = 1: the closed-form
    symbol and canonicalization refuse it as ``kernel_symbol`` does,
    naming it."""
    with pytest.raises(CriticalRadius, match=r"^radius p\^-1/2 is critical for log\(1\+X\)$"):
        refuse(fam31, Radius(1, 2))


def test_kernel_family_pairs_pinned(fam32):
    """The generator labels (i, j), i >= 2, j outer and i inner."""
    assert fam32.pairs == ((2, 1), (2, 2))
    fam = build_kernel_family(o_additive(FieldSpec.unramified(2, 3), 2), 2)
    assert fam.pairs == ((2, 1), (3, 1), (2, 2), (3, 2))
    assert fam.pairs == tuple(fam._gens)


def test_first_row_layout_matches_flat_index():
    """``LGroupSpec``'s first-row helpers read the positions flat_index(1, j)."""
    lg = o_additive(FieldSpec.unramified(2, 3), 2)
    n, d = lg.n, lg.d
    first = [lg.flat_index(1, j) for j in range(1, d + 1)]
    for alpha in iter_multi_indices(n * d, 3):
        beta = tuple(alpha[t] for t in first)
        on_row = all(alpha[lg.flat_index(i, j)] == 0
                     for j in range(1, d + 1) for i in range(2, n + 1))
        assert lg.to_canonical_index(alpha) == beta
        assert lg.is_first_row(alpha) == on_row
        assert (lg.from_canonical_index(beta) == alpha) == on_row
    k = lg.field.residue_field
    assert lg.vbars == tuple(v.residue() for v in lg.v_basis)
    assert lg.vbars[0] == k.one()


def test_orthogonality(fam31, fam32):
    rng = random.Random(51)
    assert orthogonality_check(fam31, R23, 30, rng)
    assert orthogonality_check(fam32, R23, 30, rng)
    # single-term and mixed-valuation spot checks
    alg = fam31.algebra
    f = fam31.gen(2, 1)
    c = alg.field.uniformizer() ** 2
    assert f.scale(c).norm(R23) == 2 + f.norm(R23)


def _orthogonality_outcome(check, fam, trials, rng):
    """True, or the message and witness of the CounterexampleFound."""
    try:
        return check(fam, R23, trials, rng)
    except CounterexampleFound as exc:
        return str(exc), exc.witness


def _assert_orthogonality_matches_oracle(fam, seed, trials):
    """The check at the attaining indices gives the verdict and witness of
    the oracle that sums each combination whole, and leaves the generator
    in the same state; returns that outcome."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    out = _orthogonality_outcome(orthogonality_check, fam, trials, rng)
    assert out == _orthogonality_outcome(orthogonality_oracle, fam, trials, oracle_rng)
    assert rng.getstate() == oracle_rng.getstate()
    return out


def test_orthogonality_matches_the_whole_sum_oracle(fam31, fam32):
    assert _assert_orthogonality_matches_oracle(fam31, 52, 30) is True
    assert _assert_orthogonality_matches_oracle(fam32, 53, 30) is True


def test_orthogonality_fails_on_members_sharing_their_attaining_index(fam32):
    """Two members attaining their norms only at b_11 cancel there when
    their coefficients have one valuation and opposite unit residues, and
    the check fails with the norm of the whole combination."""
    alg, lg = fam32.algebra, fam32.lgspec
    b = [alg.generator(lg.flat_index(i, j)) for i, j in ((1, 1), (2, 1), (1, 2))]
    planted = copy.copy(fam32)
    planted._gens = {(2, 1): b[0] + alg.mul(b[1], b[1]),
                     (2, 2): b[0].scale(alg.field.scalar(2)) + alg.mul(b[2], b[2])}
    assert [g.leading_support(R23) for g in planted._gens.values()] == [[(1, 0, 0, 0)]] * 2
    message, (coeffs, got, expected) = _assert_orthogonality_matches_oracle(planted, 54, 100)
    assert message == "orthogonality max-formula failed"
    assert got > expected


def test_canonicalize_ideal_member(fam31):
    form = canonicalize(fam31, fam31.gen(2, 1), R23, MP)
    assert form.is_zero
    assert form.residual_exponent >= MP


def test_canonicalize_bij(fam31):
    lg = fam31.lgspec
    b21 = fam31.algebra.generator(lg.flat_index(2, 1))
    form = canonicalize(fam31, b21, R23, MP)
    assert form.coeffs[(1,)].leading_residue() == lg.vbars[1]
    assert quotient_norm(fam31, b21, R23, MP) == Fraction(2, 3)
    # canonical symbol is vbar_2 X_11
    sym = form.as_distribution().principal_symbol(R23)
    assert sym.terms == {(0, (1, 0)): lg.vbars[1]}


def test_reduction_tail_is_the_generators_log_tail(fam31):
    """The first step on b_21 subtracts G_21 * 1, a product that drops
    nothing, so its tail is the log tail of the truncation at N = 8:
    min over k > 8 of 2k/3 - v_3(k), which is 4 (k = 9)."""
    assert log_tail_exponent(fam31.algebra.N, R23, 1, 3) == 4
    b21 = fam31.algebra.generator(fam31.lgspec.flat_index(2, 1))
    with pytest.raises(DegreeOverflow, match=r"reach p\^-\(4\) above the target p\^-5"):
        canonicalize(fam31, b21, R23, 5)


@pytest.mark.parametrize("mprime", [2.0, 3.0, True, "3", None], ids=repr)
@pytest.mark.parametrize("fn", [canonicalize, quotient_norm], ids=lambda fn: fn.__name__)
def test_mprime_must_be_an_int_or_a_fraction(fam31, fn, mprime):
    """A float, a bool, a string or None as M' is refused by name, not run
    as the number it converts to (2.0 ran, 3.0 overflowed as "p^-3.0",
    True ran as 1) or failed with a TypeError."""
    b21 = fam31.algebra.generator(fam31.lgspec.flat_index(2, 1))
    with pytest.raises(InvalidArgument, match="M' must be an int or a Fraction"):
        fn(fam31, b21, R23, mprime)


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
    assert quotient_norm(fam31, lam, R23, MP) == 1 + 2 * Fraction(2, 3)


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
        q = form.norm()
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
        q = form.norm()
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


def test_canonicalize_refuses_another_algebra(fam31, fam31_small, k3r2):
    """b21^2 of the N = 8 algebra is not an element of the N = 4 family's
    algebra, and neither is b21 over another field."""
    lg = fam31.lgspec
    b21 = fam31.algebra.generator(lg.flat_index(2, 1))
    with pytest.raises(InvalidArgument, match="not in the kernel family's algebra"):
        canonicalize(fam31_small, b21 * b21, R23, MP)
    ramified = build_kernel_family(o_additive(k3r2, 1), 4)
    foreign = ramified.algebra.generator(ramified.lgspec.flat_index(2, 1))
    with pytest.raises(InvalidArgument, match="not in the kernel family's algebra"):
        canonicalize(fam31_small, foreign, R23, MP)


# ---------------------------------------------------------------------------
# the in-place loop against the Distribution-level loop of ``helpers``

def _outcome(fn, fam, lam, r, mprime):
    try:
        form = fn(fam, lam, r, mprime)
    except DegreeOverflow as exc:
        return type(exc), exc.required_degree
    return (list(form.coeffs.items()), form.residual_exponent, form.steps, form.levels)


def _assert_same_as_oracle(fam, lam, r, mprime):
    got = _outcome(canonicalize, fam, lam, r, mprime)
    assert got == _outcome(canonicalize_oracle, fam, lam, r, mprime), lam
    return got


@pytest.mark.parametrize("seed", [0, 13, 54])
def test_canonicalize_matches_oracle_on_stream_shapes(seed):
    """o-additive(1) over Q_9 at N = 14, M' = 3: the requests of the
    lgroup-stream benchmark workload (three terms each, leading levels 4/3
    to 8/3), coefficient dict order included.  At seed 54 a first-row term
    above the target cancels to zero and is touched again, so the order
    holds only if it takes a later slot, as the subtraction does."""
    field = FieldSpec.unramified(3, 2)
    fam = build_kernel_family(o_additive(field, 1), STREAM_TRUNCATION)
    alg = fam.algebra
    w, pi = field.unram_gen(), field.uniformizer()
    for req in stream_requests(seed, 1):
        lam = alg.from_terms({
            alpha: (field.scalar(u0) + w * u1) * pi ** v for alpha, (u0, u1), v in req
        })
        _assert_same_as_oracle(fam, lam, R23, STREAM_MPRIME)


def _unit_terms(alg, rng, max_degree=3, count=3):
    """Up to ``count`` terms of degree 1..max_degree with unit coefficients
    u + pi k, the low levels that take the most reduction steps."""
    field = alg.field
    terms = {}
    for _ in range(count):
        alpha = [0] * alg.d
        for _ in range(rng.randrange(1, max_degree + 1)):
            alpha[rng.randrange(alg.d)] += 1
        unit = field.scalar(rng.randrange(1, field.p))
        terms[tuple(alpha)] = unit + field.uniformizer() * rng.randrange(field.p)
    return alg.from_terms(terms)


@pytest.mark.parametrize("case", ["o-additive(2), N = 6", "ramified, N = 4"])
def test_canonicalize_matches_oracle_on_random_inputs(case, fam32, k3r2):
    """o-additive(2) over Q_9 (two generator pairs to clear) and o-additive(1)
    over the ramified quadratic extension; both outcomes occur."""
    if case.startswith("o-additive(2)"):
        fam, rng = fam32, random.Random(56)
    else:
        fam, rng = build_kernel_family(o_additive(k3r2, 1), 4), random.Random(57)
    outcomes = [
        _assert_same_as_oracle(fam, _unit_terms(fam.algebra, rng), R23, MP)
        for _ in range(20)
    ]
    assert any(o[0] is DegreeOverflow for o in outcomes)
    assert any(o[0] is not DegreeOverflow and o[2] >= 4 for o in outcomes)


@pytest.mark.parametrize("mprime", [MP, 3])
@pytest.mark.parametrize("r", [R23, Radius(3, 4)], ids=str)
def test_canonicalize_matches_oracle_over_a_field_with_a_denominator(r, mprime):
    """o-additive(1) over Q_2[pi]/(pi^3 + 4 pi^2 + (2/3) pi + 6): the basis
    products of K are ints over 3, not 1, and e = 3, so each touched term's
    valuation is read blockwise.  b21 and b31 + 3 b21 at 2^-2/3 and 2^-3/4
    take 2 to 18 steps."""
    field = FieldSpec(2, e=3, f=1, eisenstein=[6, Fraction(2, 3), 4])
    assert field._den == 3
    lgspec = o_additive(field, 1)
    fam = build_kernel_family(lgspec, 6)
    b21, b31 = (fam.algebra.generator(lgspec.flat_index(i, 1)) for i in (2, 3))
    for lam in (b21, b31 + b21.scale(3)):
        got = _assert_same_as_oracle(fam, lam, r, mprime)
        assert got[0] and got[2] >= 2


def test_canonicalize_matches_oracle_on_overflow(fam31):
    """The target p^-5 lies beyond the log tail p^-4 of N = 8: both loops refuse
    with the same required truncation."""
    b21 = fam31.algebra.generator(fam31.lgspec.flat_index(2, 1))
    assert _assert_same_as_oracle(fam31, b21, R23, 5) == (DegreeOverflow, 9)


def test_one_family_at_two_radii_matches_fresh_families(k3u2):
    """The shifted-generator memo is kept per radius: one family reducing at
    3^-2/3 and 3^-3/4 in turn gives what a fresh family gives at each, and
    the terms of every memo entry are those of the product G_ij * b^alpha
    it is keyed by, each with its key at that radius and its row."""
    lgspec = o_additive(k3u2, 1)
    shared = build_kernel_family(lgspec, 8)
    alg = shared.algebra
    b11, b21 = (alg.generator(lgspec.flat_index(i, 1)) for i in (1, 2))
    inputs = [b21, b21 * b21, b11 * b21.scale(3) + b21]
    for r in (R23, Radius(3, 4), R23, Radius(3, 4)):
        for lam in inputs:
            fresh = build_kernel_family(lgspec, 8)
            lam_fresh = Distribution(fresh.algebra, lam.coeffs)
            assert (_outcome(canonicalize, shared, lam, r, MP)
                    == _outcome(canonicalize, fresh, lam_fresh, r, MP))
    assert set(shared._shift_keys) == {R23, Radius(3, 4)}
    for r, memo in shared._shift_keys.items():
        assert memo
        ctx = alg.symbol_context(r)
        for (i, j, alpha), (_, terms) in memo.items():
            prod = alg.mul(shared.gen(i, j), alg.monomial(alpha))
            assert [t[:3] for t in terms] == [(g, c.num, c.den) for g, c in prod.coeffs.items()]
            assert [t[5:] for t in terms] == [(ctx.key(c, g), lgspec.is_first_row(g))
                                              for g, c in prod.coeffs.items()]
