import math
import random
from fractions import Fraction

import pytest

from helpers import (
    coset_conditions_oracle,
    filiform,
    orthogonal_trials_oracle,
    p_valuation_oracle,
)
from padicdist import (
    DistAlgebra,
    FieldSpec,
    abelian,
    coset_conditions,
    heisenberg,
    heisenberg2,
    lower_p_transversal,
    norm_transfer_check,
    o_additive,
    orthogonal_system_check,
    radius_root,
    restriction_check,
    step_generator,
    step_monomial,
)
from padicdist.errors import (
    ConditionFailed,
    DegreeOverflow,
    HypothesisFailed,
    InjectivityFailed,
    InvalidArgument,
    InvalidDelta,
    PadicError,
    UniqueAttainmentFailed,
)
from padicdist.config import JobConfig
from padicdist.radii import Radius
from padicdist.samplers import random_element
from padicdist.suites import SuiteEnv, suite_pvaluation
from padicdist.towers import boundary_probe, orthogonal_system

INF = math.inf


@pytest.fixture(scope="module")
def ab1_big(q3):
    return DistAlgebra(abelian(1, p=3), q3, 27)


def test_step_generator_m0_and_m1(heis_alg):
    assert step_generator(heis_alg, 0, 0).coeffs == heis_alg.generator(0).coeffs
    bp = step_generator(heis_alg, 0, 1)
    want = {(1, 0, 0): 3, (2, 0, 0): 3, (3, 0, 0): 1}
    assert {a: c for a, c in bp.coeffs.items()} == \
        {a: heis_alg.field.scalar(c) for a, c in want.items()}


def test_step_generator_norm(heis_alg):
    # ||b'|| = r^(kappa p) in the admissible range
    r = Radius(1, 8)
    assert step_generator(heis_alg, 0, 1).norm(r) == 3 * r.exponent


def test_step_generator_overflow(heis_alg):
    with pytest.raises(DegreeOverflow):
        step_generator(heis_alg, 0, 2)  # needs degree 9 > 6


def test_step_generator_refuses_an_index_outside_the_lattice(heis_alg):
    """b'_6 on a d = 3 lattice is refused, not read as the unit 1."""
    with pytest.raises(InvalidArgument, match="index 5 is outside 0..2"):
        step_generator(heis_alg, 5, 1)


def test_restriction_m1_m2(ab1_big):
    rng = random.Random(61)
    recs = restriction_check(ab1_big, 1, Radius(1, 8), 10, rng)
    assert len(recs) == 10
    recs = restriction_check(ab1_big, 2, Radius(1, 9), 10, rng)
    assert len(recs) == 10


def test_restriction_nonabelian(heis_alg):
    rng = random.Random(62)
    recs = restriction_check(heis_alg, 1, Radius(1, 8), 8, rng)
    assert len(recs) == 8


# records of the parent of the shared step-combination refactor, seed by
# seed: the draws, sums and exponents must not move
_RESTRICTION_RECORDS = {
    0: [(1, '11/4'), (1, '3/8'), (1, '0'), (1, '0'), (1, '3/4'), (1, '0'), (2, '3/4'), (1, '0')],
    7: [(1, '3/4'), (2, '3/4'), (2, '2'), (1, '0'), (1, '11/4'), (1, '0'), (1, '3/4'), (1, '0')],
    13: [(1, '11/4'), (1, '0'), (1, '11/4'), (1, '0'), (2, '3/8'), (1, '0'), (1, '0'), (1, '0')],
    21: [(1, '0'), (2, '7/4'), (1, '2'), (1, '11/4'), (2, '3/4'), (1, '3/8'), (2, '7/4'), (1, '0')],
}


@pytest.mark.parametrize("seed", list(_RESTRICTION_RECORDS))
def test_restriction_records_pinned(heis_alg, seed):
    recs = restriction_check(heis_alg, 1, Radius(1, 8), 8, random.Random(seed))
    got = [(rec["support_size"], str(rec["exponent"])) for rec in recs]
    assert got == _RESTRICTION_RECORDS[seed]


def test_restriction_explicit_value(ab1_big, q3):
    # lambda = p * b'^2 at m = 1, r = 3^(-1/8): both routes 1 + 2 * 3/8
    r = Radius(1, 8)
    lam = step_monomial(ab1_big, (2,), 1).scale(q3.scalar(3))
    assert lam.norm(r) == 1 + 2 * 3 * r.exponent


def test_boundary_probe(ab1_big):
    """Outside the m = 1 hypothesis the restriction check is refused, and
    the generator norm there is |p| r^kappa."""
    rng = random.Random(63)
    with pytest.raises(HypothesisFailed, match="radius violates"):
        restriction_check(ab1_big, 1, Radius(2, 3), 2, rng)
    actual, expected = boundary_probe(ab1_big, Radius(2, 3))
    assert actual == expected == 1 + Fraction(2, 3)  # |p| r^kappa


def test_orthogonal_basis_families(q3, q2):
    rng = random.Random(64)
    for p, field, m in ((3, q3, 1), (3, q3, 2), (2, q2, 1), (2, q2, 2)):
        N = 3 * p**m - 1
        alg = DistAlgebra(abelian(1, p=p), field, N)
        r = Radius(1, 2 * (p**m))  # satisfies the restriction hypothesis
        system = []
        expected_iota = {}
        for a in range((N // p**m) + 1):
            for b in range(p**m):
                if p**m * a + b > N:
                    continue
                t = alg.mul(step_monomial(alg, (a,), m), alg.monomial((b,), 1))
                expected_iota[len(system)] = (p**m * a + b,)
                system.append(t)
        out = orthogonal_system_check(system, r, 10, rng)
        assert out["iota"] == expected_iota
        assert out["basis"]


def _abelian_systems(q3, q2):
    """The systems of ``test_orthogonal_basis_families``, with their radii."""
    for p, field, m in ((3, q3, 1), (3, q3, 2), (2, q2, 1), (2, q2, 2)):
        N = 3 * p**m - 1
        alg = DistAlgebra(abelian(1, p=p), field, N)
        yield orthogonal_system(alg, m), Radius(1, 2 * (p**m))


def _assert_trials_match_oracle(system, r, seed):
    """The int trials pass exactly when the Distribution trials of the
    oracle do, and leave the generator in the same state."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    orthogonal_system_check(system, r, 12, rng)
    assert orthogonal_trials_oracle(system, r, 12, oracle_rng) is None
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("field", ["q3", "k3u2", "k3r2"])
def test_trials_match_the_distribution_oracle_on_heisenberg(field, request):
    alg = DistAlgebra(heisenberg(3), request.getfixturevalue(field), 4)
    _assert_trials_match_oracle(orthogonal_system(alg, 1), Radius(1, 4), 67)


def test_trials_match_the_distribution_oracle_on_heisenberg2(q2):
    # p = 2: every unit u is 1, so each coefficient is pi^v alone
    alg = DistAlgebra(heisenberg2(), q2, 6)
    _assert_trials_match_oracle(orthogonal_system(alg, 1), Radius(1, 4), 69)


def test_trials_match_the_distribution_oracle_on_abelian_systems(q3, q2):
    for seed, (system, r) in enumerate(_abelian_systems(q3, q2)):
        _assert_trials_match_oracle(system, r, 68 + seed)


class _TopDraws:
    """A generator stub whose every draw is the largest allowed value."""

    def randrange(self, start, stop):
        return stop - 1


def test_trials_at_the_certified_slot_bound(q3):
    """Every element holds 3^5 at index 0 below its lead, and every draw
    is v = 2, u = p - 1, so the trial sum at index 0 is 3 * 2 * 3^5 * 9 =
    len(system) (p - 1) [K:Q_p] max|x| max|y|, the bound the slot width
    is certified for.  A width one bit short misreads that slot."""
    alg = DistAlgebra(abelian(2, p=3), q3, 2)
    system = [alg.from_terms({(0, 0): 3**5})] + [
        alg.from_terms({(1, 0): 1, (0, 0): 3**5}), alg.from_terms({(0, 1): 1, (0, 0): 3**5})]
    out = orthogonal_system_check(system, Radius(1, 2), 1, _TopDraws())
    assert out["iota"] == {0: (0, 0), 1: (1, 0), 2: (0, 1)}


class _LoggedTopDraws(_TopDraws):
    """``_TopDraws`` that records every draw it answers."""

    def __init__(self):
        self.draws = []

    def randrange(self, start, stop):
        self.draws.append((start, stop))
        return super().randrange(start, stop)


def test_trials_decide_a_tie_of_many_attaining_elements(q3):
    """With every draw v = 2, u = p - 1, every element of least norm
    attains the expected key at once: b_1, b_2 and b_3 once the unit
    element, the one element of norm 1, is left out.  The check passes,
    as the oracle does, after the same draws."""
    alg = DistAlgebra(heisenberg(3), q3, 4)
    system, r = orthogonal_system(alg, 1)[1:], Radius(1, 4)
    norms = [t.norm(r) for t in system]
    assert norms.count(min(norms)) == 3
    draws, oracle_draws = _LoggedTopDraws(), _LoggedTopDraws()
    orthogonal_system_check(system, r, 3, draws)
    assert orthogonal_trials_oracle(system, r, 3, oracle_draws) is None
    assert draws.draws == oracle_draws.draws


def test_orthogonality_diagnoses(ab1_big):
    rng = random.Random(65)
    r = Radius(1, 8)
    b = ab1_big.generator(0)
    # b + b^2 attains its norm only at index 1, as does b: injectivity fails
    with pytest.raises(InjectivityFailed):
        orthogonal_system_check([b, b + ab1_big.mul(b, b)], r, 5, rng)
    # p*b + b^3 at r = 3^(-1/2): both terms have exponent 3/2
    r2 = Radius(1, 2)
    lam = ab1_big.from_terms({(1,): 3, (3,): 1})
    with pytest.raises(UniqueAttainmentFailed):
        orthogonal_system_check([lam], r2, 5, rng)


def test_transversal_and_cosets(heis, heis2, k3u2):
    rng = random.Random(66)
    for lat, m in ((heis, 1), (heis2, 1), (abelian(2, p=3), 1), (abelian(2, p=3), 2)):
        cs = lower_p_transversal(lat, m)
        assert cs.index == lat.p ** (m * lat.d)
        rep = coset_conditions(cs, rng)
        assert rep["invertible_in_K"]
        assert rep["index_abs_exponent"] == m * lat.d
    lg = o_additive(k3u2, 1)
    cs = lower_p_transversal(lg.restrict(), 1)
    assert coset_conditions(cs, rng)["index"] == 9


def test_coset_conditions_reject_bad_transversal(heis):
    rng = random.Random(67)
    cs = lower_p_transversal(heis, 1)
    cs.reps[1] = cs.reps[2]  # duplicate coset
    with pytest.raises(ConditionFailed):
        coset_conditions(cs, rng)


@pytest.mark.parametrize("build", [
    lambda alg: step_generator(alg, 0, -1),
    lambda alg: step_monomial(alg, (1, 0, 0), -1),
    lambda alg: restriction_check(alg, -1, Radius(1, 8), 2, random.Random(1)),
    lambda alg: orthogonal_system(alg, -1),
    lambda alg: lower_p_transversal(alg.lattice, -1),
    lambda alg: norm_transfer_check(o_additive(FieldSpec.unramified(3, 2), 1), Radius(2, 3), -1,
                                    2, random.Random(1)),
], ids=["step-generator", "step-monomial", "restriction", "orthogonal", "transversal",
        "transfer"])
def test_negative_steps_are_refused(heis_alg, build):
    """m < 0 is no step of the lower p-series: a typed refusal naming m,
    not a TypeError or a radius outside (0, 1); m = 0 stays valid."""
    with pytest.raises(InvalidArgument, match="m = -1"):
        build(heis_alg)
    assert lower_p_transversal(heis_alg.lattice, 0).index == 1
    assert heis_alg.lattice.step(0).structure_digest() == heis_alg.lattice.structure_digest()


def test_coset_key_refuses_p_in_a_denominator():
    """A representative whose second-kind denominator p divides has no
    coset mod the step subgroup: a typed refusal naming the hypothesis,
    not the ValueError of a modular inverse."""
    lat = abelian(1, p=3)
    cs = lower_p_transversal(lat, 2)
    cs.reps[1] = lat.element_second((Fraction(1, 3),))
    with pytest.raises(PadicError, match="p-integral") as info:
        coset_conditions(cs, random.Random(70))
    assert isinstance(info.value, InvalidArgument)


@pytest.mark.parametrize("lat", [heisenberg(3), heisenberg2(), filiform(3), filiform(2)],
                         ids=repr)
def test_coset_conditions_match_the_fraction_path(lat):
    """The int coset keys give the report of the Fraction path and draw
    from the generator exactly as it does."""
    for m in (0, 1):
        cs = lower_p_transversal(lat, m)
        rng, oracle_rng = random.Random(71), random.Random(71)
        assert coset_conditions(cs, rng) == coset_conditions_oracle(cs, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()


def _heisenberg_missing_a_rep():
    cs = lower_p_transversal(heisenberg(3), 1)
    del cs.reps[13]
    return cs


def _identity_not_first():
    cs = lower_p_transversal(heisenberg(3), 1)
    cs.reps.append(cs.reps.pop(0))
    return cs


@pytest.mark.parametrize("build, failure", [
    (_heisenberg_missing_a_rep, r"product of reps \d+, \d+ misses the transversal"),
    (_identity_not_first, "transversal must start with the identity"),
    (lambda: lower_p_transversal(heisenberg2(), 2), None),
], ids=["rep-removed", "identity-not-first", "heisenberg2-m2"])
def test_coset_conditions_match_the_oracle(build, failure):
    """Batched over one representative at a time, the checks fail with the
    Fraction path's message at its first failure, or pass with its report
    on 64 representatives, and leave the generator where it leaves it."""
    cs = build()
    rng, oracle_rng = random.Random(72), random.Random(72)
    if failure is None:
        assert coset_conditions(cs, rng) == coset_conditions_oracle(cs, oracle_rng)
    else:
        with pytest.raises(ConditionFailed, match=failure) as got:
            coset_conditions(cs, rng)
        with pytest.raises(ConditionFailed) as want:
            coset_conditions_oracle(cs, oracle_rng)
        assert str(got.value) == str(want.value)
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("group", ["heisenberg", "heisenberg2"])
def test_pvaluation_suite_matches_the_fraction_path(group):
    """suite_pvaluation passes where the Fraction path finds no violation
    and leaves its generator where the sampler's draws leave it."""
    p = 3 if group == "heisenberg" else 2
    config = JobConfig.from_dict({"field": {"p": p}, "group": group, "seed": 4,
                                  "suites": ["pvaluation"], "options": {"pairs": 25}})
    env = SuiteEnv(config)
    drawn = {}

    def rng(suite):
        drawn[suite] = random.Random(f"{config.seed}:{suite}")
        return drawn[suite]

    env.rng = rng
    records = suite_pvaluation(env)
    oracle_rng = random.Random(f"{config.seed}:pvaluation")
    lat = env.lattice
    pairs = [(random_element(lat, oracle_rng), random_element(lat, oracle_rng))
             for _ in range(25)]
    assert drawn["pvaluation"].getstate() == oracle_rng.getstate()
    assert p_valuation_oracle(pairs) == []
    assert all(r.passed for r in records)
    assert records[-1].name == "p-valuation axioms on 25 pairs" and records[-1].computed == "[]"


def test_trivial_transversal(heis):
    rng = random.Random(68)
    cs = lower_p_transversal(heis, 0)
    assert cs.index == 1
    rep = coset_conditions(cs, rng)
    assert rep["index"] == 1 and not rep["p_divides_index"]


def test_rank_one_transversal():
    # Z_3 with H = 3 Z_3 and representatives {0, 1, 2}: index t = 3
    rng = random.Random(69)
    cs = lower_p_transversal(abelian(1, p=3), 1)
    assert [g.second() for g in cs.reps] == [(0,), (1,), (2,)]
    rep = coset_conditions(cs, rng)
    assert rep["index"] == 3 and rep["index_abs_exponent"] == 1


def test_delta_family_props():
    delta = Radius(2, 3)
    fam = [radius_root(delta, m, 3, 1) for m in range(5)]
    assert fam[0] == delta
    exps = [r.exponent for r in fam]
    assert all(a > b for a, b in zip(exps, exps[1:]))  # radii increase to 1
    assert all(0 < e < 1 for e in exps)
    for m, r in enumerate(fam):
        assert r.exponent == delta.exponent / 3**m
    with pytest.raises(InvalidDelta):
        radius_root(Radius(1, 4), 1, 3, 1)  # delta^kappa >= p^(-1/2)


def test_delta_family_satisfies_restriction_hypothesis():
    from padicdist.towers import restriction_hypothesis

    for p, kappa, delta in ((3, 1, Radius(2, 3)), (2, 2, Radius(3, 4))):
        for m in range(1, 5):
            level = m + kappa - 1
            r = radius_root(delta, level, p, kappa)
            assert restriction_hypothesis(r, m, kappa, p)


def test_norm_transfer_p3(k3u2):
    rng = random.Random(69)
    lg = o_additive(k3u2, 1)
    delta = Radius(2, 3)
    for m in (1, 2, 3):
        recs = norm_transfer_check(lg, delta, m, 5, rng)
        assert recs, f"no records at m={m}"
        for rec in recs:
            if rec["monomial"]:
                assert rec["offset"] == 0 and rec["certified_equal"]


def test_norm_transfer_p2(k2u2):
    rng = random.Random(70)
    lg = o_additive(k2u2, 1)
    delta = Radius(3, 4)  # kappa * 3/4 = 3/2 > 1 = 1/(p-1)
    for m in (1, 2, 3):
        recs = norm_transfer_check(lg, delta, m, 5, rng)
        for rec in recs:
            if rec["monomial"]:
                assert rec["offset"] == 0 and rec["certified_equal"]


# (monomial, ambient, intrinsic, certified, offset) per record, as the
# parent of the shared step-combination refactor gave them
_TRANSFER_RECORDS = {
    0: [(True, '2/3', '2/3', True, '0'), (False, '5/3', '5/3', True, '0'),
        (True, '2/3', '2/3', True, '0'), (False, '2/3', '2/3', True, '0'),
        (True, '2/3', '2/3', True, '0'), (False, '2/3', '2/3', True, '0')],
    7: [(True, '2/3', '2/3', True, '0'), (True, '2/3', '2/3', True, '0'),
        (True, '5/3', '5/3', True, '0'), (True, '2/3', '2/3', True, '0'),
        (True, '2/3', '2/3', True, '0'), (True, '5/3', '5/3', True, '0')],
    13: [(True, '2/3', '2/3', True, '0'), (False, '0', '0', True, '0'),
         (True, '5/3', '5/3', True, '0'), (True, '2/3', '2/3', True, '0'),
         (False, '5/3', '5/3', True, '0'), (True, '5/3', '5/3', True, '0')],
    21: [(True, '2/3', '2/3', True, '0'), (True, '7/3', '7/3', True, '0'),
         (True, '2/3', '2/3', True, '0'), (True, '4/3', '4/3', True, '0'),
         (True, '1', '1', True, '0'), (False, '2/3', '2/3', True, '0')],
}


@pytest.mark.parametrize("seed", list(_TRANSFER_RECORDS))
def test_norm_transfer_records_pinned(seed):
    lg = o_additive(FieldSpec(3, f=2), 2)
    recs = norm_transfer_check(lg, Radius(2, 3), 1, 6, random.Random(seed))
    got = [(rec["monomial"], str(rec["ambient_exponent"]), str(rec["intrinsic_exponent"]),
            rec["certified_equal"], str(rec["offset"])) for rec in recs]
    assert got == _TRANSFER_RECORDS[seed]


class _TopRng:
    """Draws the top of every range, so every sampled alpha is (1, ..., 1)."""

    def randrange(self, lo, hi):
        return hi - 1


def test_norm_transfer_mixed_monomial_o_additive2(k3u2):
    # alpha = (1, 1) has degree 2 * p^level; an algebra sized for degree
    # p^level alone truncated the monomial and reported a false mismatch
    lg = o_additive(k3u2, 2)
    recs = norm_transfer_check(lg, Radius(2, 3), 1, 2, _TopRng())
    assert [r["monomial"] for r in recs] == [True, True]
    for rec in recs:
        assert rec["offset"] == 0 and rec["certified_equal"]


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_step_generator_is_the_binomial_series_and_delta(heis_alg, i, m):
    """b'_i = (1 + b_i)^(3^m) - 1 three ways: the step generator, the
    binomial series at v = 3^m, and delta(h_i^(3^m)) - 1, read off the
    table's binomial ladder."""
    q = 3**m
    power = heis_alg.delta(heis_alg.lattice.generator(i) ** q) - heis_alg.one()
    assert step_generator(heis_alg, i, m) == heis_alg.binomial_series(i, q) == power
