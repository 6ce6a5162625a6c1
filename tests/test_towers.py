import math
import random
from fractions import Fraction

import pytest

from padicdist import (
    DistAlgebra,
    abelian,
    coset_conditions,
    delta_family,
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
    InvalidDelta,
    UniqueAttainmentFailed,
)
from padicdist.radii import Radius

INF = math.inf


@pytest.fixture(scope="module")
def ab1_big(q3):
    return DistAlgebra(abelian(1, p=3, precision=24), q3, 27)


def test_step_generator_m0_and_m1(heis_alg):
    assert step_generator(heis_alg, 0, 0).coeffs == heis_alg.generator(0).coeffs
    bp = step_generator(heis_alg, 0, 1)
    want = {(1, 0, 0): 3, (2, 0, 0): 3, (3, 0, 0): 1}
    assert {a: c for a, c in bp.coeffs.items()} == \
        {a: heis_alg.field.scalar(c) for a, c in want.items()}


def test_step_generator_norm(heis_alg):
    # ||b'|| = r^(kappa p) in the admissible range
    r = Radius(1, 8)
    assert step_generator(heis_alg, 0, 1).norm(r).exponent == 3 * r.exponent


def test_step_generator_overflow(heis_alg):
    with pytest.raises(DegreeOverflow):
        step_generator(heis_alg, 0, 2)  # needs degree 9 > 6


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


def test_restriction_explicit_value(ab1_big, q3):
    # lambda = p * b'^2 at m = 1, r = 3^(-1/8): both routes 1 + 2 * 3/8
    r = Radius(1, 8)
    lam = step_monomial(ab1_big, (2,), 1).scale(q3.scalar(3))
    assert lam.norm(r).exponent == 1 + 2 * 3 * r.exponent


def test_boundary_probe(ab1_big):
    rng = random.Random(63)
    with pytest.raises(HypothesisFailed) as info:
        restriction_check(ab1_big, 1, Radius(2, 3), 2, rng)
    probe = info.value.probe
    assert probe["matches"]
    assert probe["actual"] == 1 + Fraction(2, 3)  # |p| r^kappa


def test_orthogonal_basis_families(q3, q2):
    rng = random.Random(64)
    for p, field, m in ((3, q3, 1), (3, q3, 2), (2, q2, 1), (2, q2, 2)):
        N = 3 * p**m - 1
        alg = DistAlgebra(abelian(1, p=p, precision=24), field, N)
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
    fam = delta_family(delta, 3, 1, 5)
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
