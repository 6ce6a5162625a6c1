"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything here is checked in exact rational/exponent arithmetic; the only
tolerances are the explicit residual bounds p^(-M') that are part of the
canonicalization contract.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import LatticeOracle
from padicdist import (
    DistAlgebra,
    abelian,
    canonicalize,
    check_p_valuation,
    check_powerful_commutator,
    check_regular_sequence,
    coset_conditions,
    domain_smoke_test,
    dominant_log_index,
    finite_rank_quotient,
    kernel_symbol,
    kernel_symbol_closed_form,
    kernel_symbol_family,
    lower_p_transversal,
    norm_transfer_check,
    o_additive,
    orthogonality_check,
    quotient_iso_check,
    quotient_norm,
    restriction_check,
)
from padicdist.errors import DegreeOverflow, HypothesisFailed, PrecisionExhausted
from padicdist.indices import iter_multi_indices
from padicdist.radii import Radius
from padicdist.samplers import random_distribution
from padicdist.towers import boundary_probe

INF = math.inf


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {desc}: FAIL")
        raise
    print(f"[criterion {num:2d}] {desc}: PASS")


def _sample_element(lat, rng, window=6):
    coords = [rng.randrange(0, lat.p**window) for _ in range(lat.d)]
    if not any(coords):
        coords[0] = 1
    scale = lat.p ** rng.choice((0, 0, 0, 1, 2))
    return lat.element_second(tuple(scale * c for c in coords))


def test_c01_p_valuation_axioms(heis, heis2):
    rng = random.Random(101)
    with criterion(1, "p-valuation axioms on 500+ pairs per group"):
        for lat in (abelian(2, p=3), heis, heis2):
            pairs = [
                (_sample_element(lat, rng), _sample_element(lat, rng))
                for _ in range(500)
            ]
            violations = check_p_valuation(pairs)
            assert violations == [], (lat.name, violations[:3])


def test_c02_generator_valuations(heis, heis2, k3u2):
    with criterion(2, "omega(h_i) = kappa for every built-in generator"):
        groups = [
            abelian(1, p=3), abelian(2, p=3), abelian(3, p=3), heis, heis2,
            o_additive(k3u2, 1).restrict(), o_additive(k3u2, 2).restrict(),
        ]
        for lat in groups:
            for i in range(lat.d):
                assert lat.generator(i).p_valuation() == lat.kappa
        # the p = 2 shift: level 1 generators get omega = 2, squares omega = 3
        g = heis2.generator(0)
        assert g.level() == 1 and g.p_valuation() == 2
        assert (g**2).p_valuation() == 3


def test_c03_pro2_commutator_lemma(heis2):
    with criterion(3, "[P_i, P_j] <= P_{i+j+1} exhaustive at level 5"):
        total = 0
        for i in range(1, 5):
            for j in range(1, 5):
                if i + j + 1 <= 5:
                    total += check_powerful_commutator(heis2, 5, i, j)
        assert total > 13000


RADII_6 = [Radius(1, 20), Radius(1, 8), Radius(1, 3), Radius(1, 2),
           Radius(2, 3), Radius(19, 20)]


def test_c04_norm_multiplicativity(heis_alg, heis2_alg, ab2_alg):
    rng = random.Random(104)
    with criterion(4, "norm multiplicativity, 200 pairs x 6 radii x 3 groups"):
        for alg in (ab2_alg, heis_alg, heis2_alg):
            half = alg.N // 2
            for _ in range(200):
                lam = random_distribution(alg, rng, half, max_terms=3)
                mu = random_distribution(alg, rng, alg.N - half, max_terms=3)
                assert lam.degree + mu.degree <= alg.N
                prod = alg.mul(lam, mu)
                for r in RADII_6:
                    assert prod.norm(r) == lam.norm(r) + mu.norm(r)


def test_c05_structure_constant_bound(heis_alg, heis2_alg, ab2_alg):
    with criterion(5, "structure-constant valuation bound, full table N = 6"):
        for alg in (ab2_alg, heis_alg, heis2_alg):
            assert alg.table.check_filtration_bound() > 0


def test_c06_kernel_symbols_and_dominant_index(fam31, fam21):
    rng = random.Random(106)
    with criterion(6, "kernel symbols closed form (h = 0, h = 2); dominant index"):
        # h = 0 at p = 3
        sym = kernel_symbol(fam31, 2, 1, Radius(2, 3))
        assert sym == kernel_symbol_closed_form(fam31, 2, 1, Radius(2, 3))
        # h = 2 at p = 2, r^kappa = 2^(-1/3)
        r2 = Radius(1, 6)
        assert dominant_log_index(r2, 2, 2) == 2
        sym2 = kernel_symbol(fam21, 2, 1, r2)
        assert {sum(a) for (_w, a) in sym2.terms} == {4}
        # brute force p-power maximizer on > 50 rational radii
        count = 0
        for p, kappa in ((3, 1), (2, 2)):
            for b in range(2, 10):
                for a in range(1, b):
                    h = dominant_log_index(Radius(a, b), kappa, p)
                    if h is not None:
                        count += 1
                        small = kappa * Fraction(a, b) > Fraction(1, p - 1)
                        assert (h == 0) == small
        assert count >= 50
        # Critical exactly at r^kappa = p^(-1/(p-1))
        assert dominant_log_index(Radius(1, 2), 1, 3) is None
        assert dominant_log_index(Radius(1, 2), 2, 2) is None
        for eps_b in (3, 5, 7):
            assert dominant_log_index(Radius(1, eps_b), 1, 3) is not None


def test_c07_orthogonality(fam31, fam32):
    rng = random.Random(107)
    with criterion(7, "orthogonality of kernel generators, 100+ vectors"):
        assert orthogonality_check(fam31, Radius(2, 3), 100, rng)
        assert orthogonality_check(fam32, Radius(2, 3), 100, rng)


def test_c08_canonicalization_against_oracle(fam31_small):
    rng = random.Random(108)
    fam = fam31_small
    alg = fam.algebra
    field = alg.field
    r = Radius(2, 3)
    mprime = 2
    with criterion(8, "canonical quotient norm == lattice oracle, 50+ inputs"):
        span = [
            alg.mul(fam.gen(2, 1), alg.monomial(beta, 1))
            for beta in iter_multi_indices(2, 3)
        ]
        oracle = LatticeOracle(span, r)
        certified = 0
        tried = 0
        while certified < 50 and tried < 600:
            tried += 1
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                alpha = tuple(rng.randrange(0, 3) for _ in range(2))
                if sum(alpha) > 3:
                    continue
                terms[alpha] = field.uniformizer() ** rng.randrange(0, 2) * \
                    field.scalar(rng.randrange(1, 3))
            if not terms:
                continue
            lam = alg.from_terms(terms)
            try:
                form = canonicalize(fam, lam, r, mprime)
                q = quotient_norm(fam, lam, r, mprime)
            except (DegreeOverflow, PrecisionExhausted):
                continue
            certified += 1
            assert q == oracle.distance(lam)
            # idempotence on every certified output
            again = canonicalize(fam, form.as_distribution(), r, mprime)
            assert again.coeffs == form.coeffs
        assert certified >= 50, f"only {certified} certified inputs in {tried} tries"
        # the generators themselves reduce to zero within the residual budget
        for (i, j) in fam.pairs:
            form = canonicalize(fam, fam.gen(i, j), r, mprime)
            assert form.is_zero and form.residual_exponent >= mprime


def test_c09_quotient_domain_and_graded_dims(fam31, fam32, k3u2):
    rng = random.Random(109)
    with criterion(9, "quotient-norm multiplicativity (100 pairs); gr dimensions"):
        assert domain_smoke_test(fam31, Radius(2, 3), 100, rng, 12)
        kfield = k3u2.residue_field
        for lg in (fam31.lgspec, fam32.lgspec):
            assert quotient_iso_check(lg.n, lg.d, lg.vbars, kfield)


def test_c10_regular_sequences(fam31, fam32):
    with criterion(10, "regular-sequence certificates at h = 0 and h = 1"):
        for fam in (fam31, fam32):
            for h, r in ((0, Radius(2, 3)), (1, Radius(1, 4))):
                assert dominant_log_index(r, 1, 3) == h
                syms = kernel_symbol_family(fam, r)
                cap = 3**h + 3
                # every generator ordering is exercised inside the check
                assert check_regular_sequence(syms, cap)


def test_c11_restriction(q3, heis_alg):
    rng = random.Random(111)
    with criterion(11, "norm restriction exact at m = 1, 2; boundary probe"):
        big = DistAlgebra(abelian(1, p=3), q3, 18)
        for r in (Radius(1, 8), Radius(1, 3), Radius(5, 10 + 1)):
            assert len(restriction_check(big, 1, r, 12, rng)) == 12
        for r in (Radius(1, 9), Radius(1, 20)):
            assert len(restriction_check(big, 2, r, 12, rng)) == 12
        # a nonabelian group as well, at m = 1
        assert len(restriction_check(heis_alg, 1, Radius(1, 8), 8, rng)) == 8
        # boundary probe: r^(kappa(p-1)) < 1/p strictly
        for r in (Radius(2, 3), Radius(19, 20)):
            with pytest.raises(HypothesisFailed):
                restriction_check(big, 1, r, 1, rng)
            actual, expected = boundary_probe(big, r)
            assert actual == expected == 1 + r.exponent


def test_c12_orthogonal_bases(q3, q2):
    rng = random.Random(112)
    with criterion(12, "orthogonal bases b'^a b^b at m in {1,2}, p in {2,3}"):
        from padicdist import orthogonal_system_check, step_monomial

        for p, field in ((3, q3), (2, q2)):
            for m in (1, 2):
                N = 3 * p**m - 1
                alg = DistAlgebra(abelian(1, p=p), field, N)
                r = Radius(1, 2 * p**m)
                system = []
                expected = {}
                for a in range(N // p**m + 1):
                    for b in range(p**m):
                        if p**m * a + b > N:
                            continue
                        t = alg.mul(step_monomial(alg, (a,), m), alg.monomial((b,), 1))
                        expected[len(system)] = (p**m * a + b,)
                        system.append(t)
                out = orthogonal_system_check(system, r, 20, rng)
                assert out["iota"] == expected and out["basis"]


def test_c13_coset_conditions(heis, heis2, k3u2):
    rng = random.Random(113)
    with criterion(13, "coset conditions on all built-in transversals"):
        groups = [
            abelian(2, p=3), heis, heis2,
            o_additive(k3u2, 1).restrict(), o_additive(k3u2, 2).restrict(),
        ]
        for lat in groups:
            rep = coset_conditions(lower_p_transversal(lat, 1), rng)
            assert rep["index"] == lat.p**lat.d
            assert rep["invertible_in_K"]
        # a deeper step on a small group
        rep = coset_conditions(lower_p_transversal(abelian(1, p=3), 2), rng)
        assert rep["index"] == 9


def test_c14_norm_transfer(k3u2, k2u2):
    rng = random.Random(114)
    with criterion(14, "norm transfer exact on step monomials, m <= 3, p in {2,3}"):
        for field, delta in ((k3u2, Radius(2, 3)), (k2u2, Radius(3, 4))):
            lg = o_additive(field, 1)
            for m in (1, 2, 3):
                recs = norm_transfer_check(lg, delta, m, 6, rng)
                assert recs
                for rec in recs:
                    if rec["monomial"]:
                        assert rec["certified_equal"] and rec["offset"] == 0


def test_c15_finite_rank(k3u2):
    rng = random.Random(115)
    kfield = k3u2.residue_field
    with criterion(15, "finite-rank quotient equals product of degrees, 20+ inputs"):
        checked = 0
        while checked < 20:
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
            checked += 1
