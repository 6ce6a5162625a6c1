"""Verification suites: deterministic sweeps over the library's claims.

Each suite draws its samples from a generator seeded by (seed, suite
name), so reports are reproducible record by record.  A failing record
never stops the suite; it is reported with a reproduction command line.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from . import towers
from .distalg import DistAlgebra
from .errors import DegreeOverflow, InvalidArgument, PadicError
from .grading import (
    check_regular_sequence,
    eliminate_to_first_row,
    finite_rank_quotient,
    quotient_iso_check,
    SymbolContext,
)
from .groups import LGroupSpec, check_p_valuation, check_powerful_commutator
from .indices import unit_index
from .quotient import (
    build_kernel_family,
    canonicalize,
    domain_smoke_test,
    kernel_symbol,
    kernel_symbol_family,
    orthogonality_check,
)
from .radii import Radius, dominant_log_index, is_h0_radius
from .report import CheckRecord, Report
from .samplers import random_distribution, random_element

INF = math.inf


class SuiteEnv:
    """Shared immutable context for one run: field, group, algebra, tables."""

    def __init__(self, config):
        self.config = config
        self.field = config.field
        self.group = config.group
        self._algebra = None
        self._family = None

    @property
    def is_lgroup(self):
        return isinstance(self.group, LGroupSpec)

    @property
    def lattice(self):
        if self.is_lgroup:
            return self.algebra.lattice
        return self.group

    @property
    def algebra(self):
        if self._algebra is None:
            if self.is_lgroup:
                self._algebra = self.family.algebra
            else:
                self._algebra = DistAlgebra(
                    self.group, self.field, self.config.truncation,
                    cache_dir=self.config.sc_cache,
                )
        return self._algebra

    @property
    def family(self):
        if not self.is_lgroup:
            return None
        if self._family is None:
            self._family = build_kernel_family(
                self.group, self.config.truncation, cache_dir=self.config.sc_cache
            )
        return self._family

    def rng(self, suite):
        return random.Random(f"{self.config.seed}:{suite}")

    def repro(self, suite):
        return f"padicdist run --suite {suite} --seed {self.config.seed}"


def _record(env, suite, name, fn, expected=""):
    """Run one check and time it; any exception becomes a failing record."""
    start = time.perf_counter()
    try:
        passed, computed = True, str(fn())
    except Exception as exc:
        passed, computed = False, f"{type(exc).__name__}: {exc}"
    return CheckRecord(suite, name, passed, expected, computed, repro=env.repro(suite),
                       elapsed_ms=(time.perf_counter() - start) * 1000)


# ---------------------------------------------------------------------------

def suite_pvaluation(env):
    suite = "pvaluation"
    rng = env.rng(suite)
    lat = env.lattice
    records = []
    kappa = lat.kappa
    for i in range(lat.d):
        records.append(_record(
            env, suite, f"omega(h_{i + 1}) = kappa = {kappa}",
            lambda i=i: _expect(lat.generator(i).p_valuation(), kappa),
            expected=str(kappa),
        ))
    pairs = [
        (random_element(lat, rng), random_element(lat, rng))
        for _ in range(env.config.options["pairs"])
    ]
    records.append(_record(
        env, suite, f"p-valuation axioms on {len(pairs)} pairs",
        lambda: _expect(check_p_valuation(pairs), []),
        expected="no violations",
    ))
    return records


def suite_pro2(env):
    suite = "pro2"
    records = []
    lat = env.lattice
    if lat.p != 2:
        return [CheckRecord(suite, "requires p = 2", True, detail="skipped (p != 2)")]
    level = env.config.options["pro2_level"]
    for i in range(1, level):
        for j in range(1, level):
            if i + j + 1 > level:
                continue
            records.append(_record(
                env, suite, f"[P_{i}, P_{j}] <= P_{i + j + 1} at level {level}",
                lambda i=i, j=j: check_powerful_commutator(lat, level, i, j),
                expected="exhaustive, no counterexample",
            ))
    return records


def suite_norms(env):
    suite = "norms"
    rng = env.rng(suite)
    alg = env.algebra
    records = []
    records.append(_record(
        env, suite, f"structure-constant valuation bound at N = {alg.N}",
        alg.table.check_filtration_bound,
        expected=f"v_p(c) >= {alg.kappa}(|a|+|b|-|g|)",
    ))
    pairs = []
    for _ in range(env.config.options["pairs"]):
        lam = random_distribution(alg, rng, max_degree=alg.N // 2)
        mu = random_distribution(alg, rng, max_degree=alg.N - alg.N // 2)
        if lam.degree + mu.degree <= alg.N:
            pairs.append((lam, mu, alg.mul(lam, mu)))
    for r in env.config.radii:
        def check(r=r):
            for lam, mu, prod in pairs:
                want = lam.norm(r) + mu.norm(r)
                got = prod.norm(r)
                if want != got:
                    raise PadicError(f"norm not multiplicative: {want} vs {got}")
            return f"{len(pairs)} pairs"
        records.append(_record(
            env, suite, f"norm multiplicativity at r = p^-{r.a}/{r.b}", check,
            expected="exponents add",
        ))
    def delta_checks():
        r = env.config.radii[0]
        for _ in range(10):
            g = random_element(env.lattice, rng)
            h = random_element(env.lattice, rng)
            dg, dh = alg.delta(g), alg.delta(h)
            if alg.mul(dg, dh).coeffs != alg.delta(g * h).coeffs:
                raise PadicError("delta is not a homomorphism up to degree N")
            if dg.norm(r) != 0:
                raise PadicError("||delta_g|| != 1")
            aug = dg - alg.one()
            if not aug.is_zero and aug.norm(r) < alg.kappa * r.exponent:
                raise PadicError("||delta_g - 1|| > r^kappa")
        return "10 samples"
    records.append(_record(env, suite, "delta embedding", delta_checks,
                           expected="homomorphism, unit norm"))
    return records


def suite_symbols(env):
    suite = "symbols"
    rng = env.rng(suite)
    alg = env.algebra
    p, kappa = alg.lattice.p, alg.kappa
    records = []
    for r in env.config.radii:
        def multiplicative(r=r):
            count = 0
            for _ in range(env.config.options["trials"]):
                lam = random_distribution(alg, rng, max_degree=alg.N // 2)
                mu = random_distribution(alg, rng, max_degree=alg.N - alg.N // 2 - 1)
                if lam.is_zero or mu.is_zero or lam.degree + mu.degree > alg.N:
                    continue
                left = alg.mul(lam, mu).principal_symbol(r)
                right = lam.principal_symbol(r) * mu.principal_symbol(r)
                if left != right:
                    raise PadicError("symbol not multiplicative")
                count += 1
            return f"{count} pairs"
        records.append(_record(
            env, suite, f"symbol multiplicativity at r = p^-{r.a}/{r.b}",
            multiplicative, expected="sigma(lm) = sigma(l)sigma(m)",
        ))

    def dominant_sweep():
        grid = 0
        for b in range(2, 14):
            for a in range(1, b):
                r = Radius(a, b)
                h = dominant_log_index(r, kappa, p)
                if is_h0_radius(r, kappa, p) and h != 0:
                    raise PadicError(f"h != 0 below the critical threshold at {r}")
                grid += 1
        crit = Radius.from_fraction(Fraction(1, kappa * (p - 1)))
        if dominant_log_index(crit, kappa, p) is not None:
            raise PadicError("critical radius not detected")
        return f"{grid} radii + critical point"
    records.append(_record(env, suite, "dominant log index sweep", dominant_sweep,
                           expected="h = 0 iff r^k < p^(-1/(p-1)); tie at threshold"))

    def log_norm():
        for r in env.config.radii:
            if is_h0_radius(r, kappa, p):
                want = kappa * r.exponent
                got = alg.log_series(0).norm(r)
                if got != want:
                    raise PadicError(f"||log(1+b)||_r exponent {got} != {want}")
        return "ok"
    records.append(_record(env, suite, "log series norm r^kappa", log_norm,
                           expected="exponent = kappa a/b"))
    return records


def suite_quotient(env):
    suite = "quotient"
    records = []
    if not env.is_lgroup:
        return [CheckRecord(suite, "requires a locally analytic group", True,
                            detail="skipped (plain lattice)")]
    fam = env.family
    rng = env.rng(suite)
    mprime = env.config.residual_precision
    h0_radii = [r for r in env.config.radii
                if is_h0_radius(r, fam.algebra.kappa, env.field.p)]
    if not h0_radii:
        return [CheckRecord(suite, "needs a radius with r^kappa < p^(-1/(p-1))",
                            False, repro=env.repro(suite))]
    r = h0_radii[0]
    for (i, j) in fam.pairs:
        records.append(_record(
            env, suite, f"symbol of generator ({i},{j}) matches closed form",
            lambda i=i, j=j: kernel_symbol(fam, i, j, r),
        ))
    records.append(_record(
        env, suite, "orthogonality of the kernel generators",
        lambda: orthogonality_check(fam, r, env.config.options["trials"], rng),
    ))

    def reduce_generator():
        for (i, j) in fam.pairs:
            form = canonicalize(fam, fam.gen(i, j), r, mprime)
            if not form.is_zero or form.residual_exponent < mprime:
                raise PadicError(f"generator ({i},{j}) did not reduce to 0")
        return f"residual <= p^-{mprime}"
    records.append(_record(env, suite, "generators canonicalize to zero",
                           reduce_generator))

    def reduce_bij(fam):
        lg = fam.lgspec
        for (i, j) in fam.pairs:
            b_ij = fam.algebra.generator(lg.flat_index(i, j))
            form = canonicalize(fam, b_ij, r, mprime)
            # G_ij lies in the kernel, so 1 + b_ij = (1 + b_1j)^(v_i) in the
            # quotient; the whole form is compared, not its leading term
            # vbar_i b_1j, since a v_i of positive valuation has vbar_i = 0
            series = fam.algebra.binomial_series(lg.flat_index(1, j), lg.v_basis[i - 1])
            gap = (form.as_distribution() - series).norm(r)
            if gap < mprime:
                raise PadicError(
                    f"canonical form of b_{i}{j} differs from (1 + b_1{j})^(v_{i}) - 1 "
                    f"by p^-({gap}), above p^-{mprime}"
                )
            form2 = canonicalize(fam, form.as_distribution(), r, mprime)
            if form2.coeffs != form.coeffs:
                raise PadicError("canonicalization is not idempotent")
        return f"every b_ij within p^-{mprime}, idempotent"

    def reduce_bij_sized():
        # reducing the canonical forms again can need more degrees than the
        # suite's N; canonicalize names a truncation above the current one,
        # and the record runs again on a kernel family of each named
        # truncation until the reduction fits
        wider = fam
        while True:
            try:
                done = reduce_bij(wider)
            except DegreeOverflow as exc:
                wider = build_kernel_family(env.group, exc.required_degree,
                                            cache_dir=env.config.sc_cache)
                continue
            return done if wider is fam else f"{done} at N = {wider.algebra.N}"
    records.append(_record(env, suite, "b_ij reduces to (1 + b_1j)^(v_i) - 1 within p^-M'",
                           reduce_bij_sized))

    records.append(_record(
        env, suite, "quotient-norm multiplicativity (integral domain smoke)",
        lambda: domain_smoke_test(fam, r, env.config.options["trials"], rng,
                                  max(12, 3 * mprime)),
    ))

    def iso_dims():
        lg = fam.lgspec
        return quotient_iso_check(lg.n, lg.d, lg.vbars, env.field.residue_field)
    records.append(_record(env, suite, "graded quotient dimension counts",
                           iso_dims, expected="polynomial ring in d variables"))
    return records


def suite_towers(env):
    suite = "towers"
    rng = env.rng(suite)
    alg = env.algebra
    lat = env.lattice
    p, kappa = lat.p, alg.kappa
    records = []
    for m in (1, 2):
        usable = [r for r in env.config.radii
                  if towers.restriction_hypothesis(r, m, kappa, p)
                  and p**m <= alg.N]
        for r in usable[:2]:
            records.append(_record(
                env, suite, f"norm restriction at m = {m}, r = p^-{r.a}/{r.b}",
                lambda m=m, r=r: len(towers.restriction_check(alg, m, r, 8, rng)),
                expected="exact equality of exponents",
            ))
    def probe():
        bad = next((r for r in env.config.radii if is_h0_radius(r, kappa, p)), None)
        if bad is None:
            return "no violating radius configured"
        actual, expected = towers.boundary_probe(alg, bad)
        return f"||b'||_r exponent = {_expect(actual, expected)}"
    records.append(_record(env, suite, "boundary probe ||b'|| = |p| r^kappa", probe))

    def orthogonal_basis():
        m = 1
        r = next((x for x in env.config.radii
                  if towers.restriction_hypothesis(x, m, kappa, p)), None)
        if r is None or p**m > alg.N:
            return "skipped (no admissible radius)"
        system = towers.orthogonal_system(alg, m)
        out = towers.orthogonal_system_check(system, r, env.config.options["trials"], rng)
        return f"{len(system)} elements, basis = {out['basis']}"
    records.append(_record(env, suite, "orthogonal basis b'^a b^b", orthogonal_basis))

    records.append(_record(
        env, suite, "coset conditions for the m = 1 transversal",
        lambda: towers.coset_conditions(towers.lower_p_transversal(lat, 1), rng),
    ))

    if env.is_lgroup:
        delta = next((r for r in env.config.radii if is_h0_radius(r, kappa, p)), None)
        if delta is not None:
            for m in range(1, env.config.options["transfer_m"] + 1):
                records.append(_record(
                    env, suite, f"norm transfer at m = {m}",
                    lambda m=m: _transfer_summary(
                        towers.norm_transfer_check(env.group, delta, m, 6, rng)
                    ),
                    expected="exact equality on step monomials",
                ))
    return records


def _transfer_summary(recs):
    if any(r["monomial"] and (r["offset"] != 0 or not r["certified_equal"])
           for r in recs):
        raise PadicError("monomial transfer mismatch")
    return f"{len(recs)} samples, offsets {sorted({str(r['offset']) for r in recs})}"


def suite_grading(env):
    suite = "grading"
    rng = env.rng(suite)
    records = []
    kfield = env.field.residue_field
    if env.is_lgroup:
        fam = env.family
        p, kappa = env.field.p, env.field.kappa
        for h in (0, 1):
            def regseq(h=h):
                r = _radius_with_dominant_index(h, kappa, p)
                return check_regular_sequence(kernel_symbol_family(fam, r))
            records.append(_record(
                env, suite, f"regular sequence certificate at h = {h}",
                regseq, expected="all orderings",
            ))
        def image_check():
            lg = fam.lgspec
            r = _radius_with_dominant_index(0, env.field.kappa, env.field.p)
            ctx = SymbolContext(env.field, env.field.kappa, r.exponent,
                                tuple(f"X1{j}" for j in range(1, lg.d + 1)))
            for (i, j) in fam.pairs:
                b_ij = fam.algebra.generator(lg.flat_index(i, j))
                img = eliminate_to_first_row(
                    b_ij.principal_symbol(r), lg.n, lg.d, lg.vbars, ctx
                )
                vbar = lg.vbars[i - 1]
                want = {} if vbar.is_zero else {(0, unit_index(lg.d, j - 1)): vbar}
                if img.terms != want:
                    raise PadicError(f"image of sigma(b_{i}{j}) is not vbar_{i} X_1{j}")
            return "X_ij -> vbar_i X_1j"
        records.append(_record(env, suite, "elimination image of sigma(b_ij)",
                               image_check))

    def ranks():
        for _ in range(env.config.options["trials"] // 2):
            d = rng.randrange(1, 4)
            polys = []
            expect = 1
            for _j in range(d):
                deg = rng.randrange(1, 5)
                expect *= deg
                coeffs = [
                    {rng.randrange(-2, 3): kfield.elem(rng.randrange(0, kfield.p))}
                    for _t in range(deg)
                ]
                coeffs.append({rng.randrange(-1, 2): kfield.elem(rng.randrange(1, kfield.p))})
                polys.append(coeffs)
            got = finite_rank_quotient(polys)
            if got != expect:
                raise PadicError(f"rank {got} != product of degrees {expect}")
        return "rank = product of degrees"
    records.append(_record(env, suite, "finite-rank quotients", ranks))
    return records


def _radius_with_dominant_index(h, kappa, p):
    """A radius whose dominant log index is exactly h (searched, verified)."""
    for b in range(2, 200):
        for a in range(1, b):
            r = Radius(a, b)
            if dominant_log_index(r, kappa, p) == h:
                return r
    raise InvalidArgument(f"no radius with dominant index {h} found")


def _expect(value, want):
    if value != want:
        raise PadicError(f"expected {want}, got {value}")
    return value


SUITES = {
    "pvaluation": suite_pvaluation,
    "pro2": suite_pro2,
    "norms": suite_norms,
    "symbols": suite_symbols,
    "quotient": suite_quotient,
    "towers": suite_towers,
    "grading": suite_grading,
}


def run_suite(config):
    """Execute the configured suites and assemble the report."""
    env = SuiteEnv(config)
    report = Report(config_echo=config.echo)
    for name in config.suites:
        for record in SUITES[name](env):
            report.add(record)
    return report
