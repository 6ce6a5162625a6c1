"""Lower-p-series subalgebras: restriction, orthogonal systems and transfer.

The m-th step subalgebra (m >= 0; a negative m is refused with
InvalidArgument) is generated by b'_i = (1 + b_i)^(p^m) - 1.  The norm of
the ambient algebra restricts on it to the intrinsic norm at the radius
r^(p^m) whenever r^(kappa (p^m - 1)) > p^(-1); outside that range the
generator norm flips to |p| r^kappa, which ``boundary_probe`` reports.
The p-power-root radius family delta^(1/p^m) transfers the quotient norm
of a locally analytic group to the intrinsic norm of a deep step; the
transfer check certifies exact exponent equality on the step-generator
monomial sublattice through a nonvanishing-symbol certificate in the
graded quotient, and reports two-sided exponent data for general
combinations.  Norms are compared as the exponents q of p^(-q) that
``Distribution.norm`` returns, and the orthogonal-system trials run on
the int keys of the radius's filtration (``DistAlgebra.symbol_context``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from operator import mul

from .distalg import DistAlgebra, Distribution, _peak
from .errors import (
    ConditionFailed,
    CounterexampleFound,
    DegreeOverflow,
    HypothesisFailed,
    InjectivityFailed,
    InvalidArgument,
    UniqueAttainmentFailed,
)
from .grading import symbol_class_nonzero
from .groups import GroupElement, _joined, require_step
from .indices import iter_multi_indices, sparse_sum, unit_index
from .radii import dominant_log_index, radius_root


def step_generator(algebra, i, m):
    """b'_i = (1 + b_i)^(p^m) - 1, expanded exactly
    (``DistAlgebra.binomial_series``)."""
    require_step(m)
    q = algebra.lattice.p**m
    if q > algebra.N:
        raise DegreeOverflow(
            f"step generator needs degree {q} > N = {algebra.N}", required_degree=q
        )
    return algebra.binomial_series(i, q)


def step_monomial(algebra, alpha, m):
    """The ordered monomial b'_1^(alpha_1) ... b'_d^(alpha_d)."""
    require_step(m)
    p = algebra.lattice.p
    if p**m * sum(alpha) > algebra.N:
        raise DegreeOverflow(
            f"step monomial degree {p**m * sum(alpha)} > N = {algebra.N}",
            required_degree=p**m * sum(alpha),
        )
    out = algebra.one()
    for i, a in enumerate(alpha):
        gen = step_generator(algebra, i, m) if a else None
        for _ in range(a):
            out = algebra.mul(out, gen)
    return out


def _step_combination(algebra, support, m, s):
    """The combination sum c b'^alpha of step-m monomials over the {alpha: c}
    ``support``, and its intrinsic exponent min v(c)/e + kappa |alpha| s,
    for the intrinsic norm of the step at the radius exponent s."""
    big = sparse_sum(chain.from_iterable(
        step_monomial(algebra, alpha, m).scale(c).coeffs.items() for alpha, c in support.items()
    ))
    kappa = algebra.kappa
    intrinsic = min(c.abs_exponent() + kappa * sum(alpha) * s for alpha, c in support.items())
    return Distribution._of(algebra, big), intrinsic


def restriction_hypothesis(r, m, kappa, p):
    """r^(kappa (p^m - 1)) > p^(-1), as an exact rational comparison."""
    require_step(m)
    return kappa * (p**m - 1) * r.exponent < 1


def boundary_probe(algebra, r):
    """Generator norm at a radius violating the m = 1 hypothesis.

    Returns (actual exponent of ||b'_1||_r, expected exponent of |p| r^kappa).
    """
    gen = step_generator(algebra, 0, 1)
    return gen.norm(r), 1 + algebra.kappa * r.exponent


def restriction_check(algebra, m, r, samples, rng):
    """Exact agreement of the restricted norm with the intrinsic step norm.

    Samples combinations of up to three step-generator monomials b'^alpha
    (alpha_k <= max(1, N // p^m), p^m |alpha| <= N), expands them in the
    ambient algebra and compares ||.||_r with the intrinsic formula at the
    radius exponent p^m * (a/b), exactly.
    Raises HypothesisFailed outside the admissible radius range
    (``boundary_probe`` measures the generator norm there), and
    CounterexampleFound on any norm disagreement.
    """
    require_step(m)
    lat = algebra.lattice
    p, kappa = lat.p, algebra.kappa
    if not restriction_hypothesis(r, m, kappa, p):
        raise HypothesisFailed(f"radius violates r^(kappa(p^m - 1)) > 1/p at m = {m}")
    sub_exponent = (p**m) * r.exponent
    cap = max(1, algebra.N // p**m)
    records = []
    field = algebra.field
    for _ in range(samples):
        support = {}
        for _t in range(rng.randrange(1, 4)):
            alpha = tuple(rng.randrange(0, cap + 1) for _ in range(lat.d))
            if p**m * sum(alpha) > algebra.N:
                continue
            coeff = field.uniformizer() ** rng.randrange(0, 3) * field.scalar(
                rng.randrange(1, p)
            )
            support[alpha] = coeff
        if not support:
            support[(0,) * lat.d] = field.one()
        big, intrinsic = _step_combination(algebra, support, m, sub_exponent)
        ambient = big.norm(r)
        if ambient != intrinsic:
            raise CounterexampleFound(
                "restriction norm mismatch",
                witness=(support, ambient, intrinsic),
            )
        records.append({"support_size": len(support), "exponent": ambient})
    return records


def orthogonal_system(algebra, m):
    """The nonzero products b'^alpha b^beta, every beta_k < p^m, of degree <= N.

    The degree is p^m |alpha| + |beta|.  ``iter_multi_indices`` is graded,
    so bounding |beta| by N - p^m |alpha| lists the same beta in the same
    order as a larger bound (N, or min(d (p^m - 1), N)) with that filter.
    """
    require_step(m)
    q = algebra.lattice.p**m
    system = []
    for alpha in iter_multi_indices(algebra.d, algebra.N // q):
        base = step_monomial(algebra, alpha, m)
        for beta in iter_multi_indices(algebra.d, algebra.N - q * sum(alpha)):
            if max(beta) < q:
                t = algebra.mul(base, algebra.monomial(beta, 1))
                if not t.is_zero:
                    system.append(t)
    return system


def orthogonal_system_check(system, r, trials, rng):
    """Orthogonality certificate for a finite system of distributions.

    Each element must attain its norm at a unique support index and the
    induced index map must be injective; then the max formula is verified
    on random coefficient vectors, each coefficient unit * pi^v with
    0 <= v <= 2.  Returns {"iota": ..., "basis": ...},
    where "basis" reports whether the attainment indices exhaust the
    degree-N simplex.

    The trials run in ints, on the keys of ``algebra.symbol_context(r)``.
    Each element's norm key is read once.  Its coefficients, over one common
    denominator, and pi^v for v <= 2, over another, are packed
    (``FieldSpec._pack``), and the packed coefficients are laid out once
    as one column per support index alpha: those of the elements with a
    term at alpha, and the indices of those elements.  A trial draws
    z_j = u pi^v per element j, z = u P with P the packed pi^v, and forms
    expected = min_j (b v_j + key_j) and the attaining set I of the j
    that reach it.  Only the columns iota(i), i in I, are summed: one
    C-level sum of products over the column, read back as a sum of packed
    products (``FieldSpec._unpacked``) and valued (``FieldSpec._valuation``).
    That decides the max formula exactly.  A term z_j c of column alpha
    has key >= b v_j + key_j >= expected, with equality only when j is in
    I and alpha = iota(j), the unique attaining index of j; so no column
    reads below expected, and at iota(i) exactly one term has the
    expected key, so that column reads expected.  An attaining column
    that reads otherwise can only come from broken arithmetic and is
    refused with CounterexampleFound, its least key the witness.  A slot
    of a column sum is bounded by len(system) (p - 1) [K:Q_p] max|x|
    max|y|, x and y the packed coordinates of the coefficients and of
    the powers of pi, which sets the slot width as in ``DistAlgebra.mul``.
    """
    if not system:
        return {"iota": {}, "basis": False}
    algebra = system[0].algebra
    ctx = algebra.symbol_context(r)
    iota, keys = {}, []
    for idx, t in enumerate(system):
        key, leads = ctx.leading(t)
        if len(leads) != 1:
            raise UniqueAttainmentFailed(
                f"element {idx} attains its norm at {len(leads)} indices"
            )
        iota[idx] = leads[0]
        keys.append(key)
    if len(set(iota.values())) != len(system):
        raise InjectivityFailed("attainment indices collide")
    field = algebra.field
    p, pi = field.p, field.uniformizer()
    den = math.lcm(*(c.den for t in system for c in t.coeffs.values()))
    terms = [[(alpha, c.num, den // c.den) for alpha, c in t.coeffs.items()] for t in system]
    powers = (field.one(), pi, pi * pi)
    pden = math.lcm(*(s.den for s in powers))
    pterms = [(v, s.num, pden // s.den) for v, s in enumerate(powers)]
    bound = len(system) * (p - 1) * field.degree * max(map(_peak, terms)) * _peak(pterms)
    width = bound.bit_length() + 1
    packed_powers = [P for _, P in field._pack(pterms, width)]
    columns = {}  # alpha -> (packed coefficients at alpha, their elements)
    for i, t in enumerate(terms):
        for alpha, x in field._pack(t, width):
            xs, idx = columns.setdefault(alpha, ([], []))
            xs.append(x)
            idx.append(i)
    b, w = ctx.b, ctx.w
    vden = den * pden * field._den  # the denominator of an unpacked sum
    lead_columns = [(*columns[alpha], w * sum(alpha)) for alpha in iota.values()]
    for _ in range(trials):
        z, trial_keys = [], []
        for key in keys:
            v = rng.randrange(0, 3)
            z.append(rng.randrange(1, p) * packed_powers[v])
            trial_keys.append(b * v + key)
        expected = min(trial_keys)
        attaining = [lead_columns[i] for i, k in enumerate(trial_keys) if k == expected]
        sums = [sum(map(mul, xs, map(z.__getitem__, idx))) for xs, idx, _ in attaining]
        got = min(b * field._valuation(vec, vden) + wn
                  for vec, (_, _, wn) in zip(field._unpacked(sums, width), attaining))
        if got != expected:
            raise CounterexampleFound(
                "orthogonal system max formula failed",
                witness=(iota, ctx.unscale(got), ctx.unscale(expected)),
            )
    full = set(iter_multi_indices(algebra.d, algebra.N))
    return {"iota": iota, "basis": set(iota.values()) == full}


# ---------------------------------------------------------------------------
# coset systems

@dataclass
class CosetSystem:
    """Representatives of the step-subgroup cosets, identity first."""

    lattice: object
    m: int
    reps: list

    @property
    def index(self):
        return len(self.reps)


def lower_p_transversal(lattice, m):
    """The canonical transversal {h^beta : beta < p^m componentwise}."""
    require_step(m)
    reps = [
        lattice.element_second(beta)
        for beta in product(range(lattice.p**m), repeat=lattice.d)
    ]
    return CosetSystem(lattice, m, reps)


def _coset_key(point, p, m):
    """The coset modulo the level-m step subgroup of the element with
    second-kind coordinates n_k / den, for the point (nums, den), one
    modular reduction per coordinate: it is n_k den^-1 mod p^m, which is
    n_k mod p^m when den = 1, so the element lies in the step subgroup
    exactly when the key is zero.  A den divisible by p has no key and is
    refused with InvalidArgument."""
    nums, den = point
    if den % p == 0:
        raise InvalidArgument(
            f"coset keys need p-integral coordinates; {nums} over {den} has p = {p} "
            "in a denominator"
        )
    mod = p**m
    inv = pow(den, -1, mod)
    return tuple([n * inv % mod for n in nums])


def coset_conditions(cs, rng):
    """Group-level crossed-product conditions for a coset system.

    Verifies normality of the step subgroup (12 sampled step-subgroup
    elements conjugated by each representative), closure of
    representatives under products and inverses, and reports the index t
    with its absolute value.  Raises ConditionFailed naming the violated
    clause.  Cosets and subgroup membership are read off ``_coset_key``.

    The group law runs in batches over (nums, den) points
    (``SecondKindLaw.reduced_all``), one representative's batch at a
    time, so memory stays that of one row of t points: the inverses of
    all representatives in one call; per representative g, its 12
    conjugates g^-1 (h g) in two calls; then, per representative g_i, the
    products g_i g_j over all j and its inverse in one call, and each
    product's check g_k^-1 (g_i g_j) against the representative g_k of
    its coset in one more.  Checks, failure messages, the first failure
    reported and the draws from ``rng`` are those of a loop over single
    elements, except that a representative's 12 samples are all drawn
    before the first is checked, and that a representative which is not
    an element of ``cs.lattice`` is refused with InvalidArgument before
    any coset key is read.
    """
    lat = cs.lattice
    p, m, d = lat.p, cs.m, lat.d
    mod = p**m
    law = lat.second_kind_law

    def in_subgroup(point):
        return not any(_coset_key(point, p, m))

    if not cs.reps or any(cs.reps[0].nums):
        raise ConditionFailed("transversal must start with the identity")
    if not all(isinstance(g, GroupElement) and g.lattice is lat for g in cs.reps):
        raise InvalidArgument("a product needs two elements of the same lattice")
    points = [(g.nums, g.den) for g in cs.reps]
    keys = {}
    for idx, point in enumerate(points):
        k = _coset_key(point, p, m)
        if k in keys:
            raise ConditionFailed(f"representatives {keys[k]} and {idx} share a coset")
        keys[k] = idx
    inverses = lat.second_kind_inverse.reduced_all(points)

    for idx, point in enumerate(points):
        hs = [(tuple(mod * rng.randrange(0, p**2) for _ in range(d)), 1) for _ in range(12)]
        moved = law.reduced_all([_joined(h, point) for h in hs])
        if not all(map(in_subgroup, law.reduced_all([_joined(inverses[idx], x) for x in moved]))):
            raise ConditionFailed(f"normality fails at representative {idx}")

    t = cs.index
    for i, point in enumerate(points):
        row = law.reduced_all([_joined(point, q) for q in points]) + [inverses[i]]
        found = []
        for x in row:
            k = keys.get(_coset_key(x, p, m))
            if k is None:
                break
            found.append(k)
        checks = law.reduced_all([_joined(inverses[k], x) for k, x in zip(found, row)])
        j = next((j for j, y in enumerate(checks) if not in_subgroup(y)), len(found))
        if j < t:
            raise ConditionFailed(f"product of reps {i}, {j} misses the transversal")
        if j == t:
            raise ConditionFailed(f"inverse of rep {i} misses the transversal")

    return {
        "index": t,
        "index_abs_exponent": Fraction(m * d),
        "p_divides_index": m * d > 0,
        "invertible_in_K": True,  # characteristic zero
    }


# ---------------------------------------------------------------------------
# the p-power-root radius family and norm transfer

def norm_transfer_check(lgspec, delta, m, samples, rng):
    """Transfer of the quotient norm to the level-(m + kappa - 1) step.

    For each sampled combination of step-generator monomials in the
    first-row variables (up to two, exponents 0 or 1, so the algebra has
    N = p^level d) the check computes (i) the ambient norm of its
    expansion at r = delta^(1/p^level), (ii) the intrinsic norm at delta
    in the step algebra, and (iii) a nonvanishing-symbol certificate in
    the graded quotient.  When the certificate holds, the restricted
    quotient norm equals the ambient norm, and exact equality with the
    intrinsic exponent is asserted; records carry both exponents so
    equivalence offsets are visible either way.
    """
    require_step(m)
    field = lgspec.field
    p, kappa = field.p, field.kappa
    level = m + kappa - 1  # r^(p^level) = delta
    r = radius_root(delta, level, p, kappa)
    if (p**level) * r.exponent != delta.exponent:
        raise CounterexampleFound("root-family radius misses delta", witness=(r, delta))
    if not restriction_hypothesis(r, m, kappa, p):
        raise HypothesisFailed("the root-family radius violates the restriction hypothesis")

    q = p**level
    N = q * lgspec.d
    lattice = lgspec.restrict()
    algebra = DistAlgebra(lattice, field, N)

    h = dominant_log_index(r, kappa, p)
    if h is None:
        raise HypothesisFailed("root-family radius is critical")

    records = []
    for trial in range(samples):
        if trial == 0:
            support = {unit_index(lgspec.d, 0): field.one()}
        else:
            support = {}
            for _t in range(rng.randrange(1, 3)):
                alpha = tuple(rng.randrange(0, 2) for _ in range(lgspec.d))
                coeff = field.uniformizer() ** rng.randrange(0, 2) * field.scalar(
                    rng.randrange(1, p)
                )
                support[alpha] = coeff
        embed = lgspec.from_canonical_index
        big, intrinsic = _step_combination(
            algebra, {embed(alpha): c for alpha, c in support.items()}, level, delta.exponent
        )
        ambient = big.norm(r)
        certificate = symbol_class_nonzero(
            big.principal_symbol(r), h, lgspec.vbars, lgspec.n, lgspec.d
        )
        monomial_case = len(support) == 1
        if monomial_case and (not certificate or ambient != intrinsic):
            raise CounterexampleFound(
                "norm transfer failed on a step-generator monomial",
                witness=(support, ambient, intrinsic, certificate),
            )
        records.append(
            {
                "monomial": monomial_case,
                "ambient_exponent": ambient,
                "intrinsic_exponent": intrinsic,
                "certified_equal": bool(certificate),
                "offset": intrinsic - ambient,
            }
        )
    return records
