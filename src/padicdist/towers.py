"""Lower-p-series subalgebras: restriction, orthogonal systems and transfer.

The m-th step subalgebra is generated by b'_i = (1 + b_i)^(p^m) - 1.  The
norm of the ambient algebra restricts on it to the intrinsic norm at the
radius r^(p^m) whenever r^(kappa (p^m - 1)) > p^(-1); outside that range
the generator norm flips to |p| r^kappa, which the hypothesis probe
reports.  The p-power-root radius family delta^(1/p^m) transfers the
quotient norm of a locally analytic group to the intrinsic norm of a deep
step; the transfer check certifies exact exponent equality on the
step-generator monomial sublattice through a nonvanishing-symbol
certificate in the graded quotient, and reports two-sided exponent data
for general combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .distalg import DistAlgebra, ExponentScale, _peak
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
from .indices import iter_multi_indices
from .radii import radius_root

INF = math.inf


def step_generator(algebra, i, m):
    """b'_i = (1 + b_i)^(p^m) - 1, expanded exactly."""
    p = algebra.lattice.p
    q = p**m
    if q > algebra.N:
        raise DegreeOverflow(
            f"step generator needs degree {q} > N = {algebra.N}", required_degree=q
        )
    terms = {}
    for k in range(1, q + 1):
        terms[tuple(k if t == i else 0 for t in range(algebra.d))] = math.comb(q, k)
    return algebra.from_terms(terms)


def step_monomial(algebra, alpha, m):
    """The ordered monomial b'_1^(alpha_1) ... b'_d^(alpha_d)."""
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


def restriction_hypothesis(r, m, kappa, p):
    """r^(kappa (p^m - 1)) > p^(-1), as an exact rational comparison."""
    return kappa * (p**m - 1) * r.exponent < 1


def boundary_probe(algebra, r):
    """Generator norm at a radius violating the m = 1 hypothesis.

    Returns (actual exponent of ||b'_1||_r, expected exponent of |p| r^kappa).
    """
    gen = step_generator(algebra, 0, 1)
    return gen.norm(r).exponent, 1 + algebra.kappa * r.exponent


def restriction_check(algebra, m, r, samples, rng):
    """Exact agreement of the restricted norm with the intrinsic step norm.

    Samples combinations of up to three step-generator monomials b'^alpha
    (alpha_k <= max(1, N // p^m), p^m |alpha| <= N), expands them in the
    ambient algebra and compares ||.||_r with the intrinsic formula at the
    radius exponent p^m * (a/b), exactly.
    Raises HypothesisFailed with the boundary probe outside the admissible
    radius range, and CounterexampleFound on any norm disagreement.
    """
    lat = algebra.lattice
    p, kappa = lat.p, algebra.kappa
    if not restriction_hypothesis(r, m, kappa, p):
        actual, expected = boundary_probe(algebra, r)
        raise HypothesisFailed(
            f"radius violates r^(kappa(p^m - 1)) > 1/p at m = {m}",
            probe={"actual": actual, "expected": expected,
                   "matches": actual == expected},
        )
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
        big = algebra.zero()
        intrinsic = INF
        for alpha, c in support.items():
            big = big + step_monomial(algebra, alpha, m).scale(c)
            intrinsic = min(
                intrinsic, c.abs_exponent() + kappa * sum(alpha) * sub_exponent
            )
        ambient = big.norm(r).exponent
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

    The trials run in ints at the scale of ``ExponentScale``.  Each
    element's norm key is read once.  Its coefficients, over one common
    denominator, and pi^v for v <= 2, over another, are packed
    (``FieldSpec._pack``), and each packed coefficient times each packed
    pi^v is formed once, so a trial adds u P per support index of each
    element and each sum is read back as a sum of packed products
    (``FieldSpec._unpacked``).  A slot of such a sum is bounded by
    len(system) (p - 1) [K:Q_p] max|x| max|y|, x and y the packed
    coordinates of the coefficients and of the powers of pi, which sets
    the slot width as in ``DistAlgebra.mul``; the valuation of each
    coefficient of the combination is read off its unpacked sum.
    """
    if not system:
        return {"iota": {}, "basis": False}
    algebra = system[0].algebra
    scale = ExponentScale(algebra, r)
    iota, keys = {}, []
    for idx, t in enumerate(system):
        key, leads = scale.leading(t)
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
    packed = [[[(alpha, x * P) for alpha, x in field._pack(t, width)] for P in packed_powers]
              for t in terms]
    b, w = scale.b, scale.w
    vden = den * pden * field._den  # the denominator of an unpacked sum
    for _ in range(trials):
        acc = {}
        get = acc.get
        expected = INF
        for multiples, key in zip(packed, keys):
            v = rng.randrange(0, 3)
            u = rng.randrange(1, p)
            for alpha, x in multiples[v]:
                acc[alpha] = get(alpha, 0) + u * x
            expected = min(expected, b * v + key)
        got = min((b * field._valuation(vec, vden) + w * sum(alpha)
                   for alpha, vec in zip(acc, field._unpacked(acc.values(), width))),
                  default=INF)
        if got != expected:
            raise CounterexampleFound(
                "orthogonal system max formula failed",
                witness=(iota, scale.unscale(got), scale.unscale(expected)),
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
    reps = [
        lattice.element_second(beta)
        for beta in product(range(lattice.p**m), repeat=lattice.d)
    ]
    return CosetSystem(lattice, m, reps)


def _coset_key(g, m):
    """The coset of g modulo the level-m step subgroup, one modular
    reduction per coordinate: with second-kind coordinates n_k / den
    (``g.nums`` over ``g.den``) it is n_k den^-1 mod p^m, which is
    n_k mod p^m when den = 1, so g lies in the step subgroup exactly when
    the key is zero.  An element whose den is divisible by p has no key
    and is refused with InvalidArgument."""
    p = g.lattice.p
    nums, den = g.nums, g.den
    if den % p == 0:
        raise InvalidArgument(
            f"coset keys need p-integral coordinates; {g!r} has p = {p} in a denominator"
        )
    mod = p**m
    inv = pow(den, -1, mod)
    return tuple(n * inv % mod for n in nums)


def coset_conditions(cs, rng):
    """Group-level crossed-product conditions for a coset system.

    Verifies normality of the step subgroup (12 sampled step-subgroup
    elements conjugated by each representative), closure of
    representatives under products and inverses, and reports the index t
    with its absolute value.  Raises ConditionFailed naming the violated
    clause.  Cosets and subgroup membership are read off ``_coset_key``.
    """
    lat = cs.lattice
    p, m, d = lat.p, cs.m, lat.d
    mod = p**m

    def in_subgroup(g):
        return not any(_coset_key(g, m))

    if not cs.reps or any(cs.reps[0].nums):
        raise ConditionFailed("transversal must start with the identity")
    keys = {}
    for idx, g in enumerate(cs.reps):
        k = _coset_key(g, m)
        if k in keys:
            raise ConditionFailed(f"representatives {keys[k]} and {idx} share a coset")
        keys[k] = idx

    for idx, g in enumerate(cs.reps):
        for _ in range(12):
            h = lat.element_second(
                tuple(mod * rng.randrange(0, p**2) for _ in range(d))
            )
            if not in_subgroup(h.conjugate(g)):
                raise ConditionFailed(f"normality fails at representative {idx}")

    for i, gi in enumerate(cs.reps):
        for j, gj in enumerate(cs.reps):
            prod = gi * gj
            k = keys.get(_coset_key(prod, m))
            if k is None or not in_subgroup(cs.reps[k].inverse() * prod):
                raise ConditionFailed(f"product of reps {i}, {j} misses the transversal")
        inv = gi.inverse()
        k = keys.get(_coset_key(inv, m))
        if k is None or not in_subgroup(cs.reps[k].inverse() * inv):
            raise ConditionFailed(f"inverse of rep {i} misses the transversal")

    t = cs.index
    return {
        "index": t,
        "index_abs_exponent": Fraction(m * d),
        "p_divides_index": m * d > 0,
        "invertible_in_K": True,  # characteristic zero
    }


# ---------------------------------------------------------------------------
# the p-power-root radius family and norm transfer

def delta_family(delta, p, kappa, count):
    """The radii delta^(1/p^m) for m = 0..count-1; increasing towards 1."""
    return [radius_root(delta, m, p, kappa) for m in range(count)]


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
    field = lgspec.field
    p, kappa = field.p, field.kappa
    if p != 2:
        level = m  # kappa = 1: r^(p^m) = delta
    else:
        level = m + 1  # kappa = 2: r^(p^(m+1)) = delta
    r = radius_root(delta, level, p, kappa)
    if (p**level) * r.exponent != delta.exponent:
        raise CounterexampleFound("root-family radius misses delta", witness=(r, delta))
    if not restriction_hypothesis(r, m, kappa, p):
        raise HypothesisFailed(
            "the root-family radius violates the restriction hypothesis",
            probe={"m": m, "exponent": r.exponent},
        )

    q = p**level
    N = q * lgspec.d
    lattice = lgspec.restrict()
    algebra = DistAlgebra(lattice, field, N)
    vbars = [lgspec.residue_of_v(i) for i in range(1, lgspec.n + 1)]

    from .radii import dominant_log_index

    h = dominant_log_index(r, kappa, p)
    if h is None:
        raise HypothesisFailed("root-family radius is critical", probe={"m": m})

    records = []
    first_row = [lgspec.flat_index(1, j) for j in range(1, lgspec.d + 1)]
    for trial in range(samples):
        if trial == 0:
            support = {tuple(1 if j == 0 else 0 for j in range(lgspec.d)): field.one()}
        else:
            support = {}
            for _t in range(rng.randrange(1, 3)):
                alpha = tuple(rng.randrange(0, 2) for _ in range(lgspec.d))
                coeff = field.uniformizer() ** rng.randrange(0, 2) * field.scalar(
                    rng.randrange(1, p)
                )
                support[alpha] = coeff
            if not support:
                continue
        big = algebra.zero()
        intrinsic = INF
        for alpha, c in support.items():
            nd_alpha = [0] * algebra.d
            for j, a in zip(first_row, alpha):
                nd_alpha[j] = a
            big = big + step_monomial(algebra, tuple(nd_alpha), level).scale(c)
            intrinsic = min(
                intrinsic, c.abs_exponent() + kappa * sum(alpha) * delta.exponent
            )
        if big.is_zero:
            continue
        ambient = big.norm(r).exponent
        certificate = symbol_class_nonzero(
            big.principal_symbol(r), h, vbars, lgspec.n, lgspec.d
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
