"""Shared test utilities: independent oracles.

The matrix oracle realizes the Heisenberg-type lattice inside 3x3
unitriangular matrices, where exp and log are exact quadratic polynomials;
it shares no code with the series evaluation it checks.  The box-sum
oracle rebuilds structure-constant rows from their defining signed sum
over the group law, independently of the table's build in the binomial
basis; the convolution oracle checks a table at one grid pair
through ``binom_rational``, and the Chu-Vandermonde oracle gives the
closed form of an abelian row.  The lattice oracle computes ultrametric
least distances to a finitely generated
right-ideal lattice by weighted elimination, independently of the
symbol-rewriting canonicalizer.  The field-product oracle multiplies
scalars of K as polynomials in Q[w, pi] and reduces by long division,
independently of the basis-product table; the product oracle convolves
two distributions through the table's Fraction rows with it, independently
of the int sums of ``DistAlgebra.mul``.  The exponent oracles evaluate
v(c)/e + kappa |alpha| a/b over Fractions, independently of the scaled
int keys of ``distalg``, and the orthogonal-system trial oracle runs the
trials of ``towers.orthogonal_system_check`` on Distributions and Scalars,
independently of its packed int sums, and the kernel-orthogonality oracle
sums every trial combination of ``quotient.orthogonality_check`` whole,
independently of its decision at the attaining indices.  The scan oracle minimizes
k s - v_p(k) in Fraction arithmetic, independently of the int scan of
``radii``.  The canonicalization oracle runs
the reduction loop of ``quotient.canonicalize`` on whole Distributions,
one leading-form sweep and one full product per step, independently of
its in-place residue and its memo of shifted kernel generators.  The
residue-product oracle multiplies in F_q as int polynomials reduced by
gbar, independently of the ``padics._fp_*`` helpers that k computes
with.  The graded-component oracles decide ideal membership, Hilbert
functions and regular sequences (every ordering, up to a degree bound) by
rank counts on the components of k[X], independently of
``grading.GroebnerBasis``.

The Fraction element oracle holds a group element as Fractions in one
chart and runs the group law, the inverse, the commutator and the chart
maps through the uncompiled Hausdorff series and chart fixed point over
Fractions, independently of the compiled maps and of the int numerators
over one denominator that group elements hold; the coset and
p-valuation checks are replayed on it, with coset keys reduced one
Fraction coordinate at a time.  The pro-2 sweep oracle checks the
commutator windows one point at a time, independently of the
binomial-basis coefficients that the sweep reads its verdict off.

The samplers live in ``padicdist.samplers``.  The element-sampler oracle
makes the draws of ``samplers.random_element`` and builds the element
through ``LieLattice.element_second``, independently of the sampler
handing its drawn ints to ``GroupElement`` as they are.
"""

import math
from fractions import Fraction
from itertools import permutations, product

from padicdist import LieLattice
from padicdist.distalg import Distribution, mul_tail_key
from padicdist.errors import (
    ConditionFailed,
    CounterexampleFound,
    DegreeOverflow,
    InvalidArgument,
    NotPIntegral,
    PrecisionExhausted,
)
from padicdist.groups import _chart_fixed_point, _eval_second_kind
from padicdist.indices import add_index, grlex_key, iter_exact_degree
from padicdist.padics import Subspace
from padicdist.quotient import CanonicalForm, _require_h0, _required_truncation
from padicdist.radii import kappa, log_tail_exponent, vp_rational

INF = math.inf


# ---------------------------------------------------------------------------
# exact 3x3 unitriangular oracle for [X1, X2] = c X3

def _matmul3(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def heisenberg_mat_exp(coords, c):
    """exp of x1*(c E12) + x2*E23 + x3*E13; exact since strictly upper."""
    x1, x2, x3 = coords
    E = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    E[0][1] = c * x1
    E[1][2] = Fraction(x2)
    E[0][2] = Fraction(x3) + c * x1 * x2 / 2
    return E

def heisenberg_mat_log(E, c):
    A01, A12, A02 = E[0][1], E[1][2], E[0][2]
    return (A01 / c, A12, A02 - A01 * A12 / 2)


def heisenberg_bch_oracle(x, y, c):
    """First-kind coordinates of exp(x)exp(y) through the matrix model."""
    return heisenberg_mat_log(
        _matmul3(heisenberg_mat_exp(x, c), heisenberg_mat_exp(y, c)), c
    )


def _second_kind_of_matrix(E, c):
    # solve exp(a c E12) exp(b E23) exp(e E13) = E entrywise
    a = E[0][1] / c
    b = E[1][2]
    e = E[0][2] - c * a * b
    return (a, b, e)


def heisenberg_second_kind_oracle(coords, c):
    """Second-kind coordinates via ordered matrix products."""
    return _second_kind_of_matrix(heisenberg_mat_exp(coords, c), c)


def _second_kind_matrix(coords, c):
    """h^x as the ordered product exp(x_1 c E12) exp(x_2 E23) exp(x_3 E13)."""
    E = heisenberg_mat_exp((0, 0, 0), c)
    for i, t in enumerate(coords):
        unit = tuple(Fraction(t) if k == i else Fraction(0) for k in range(3))
        E = _matmul3(E, heisenberg_mat_exp(unit, c))
    return E


def _unipotent_inverse3(E):
    a, b, e = E[0][1], E[0][2], E[1][2]
    return [[Fraction(1), -a, a * e - b], [Fraction(0), Fraction(1), -e],
            [Fraction(0), Fraction(0), Fraction(1)]]


def heisenberg_law_oracle(x, y, c):
    """Second-kind coordinates of h^x h^y, each factor an ordered product
    of matrices."""
    c = Fraction(c)
    return _second_kind_of_matrix(
        _matmul3(_second_kind_matrix(x, c), _second_kind_matrix(y, c)), c
    )


def heisenberg_commutator_oracle(x, y, c):
    """Second-kind coordinates of [h^x, h^y] = (h^x)^-1 (h^y)^-1 h^x h^y,
    from the matrices of h^x and h^y and their exact inverses."""
    c = Fraction(c)
    A, B = _second_kind_matrix(x, c), _second_kind_matrix(y, c)
    E = _matmul3(_matmul3(_unipotent_inverse3(A), _unipotent_inverse3(B)), _matmul3(A, B))
    return _second_kind_of_matrix(E, c)


def filiform(p):
    """d = 4, class 3: [X1, X2] = p^kappa X3 and [X1, X3] = p^kappa X4."""
    c = p ** kappa(p)
    return LieLattice(p, 4, {(0, 1): (0, 0, c, 0), (0, 2): (0, 0, 0, c)},
                      name=f"filiform(p={p})")


# ---------------------------------------------------------------------------
# group elements over Fractions: products, levels, coset keys and the
# coset and p-valuation checks as they ran on Fraction coordinates

class FractionElement:
    """A group element held as Fractions in the exponential (first-kind)
    chart, where the group law is ``LieLattice.bch``, the uncompiled
    Hausdorff series: inverses negate, powers scale and commutators are
    three ``bch`` calls.  Second-kind coordinates are converted once, by
    ``_chart_fixed_point`` over Fractions, and first-kind ones by
    ``_eval_second_kind``.  None of it runs the compiled maps or the int
    numerators over one denominator that ``GroupElement`` holds."""

    def __init__(self, lattice, mode, coords):
        self.lattice = lattice
        self.charts = {mode: tuple(Fraction(c) for c in coords)}

    @classmethod
    def of(cls, g):
        """The oracle element of a ``GroupElement``."""
        return cls(g.lattice, "second", g.second())

    def first(self):
        if "first" not in self.charts:
            self.charts["first"] = _eval_second_kind(self.lattice, self.charts["second"])
        return self.charts["first"]

    def second(self):
        if "second" not in self.charts:
            self.charts["second"] = _chart_fixed_point(self.lattice, self.charts["first"])
        return self.charts["second"]

    def _exp(self, z):
        return FractionElement(self.lattice, "first", z)

    def __mul__(self, other):
        return self._exp(self.lattice.bch(self.first(), other.first()))

    def inverse(self):
        return self._exp(tuple(-c for c in self.first()))

    def __pow__(self, exponent):
        lam = Fraction(exponent)
        if vp_rational(lam, self.lattice.p) < 0:
            raise NotPIntegral("exponent must be p-integral")
        return self._exp(tuple(lam * c for c in self.first()))

    def commutator(self, other):
        return self.inverse() * other.inverse() * self * other

    def conjugate(self, by):
        return by.inverse() * self * by

    def level(self):
        vals = [vp_rational(c, self.lattice.p) for c in self.second() if c != 0]
        if not vals:
            raise InvalidArgument("the identity has no finite lower-p-series level")
        return 1 + min(vals)

    def p_valuation(self):
        if not any(self.second()):
            return INF
        return self.level() + self.lattice.kappa - 1


def valuation_formula_oracle(lattice, coords):
    """min_i (kappa + v_p(c_i)) over Fraction coordinates in either chart."""
    return min(lattice.kappa + vp_rational(c, lattice.p) for c in coords)


def rational_mod_prime_power(x, p, k):
    """Canonical representative in [0, p^k) of a p-integral rational."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise InvalidArgument(f"{x} is not p-integral at p={p}")
    mod = p**k
    return num * pow(den, -1, mod) % mod


def coset_key_oracle(g, m):
    """The coset of g mod the level-m step, one Fraction coordinate at a time."""
    return tuple(rational_mod_prime_power(c, g.lattice.p, m) for c in g.second())


def coset_conditions_oracle(cs, rng):
    """``towers.coset_conditions`` over FractionElements, drawing from
    ``rng`` in the same order."""
    lat = cs.lattice
    p, m, d = lat.p, cs.m, lat.d
    mod = p**m
    reps = [FractionElement.of(g) for g in cs.reps]

    def in_subgroup(g):
        return not any(coset_key_oracle(g, m))

    if not reps or any(reps[0].second()):
        raise ConditionFailed("transversal must start with the identity")
    keys = {}
    for idx, g in enumerate(reps):
        k = coset_key_oracle(g, m)
        if k in keys:
            raise ConditionFailed(f"representatives {keys[k]} and {idx} share a coset")
        keys[k] = idx
    for idx, g in enumerate(reps):
        for _ in range(12):
            h = FractionElement(lat, "second",
                                tuple(mod * rng.randrange(0, p**2) for _ in range(d)))
            if not in_subgroup(h.conjugate(g)):
                raise ConditionFailed(f"normality fails at representative {idx}")
    for i, gi in enumerate(reps):
        for j, gj in enumerate(reps):
            prod = gi * gj
            k = keys.get(coset_key_oracle(prod, m))
            if k is None or not in_subgroup(reps[k].inverse() * prod):
                raise ConditionFailed(f"product of reps {i}, {j} misses the transversal")
        inv = gi.inverse()
        k = keys.get(coset_key_oracle(inv, m))
        if k is None or not in_subgroup(reps[k].inverse() * inv):
            raise ConditionFailed(f"inverse of rep {i} misses the transversal")
    return {
        "index": len(reps),
        "index_abs_exponent": Fraction(m * d),
        "p_divides_index": m * d > 0,
        "invertible_in_K": True,
    }


def p_valuation_oracle(pairs):
    """``groups.check_p_valuation`` over the FractionElements of ``pairs``
    (pairs of ``GroupElement``); each violation is (axiom, the second-kind
    coordinates of the elements it names)."""
    violations = []
    for g0, h0 in pairs:
        g, h = FractionElement.of(g0), FractionElement.of(h0)
        og, oh = g.p_valuation(), h.p_valuation()
        if (g * h.inverse()).p_valuation() < min(og, oh):
            violations.append(("ultrametric", g.second(), h.second()))
        if g.commutator(h).p_valuation() < og + oh:
            violations.append(("commutator", g.second(), h.second()))
        for elt, om in ((g, og), (h, oh)):
            if om is INF:
                continue
            if (elt ** elt.lattice.p).p_valuation() != om + 1:
                violations.append(("p-power", elt.second(), None))
            if om != valuation_formula_oracle(elt.lattice, elt.first()):
                violations.append(("coordinate-formula", elt.second(), None))
    return violations


def random_element_oracle(lattice, rng):
    """``samplers.random_element``: the same draws in the same order, the
    element built through ``element_second``."""
    p = lattice.p
    coords = [rng.randrange(0, p**9) for _ in range(lattice.d)]
    if not any(c % p for c in coords):
        coords[rng.randrange(lattice.d)] += 1
    scale = p ** rng.choice((0, 0, 0, 1, 2))
    return lattice.element_second(tuple(scale * c for c in coords))


def pro2_sweep_oracle(lattice, level, i, j):
    """``groups.check_powerful_commutator`` as a loop over single points,
    without ``SecondKindLaw.binomial_numerators``: per a-window
    representative one ``reduced_all`` call over the pairs (a, b) for the
    whole b-window, and the level in the quotient read off the
    p-valuations of each point's coordinates.  Returns (pairs checked, None), or (pairs checked before
    it, (a, b, second-kind coordinates of [a, b])) at the first escaping
    pair in (a, b) order."""
    p, law = lattice.p, lattice.commutator_law

    def window(step, size):
        stride = p ** (step - 1)
        return list(product(range(0, stride * p**size, stride), repeat=lattice.d))

    bound = min(i + j + 1, level + 1)
    checked = 0
    bs = window(j, min(i, level - j + 1))
    for a in window(i, min(j, level - i + 1)):
        for b, (nums, den) in zip(bs, law.reduced_all([((*a, *b), 1) for b in bs])):
            low = min([level] + [vp_rational(Fraction(n, den), p) for n in nums if n])
            if 1 + low < bound:
                return checked, (a, b, tuple(Fraction(n, den) for n in nums))
            checked += 1
    return checked, None


# ---------------------------------------------------------------------------
# the scan behind the dominant log index and the log tail, over Fractions

def scan_min_exponent_oracle(s_exp, p, k_min=1):
    """``radii._scan_min_exponent`` as it ran in Fraction arithmetic:
    the minimum of E(k) = k s_exp - v_p(k) over k >= k_min and its
    argmins, stopping once k s_exp >= 2 and k s_exp - digits_p(k)
    exceeds the incumbent."""
    best, argmins, k = None, [], k_min
    while True:
        e_k = k * s_exp - vp_rational(k, p)
        if best is None or e_k < best:
            best, argmins = e_k, [k]
        elif e_k == best:
            argmins.append(k)
        k += 1
        digits, n = 0, k
        while n:
            n //= p
            digits += 1
        if k * s_exp >= 2 and k * s_exp - digits > best:
            return best, argmins


# ---------------------------------------------------------------------------
# structure-constant oracles: the signed box sum that defines a row, the
# convolution identity at one grid pair and the abelian closed form

def binom_rational(t, k):
    """binom(t, k) for a rational (or integer) upper argument."""
    t = Fraction(t)
    out = Fraction(1)
    for i in range(k):
        out *= (t - i) / (i + 1)
    return out


def multi_binom(alpha, beta):
    """prod_i binom(alpha_i, beta_i), which is 0 unless beta <= alpha."""
    return math.prod(map(math.comb, alpha, beta))


def verify_convolution(table, x, y):
    """Check the characterizing grid identity of ``table`` at one integer pair.

    Expands delta_{h^x} delta_{h^y} through the table and compares with
    delta at the group-law point, coefficientwise up to degree N.
    """
    gammas = simplex(table.lattice.d, table.N)
    lhs = {}
    for alpha in gammas:
        ca = multi_binom(x, alpha)
        if not ca:
            continue
        for beta in gammas:
            cb = multi_binom(y, beta)
            if not cb:
                continue
            for gamma, val in table.row(alpha, beta).items():
                lhs[gamma] = lhs.get(gamma, Fraction(0)) + ca * cb * val
    F = table.group_law(x, y)
    for gamma in gammas:
        expect = math.prod(binom_rational(t, g) for t, g in zip(F, gamma))
        if lhs.get(gamma, Fraction(0)) != expect:
            return False
    return True


def chu_vandermonde_identity(table, alpha, beta):
    """Abelian-case oracle: the row is the single entry 1 at gamma = alpha+beta."""
    gamma = add_index(alpha, beta)
    row = table.row(alpha, beta)
    if sum(gamma) > table.N:
        return row == {}
    return row == {gamma: Fraction(1)}


def simplex(d, N):
    """All points of N_0^d with |x| <= N."""
    return [x for x in product(range(N + 1), repeat=d) if sum(x) <= N]


def box(alpha):
    """All x <= alpha componentwise."""
    return product(*(range(a + 1) for a in alpha))


def signed_binom(alpha, x):
    """(-1)^{|alpha - x|} binom(alpha, x), the weight of f(x) in c_alpha."""
    w = (-1) ** (sum(alpha) - sum(x))
    for a, b in zip(alpha, x):
        w *= math.comb(a, b)
    return w


class BoxSumRows:
    """Rows c^gamma_{alpha beta} of a structure-constant table by definition:

        sum_{x <= alpha, y <= beta} (-1)^{|alpha - x| + |beta - y|}
            binom(alpha, x) binom(beta, y) binom(F(x, y), gamma),

    with F the table's group law, the only thing taken from the table.
    Sums over y are shared between rows with the same (x, beta).
    """

    def __init__(self, table):
        self.table = table
        self.gammas = simplex(table.lattice.d, table.N)
        self._points = {}   # (x, y) -> [binom(F(x, y), gamma)]
        self._inner = {}    # (x, beta) -> sum over y <= beta

    def _point(self, x, y):
        out = self._points.get((x, y))
        if out is None:
            ladders = []  # binom(F_k, j) for j <= N, one list per coordinate
            for t in self.table.group_law(x, y):
                ladder = [Fraction(1)]
                for j in range(self.table.N):
                    ladder.append(ladder[-1] * (t - j) / (j + 1))
                ladders.append([v.numerator if v.denominator == 1 else v for v in ladder])
            out = [math.prod(ladder[k] for ladder, k in zip(ladders, gamma))
                   for gamma in self.gammas]
            self._points[(x, y)] = out
        return out

    def _inner_sum(self, x, beta):
        out = self._inner.get((x, beta))
        if out is None:
            out = [0] * len(self.gammas)
            for y in box(beta):
                w = signed_binom(beta, y)
                out = [a + w * b for a, b in zip(out, self._point(x, y))]
            self._inner[(x, beta)] = out
        return out

    def row(self, alpha, beta):
        acc = [0] * len(self.gammas)
        for x in box(alpha):
            w = signed_binom(alpha, x)
            acc = [a + w * b for a, b in zip(acc, self._inner_sum(x, beta))]
        return {g: Fraction(v) for g, v in zip(self.gammas, acc) if v}


# ---------------------------------------------------------------------------
# filtration exponents over Fractions

def exponent_oracle(coeff, alpha, kappa, r):
    """v(c)/e + kappa |alpha| a/b, the exponent of the term c b^alpha at
    r = p^(-a/b)."""
    return Fraction(coeff.valuation, coeff.field.e) + kappa * sum(alpha) * Fraction(r.a, r.b)


def norm_oracle(dist, r):
    kappa = dist.algebra.kappa
    return min(
        (exponent_oracle(c, a, kappa, r) for a, c in dist.coeffs.items()), default=INF
    )


def leading_support_oracle(dist, r):
    q = norm_oracle(dist, r)
    kappa = dist.algebra.kappa
    return [a for a, c in dist.coeffs.items() if exponent_oracle(c, a, kappa, r) == q]


def mul_tail_oracle(lam, mu, r):
    """The tail bound of ``distalg.mul_tail_bound``, term by term in Fractions:
    min over support pairs with a tail of v(c_a)/e + v(c_b)/e plus kappa
    (max(0, |a|+|b|-N-1) + (N+1) a/b) and kappa max(N+1, |a|+|b|) a/b."""
    alg = lam.algebra
    N, kappa, rexp = alg.N, alg.kappa, Fraction(r.a, r.b)
    e = alg.field.e
    best = INF
    for alpha, da in lam.coeffs.items():
        for beta, eb in mu.coeffs.items():
            if not alg.table.has_tail(alpha, beta):
                continue
            base = Fraction(da.valuation, e) + Fraction(eb.valuation, e)
            tot = sum(alpha) + sum(beta)
            best = min(
                best,
                base + kappa * max(0, tot - (N + 1)) + kappa * (N + 1) * rexp,
                base + kappa * max(N + 1, tot) * rexp,
            )
    return best


def orthogonal_trials_oracle(system, r, trials, rng):
    """The max-formula trials of ``towers.orthogonal_system_check``, each
    combination summed with ``Distribution.__add__`` and ``scale`` and
    measured with ``norm``, drawing from ``rng`` in the same order.
    Returns None when every trial holds, else the (norm, expected)
    exponents of the first that fails."""
    algebra = system[0].algebra
    field = algebra.field
    for _ in range(trials):
        combo = algebra.zero()
        expected = INF
        for t in system:
            v = rng.randrange(0, 3)
            c = field.scalar(rng.randrange(1, field.p)) * field.uniformizer() ** v
            combo = combo + t.scale(c)
            expected = min(expected, c.abs_exponent() + t.norm(r))
        if combo.norm(r) != expected:
            return combo.norm(r), expected
    return None


def orthogonality_oracle(fam, r, trials, rng):
    """``quotient.orthogonality_check`` with every trial combination
    summed whole with ``Distribution.__add__`` and measured with ``norm``,
    drawing from ``rng`` in the same order; the same CounterexampleFound
    and witness on the first failing trial."""
    alg = fam.algebra
    field = alg.field
    for _ in range(trials):
        coeffs = {}
        for pair in fam.pairs:
            v = rng.randrange(-3, 4)
            unit = field.scalar(rng.randrange(1, field.p)) + field.uniformizer() * rng.randrange(0, field.p)
            coeffs[pair] = unit * field.uniformizer() ** v
        combo = alg.zero()
        expected = INF
        for pair, c in coeffs.items():
            term = fam.gen(*pair).scale(c)
            combo = combo + term
            expected = min(expected, term.norm(r))
        got = combo.norm(r)
        if got != expected:
            raise CounterexampleFound(
                "orthogonality max-formula failed", witness=(coeffs, got, expected)
            )
    return True


# ---------------------------------------------------------------------------
# canonicalization over whole Distributions

def canonicalize_oracle(fam, lam, r, mprime):
    """``quotient.canonicalize`` as a loop over whole Distributions: each
    step sweeps the residue for its leading form (``SymbolContext.leading``)
    and subtracts the full product ``alg.mul(G_ij, c b^alpha')``, with the
    tail key ``mul_tail_key`` of that product.  Same refusals, step budget and
    level-rise check; returns a ``CanonicalForm``."""
    _require_h0(fam, r)
    alg = fam.algebra
    lg = fam.lgspec
    scale = alg.symbol_context(r)
    target_key = scale.to_key(mprime)
    log_tail = scale.to_key(log_tail_exponent(alg.N, r, alg.kappa, alg.lattice.p))
    work = Distribution(alg, dict(lam.coeffs))
    canon = {}
    residual = INF
    steps = 0
    levels = 0
    last_level = None
    max_steps = 4000 + 200 * (mprime + alg.N) * (lg.n * lg.d)

    while not work.is_zero:
        s, leads = scale.leading(work)
        if s >= target_key:
            break
        if s != last_level:
            if last_level is not None and s <= last_level:
                raise CounterexampleFound(
                    "canonicalization level did not rise",
                    witness=(scale.unscale(last_level), scale.unscale(s)),
                )
            levels += 1
            last_level = s
        lead = min(leads, key=grlex_key)
        target = None
        for j in range(1, lg.d + 1):
            for i in range(2, lg.n + 1):
                if lead[lg.flat_index(i, j)] > 0:
                    target = (i, j)
                    break
            if target:
                break
        coeff = work.coeffs[lead]
        if target is None:
            beta = lg.to_canonical_index(lead)
            prev = canon.get(beta)
            canon[beta] = coeff if prev is None else prev + coeff
            work = work - alg.monomial(lead, coeff)
        else:
            i, j = target
            alpha_prime = tuple(
                a - (1 if t == lg.flat_index(i, j) else 0) for t, a in enumerate(lead)
            )
            mu = alg.monomial(alpha_prime, coeff)
            gen = fam.gen(i, j)
            gen_tail = scale.key(coeff, alpha_prime) + log_tail
            tail = min(mul_tail_key(scale, gen, mu), gen_tail)
            if tail < target_key:
                need = _required_truncation(alg, r, mprime)
                raise DegreeOverflow(
                    f"reduction tails reach p^-({scale.unscale(tail)}) above the "
                    f"target p^-{mprime}; increase the truncation to about {need}",
                    required_degree=need,
                )
            residual = min(residual, tail)
            work = work - alg.mul(gen, mu)
        steps += 1
        if steps > max_steps:
            raise PrecisionExhausted("canonicalization exceeded its step budget")

    for alpha, c in work.coeffs.items():
        if lg.is_first_row(alpha):
            beta = lg.to_canonical_index(alpha)
            prev = canon.get(beta)
            canon[beta] = c if prev is None else prev + c
        else:
            residual = min(residual, scale.key(c, alpha))

    canon = {beta: c for beta, c in canon.items() if not c.is_zero}
    return CanonicalForm(fam, r, canon, scale.unscale(residual), steps, levels)


# ---------------------------------------------------------------------------
# residue-field products as polynomials over F_p

def residue_product_oracle(kfield, x, y):
    """Coordinates of x * y: multiply the coordinate polynomials in ints,
    rewrite w^t, from the top t >= f down, as -w^(t - f) (gbar - w^f), then
    reduce mod p."""
    f, gbar = kfield.f, kfield.modulus
    prod = [0] * (2 * f - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            prod[i + j] += a * b
    for top in range(2 * f - 2, f - 1, -1):
        c = prod.pop()
        for a in range(f):
            prod[top - f + a] -= c * gbar[a]
    return tuple(c % kfield.p for c in prod)


# ---------------------------------------------------------------------------
# ultrametric lattice-distance oracle

class LatticeOracle:
    """Least distance to the span of given distributions, at a fixed radius."""

    def __init__(self, span, r):
        self.r = r
        if span:
            self.kappa = span[0].algebra.kappa
        self.basis = []
        self._echelonize([v for v in span if not v.is_zero])

    def _exp(self, alpha, coeff):
        return exponent_oracle(coeff, alpha, self.kappa, self.r)

    def _norm(self, v):
        return min((self._exp(a, c) for a, c in v.coeffs.items()), default=INF)

    def _leads(self, v):
        q = self._norm(v)
        return [a for a, c in v.coeffs.items() if self._exp(a, c) == q]

    def _echelonize(self, pending):
        while pending:
            best_i, best_q = None, None
            for i, v in enumerate(pending):
                q = self._norm(v)
                if q is not INF and (best_q is None or q < best_q):
                    best_i, best_q = i, q
            if best_i is None:
                return
            v = pending.pop(best_i)
            while not v.is_zero:
                leads = self._leads(v)
                hit = next(((p, pv) for (p, pv) in self.basis if p in leads), None)
                if hit is None:
                    break
                p, pv = hit
                v = v - pv.scale(v.coeffs[p] * pv.coeffs[p].inv())
            if v.is_zero:
                continue
            self.basis.append((sorted(self._leads(v))[0], v))

    def distance(self, lam, step_cap=500):
        """Exact norm distance from lam to the span (exponent; INF if inside)."""
        v = lam
        for _ in range(step_cap):
            if v.is_zero:
                return INF
            leads = self._leads(v)
            hit = next(
                ((a, pv) for a in leads for (p, pv) in self.basis if p == a), None
            )
            if hit is None:
                return self._norm(v)
            a, pv = hit
            v = v - pv.scale(v.coeffs[a] * pv.coeffs[a].inv())
        raise RuntimeError("distance reduction did not stabilize")


# ---------------------------------------------------------------------------
# products in K = Q[w, pi]/(g, E) by polynomial long division

def _wmul(u, v):
    out = [Fraction(0)] * max(0, len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _wadd(u, v, scale=1):
    """u + scale * v."""
    n = max(len(u), len(v))
    u = list(u) + [Fraction(0)] * (n - len(u))
    v = list(v) + [Fraction(0)] * (n - len(v))
    return [a + scale * b for a, b in zip(u, v)]


def _wmod(u, g):
    """Remainder of u modulo the monic polynomial g, by long division."""
    u = list(u)
    dg = len(g) - 1
    for top in range(len(u) - 1, dg - 1, -1):
        c = u[top]
        for k, gk in enumerate(g):
            u[top - dg + k] -= c * gk
    return u[:dg] + [Fraction(0)] * (dg - len(u))


def field_product_oracle(field, x, y):
    """Coordinates of x * y: multiply in Q[w, pi], divide by E, reduce by g.

    The pi-coefficients stay unreduced polynomials in w while pi^B, B >= e,
    is rewritten as -pi^(B - e) (a_0 + ... + a_(e-1) pi^(e-1)); only then is
    every coefficient reduced modulo g.
    """
    f, e = field.f, field.e
    px = [list(x.coords[b * f:(b + 1) * f]) for b in range(e)]
    py = [list(y.coords[b * f:(b + 1) * f]) for b in range(e)]
    prod = [[] for _ in range(2 * e - 1)]
    for b1, u in enumerate(px):
        for b2, v in enumerate(py):
            prod[b1 + b2] = _wadd(prod[b1 + b2], _wmul(u, v))
    for top in range(2 * e - 2, e - 1, -1):
        for i, a_i in enumerate(field.eisenstein):
            prod[top - e + i] = _wadd(prod[top - e + i], _wmul(prod[top], a_i), -1)
    return tuple(c for b in range(e) for c in _wmod(prod[b], field.unram_poly))


def mul_oracle(alg, lam, mu):
    """Coordinates of lam * mu: the convolution through ``table.row`` in
    Fractions, each coefficient product from ``field_product_oracle``."""
    zero = (Fraction(0),) * alg.field.degree
    acc = {}
    for alpha, da in lam.coeffs.items():
        for beta, eb in mu.coeffs.items():
            prod = field_product_oracle(alg.field, da, eb)
            for gamma, c in alg.table.row(alpha, beta).items():
                acc[gamma] = tuple(a + c * x for a, x in zip(acc.get(gamma, zero), prod))
    return {gamma: v for gamma, v in acc.items() if any(v)}


# ---------------------------------------------------------------------------
# bounded rank counts on graded components of k[X]

def component_basis(nvars, degree):
    """The X-monomials of one total degree, each mapped to its coordinate."""
    return {a: i for i, a in enumerate(iter_exact_degree(nvars, degree))}


def poly_vector(poly, basis, shift=None):
    """The coordinates of the nonzero poly * X^shift in a component basis."""
    vec = [next(iter(poly.values())).field.zero()] * len(basis)
    for alpha, c in poly.items():
        vec[basis[alpha if shift is None else add_index(alpha, shift)]] = c
    return vec


def ideal_component(gens, degree, basis, kfield):
    """The degree part of the ideal of homogeneous X-polynomials ``gens``,
    spanned by every generator times every monomial of the complementary
    degree, written in ``basis`` (a ``component_basis``)."""
    nvars = len(next(iter(basis)))
    span = Subspace(kfield.zero(), len(basis))
    for g in gens:
        gdeg = sum(next(iter(g)))
        if degree >= gdeg:
            for mu in iter_exact_degree(nvars, degree - gdeg):
                span.add(enumerate(poly_vector(g, basis, mu)))
    return span


def in_ideal_oracle(poly, gens, kfield):
    """Whether the homogeneous nonzero poly lies in the ideal of ``gens``."""
    alpha = next(iter(poly))
    basis = component_basis(len(alpha), sum(alpha))
    span = ideal_component(gens, sum(alpha), basis, kfield)
    return not any(span.reduce(poly_vector(poly, basis)))


def hilbert_oracle(gens, degree, nvars, kfield):
    """dim (k[X]/I)_degree = dim k[X]_degree - rank I_degree."""
    basis = component_basis(nvars, degree)
    return len(basis) - len(ideal_component(gens, degree, basis, kfield).pivots)


def regular_sequence_oracle(polys, D, nvars, kfield):
    """Whether no member divides zero modulo the ideal of the members
    before it, in any ordering, on every component of X-degree <= D.

    Multiplication by f maps I_m into I_(m + deg f), so it is injective on
    (R/I)_m iff the products f mu (mu of degree m) add dim R_m - rank I_m
    to the rank of I_(m + deg f).
    """
    seen = set()
    for order in permutations(range(len(polys))):
        for k, cand in enumerate(order):
            key = (frozenset(order[:k]), cand)
            if key in seen:
                continue
            seen.add(key)
            gens = [polys[i] for i in order[:k]]
            f = polys[cand]
            fdeg = sum(next(iter(f)))
            for m in range(max(0, D - fdeg) + 1):
                basis_m = component_basis(nvars, m)
                basis_t = component_basis(nvars, m + fdeg)
                ideal_t = ideal_component(gens, m + fdeg, basis_t, kfield)
                rank_t = len(ideal_t.pivots)
                for mu in basis_m:
                    ideal_t.add(enumerate(poly_vector(f, basis_t, mu)))
                rank_m = len(ideal_component(gens, m, basis_m, kfield).pivots)
                if len(ideal_t.pivots) - rank_t + rank_m != len(basis_m):
                    return False
    return True
