"""The locally analytic quotient: kernel generators and canonical expansions.

For a scalar-restricted group with generators h_ij = exp(v_i x_j), the
kernel of the restriction-to-L map is generated as a right ideal by the
nd - d elements

    G_ij = log(1 + b_ij) - v_i log(1 + b_1j),   i >= 2,

whose principal symbols at a non-critical radius have the closed form
e0^(-he) (X_ij^(p^h) - vbar_i X_1j^(p^h)).  At radii with dominant index
h = 0 every distribution reduces, modulo right multiples of the G_ij, to
a canonical series in the first-row generators b_1j; the quotient norm is
then the plain coefficient formula on that canonical form, returned as
the exponent q of p^(-q) that ``Distribution.norm`` returns.  The
reduction implemented here rewrites the leading form one symbol
occurrence at a time, strictly raising the filtration degree of the
residue, read as the int keys of the radius's one filtration object
(``DistAlgebra.symbol_context``), and carries a certified residual bound
p^(-M') instead of claiming bare equalities.  The working residue is one
dict of terms with one heap of leads; a term that only ever receives
contributions at or above the target keeps them unsummed, since it can
never lead, until it is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .distalg import DistAlgebra, Distribution, mul_tail_key
from .errors import (
    CounterexampleFound,
    CriticalRadius,
    DegreeOverflow,
    InvalidArgument,
    PrecisionExhausted,
)
from .grading import Symbol
from .indices import check_multi_index, grlex_key, sparse_sum, unit_index
from .padics import Scalar
from .radii import dominant_log_index, is_h0_radius, log_tail_exponent
from .samplers import random_terms

INF = math.inf


class KernelFamily:
    """The kernel generators of a restricted group, truncated at degree N.

    ``_shift_keys`` is the one memo of canonicalization: per radius, keyed
    by (i, j, alpha), what ``canonicalize`` reads of the product G_ij *
    b^alpha with coefficient 1, that is its tail key and a (gamma, g.num,
    g.den, w |gamma|, grlex_key(gamma), key, first row) per term g b^gamma,
    key being the term's own key b v(g) + w |gamma|: the key at v(c) = 0 of
    its contribution to a step, which adds b v(c).  Every step subtracts
    such a product times one scalar c, and the memo is exact: the table
    product is K-bilinear, so mul(G_ij, c b^alpha) is c times it term by
    term, with the same support in the same order (c != 0 in a field),
    and a Scalar's reduced form is canonical, so g * c in ints equals the
    coefficient ``mul`` builds bit for bit.  At a fixed radius the entry
    depends on nothing else, and canonicalization asks only for |alpha| <
    N, so the memo stays bounded.
    """

    def __init__(self, lgspec, algebra):
        self.lgspec = lgspec
        self.algebra = algebra
        self._shift_keys = {}  # radius -> {(i, j, alpha): (tail key, terms)}
        self._gens = {}
        for j in range(1, lgspec.d + 1):
            log_1j = algebra.log_series(lgspec.flat_index(1, j))
            for i in range(2, lgspec.n + 1):
                log_ij = algebra.log_series(lgspec.flat_index(i, j))
                self._gens[(i, j)] = log_ij - log_1j.scale(lgspec.v_basis[i - 1])
        # generator labels (i, j) with i >= 2, in generator order
        self.pairs = tuple(self._gens)

    def gen(self, i, j):
        """The (i, j) kernel generator; identically zero for i = 1."""
        n, d = self.lgspec.n, self.lgspec.d
        if not (1 <= i <= n and 1 <= j <= d):
            raise InvalidArgument(f"kernel generator ({i}, {j}) needs 1 <= i <= {n} and 1 <= j <= {d}")
        if i == 1:
            return self.algebra.zero()
        return self._gens[(i, j)]

    def lift(self, coeffs):
        """A canonical coefficient map beta -> Scalar, as a distribution.
        A beta that is not a multi-index in N_0^d is refused with
        PadicError, and one of degree above N with DegreeOverflow
        (``indices.check_multi_index``)."""
        d, N = self.lgspec.d, self.algebra.N
        for beta in coeffs:
            check_multi_index(beta, d, N, name="canonical index")
        return self._lift(coeffs)

    def _lift(self, coeffs):
        """``lift`` with no check, for the canonical indices that a
        ``CanonicalForm`` holds."""
        embed = self.lgspec.from_canonical_index
        return Distribution._of(
            self.algebra, {embed(b): c for b, c in coeffs.items() if not c.is_zero}
        )


def build_kernel_family(lgspec, N, cache_dir=None):
    algebra = DistAlgebra(lgspec.restrict(), lgspec.field, N, cache_dir=cache_dir)
    return KernelFamily(lgspec, algebra)


# ---------------------------------------------------------------------------
# symbols of the kernel generators

def _dominant_index(alg, r):
    """The dominant log index h at r; a critical r is refused with
    CriticalRadius."""
    h = dominant_log_index(r, alg.kappa, alg.lattice.p)
    if h is None:
        raise CriticalRadius(f"radius {r} is critical for log(1+X)")
    return h


def kernel_symbol_closed_form(fam, i, j, r):
    """e0^(-he) (X_ij^(p^h) - vbar_i X_1j^(p^h)) with the coefficient's unit class."""
    alg = fam.algebra
    p = alg.lattice.p
    h = _dominant_index(alg, r)
    ctx = alg.symbol_context(r)
    coeff = alg.field.scalar(Fraction((-1) ** (p**h - 1), p**h))
    res = coeff.leading_residue()
    w = coeff.valuation
    k = p**h
    lg = fam.lgspec
    nd = lg.n * lg.d
    e_ij = unit_index(nd, lg.flat_index(i, j), k)
    e_1j = unit_index(nd, lg.flat_index(1, j), k)
    vbar = lg.vbars[i - 1]
    return Symbol(ctx, {(w, e_ij): res, (w, e_1j): -(vbar * res)})


def kernel_symbol(fam, i, j, r):
    """Principal symbol of the truncated generator, verified against the
    closed form; raises CriticalRadius at critical radii."""
    alg = fam.algebra
    h = _dominant_index(alg, r)
    if alg.lattice.p**h > alg.N:
        raise DegreeOverflow(
            f"dominant index p^{h} exceeds the truncation {alg.N}",
            required_degree=alg.lattice.p**h,
        )
    sym = fam.gen(i, j).principal_symbol(r)
    expected = kernel_symbol_closed_form(fam, i, j, r)
    if sym != expected:
        raise CounterexampleFound(
            "kernel-generator symbol disagrees with its closed form",
            witness=(i, j, r, sym, expected),
        )
    return sym


def kernel_symbol_family(fam, r):
    """The graded ideal basis: verified symbols of all generators with i >= 2.

    At a non-critical radius these are exactly the nd - d elements
    e0^(-he) (X_ij^(p^h) - vbar_i X_1j^(p^h)).
    """
    return [kernel_symbol(fam, i, j, r) for (i, j) in fam.pairs]


def orthogonality_check(fam, r, trials, rng):
    """Exact max formula for random combinations of the kernel generators.

    Checks ||sum c_ij G_ij||_r == max_ij ||c_ij G_ij||_r for ``trials``
    random coefficient vectors over K; coefficients are sampled as
    pi^v * unit with |v| <= 3.  Raises CounterexampleFound on any failure
    (this would contradict orthogonality), its witness the coefficients,
    the norm of the full combination and the expected norm.

    A trial is decided on the keys of ``alg.symbol_context(r)`` at the
    attaining indices (``SymbolContext.leading``) of the generators whose
    term c_ij G_ij has the least key: every other term has a larger key,
    so the combination reaches that key exactly when the terms there do
    not cancel at one of those indices.  The combination is summed only
    for a witness.
    """
    alg = fam.algebra
    field = alg.field
    ctx = alg.symbol_context(r)
    gens = {pair: fam.gen(*pair) for pair in fam.pairs}
    leading = {pair: ctx.leading(g) for pair, g in gens.items()}
    for _ in range(trials):
        coeffs = {}
        for pair in fam.pairs:
            v = rng.randrange(-3, 4)
            unit = field.scalar(rng.randrange(1, field.p)) + field.uniformizer() * rng.randrange(0, field.p)
            coeffs[pair] = unit * field.uniformizer() ** v
        keys = {pair: ctx.b * c.valuation + leading[pair][0] for pair, c in coeffs.items()}
        expected = min(keys.values(), default=INF)
        at_leads = sparse_sum((alpha, gens[pair].coeffs[alpha] * coeffs[pair])
                              for pair, key in keys.items() if key == expected
                              for alpha in leading[pair][1])
        if expected < INF and not any(ctx.key(c, alpha) == expected for alpha, c in at_leads.items()):
            combo = sum((gens[pair].scale(c) for pair, c in coeffs.items()), alg.zero())
            raise CounterexampleFound(
                "orthogonality max-formula failed",
                witness=(coeffs, combo.norm(r), ctx.unscale(expected)),
            )
    return True


# ---------------------------------------------------------------------------
# canonicalization

@dataclass
class CanonicalForm:
    """A class representative sum_beta c_beta b_1^beta with a residual bound.

    ``residual_exponent`` certifies that the input equals the lift of
    ``coeffs`` plus a right-ideal member plus an error of norm at most
    p^(-residual_exponent).
    """

    family: KernelFamily
    radius: object
    coeffs: dict
    residual_exponent: object
    steps: int
    levels: int

    @property
    def is_zero(self):
        return not self.coeffs

    def norm(self):
        """The exponent q of the canonical norm p^(-q), +inf when zero."""
        return self.as_distribution().norm(self.radius)

    @property
    def certified(self):
        """True when the stored norm is unambiguous against the residual.

        An empty form with a finite residual only certifies "norm at most
        p^(-residual)", which is not an exact norm value.
        """
        if self.residual_exponent == INF:
            return True
        if not self.coeffs:
            return False
        return self.norm() < self.residual_exponent

    def as_distribution(self):
        return self.family._lift(self.coeffs)

    def __repr__(self):
        body = self.family.algebra.format(self.as_distribution())
        return f"CanonicalForm({body}; residual <= p^-({self.residual_exponent}))"


def _require_h0(fam, r):
    alg = fam.algebra
    if not is_h0_radius(r, alg.kappa, alg.lattice.p):
        raise InvalidArgument(
            "canonicalization needs r^kappa < p^(-1/(p-1)); "
            f"got dominant index h = {_dominant_index(alg, r)}"
        )


def canonicalize(fam, lam, r, mprime):
    """Reduce modulo right multiples of the kernel generators at an h = 0 radius.

    Repeatedly rewrites the leading form: a pure first-row term moves to
    the canonical part; a term containing some X_ij with i >= 2 is cleared
    by subtracting G_ij * (coefficient * b^(alpha - e_ij)), which replaces
    the occurrence by vbar_i X_1j at the same filtration level and pushes
    everything else strictly deeper.  The filtration degrees live in a
    discrete rational lattice, so the loop reaches the target p^(-mprime).

    The working residue is one dict changed in place, alpha -> (num, den,
    key): an int vector over one positive int reduced as a Scalar is, and
    the term's scaled key.  One heap holds (key, grlex_key(alpha), alpha)
    entries, one pushed whenever a term's value takes a new key, so the
    least live entry is the lead (least key, then least in grlex
    order); an entry whose term has left or changed key is dropped when it
    surfaces, and the lead's entry is only peeked at, so a lead whose key
    does not change stays live.  The subtracted product is c times G_ij *
    b^alpha'; its term g b^gamma contributes -g c, whose key, the memo's
    b v(g) + w |gamma| plus b v(c) read off the lead's key, costs no
    arithmetic.  A term holding a value becomes prev - g c in ints, one
    gcd giving its reduced form and valuation (``FieldSpec._sub_times``).
    A term holding none whose contributions all have keys at or above the
    target is stored, in its first-touch slot, as (None, contributions,
    least key): by the ultrametric inequality it could never lead.  It is
    summed (``_summed``, in arrival order, so to the ints the eager update
    would hold) when a contribution below the target reaches it, or, on
    the first row, a second one at its least key: the two could cancel,
    and the eager update then gives the term a later slot.  At the end
    stored first-row terms are summed into the canonical part, and the
    others, which only bound the residual, in increasing order of least
    key while it lies below the residual found so far.  Scalars are built
    only for the canonical part.
    The tail key is that of G_ij * b^alpha' plus b v(c), every candidate
    of ``distalg.mul_tail_key`` and of the log tail moving by the same
    v(c); it and the product's terms are kept on the family per radius
    (``KernelFamily._shift_keys``).  An M' that is not an int or a
    Fraction is refused with InvalidArgument.
    """
    if type(mprime) is not int and not isinstance(mprime, Fraction):
        raise InvalidArgument(f"M' must be an int or a Fraction, got {mprime!r}")
    _require_h0(fam, r)
    alg = fam.algebra
    if lam.algebra is not alg:
        raise InvalidArgument("the distribution is not in the kernel family's algebra")
    lg = fam.lgspec
    # filtration degrees are compared as scaled int keys
    ctx = alg.symbol_context(r)
    b, w = ctx.b, ctx.w
    target_key = ctx.to_key(mprime)
    # min_k (kappa k a/b - v_p(k)) lies in (1/b) Z, so it has a key
    log_tail = ctx.to_key(log_tail_exponent(alg.N, r, alg.kappa, alg.lattice.p))
    field = alg.field
    sub_times = field._sub_times
    zero = (0,) * field.degree
    absent = (zero, 1, None)
    # alpha -> (int vector, positive int, key), reduced as a Scalar is, or
    # (None, [(g.num, g.den, times)], least key) for a stored term
    work = {alpha: (c.num, c.den, ctx.key(c, alpha)) for alpha, c in lam.coeffs.items()}
    # (key, grlex_key(alpha), alpha), one per key a term has taken
    heap = [(key, grlex_key(alpha), alpha) for alpha, (_, _, key) in work.items()]
    heapify(heap)
    # (i, j, alpha') -> (tail key at v(c) = 0, [(gamma, num, den, w |gamma|,
    #                    grlex, key at v(c) = 0, first row)])
    shifts = fam._shift_keys.setdefault(r, {})
    # the first X_ij, i >= 2, that a lead contains is the one cleared
    pairs = [(i, j, lg.flat_index(i, j)) for i, j in fam.pairs]
    canon = []  # the first-row terms (alpha, num, den) taken off the residue
    residual = INF
    steps = levels = 0
    last_level = None
    max_steps = 4000 + 200 * (mprime + alg.N) * (lg.n * lg.d)

    while heap:
        s, _, lead = heap[0]
        pn, pd, key = work.get(lead, absent)
        if key != s:
            heappop(heap)  # the term has left the residue or changed key
            continue
        if s >= target_key:
            break
        if s != last_level:
            # the working residue's filtration degree is the termination
            # measure: it must move strictly upward through the levels
            if last_level is not None and s <= last_level:
                raise CounterexampleFound(
                    "canonicalization level did not rise",
                    witness=(ctx.unscale(last_level), ctx.unscale(s)),
                )
            levels += 1
            last_level = s
        target = next((pair for pair in pairs if lead[pair[2]]), None)
        if target is None:
            del work[lead]
            canon.append((lead, pn, pd))
        else:
            i, j, ij = target
            alpha_prime = tuple(a - (t == ij) for t, a in enumerate(lead))
            shift = shifts.get((i, j, alpha_prime))
            if shift is None:
                # the generator's own discarded log tail, times the monomial
                gen, mono = fam.gen(i, j), alg.monomial(alpha_prime)
                gen_tail = w * sum(alpha_prime) + log_tail
                tail0 = min(mul_tail_key(ctx, gen, mono), gen_tail)
                terms = [(gamma, g.num, g.den, w * sum(gamma), grlex_key(gamma),
                          ctx.key(g, gamma), lg.is_first_row(gamma))
                         for gamma, g in alg.mul(gen, mono).coeffs.items()]
                shift = shifts[(i, j, alpha_prime)] = (tail0, terms)
            tail0, terms = shift
            bvc = s - w * sum(lead)  # the lead's key is b v(c) + w |lead|
            tail = tail0 + bvc
            if tail < target_key:
                need = _required_truncation(alg, r, mprime)
                raise DegreeOverflow(
                    f"reduction tails reach p^-({ctx.unscale(tail)}) above the "
                    f"target p^-{mprime}; increase the truncation to about {need}",
                    required_degree=need,
                )
            residual = min(residual, tail)
            times = field._times(pn, pd)
            for gamma, gnum, gden, wdeg, grlex, gkey, first in terms:
                pn, pd, old = work.get(gamma, absent)
                key = gkey + bvc  # that of the contribution -g c b^gamma
                if pn is None:  # a stored term, old its least key
                    if key >= target_key and (key != old or not first):
                        pd.append((gnum, gden, times))
                        if key < old:
                            work[gamma] = (None, pd, key)
                        continue
                    pn, pd, _ = _summed(sub_times, zero, pd)
                    old = None  # a stored term has no heap entry
                elif old is None and key >= target_key:
                    work[gamma] = (None, [(gnum, gden, times)], key)
                    continue
                num, den, v = sub_times(pn, pd, gnum, gden, times)
                if v == INF:
                    work.pop(gamma, None)
                else:
                    key = b * v + wdeg
                    work[gamma] = (num, den, key)
                    if key != old:
                        heappush(heap, (key, grlex, gamma))
        steps += 1
        if steps > max_steps:
            raise PrecisionExhausted("canonicalization exceeded its step budget")

    # leftovers sit at or above the target: pure terms still belong to the
    # canonical part (exactly), everything else is bounded into the residual
    stored = []  # (least key, alpha, contributions) of the other stored terms
    for alpha, (num, den, key) in work.items():
        if lg.is_first_row(alpha):
            if num is None:  # sparse_sum drops a zero sum
                num, den, _ = _summed(sub_times, zero, den)
            canon.append((alpha, num, den))
        elif num is None:
            stored.append((key, alpha, den))
        else:
            residual = min(residual, key)
    # a stored term's key is at least its least key (ultrametric), so it is
    # summed only while that key lies below the residual; alpha breaks ties
    stored.sort()
    for least, alpha, contributions in stored:
        if least >= residual:
            break
        v = _summed(sub_times, zero, contributions)[2]
        residual = min(residual, b * v + w * sum(alpha))

    canon = sparse_sum((lg.to_canonical_index(alpha), Scalar(field, tuple(num), den))
                       for alpha, num, den in canon)
    residual = ctx.unscale(residual)
    return CanonicalForm(fam, r, canon, residual, steps, levels)


def _summed(sub_times, zero, contributions):
    """The exact (num, den, v) of a stored term: its contributions
    (g.num, g.den, times) subtracted from zero in arrival order, each by
    ``FieldSpec._sub_times``, as the eager update would have held it."""
    num, den, v = zero, 1, INF
    for gnum, gden, times in contributions:
        num, den, v = sub_times(num, den, gnum, gden, times)
    return num, den, v


def _required_truncation(alg, r, mprime):
    kappa, rexp = alg.kappa, r.exponent
    need = 1
    while kappa * (need + 1) * rexp < mprime + 1:
        need += 1
    return max(alg.N + 1, need)


def quotient_norm(fam, lam, r, mprime):
    """Norm of the canonical form (exact coefficient formula), as the
    exponent q of p^(-q), +inf when the form is zero.

    Raises PrecisionExhausted when the canonical form's norm cannot be
    separated from the residual bound.
    """
    form = canonicalize(fam, lam, r, mprime)
    q = form.norm()
    if not form.certified:
        shown = "0" if q == INF else f"p^-({q})"
        raise PrecisionExhausted(
            f"canonical norm {shown} not certified against residual "
            f"p^-({form.residual_exponent})"
        )
    return q


def domain_smoke_test(fam, r, trials, rng, mprime):
    """Quotient-norm multiplicativity on random canonical pairs.

    Each side is up to three first-row terms of degree <= min(3, N // 2)
    with coefficients unit * pi^v, 0 <= v <= 2 (``samplers.random_terms``),
    so the product of a pair stays within the truncation.  Multiplicativity
    of the quotient norm rules out zero divisors among the samples; any
    violation is raised as a counterexample.
    """
    alg = fam.algebra
    field, d = alg.field, fam.lgspec.d
    cap = min(3, alg.N // 2)
    for _ in range(trials):
        lam, mu = (fam.lift(random_terms(field, d, cap, rng, 3)) for _side in range(2))
        qa = quotient_norm(fam, lam, r, mprime)
        qb = quotient_norm(fam, mu, r, mprime)
        qab = quotient_norm(fam, alg.mul(lam, mu), r, mprime)
        if qab != qa + qb:
            raise CounterexampleFound(
                "quotient norm failed to be multiplicative",
                witness=(lam, mu, qa, qb, qab),
            )
    return True
