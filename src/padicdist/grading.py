"""Arithmetic in the graded ring k[e0^(+-1)][X_1, ..., X_nd] and its checks.

The filtration of D_r at a radius r = p^(-a/b) is one object,
SymbolContext: a term c b^alpha of a distribution has the exponent
v(c)/e + kappa |alpha| a/b, held as an int key scaled by e*b, which is
both the norm exponent it contributes and the degree of its symbol.  A
Symbol is a homogeneous element: every term e0^v X^alpha has the same
key, and its degree is that key as a Fraction.  Since e0 is an
invertible graded variable, an ideal generated by X-polynomials is
decided in k[X], and every ideal question here runs through one reduced
Groebner basis over the residue field (GroebnerBasis): the Krull dimension of the quotient, its
Hilbert function and normal forms are read off the leading monomials.
That makes the regular-sequence certificate, the quotient isomorphism and
symbol classes exact in every degree.  When a certificate fails, the
zero-divisor witness is found by ``padics.Subspace``, the one echelon
routine, on residue-field vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain, count

from .errors import (
    CounterexampleFound,
    DegreeMismatch,
    DimensionMismatch,
    InvalidArgument,
    NonUnitLeading,
)
from .indices import add_index, grlex_key, iter_exact_degree, sparse_sum, unit_index
from .padics import Subspace

INF = math.inf


@dataclass(frozen=True)
class SymbolContext:
    """The filtration of D_r at one radius r = p^(-a/b), a/b = ``rexp``:
    residue field, kappa, radius exponent and the X labels of gr D_r.

    The term c b^alpha has exponent v(c)/e + kappa |alpha| a/b, the norm
    exponent it contributes and the degree of its symbol; times ``den`` =
    e*b that is the int ``key(c, alpha)`` = b v(c) + w |alpha|, w = e
    kappa a.  Keys compare as exponents do; ``unscale`` turns one back into
    the exponent, a Fraction (+inf stays +inf).  Equality and hashing read
    the four constructor fields only.
    """

    field: object          # FieldSpec, provides e and the residue field
    kappa: int
    rexp: Fraction
    xlabels: tuple
    den: int = dc_field(init=False, repr=False, compare=False)
    b: int = dc_field(init=False, repr=False, compare=False)
    w: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rexp, e = self.rexp, self.field.e
        object.__setattr__(self, "den", e * rexp.denominator)
        object.__setattr__(self, "b", rexp.denominator)
        object.__setattr__(self, "w", e * self.kappa * rexp.numerator)

    def key(self, c, alpha):
        """The scaled exponent of the term c b^alpha."""
        return self.b * c.valuation + self.w * sum(alpha)

    def to_key(self, x):
        """The key of an exponent x, which must lie in (1/(e*b)) Z."""
        y = Fraction(x) * self.den
        if y.denominator != 1:
            raise InvalidArgument(f"exponent {x} is not a multiple of 1/{self.den}")
        return y.numerator

    def unscale(self, key):
        return key if key == INF else Fraction(key, self.den)

    def leading(self, dist):
        """One sweep over the terms of a distribution: the least key (+inf
        when zero) and the support indices attaining it."""
        key = self.key
        best, leads = INF, []
        for alpha, c in dist.coeffs.items():
            k = key(c, alpha)
            if k < best:
                best, leads = k, [alpha]
            elif k == best:
                leads.append(alpha)
        return best, leads


class Symbol:
    """A homogeneous element of k[e0^(+-1)][X_1..X_n]: every term
    e0^v X^alpha has one key b v + w |alpha| of its context, and
    ``degree`` is that key unscaled.  A sum or product of symbols of two
    contexts is refused with InvalidArgument."""

    __slots__ = ("context", "terms", "degree")

    def __init__(self, context, terms):
        self.context = context
        self.terms = {k: v for k, v in terms.items() if not v.is_zero}
        b, w = context.b, context.w
        keys = {b * v + w * sum(alpha) for (v, alpha) in self.terms}
        if len(keys) > 1:
            degrees = sorted(map(context.unscale, keys))
            raise DegreeMismatch(f"inhomogeneous symbol with degrees {degrees}")
        self.degree = context.unscale(keys.pop()) if keys else None

    @property
    def is_zero(self):
        return not self.terms

    def _require_context(self, other, what):
        """Refuse, with InvalidArgument, a symbol of another filtration."""
        if other.context is not self.context and other.context != self.context:
            raise InvalidArgument(f"{what} needs symbols of one filtration")

    def __add__(self, other):
        self._require_context(other, "a sum")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"adding symbols of degrees {self.degree} and {other.degree}"
            )
        return Symbol(self.context, sparse_sum(chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return Symbol(self.context, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_context(other, "a product")
        return Symbol(self.context, sparse_sum(
            ((w1 + w2, add_index(a1, a2)), c1 * c2)
            for (w1, a1), c1 in self.terms.items()
            for (w2, a2), c2 in other.terms.items()
        ))

    def scale(self, c):
        return Symbol(self.context, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Symbol)
            and self.context == other.context
            and self.terms == other.terms
        )

    def x_part(self):
        """(common e0-exponent, {alpha: coeff}) for symbols of pure X-degree.

        Raises InvalidArgument on the zero symbol, which has no X-part, and
        when terms mix e0-exponents; the F-shaped families never do.
        """
        if not self.terms:
            raise InvalidArgument("the zero symbol has no X-part")
        ws = {w for (w, _a) in self.terms}
        if len(ws) != 1:
            raise InvalidArgument("symbol mixes e0-exponents; no pure X-part")
        w = ws.pop()
        return w, {alpha: c for (ww, alpha), c in self.terms.items()}

    def __repr__(self):
        if not self.terms:
            return "0"
        labels = self.context.xlabels
        parts = []
        for (w, alpha) in sorted(self.terms, key=lambda k: (k[0], grlex_key(k[1]))):
            c = self.terms[(w, alpha)]
            factors = []
            cs = repr(c)
            if cs != "1" or (w == 0 and not any(alpha)):
                factors.append(cs)
            if w:
                factors.append(f"e0^{w}" if w != 1 else "e0")
            for k, a in enumerate(alpha):
                if a:
                    factors.append(f"{labels[k]}^{a}" if a > 1 else labels[k])
            parts.append(" * ".join(factors))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Groebner bases of ideals of k[X_1, ..., X_n]

def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _sub_multiple(work, c, shift, poly):
    """work -= c X^shift poly in place, dropping the terms that cancel: the
    one sum not through ``indices.sparse_sum``, as the Groebner inner loop
    changes its working polynomial in place."""
    for beta, b in poly.items():
        key = add_index(beta, shift)
        if key in work:
            s = work[key] - c * b
            if s.is_zero:
                del work[key]
            else:
                work[key] = s
        else:
            work[key] = -(c * b)


class GroebnerBasis:
    """The reduced Groebner basis of the ideal I of k[X_1..X_n] generated
    by ``polys``, each a dict {alpha: ResidueElem}, in the order
    ``grlex_key``.

    Buchberger's algorithm takes the pair of least lcm first and skips the
    pairs that Buchberger's two criteria settle (Cox, Little and O'Shea,
    *Ideals, Varieties, and Algorithms*, section 2.10): leads that are
    coprime (the product criterion), and a pair (i, j) when a third lead
    divides lcm(LT_i, LT_j) and its pairs with i and j are done (the chain
    criterion).  Everything else is read off the leading monomials.
    """

    def __init__(self, polys, nvars, kfield):
        self.nvars = nvars
        self.basis = []  # monic (lead, poly) pairs
        one = kfield.one()
        pending = {}  # (i, j) -> lcm of the leads, for the pairs still due
        for poly in polys:
            self._insert(poly, pending)
        while pending:
            (i, j), lcm = min(pending.items(), key=lambda item: grlex_key(item[1]))
            del pending[(i, j)]
            if not any(
                k not in (i, j)
                and _divides(lead, lcm)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k, (lead, _g) in enumerate(self.basis)
            ):
                spoly = {}
                for sign, (lead, g) in ((-one, self.basis[i]), (one, self.basis[j])):
                    _sub_multiple(spoly, sign, tuple(a - b for a, b in zip(lcm, lead)), g)
                self._insert(self.reduce(spoly), pending)
        leads = self.leads
        self.basis = [
            (lead, g) for k, (lead, g) in enumerate(self.basis)
            if not any(_divides(other, lead) and (other != lead or m < k)
                       for m, other in enumerate(leads) if m != k)
        ]
        self.basis = [
            (lead, {lead: one, **self.reduce({a: c for a, c in g.items() if a != lead})})
            for lead, g in self.basis
        ]

    def _insert(self, poly, pending):
        """Append poly, made monic, with its pairs that the product
        criterion does not settle."""
        if not poly:
            return
        lead = max(poly, key=grlex_key)
        inv = poly[lead].inv()
        for k, (other, _g) in enumerate(self.basis):
            lcm = tuple(map(max, lead, other))
            if lcm != add_index(lead, other):
                pending[(k, len(self.basis))] = lcm
        self.basis.append((lead, {a: c * inv for a, c in poly.items()}))

    @property
    def leads(self):
        return [lead for lead, _g in self.basis]

    def reduce(self, poly):
        """The normal form of poly: the remainder with no monomial that a
        lead divides, zero exactly when poly lies in I once the basis is
        complete."""
        work, out = dict(poly), {}
        while work:
            alpha = max(work, key=grlex_key)
            divisor = next(((lead, g) for lead, g in self.basis if _divides(lead, alpha)), None)
            if divisor is None:
                out[alpha] = work.pop(alpha)
            else:
                lead, g = divisor
                _sub_multiple(work, work[alpha], tuple(a - b for a, b in zip(alpha, lead)), g)
        return out

    def standard_monomials(self, degree):
        """The monomials of one degree that no lead divides: a basis of that
        component of k[X]/I, so their count is the Hilbert function."""
        leads = self.leads
        return [a for a in iter_exact_degree(self.nvars, degree)
                if not any(_divides(lead, a) for lead in leads)]

    @property
    def dimension(self):
        """The Krull dimension of k[X]/I: the most variables in which no
        lead is supported (-1 when I is the unit ideal)."""
        supports = [{t for t, a in enumerate(lead) if a} for lead in self.leads]
        if set() in supports:
            return -1
        return self.nvars - _min_cover(supports)


def _min_cover(supports):
    """The fewest variables that meet every support."""
    if not supports:
        return 0
    return 1 + min(_min_cover([s for s in supports if t not in s])
                   for t in min(supports, key=len))


def _relations(n, d, vbars, k, kfield):
    """The generators X_ij^k - vbar_i X_1j^k (i > 1)."""
    nvars = n * d
    out = []
    for j in range(d):
        for i in range(1, n):
            hi = unit_index(nvars, j * n + i, k)
            lo = unit_index(nvars, j * n, k)
            out.append({a: c for a, c in ((hi, kfield.one()), (lo, -vbars[i])) if not c.is_zero})
    return out


# ---------------------------------------------------------------------------
# regular sequences

def check_regular_sequence(family, D=None):
    """Certify that the symbol family is a regular sequence, in every ordering.

    A member is e0^w times an X-polynomial f, homogeneous of one X-degree,
    and e0 is a unit, so the question is one about the f in k[X].  There
    homogeneous f_1..f_c of positive degree are a regular sequence, in
    every order, iff dim k[X]/(f_1..f_c) = n - c (Bruns and Herzog,
    *Cohen-Macaulay Rings*, section 2.1); the dimension is exact, from one
    Groebner basis.  ``D``, a degree bound, is accepted from callers that
    still pass one and not read.

    Raises InvalidArgument for a zero member or one of X-degree 0 (a unit,
    which generates the whole ring).  Otherwise, when the family is not
    regular, let f_k be the first member whose prefix's dimension does not
    drop.  Then f_1..f_(k-1) is regular, its quotient Cohen-Macaulay, and
    f_k a zero divisor there: CounterexampleFound carries a witness
    g = {alpha: coeff}, nonzero modulo the prefix, with f_k g in it.
    """
    if not family:
        return True
    ctx = family[0].context
    kfield = ctx.field.residue_field
    nvars = len(ctx.xlabels)
    polys = []
    for sym in family:
        if sym.is_zero:
            raise InvalidArgument("a regular sequence has no zero member")
        _w, poly = sym.x_part()
        if not any(next(iter(poly))):
            raise InvalidArgument("a regular sequence has no member of X-degree 0 (a unit)")
        polys.append(poly)
    if GroebnerBasis(polys, nvars, kfield).dimension == nvars - len(polys):
        return True
    k = next(k for k in range(2, len(polys) + 1)
             if GroebnerBasis(polys[:k], nvars, kfield).dimension != nvars - k)
    raise CounterexampleFound(
        "zero divisor in the graded quotient",
        witness=_annihilated(GroebnerBasis(polys[:k - 1], nvars, kfield), polys[k - 1], kfield),
    )


def _annihilated(gb, f, kfield):
    """A nonzero normal form g with f g in the ideal of ``gb``, for a zero
    divisor f; searched degree by degree on the standard monomials.

    In each degree the rows [normal form of f mu | e_mu] are echelonized;
    a pivot in the unit block is a combination of the mu that f maps to I.
    """
    fdeg = sum(next(iter(f)))
    zero, one = kfield.zero(), kfield.one()
    for m in count():
        source = gb.standard_monomials(m)
        target = {a: t for t, a in enumerate(gb.standard_monomials(m + fdeg))}
        rows = Subspace(zero, len(target) + len(source))
        for j, mu in enumerate(source):
            normal = gb.reduce({add_index(a, mu): c for a, c in f.items()})
            rows.add([*((target[a], c) for a, c in normal.items()), (len(target) + j, one)])
        for lead in sorted(rows.pivots):
            if lead >= len(target):
                combo = rows.row(lead)[len(target):]
                return {mu: c for mu, c in zip(source, combo) if c}


# ---------------------------------------------------------------------------
# the quotient isomorphism and variable elimination

def quotient_iso_check(n, d, vbars, kfield):
    """k[X_11..X_nd]/(X_ij - vbar_i X_1j) is a polynomial ring in d variables.

    ``vbars`` lists the residue classes of v_1 = 1, ..., v_n.  The
    relations are linear, so their reduced Groebner basis is, and the
    quotient is the polynomial ring in the variables that are no lead, in
    every X-degree, iff there are d(n - 1) leads.  Raises
    DimensionMismatch otherwise.
    """
    leads = GroebnerBasis(_relations(n, d, vbars, 1, kfield), n * d, kfield).leads
    if len(leads) != d * (n - 1):
        raise DimensionMismatch(
            f"the relations leave {n * d - len(leads)} free variables, expected {d}"
        )
    return True


def symbol_class_nonzero(sym, h, vbars, n, d):
    """Whether a symbol survives in gr modulo (X_ij^(p^h) - vbar_i X_1j^(p^h)).

    The relations are X-polynomials and e0 is a unit, so the class vanishes
    iff the X-polynomial at every e0-exponent has normal form 0 under the
    relations' Groebner basis.  A nonzero class certifies that the quotient
    norm of any lift equals its lift norm.
    """
    ctx = sym.context
    kfield = ctx.field.residue_field
    gb = GroebnerBasis(_relations(n, d, vbars, ctx.field.p**h, kfield), n * d, kfield)
    pieces = {}
    for (w, alpha), c in sym.terms.items():
        pieces.setdefault(w, {})[alpha] = c
    return any(gb.reduce(poly) for poly in pieces.values())


def eliminate_to_first_row(symbol, n, d, vbars, target_context):
    """Apply X_ij -> vbar_i X_1j; the image lives in d variables."""
    terms = []
    for (w, alpha), coeff in symbol.terms.items():
        beta = [0] * d
        for j in range(d):
            for i in range(n):
                a = alpha[j * n + i]
                if a:
                    beta[j] += a
                    if i > 0:
                        coeff = coeff * vbars[i] ** a
        terms.append(((w, tuple(beta)), coeff))
    return Symbol(target_context, sparse_sum(terms))


# ---------------------------------------------------------------------------
# finite-rank quotients by univariate relations

def finite_rank_quotient(polys):
    """Free rank of k[e0^(+-1)][X_1..X_d] / (P_1(X_1), ..., P_d(X_d)).

    Each P_j is a list of coefficients in its own variable, each an
    element of k[e0^(+-1)] given as a map {e0-exponent: ResidueElem}: one
    whose values are all zero is zero, and one with exactly one nonzero
    value is a unit.  Each P_j must be nonconstant with unit leading
    coefficient.  Made monic, the P_j have leads X_j^(deg P_j) in distinct
    variables, so every pair of leads is coprime and, by Buchberger's
    first (product) criterion (Cox, Little and O'Shea, *Ideals, Varieties,
    and Algorithms*, section 2.9), the P_j are already a Groebner basis.
    The monomials X^beta with beta_j < deg P_j are then a basis of the
    quotient, whose rank is the product of the degrees.
    """
    rank = 1
    for j, coeffs in enumerate(polys):
        nonzero = [sum(not c.is_zero for c in coeff.values()) for coeff in coeffs]
        while nonzero and not nonzero[-1]:
            nonzero.pop()
        if len(nonzero) < 2:
            raise InvalidArgument(f"P_{j + 1} must be nonconstant")
        if nonzero[-1] != 1:
            raise NonUnitLeading(f"leading coefficient of P_{j + 1} is not a unit")
        rank *= len(nonzero) - 1
    return rank
