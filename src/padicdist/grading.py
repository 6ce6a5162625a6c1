"""Arithmetic in the graded ring k[e0^(+-1)][X_1, ..., X_nd] and its checks.

A Symbol is a homogeneous element: every term e0^w X^alpha satisfies
w/e + kappa |alpha| (a/b) = degree.  Since e0 is an invertible graded
variable, ideal and zero-divisor questions on homogeneous elements reduce
to linear algebra over the residue field k on X-monomial components; no
Groebner engine is needed for anything in scope.  The one place a
rewriting system appears (finite_rank_quotient) the generators are
univariate in distinct variables, where the S-pair criterion is checked
directly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb

from .errors import (
    CounterexampleFound,
    DegreeMismatch,
    DimensionMismatch,
    InvalidArgument,
    NonUnitLeading,
    SweepLimit,
)
from .indices import add_index, grlex_key, iter_exact_degree
from .padics import ResidueElem

INF = math.inf

# check_regular_sequence sweeps every ordering of its family: 6! = 720.
MAX_REGSEQ_FAMILY = 6


@dataclass(frozen=True)
class SymbolContext:
    """Ambient data of a graded ring: residue field, kappa, radius exponent."""

    field: object          # FieldSpec, provides e and the residue field
    kappa: int
    rexp: Fraction
    xlabels: tuple

    def term_degree(self, w, alpha):
        return Fraction(w, self.field.e) + self.kappa * sum(alpha) * self.rexp


class Symbol:
    """A homogeneous element of k[e0^(+-1)][X_1..X_n]."""

    __slots__ = ("context", "terms", "degree")

    def __init__(self, context, terms):
        self.context = context
        self.terms = {k: v for k, v in terms.items() if not v.is_zero}
        degrees = {context.term_degree(w, alpha) for (w, alpha) in self.terms}
        if len(degrees) > 1:
            raise DegreeMismatch(f"inhomogeneous symbol with degrees {sorted(degrees)}")
        self.degree = degrees.pop() if degrees else None

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"adding symbols of degrees {self.degree} and {other.degree}"
            )
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            s = c if prev is None else prev + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return Symbol(self.context, out)

    def __neg__(self):
        return Symbol(self.context, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (w1, a1), c1 in self.terms.items():
            for (w2, a2), c2 in other.terms.items():
                key = (w1 + w2, add_index(a1, a2))
                c = c1 * c2
                prev = out.get(key)
                s = c if prev is None else prev + c
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Symbol(self.context, out)

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

        Raises InvalidArgument when terms mix e0-exponents; the F-shaped
        families never do.
        """
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
# linear algebra over the residue field

class Subspace:
    """Row-reduced span of vectors over k, supporting membership tests.

    Vectors are lists of ``ResidueElem`` codes.  A pivot row is stored
    normalized, in the sparse form of ``ResidueField.scaled_row``, so a
    row operation is one ``ResidueField.sub_scaled_row``.
    """

    def __init__(self, kfield, dim):
        self.kfield = kfield
        self.dim = dim
        self.pivots = {}  # leading column -> normalized sparse row
        self._leads = []  # pivot columns, ascending

    def reduce(self, vec):
        vec = list(vec)
        sub = self.kfield.sub_scaled_row
        for lead in self._leads:
            sub(vec, vec[lead], self.pivots[lead])
        return vec

    def add(self, vec):
        """Insert; returns False when the vector was already in the span."""
        vec = self.reduce(vec)
        lead = next((r for r in range(self.dim) if vec[r]), None)
        if lead is None:
            return False
        self.pivots[lead] = self.kfield.scaled_row(vec, lead)
        bisect.insort(self._leads, lead)
        return True

    def row(self, lead):
        """The normalized pivot row with leading column ``lead``, as codes."""
        return self.kfield.row_codes(self.pivots[lead], self.dim)

    def contains(self, vec):
        return not any(self.reduce(vec))

    @property
    def rank(self):
        return len(self.pivots)


def _component_basis(nvars, degree):
    """The X-monomials of one total degree, each mapped to its coordinate."""
    return {a: i for i, a in enumerate(iter_exact_degree(nvars, degree))}


def _poly_vector(poly, basis, shift=None):
    """Codes of the coordinates of poly * X^shift in a component basis."""
    vec = [0] * len(basis)
    for alpha, c in poly.items():
        vec[basis[alpha if shift is None else add_index(alpha, shift)]] = c.code
    return vec


def _ideal_component(gens, degree, basis, kfield):
    """The degree part of the ideal of X-homogeneous (poly, degree) generators.

    Spanned by every generator times every monomial of the complementary
    degree, written in ``basis`` (a ``_component_basis``).
    """
    nvars = len(next(iter(basis)))
    span = Subspace(kfield, len(basis))
    for gpoly, gdeg in gens:
        if degree >= gdeg:
            for mu in iter_exact_degree(nvars, degree - gdeg):
                span.add(_poly_vector(gpoly, basis, mu))
    return span


def _relations(n, d, vbars, k, kfield):
    """The generators X_ij^k - vbar_i X_1j^k (i > 1) as (poly, k) pairs."""
    nvars = n * d
    out = []
    for j in range(d):
        for i in range(1, n):
            hi = tuple(k if t == j * n + i else 0 for t in range(nvars))
            lo = tuple(k if t == j * n else 0 for t in range(nvars))
            out.append(({hi: kfield.one(), lo: -vbars[i]}, k))
    return out


# ---------------------------------------------------------------------------
# regular sequences (bounded certificates)

def check_regular_sequence(family, D):
    """Certify that the symbol family is a regular sequence up to X-degree D.

    For every ordering and every prefix, the next element must not divide
    zero modulo the ideal of the previous ones, verified by rank counts
    over k on each graded component of total X-degree <= D.  The
    certificate is bounded by D, not a full proof.  Raises
    CounterexampleFound with a witness polynomial on failure.
    """
    if not family:
        return True
    if len(family) > MAX_REGSEQ_FAMILY:
        raise SweepLimit(
            f"ordering sweep limited to families of size <= {MAX_REGSEQ_FAMILY}"
        )
    ctx = family[0].context
    kfield = ctx.field.residue_field
    nvars = len(ctx.xlabels)
    polys = []
    for sym in family:
        _w, xp = sym.x_part()
        degs = {sum(a) for a in xp}
        if len(degs) != 1:
            raise InvalidArgument("family members must have pure X-degree")
        polys.append((xp, degs.pop()))

    seen = set()
    for order in permutations(range(len(polys))):
        for k in range(1, len(order) + 1):
            cand = order[k - 1]
            prev = frozenset(order[: k - 1])
            key = (prev, cand)
            if key in seen:
                continue
            seen.add(key)
            _check_not_zero_divisor(
                polys[cand], [polys[i] for i in prev], D, nvars, kfield
            )
    return True


def _check_not_zero_divisor(cand, gens, D, nvars, kfield):
    """Multiplication by cand is injective on (R/I)_m for every m <= D - deg.

    With I the ideal of gens, cand * I_m lies in I_t (t = m + deg), so the
    image of (R/I)_m in (R/I)_t has the dimension the products cand * mu
    add to the rank of I_t; injectivity is image + rank(I_m) = dim R_m.
    """
    cpoly, cdeg = cand
    for m in range(0, max(0, D - cdeg) + 1):
        basis_m = _component_basis(nvars, m)
        basis_t = _component_basis(nvars, m + cdeg)
        ideal_t = _ideal_component(gens, m + cdeg, basis_t, kfield)
        rank_t = ideal_t.rank
        for mu in basis_m:
            ideal_t.add(_poly_vector(cpoly, basis_t, mu))
        ideal_m = _ideal_component(gens, m, basis_m, kfield)
        if ideal_t.rank - rank_t + ideal_m.rank == len(basis_m):
            continue
        # the witness: echelonize [cand * mu reduced by I_t | e_mu]; pivots
        # leading in the unit block span the kernel, and one is not in I_m
        ideal_t = _ideal_component(gens, m + cdeg, basis_t, kfield)
        dim_t, dim_m = len(basis_t), len(basis_m)
        pairs = Subspace(kfield, dim_t + dim_m)
        for mu, j in basis_m.items():
            unit = [0] * dim_m
            unit[j] = 1
            pairs.add(ideal_t.reduce(_poly_vector(cpoly, basis_t, mu)) + unit)
        kernel = (pairs.row(lead)[dim_t:] for lead in sorted(pairs.pivots) if lead >= dim_t)
        combo = next(c for c in kernel if not ideal_m.contains(c))
        raise CounterexampleFound(
            "zero divisor in the graded quotient",
            witness={mu: ResidueElem(kfield, combo[j]) for mu, j in basis_m.items() if combo[j]},
        )


# ---------------------------------------------------------------------------
# the quotient isomorphism (dimension counts) and variable elimination

def quotient_iso_check(n, d, vbars, kfield, cap=5):
    """Component dimensions of k[X_11..X_nd]/(X_ij - vbar_i X_1j) vs k[X_11..X_1d].

    ``vbars`` lists the residue classes of v_1 = 1, ..., v_n.  Checks every
    X-degree up to the cap; raises DimensionMismatch on failure.
    """
    rels = _relations(n, d, vbars, 1, kfield)
    for m in range(0, cap + 1):
        basis = _component_basis(n * d, m)
        got = len(basis) - _ideal_component(rels, m, basis, kfield).rank
        expected = comb(m + d - 1, d - 1)
        if got != expected:
            raise DimensionMismatch(
                f"degree-{m} component has dimension {got}, expected {expected}"
            )
    return True


def symbol_class_nonzero(sym, h, vbars, n, d):
    """Whether a symbol survives in gr modulo (X_ij^(p^h) - vbar_i X_1j^(p^h)).

    The relation generators are X-homogeneous, so the class vanishes iff
    every fixed-X-degree piece of the symbol lies in the span of the
    generator multiples of that degree; this is checked by exact linear
    algebra over k.  A nonzero class certifies that the quotient norm of
    any lift equals its lift norm.
    """
    if sym.is_zero:
        return False
    ctx = sym.context
    kfield = ctx.field.residue_field
    step = ctx.field.p**h
    rels = _relations(n, d, vbars, step, kfield)
    pieces = {}
    for (w, alpha), c in sym.terms.items():
        pieces.setdefault(sum(alpha), {})[alpha] = c
    for deg, poly in pieces.items():
        if deg < step:
            return True  # no generator multiples exist at this degree
        basis = _component_basis(n * d, deg)
        span = _ideal_component(rels, deg, basis, kfield)
        if not span.contains(_poly_vector(poly, basis)):
            return True
    return False


def eliminate_to_first_row(symbol, n, d, vbars, target_context):
    """Apply X_ij -> vbar_i X_1j; the image lives in d variables."""
    out = {}
    for (w, alpha), c in symbol.terms.items():
        coeff = c
        beta = [0] * d
        for j in range(d):
            for i in range(n):
                a = alpha[j * n + i]
                if a:
                    beta[j] += a
                    if i > 0:
                        coeff = coeff * vbars[i] ** a
        key = (w, tuple(beta))
        prev = out.get(key)
        s = coeff if prev is None else prev + coeff
        if s.is_zero:
            out.pop(key, None)
        else:
            out[key] = s
    return Symbol(target_context, out)


# ---------------------------------------------------------------------------
# finite-rank quotients by univariate relations

class LaurentScalar:
    """An element of k[e0, e0^-1], as a sparse exponent -> k map."""

    __slots__ = ("kfield", "terms")

    def __init__(self, kfield, terms=None):
        self.kfield = kfield
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero}

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_unit(self):
        return len(self.terms) == 1

    def unit_inv(self):
        if not self.is_unit:
            raise NonUnitLeading(f"{self} is not a unit of k[e0^(+-1)]")
        ((w, c),) = self.terms.items()
        return LaurentScalar(self.kfield, {-w: c.inv()})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, self.kfield.zero()) + c
            if s.is_zero:
                out.pop(w, None)
            else:
                out[w] = s
        return LaurentScalar(self.kfield, out)

    def __neg__(self):
        return LaurentScalar(self.kfield, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = out.get(w, self.kfield.zero()) + c1 * c2
                if s.is_zero:
                    out.pop(w, None)
                else:
                    out[w] = s
        return LaurentScalar(self.kfield, out)

    def __eq__(self, other):
        return isinstance(other, LaurentScalar) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c!r}*e0^{w}" if w else repr(c) for w, c in sorted(self.terms.items())
        )


def _reduce_by_rules(poly, rules, d):
    """Normal form of {alpha: LaurentScalar} under X_j^{D_j} -> lower terms."""
    work = dict(poly)
    out = {}
    while work:
        alpha = max(work, key=grlex_key)
        coeff = work.pop(alpha)
        if coeff.is_zero:
            continue
        for j in range(d):
            Dj, lower = rules[j]
            if alpha[j] >= Dj:
                rest = tuple(a - (Dj if t == j else 0) for t, a in enumerate(alpha))
                for tdeg, c in lower.items():
                    key = tuple(
                        rest[t] + (tdeg if t == j else 0) for t in range(d)
                    )
                    add = coeff * c
                    work[key] = work.get(key, LaurentScalar(add.kfield)) + add
                break
        else:
            out[alpha] = out.get(alpha, LaurentScalar(coeff.kfield)) + coeff
    return {a: c for a, c in out.items() if not c.is_zero}


def finite_rank_quotient(polys, kfield):
    """Free rank of k[e0^(+-1)][X_1..X_d] / (P_1(X_1), ..., P_d(X_d)).

    Each P_j is a list of LaurentScalar coefficients in its own variable,
    nonconstant with unit leading coefficient.  The monomial basis
    {X^beta : beta_j < deg P_j} is certified by reducing every S-pair of
    the (pairwise coprime-leading) relations to zero; the rank is the
    product of the degrees.
    """
    d = len(polys)
    rules = []
    for j, coeffs in enumerate(polys):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        if len(coeffs) < 2:
            raise InvalidArgument(f"P_{j + 1} must be nonconstant")
        lead = coeffs[-1]
        if not lead.is_unit:
            raise NonUnitLeading(f"leading coefficient of P_{j + 1} is not a unit")
        inv = lead.unit_inv()
        Dj = len(coeffs) - 1
        lower = {t: -(coeffs[t] * inv) for t in range(Dj) if not coeffs[t].is_zero}
        rules.append((Dj, lower))

    # S-pair certificate: relations in distinct variables, coprime leads
    for i in range(d):
        for j in range(i + 1, d):
            Di, lower_i = rules[i]
            Dj, lower_j = rules[j]
            spair = {}
            for t, c in lower_i.items():
                key = tuple(
                    (t if v == i else (Dj if v == j else 0)) for v in range(d)
                )
                spair[key] = spair.get(key, LaurentScalar(kfield)) - c
            for t, c in lower_j.items():
                key = tuple(
                    (t if v == j else (Di if v == i else 0)) for v in range(d)
                )
                spair[key] = spair.get(key, LaurentScalar(kfield)) + c
            if _reduce_by_rules(spair, rules, d):
                raise CounterexampleFound(
                    "S-pair does not reduce to zero", witness=(i, j)
                )

    rank = 1
    for Dj, _lower in rules:
        rank *= Dj
    return rank
