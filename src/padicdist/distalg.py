"""The truncated Banach-algebra model of distributions on a uniform group.

Elements are finitely supported series sum_alpha d_alpha b^alpha with
coefficients in K and support degree bounded by the truncation N; the
norm at a radius r = p^(-a/b) is sup |d_alpha| r^(kappa |alpha|), held in
exponent space and returned as the exponent q of p^(-q), a Fraction, or
+inf for zero.  The filtration at r is ``DistAlgebra.symbol_context(r)``
(``grading.SymbolContext``): the term d b^alpha has exponent v(d)/e +
kappa |alpha| a/b, kept as the int b v(d) + e kappa a |alpha| over e*b,
so every minimum over terms compares ints and a ``Fraction`` is built
only for the value returned; the same key is the degree of the term's
principal symbol.  Multiplication goes through the structure-constant
table: stored coefficients of a product are always the true ones, and
whatever lies beyond degree N is covered by a certified tail bound
(``mul_tail_bound``), so norm and symbol claims under the degree
precondition deg(lambda) + deg(mu) <= N are exact.  A product runs on packed coefficients: each element of K is
one int with a signed slot per basis element w^a pi^b (Kronecker
substitution, ``FieldSpec._pack``), so a support pair costs one int
product, and each output coefficient is unpacked and reduced in K once.

Distribution literals read and print as ``coeff * b1^2*b2 + ...``; the
coefficient grammar admits integers, fractions, ``p``, ``pi``, ``w`` and
products/powers of these, and a malformed literal is refused with
``ParseError`` at its position.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from math import lcm

from .errors import InvalidArgument, ParseError, ZeroDistribution
from .grading import Symbol, SymbolContext
from .indices import grlex_key, sparse_sum, unit_index
from .mahler import StructureConstants
from .padics import Scalar

INF = math.inf


class DistAlgebra:
    """The degree-N model of the distribution algebra of a lattice group."""

    def __init__(self, lattice, field, N, cache_dir=None):
        if field.p != lattice.p:
            raise InvalidArgument(
                f"field and lattice have different primes: {field.p} and {lattice.p}"
            )
        self.lattice = lattice
        self.field = field
        self.N = N
        self.table = StructureConstants(lattice, N, cache_dir=cache_dir)
        self.labels = lattice.labels
        self.xlabels = tuple("X" + lab[1:] for lab in self.labels)

    @property
    def d(self):
        return self.lattice.d

    @property
    def kappa(self):
        return self.lattice.kappa

    def symbol_context(self, r):
        return SymbolContext(self.field, self.kappa, r.exponent, self.xlabels)

    # -- constructors -----------------------------------------------------------

    def zero(self):
        return Distribution._of(self, {})

    def one(self):
        return Distribution._of(self, {(0,) * self.d: self.field.one()})

    def generator(self, i):
        """The series generator b_{i+1} = h_{i+1} - 1."""
        return Distribution._of(self, {unit_index(self.d, i): self.field.one()})

    def monomial(self, alpha, coeff=1):
        """coeff * b^alpha, checked as ``Distribution`` checks its terms."""
        return Distribution(self, {tuple(alpha): coeff})

    def from_terms(self, terms):
        """The distribution sum terms[alpha] b^alpha, checked as
        ``Distribution`` checks its terms."""
        return Distribution(self, terms)

    def delta(self, g):
        """The image of a group element: coefficients binom(x, alpha) in the
        second-kind coordinates x = nums / den.

        They are read off the table's binomial ladder: ``expansion(nums,
        den)`` is den^|alpha| alpha! binom(x, alpha), in the order of the
        table's ``_gammas``, so each coefficient is one rational v / scale,
        a Scalar built straight from its ints, the scale read off the
        table's degree and alpha! at that position.
        """
        nums, den = g.nums, g.den
        field, table = self.field, self.table
        zeros = (0,) * (field.degree - 1)
        powers = [den ** n for n in range(self.N + 1)]
        terms = {}
        scaled = table.expansion(nums, den)
        for alpha, v, n, f in zip(table._gammas, scaled, table._degree, table._factorial):
            if v:
                terms[alpha] = Scalar(field, (v, *zeros), powers[n] * f)
        return Distribution._of(self, terms)

    def log_series(self, i):
        """Degree-N truncation of log(1 + b_{i+1}).

        The discarded tail has norm exponent ``log_tail_exponent(N, r,
        kappa, p)`` at every radius r.
        """
        terms = {}
        for k in range(1, self.N + 1):
            coeff = Fraction((-1) ** (k - 1), k)
            terms[unit_index(self.d, i, k)] = self.field.scalar(coeff)
        return Distribution._of(self, terms)

    def binomial_series(self, i, v):
        """Degree-N truncation of (1 + b_{i+1})^v - 1, binom(v, k) b_{i+1}^k
        summed over 1 <= k <= N, v an int, a Fraction or an element of K
        (``FieldSpec.scalar``).  The sum stops at the first zero binom(v, k),
        a factor of every later one."""
        v = self.field.scalar(v)
        unit_index(self.d, i)  # refuses i also where the sum is empty
        coeff = self.field.one()
        terms = {}
        for k in range(1, self.N + 1):
            coeff = (coeff * (v - (k - 1))).scale(Fraction(1, k))
            if coeff.is_zero:
                break
            terms[unit_index(self.d, i, k)] = coeff
        return Distribution._of(self, terms)

    # -- multiplication ----------------------------------------------------------

    def mul(self, lam, mu):
        """Product through the structure-constant table.

        Both operands must be distributions of this algebra; any other is
        refused with InvalidArgument.  Stored coefficients (degree <= N)
        are exact; what the product has beyond degree N is dropped, and
        ``mul_tail_bound`` bounds its norm.
        Each operand is cleared to int vectors over one denominator and
        each vector packed into one int (``FieldSpec._pack``), so one int
        product U V is the product of two coefficients in Z[w, pi],
        unreduced.  Per gamma the sum of c U V over the table's int rows,
        each walked as its flat [g, c, g, c, ...] list, is one int,
        gathered under gamma's position g in the table's ``_gammas``; each
        output gamma is unpacked once, its slots reduced in K
        (``FieldSpec._unpacked``), and one Scalar built over
        the denominator a product of Scalars has, keyed by gamma itself.
        Per alpha the sum walks alpha's nonempty rows when they are fewer
        than mu's terms, and mu's terms otherwise.  The rows are read with
        no per-alpha check (``StructureConstants._rows_of``): the keys of
        an element of this algebra were checked against its table when it
        was made.

        The slot width: slot w^A pi^B of U V adds at most [K:Q_p] products
        x y of operand coordinates (at most f ways to split A and e to split
        B), and the sum at gamma adds c U V over at most len(lam) len(mu)
        support pairs, so every slot is bounded by pairs * max|c| * [K:Q_p]
        * max|x| * max|y|, max|c| being the table's ``_peak``.  Packing is
        linear over Z, so only those sums must fit, and W = bit_length(bound)
        + 1 bits hold every value of absolute value below 2^(W-1).
        """
        _require_algebra(self, "a product", lam, mu)
        field, table = self.field, self.table
        lden, lterms = _cleared(lam)
        mden, mterms = _cleared(mu)
        # reading den builds a non-abelian table, so its peak is read after
        den = lden * mden * field._den * table.den
        bound = len(lterms) * len(mterms) * table._peak * field.degree * _peak(lterms) * _peak(mterms)
        width = bound.bit_length() + 1
        mvalue = dict(field._pack(mterms, width))
        acc = {}
        get = acc.get
        rows_of = table._rows_of
        for alpha, U in field._pack(lterms, width):
            rows = rows_of(alpha)
            if len(rows) <= len(mvalue):
                # alpha's nonempty rows, when fewer than mu's terms
                pairs = zip(rows.values(), map(mvalue.get, rows))
            else:
                pairs = zip(map(rows.get, mvalue), mvalue.values())
            for row, V in pairs:
                if row and V is not None:
                    UV, it = U * V, iter(row)
                    for g in it:
                        acc[g] = get(g, 0) + next(it) * UV
        out = {}
        gammas = table._gammas
        for g, vec in zip(acc, field._unpacked(acc.values(), width)):
            if any(vec):
                out[gammas[g]] = Scalar(field, tuple(vec), den)
        return Distribution._of(self, out)

    # -- parsing / printing --------------------------------------------------------

    def parse(self, text):
        return _parse_distribution(self, text)

    def format(self, dist):
        if not dist.coeffs:
            return "0"
        parts = []
        for alpha in sorted(dist.coeffs, key=grlex_key):
            c = dist.coeffs[alpha]
            mono = "*".join(
                f"{self.labels[k]}^{alpha[k]}" if alpha[k] > 1 else self.labels[k]
                for k in range(self.d)
                if alpha[k]
            )
            cs = c.short_str()
            if " + " in cs:
                cs = f"({cs})"
            if mono:
                parts.append(f"{cs} * {mono}" if cs != "1" else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)


def _require_algebra(algebra, what, *dists):
    """Refuse with InvalidArgument any of ``dists`` not of ``algebra``."""
    for dist in dists:
        if not (isinstance(dist, Distribution) and dist.algebra is algebra):
            raise InvalidArgument(f"{what} needs distributions of one algebra")


def _cleared(dist):
    """(D, [(alpha, num, k), ...]): the coefficients of ``dist`` over one
    common denominator D, coefficient alpha being the int vector num * k."""
    coeffs = dist.coeffs
    den = lcm(*(c.den for c in coeffs.values()))
    return den, [(alpha, c.num, den // c.den) for alpha, c in coeffs.items()]


def _peak(terms):
    """The largest |x| over the coordinates x of the int vectors num * k of
    the (alpha, num, k) triples ``terms``."""
    return max((max(map(abs, num)) * k for _, num, k in terms), default=0)


class Distribution:
    """A finitely supported series over the generator monomials; a sum or
    product with an element of another algebra is refused."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        """sum coeffs[alpha] b^alpha.  An alpha that is not a multi-index in
        N_0^d is refused with PadicError, one of degree above N with
        DegreeOverflow (``StructureConstants._check``), and a coefficient
        that is not an element of K with InvalidArgument
        (``FieldSpec.scalar``); zero terms are dropped."""
        check, scalar = algebra.table._check, algebra.field.scalar
        out = {}
        for alpha, c in coeffs.items():
            alpha = tuple(alpha)
            check(alpha)
            c = scalar(c)
            if not c.is_zero:
                out[alpha] = c
        self.algebra = algebra
        self.coeffs = out

    @classmethod
    def _of(cls, algebra, coeffs):
        """The distribution of ``coeffs`` as given, unchecked: for keys
        that are checked multi-indices and nonzero Scalars of the field."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.coeffs = coeffs
        return out

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Max support degree (-inf when zero)."""
        return max((sum(a) for a in self.coeffs), default=-INF)

    def __add__(self, other):
        _require_algebra(self.algebra, "a sum", other)
        return Distribution._of(
            self.algebra, sparse_sum(chain(self.coeffs.items(), other.coeffs.items()))
        )

    def __neg__(self):
        return Distribution._of(self.algebra, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Distribution):
            return self.algebra.mul(self, other)
        return self.scale(other)

    def scale(self, c):
        c = self.algebra.field.scalar(c)
        if c.is_zero:
            return Distribution._of(self.algebra, {})
        return Distribution._of(self.algebra, {a: v * c for a, v in self.coeffs.items()})

    def norm(self, r):
        """sup_alpha |d_alpha| r^(kappa |alpha|) as its exponent q: the
        norm is p^(-q), q a Fraction, or +inf for the zero distribution."""
        ctx = self.algebra.symbol_context(r)
        return ctx.unscale(ctx.leading(self)[0])

    def leading_support(self, r):
        """Support indices attaining the norm."""
        return self.algebra.symbol_context(r).leading(self)[1]

    def principal_symbol(self, r):
        """The leading form in the graded ring k[e0^(+-1)][X..]."""
        if not self.coeffs:
            raise ZeroDistribution("the zero distribution has no principal symbol")
        ctx = self.algebra.symbol_context(r)
        terms = {}
        for alpha in ctx.leading(self)[1]:
            c = self.coeffs[alpha]
            terms[(c.valuation, alpha)] = c.leading_residue()
        return Symbol(ctx, terms)

    def __eq__(self, other):
        return (
            isinstance(other, Distribution)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Dist({self.algebra.format(self)})"


def mul_tail_key(ctx, lam, mu):
    """The key at the filtration ``ctx`` of ``mul_tail_bound(lam, mu, r)``."""
    alg = lam.algebra
    N, has_tail = alg.N, alg.table.has_tail
    b, w = ctx.b, ctx.w
    shift = ctx.den * alg.kappa  # kappa, scaled
    best = INF
    for alpha, da in lam.coeffs.items():
        for beta, eb in mu.coeffs.items():
            if not has_tail(alpha, beta):
                continue
            base = b * (da.valuation + eb.valuation)
            tot = sum(alpha) + sum(beta)
            cand1 = base + shift * max(0, tot - (N + 1)) + w * (N + 1)
            cand2 = base + w * max(N + 1, tot)
            best = min(best, cand1, cand2)
    return best


def mul_tail_bound(lam, mu, r):
    """Certified norm-exponent lower bound for what mul() discards.

    For each support pair the dropped coefficients at degree g > N satisfy
    v_p(c) >= max(0, kappa (|alpha|+|beta| - g)), so the dropped term
    exponent is minimized at g = N+1 or g = |alpha|+|beta|; both endpoint
    bounds are taken.  Returns +inf when nothing can have been discarded.
    A ``mu`` of another algebra than ``lam`` is refused with InvalidArgument.
    """
    _require_algebra(lam.algebra, "a tail bound", mu)
    ctx = lam.algebra.symbol_context(r)
    return ctx.unscale(mul_tail_key(ctx, lam, mu))


# ---------------------------------------------------------------------------
# text form

_TOKEN_RE = re.compile(r"\s*([+-]|\*|\^|/|\(|\)|\d+|pi|p|w|b\d+)")


def _parse_distribution(algebra, text):
    """A literal: terms joined by + and -, each a run of signs and then
    factors joined by *.  A factor is p, pi, w, a generator or an int, each
    with an optional ^ and an int exponent, the int optionally over an int
    with its own exponent (3^2/4 is 9/4, 3/4^2 is 3/16); or a parenthesized
    sum of terms without generators, as ``format`` writes a coefficient of
    several parts.  Anything else is refused with ParseError at its
    position; the terms go through ``from_terms``, so a monomial above the
    table's degree is refused with DegreeOverflow."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected input {text[pos:pos + 8]!r}", position=pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    if not tokens:
        raise ParseError("empty distribution literal", position=0)
    tokens.append((None, len(text.rstrip())))  # the end of the literal

    field = algebra.field
    idx = 0

    def peek():
        return tokens[idx][0]

    def integer(what, at):
        nonlocal idx
        tok = peek()
        if tok is None or not tok.isdigit():
            raise ParseError(what, position=at)
        idx += 1
        return int(tok)

    def power(at):
        nonlocal idx
        if peek() != "^":
            return 1
        idx += 1
        return integer("exponent must be an integer", at)

    def terms(group_at):
        """{alpha: coefficient} of the terms up to the end of the literal,
        or, inside the parenthesis at ``group_at``, up to its close; an
        alpha whose coefficients sum to zero is absent (``sparse_sum``)."""
        nonlocal idx
        out = []
        while True:
            sign = 1
            while peek() in ("+", "-"):
                if peek() == "-":
                    sign = -sign
                idx += 1
            coeff = field.scalar(sign)
            alpha = [0] * algebra.d
            while True:
                tok, base_pos = tokens[idx]
                if tok is None or tok in ("+", "-", "*", "^", "/", ")"):
                    found = "the end" if tok is None else repr(tok)
                    raise ParseError(f"expected a factor, found {found}", position=base_pos)
                idx += 1
                if tok == "(":
                    coeff = coeff * terms(base_pos).get((0,) * algebra.d, field.zero())
                elif tok.isdigit():
                    value = Fraction(int(tok) ** power(base_pos))
                    if peek() == "/":
                        idx += 1
                        den_pos = tokens[idx][1]
                        den = integer("bad fraction", base_pos)
                        if not den:
                            raise ParseError("zero denominator", position=den_pos)
                        value /= den ** power(den_pos)
                    coeff = coeff * value
                elif tok in ("p", "pi", "w"):
                    unit = (Fraction(field.p) if tok == "p" else
                            field.uniformizer() if tok == "pi" else field.unram_gen())
                    coeff = coeff * unit ** power(base_pos)
                elif group_at is not None:
                    raise ParseError(f"generator {tok!r} inside parentheses", position=base_pos)
                else:
                    alpha[_generator_index(algebra, tok, base_pos)] += power(base_pos)
                tok, at = tokens[idx]
                if tok == "*":
                    idx += 1
                elif tok is None or tok in ("+", "-", ")"):
                    break
                else:
                    raise ParseError(f"expected *, + or - before {tok!r}", position=at)
            out.append((tuple(alpha), coeff))
            if tok in ("+", "-"):
                continue
            if tok is None and group_at is not None:
                raise ParseError("unclosed (", position=group_at)
            if tok == ")" and group_at is None:
                raise ParseError("unmatched )", position=at)
            idx += tok == ")"
            return sparse_sum(out)

    return algebra.from_terms(terms(None))


def _generator_index(algebra, token, pos):
    try:
        return algebra.labels.index(token)
    except ValueError:
        raise ParseError(f"unknown generator {token!r}", position=pos) from None

