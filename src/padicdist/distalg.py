"""The truncated Banach-algebra model of distributions on a uniform group.

Elements are finitely supported series sum_alpha d_alpha b^alpha with
coefficients in K and support degree bounded by the truncation N; the
norm at a radius r = p^(-a/b) is sup |d_alpha| r^(kappa |alpha|), held in
exponent space.  Inside the library an exponent is kept scaled by e*b
(``ExponentScale``): the term d b^alpha has exponent v(d)/e + kappa
|alpha| a/b, that is the int b v(d) + e kappa a |alpha| over e*b, so
every minimum over terms compares ints and a ``Fraction`` (or
``NormValue``) is built only for the value returned.  Multiplication
goes through the structure-constant table: stored coefficients of a
product are always the true ones, and whatever lies beyond degree N is
covered by a certified tail bound (``mul_tail_bound``), so norm and
symbol claims under the degree precondition deg(lambda) + deg(mu) <= N
are exact.  A product runs on packed coefficients: each element of K is
one int with a signed slot per basis element w^a pi^b (Kronecker
substitution, ``FieldSpec._pack``), so a support pair costs one int
product, and each output coefficient is unpacked and reduced in K once.

Distribution literals read and print as ``coeff * b1^2*b2 + ...``; the
coefficient grammar admits integers, fractions, ``p``, ``pi``, ``w`` and
products/powers of these.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import factorial, lcm, prod

from .errors import DegreeOverflow, InvalidArgument, ParseError, ZeroDistribution
from .grading import Symbol, SymbolContext
from .indices import grlex_key, iter_multi_indices, unit_index
from .mahler import StructureConstants
from .padics import Scalar
from .radii import NormValue

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
        return Distribution(self, {})

    def one(self):
        return Distribution(self, {(0,) * self.d: self.field.one()})

    def generator(self, i):
        """The series generator b_{i+1} = h_{i+1} - 1."""
        return Distribution(self, {unit_index(self.d, i): self.field.one()})

    def monomial(self, alpha, coeff=1):
        alpha = tuple(alpha)
        if sum(alpha) > self.N:
            raise DegreeOverflow(f"monomial degree {sum(alpha)} exceeds N = {self.N}")
        c = self.field.scalar(coeff)
        return Distribution(self, {} if c.is_zero else {alpha: c})

    def from_terms(self, terms):
        out = {}
        for alpha, c in terms.items():
            alpha = tuple(alpha)
            if sum(alpha) > self.N:
                raise DegreeOverflow(f"support degree {sum(alpha)} exceeds N = {self.N}")
            c = self.field.scalar(c)
            if not c.is_zero:
                out[alpha] = c
        return Distribution(self, out)

    def delta(self, g):
        """The image of a group element: coefficients binom(x, alpha) in the
        second-kind coordinates x = nums / den.

        They are read off the table's binomial ladder: ``expansion(nums,
        den)`` is den^|alpha| alpha! binom(x, alpha), in the order of
        ``iter_multi_indices(d, N)``, so each coefficient is one rational
        v / scale, a Scalar built straight from its ints.
        """
        nums, den = g.nums, g.den
        field = self.field
        zeros = (0,) * (field.degree - 1)
        terms = {}
        scaled = self.table.expansion(nums, den)
        for alpha, v in zip(iter_multi_indices(self.d, self.N), scaled):
            if v:
                scale = den ** sum(alpha) * prod(map(factorial, alpha))
                terms[alpha] = Scalar(field, (v, *zeros), scale)
        return Distribution(self, terms)

    def log_series(self, i):
        """Degree-N truncation of log(1 + b_{i+1}).

        The discarded tail has norm exponent ``log_tail_exponent(N, r,
        kappa, p)`` at every radius r.
        """
        terms = {}
        for k in range(1, self.N + 1):
            coeff = Fraction((-1) ** (k - 1), k)
            terms[tuple(k if j == i else 0 for j in range(self.d))] = self.field.scalar(coeff)
        return Distribution(self, terms)

    # -- multiplication ----------------------------------------------------------

    def mul(self, lam, mu):
        """Product through the structure-constant table.

        Stored coefficients (degree <= N) are exact; what the product has
        beyond degree N is dropped, and ``mul_tail_bound`` bounds its norm.
        Each operand is cleared to int vectors over one denominator and
        each vector packed into one int (``FieldSpec._pack``), so one int
        product U V is the product of two coefficients in Z[w, pi],
        unreduced.  Per gamma the sum of c U V over the table's int rows is
        one int; each output gamma is unpacked once, its slots reduced in K
        (``FieldSpec._unpacked``), and one Scalar built over the denominator
        a product of Scalars has.

        The slot width: slot w^A pi^B of U V adds at most [K:Q_p] products
        x y of operand coordinates (at most f ways to split A and e to split
        B), and the sum at gamma adds c U V over at most len(lam) len(mu)
        support pairs, so every slot is bounded by pairs * max|c| * [K:Q_p]
        * max|x| * max|y|, max|c| being the table's ``_peak``.  Packing is
        linear over Z, so only those sums must fit, and W = bit_length(bound)
        + 1 bits hold every value of absolute value below 2^(W-1).
        """
        field, table = self.field, self.table
        lden, lterms = _cleared(lam)
        mden, mterms = _cleared(mu)
        # reading den builds a non-abelian table, so its rows and peak are read after
        den = lden * mden * field._den * table.den
        bound = len(lterms) * len(mterms) * table._peak * field.degree * _peak(lterms) * _peak(mterms)
        width = bound.bit_length() + 1
        rows, int_row = table._rows, table.int_row
        mpacked = field._pack(mterms, width)
        acc = {}
        get = acc.get
        if table.lattice.abelian:
            index, mvalue = {}, None
        else:
            index, mvalue = table.nonzero_rows(), dict(mpacked)
            if not index.keys() >= mvalue.keys():
                # the walk of an alpha's rows would skip a beta outside the table
                for alpha, _, _ in lterms:
                    for beta in mvalue:
                        int_row(alpha, beta)  # raises at the first pair outside the table
        for alpha, U in field._pack(lterms, width):
            hits = index.get(alpha)
            if hits is not None and len(hits) <= len(mpacked):
                # alpha's nonempty rows, when fewer than mu's terms
                for beta, row in hits:
                    V = mvalue.get(beta)
                    if V is not None:
                        UV = U * V
                        for gamma, c in row:
                            acc[gamma] = get(gamma, 0) + c * UV
                continue
            for beta, V in mpacked:
                row = rows.get((alpha, beta))
                if row is None:
                    row = int_row(alpha, beta)  # raises DegreeOverflow outside the table
                if not row:
                    continue
                UV = U * V
                for gamma, c in row:
                    acc[gamma] = get(gamma, 0) + c * UV
        out = {}
        for gamma, vec in zip(acc, field._unpacked(acc.values(), width)):
            if any(vec):
                out[gamma] = Scalar(field, tuple(vec), den)
        return Distribution(self, out)

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
    """A finitely supported series over the generator monomials."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = coeffs

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Max support degree (-inf when zero)."""
        return max((sum(a) for a in self.coeffs), default=-INF)

    def __add__(self, other):
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            prev = out.get(alpha)
            s = c if prev is None else prev + c
            if s.is_zero:
                out.pop(alpha, None)
            else:
                out[alpha] = s
        return Distribution(self.algebra, out)

    def __neg__(self):
        return Distribution(self.algebra, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            prev = out.get(alpha)
            s = -c if prev is None else prev - c
            if s.is_zero:
                out.pop(alpha, None)
            else:
                out[alpha] = s
        return Distribution(self.algebra, out)

    def __mul__(self, other):
        if isinstance(other, Distribution):
            return self.algebra.mul(self, other)
        return self.scale(other)

    def scale(self, c):
        c = self.algebra.field.scalar(c)
        if c.is_zero:
            return Distribution(self.algebra, {})
        return Distribution(self.algebra, {a: v * c for a, v in self.coeffs.items()})

    def norm(self, r):
        """sup_alpha |d_alpha| r^(kappa |alpha|), as a NormValue exponent."""
        scale = ExponentScale(self.algebra, r)
        return NormValue(scale.unscale(scale.leading(self)[0]))

    def leading_support(self, r):
        """Support indices attaining the norm."""
        return ExponentScale(self.algebra, r).leading(self)[1]

    def principal_symbol(self, r):
        """The leading form in the graded ring k[e0^(+-1)][X..]."""
        if not self.coeffs:
            raise ZeroDistribution("the zero distribution has no principal symbol")
        ctx = self.algebra.symbol_context(r)
        terms = {}
        for alpha in self.leading_support(r):
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


class ExponentScale:
    """Filtration exponents at one radius r = p^(-a/b), scaled by e*b.

    The term c b^alpha has exponent v(c)/e + kappa |alpha| a/b; times
    ``den`` = e*b that is the int ``key(c, alpha)`` = b v(c) + e kappa a
    |alpha|.  Keys compare as exponents do; ``unscale`` turns one back into
    the exponent, a Fraction (+inf stays +inf).
    """

    __slots__ = ("algebra", "den", "b", "w")

    def __init__(self, algebra, r):
        e = algebra.field.e
        self.algebra = algebra
        self.den, self.b, self.w = e * r.b, r.b, e * algebra.kappa * r.a

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
        """One sweep over the terms: the least key (+inf when zero) and the
        support indices attaining it."""
        key = self.key
        best, leads = INF, []
        for alpha, c in dist.coeffs.items():
            k = key(c, alpha)
            if k < best:
                best, leads = k, [alpha]
            elif k == best:
                leads.append(alpha)
        return best, leads

    def mul_tail(self, lam, mu):
        """The key of ``mul_tail_bound(lam, mu, r)``."""
        alg = self.algebra
        N, has_tail = alg.N, alg.table.has_tail
        b, w = self.b, self.w
        shift = self.den * alg.kappa  # kappa, scaled
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
    """
    scale = ExponentScale(lam.algebra, r)
    return scale.unscale(scale.mul_tail(lam, mu))


# ---------------------------------------------------------------------------
# text form

_TOKEN_RE = re.compile(r"\s*([+-]|\*|\^|/|\d+|pi|p|w|b\d+)")


def _parse_distribution(algebra, text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected input {text[pos:pos + 8]!r}", position=pos)
        tokens.append((m.group(1), pos))
        pos = m.end()
    if not tokens:
        raise ParseError("empty distribution literal", position=0)

    field = algebra.field
    terms = {}
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    while idx < len(tokens):
        sign = 1
        while peek() in ("+", "-"):
            if peek() == "-":
                sign = -sign
            idx += 1
        coeff = field.scalar(sign)
        alpha = [0] * algebra.d
        expect_factor = True
        while True:
            tok = peek()
            if tok is None or tok in ("+", "-"):
                break
            if tok == "*":
                idx += 1
                expect_factor = True
                continue
            if not expect_factor:
                break
            base_pos = tokens[idx][1]
            idx += 1
            power = 1
            if peek() == "^":
                idx += 1
                if peek() is None or not peek().isdigit():
                    raise ParseError("exponent must be an integer", position=base_pos)
                power = int(peek())
                idx += 1
            if tok.isdigit():
                num = int(tok)
                if peek() == "/":
                    idx += 1
                    if peek() is None or not peek().isdigit():
                        raise ParseError("bad fraction", position=base_pos)
                    coeff = coeff * Fraction(num, int(peek())) ** power
                    idx += 1
                else:
                    coeff = coeff * Fraction(num) ** power
            elif tok == "p":
                coeff = coeff * Fraction(field.p) ** power
            elif tok == "pi":
                coeff = coeff * field.uniformizer() ** power
            elif tok == "w":
                coeff = coeff * field.unram_gen() ** power
            elif tok.startswith("b"):
                k = _generator_index(algebra, tok, base_pos)
                alpha[k] += power
            expect_factor = False
        key = tuple(alpha)
        if sum(key) > algebra.N:
            raise ParseError(f"monomial degree {sum(key)} exceeds N = {algebra.N}")
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return Distribution(algebra, {a: c for a, c in terms.items() if not c.is_zero})


def _generator_index(algebra, token, pos):
    try:
        return algebra.labels.index(token)
    except ValueError:
        raise ParseError(f"unknown generator {token!r}", position=pos) from None

