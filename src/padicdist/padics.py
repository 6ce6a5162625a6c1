"""Exact arithmetic in a finite extension K of Q_p.

The field is presented as a two-step tower: an unramified layer
U = Q_p[w]/(g) of residue degree f (g a monic lift of an irreducible
polynomial over F_p) followed by a totally ramified Eisenstein layer
K = U[pi]/(E) of index e.  Scalars hold exact rational coordinate vectors
over the basis {w^a pi^b : a < f, b < e}, as one int vector over one
positive denominator, so sums and products run in ints with one gcd per
result (``DistAlgebra.mul`` packs each vector into one int instead, a
signed slot per coordinate, and reduces the packed products through the
table ``_slot_products``); all arithmetic runs in the number field
Q[w, pi]/(g, E), so every valuation, absolute value and residue reported
here is certified, never rounded, and nothing truncates a scalar.  An
element enters K only as an int, a ``Fraction`` or a Scalar of the field;
a float or a string is refused with InvalidArgument.

Valuations are counted in uniformizer units, v(pi) = 1, and the
normalized absolute value is |x| = p^(-v(x)/e).  The one text form of a
scalar is ``Scalar.short_str``, its exact coordinate polynomial in w and
pi.

The residue field k = F_q, q = p^f, holds each element as one int code in
[0, q), whose base-p digits are its coordinates over 1, w, ..., w^(f-1),
and computes on those digits with the ``_fp_*`` polynomial helpers over
F_p, which also serve the irreducibility test: no table is built, and no
bound is put on q.

``Subspace`` is the one exact echelon routine, over Q on Fractions and
over k on ResidueElems: it inverts in K (``solve_columns``), reads
coordinates over a v-basis, finds the nilpotency class and the
zero-divisor witness of a failed regular-sequence certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from operator import lshift, mul

from .errors import DivisionByZero, InvalidArgument, NonUnit
from .radii import kappa, vp_int, vp_rational

INF = math.inf


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


class Subspace:
    """Row-reduced span of vectors over a field: the one exact echelon
    routine, over Q on ``Fraction``s and over k on ``ResidueElem``s.

    Entries need +, -, * and inversion by ``** -1``; a zero entry is
    falsy.  ``add`` takes a vector as its (column, value) pairs, zeros
    skipped, and ``reduce`` a dense one.  A pivot row is stored sparse and
    normalized, as (column, value) pairs from its leading entry 1 on, and
    is zero at every earlier pivot's lead, so a vector reduces in one pass
    in insertion order.
    """

    def __init__(self, zero, dim):
        self.zero = zero
        self.dim = dim
        self.pivots = {}  # leading column -> normalized sparse row

    def _reduced(self, pairs):
        """The vector of (column, value) pairs less its combination of the
        pivot rows, as {column: value}; cancelled entries stay as zeros."""
        vec = {col: a for col, a in pairs if a}
        zero = self.zero
        for lead, row in self.pivots.items():
            if c := vec.get(lead):
                for col, b in row:
                    vec[col] = vec.get(col, zero) - c * b
        return vec

    def reduce(self, vec):
        """The dense vector ``vec`` less its combination of the pivot rows."""
        out = [self.zero] * self.dim
        for col, a in self._reduced(enumerate(vec)).items():
            out[col] = a
        return out

    def add(self, pairs):
        """Insert the vector of (column, value) pairs; returns False when it
        was already in the span."""
        vec = {col: a for col, a in self._reduced(pairs).items() if a}
        if not vec:
            return False
        lead = min(vec)
        inv = vec[lead] ** -1
        self.pivots[lead] = [(col, a * inv) for col, a in vec.items()]
        return True

    def row(self, lead):
        """The normalized pivot row with leading column ``lead``, dense."""
        out = [self.zero] * self.dim
        for col, b in self.pivots[lead]:
            out[col] = b
        return out


def solve_columns(cols, target):
    """Solve sum_k c_k * cols[k] = target over Q; None when inconsistent.

    The span of the (cols[k] | e_k) reduces (target | 0) to (0 | -c) for
    a solution c, and to a nonzero first block when there is none.
    """
    rows, n = len(target), len(cols)
    span = Subspace(Fraction(0), rows + n)
    for k, col in enumerate(cols):
        span.add([*enumerate(map(Fraction, col)), (rows + k, Fraction(1))])
    rest = span.reduce([*map(Fraction, target), *(Fraction(0),) * n])
    return None if any(rest[:rows]) else [-c for c in rest[rows:]]


# ---------------------------------------------------------------------------
# polynomial utilities over F_p: the irreducibility test of the unramified
# layer and the arithmetic of the residue field

def _fp_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _fp_mod(a, m, p):
    """a mod the monic m; the coefficients of a may be any ints."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm):
                a[i - dm + j] -= c * m[j]
    return _fp_trim([c % p for c in a[:dm]])


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return _fp_trim([c % p for c in out])


def _fp_powmod(base, exp, m, p):
    out = [1]
    base = _fp_mod(base, m, p)
    while exp:
        if exp & 1:
            out = _fp_mod(_fp_mul(out, base, p), m, p)
        base = _fp_mod(_fp_mul(base, base, p), m, p)
        exp >>= 1
    return out


def _fp_gcdex(a, b, p):
    """(g, s): g a gcd of a and b over F_p, not made monic, and s with
    g = s a mod b.  The extended Euclidean algorithm, carrying only the
    cofactor s_k of a in r_k = s_k a + t_k b."""
    r0, r1 = _fp_trim([c % p for c in b]), _fp_trim([c % p for c in a])
    s0, s1 = [], [1]
    while r1:
        n = len(r1) - 1
        inv = pow(r1[-1], -1, p)
        q = [0] * max(len(r0) - n, 0)
        for i in reversed(range(len(q))):
            c = q[i] = r0[i + n] * inv % p
            if c:
                for j, y in enumerate(r1):
                    r0[i + j] -= c * y
        r0, r1 = r1, _fp_trim([c % p for c in r0[:n]])
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
    return r0, s0


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)])


def _prime_factors(n):
    """The distinct prime factors of n >= 1, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _fp_irreducible(g, p):
    """Irreducibility of a monic polynomial over F_p (Rabin test)."""
    f = len(g) - 1
    if f == 1:
        return True
    x = [0, 1]
    if _fp_sub(_fp_powmod(x, p**f, g, p), x, p):
        return False
    for q in _prime_factors(f):
        delta = _fp_sub(_fp_powmod(x, p ** (f // q), g, p), x, p)
        if len(_fp_gcdex(delta, g, p)[0]) > 1:
            return False
    return True


def _default_unram_poly(p, f):
    """Smallest-coefficient monic irreducible of degree f over F_p, lifted."""
    if f == 1:
        return (0, 1)
    bound = p**f
    for n in range(bound):
        coeffs = []
        m = n
        for _ in range(f):
            coeffs.append(m % p)
            m //= p
        g = tuple(coeffs) + (1,)
        if _fp_irreducible(list(g), p):
            return g
    raise InvalidArgument(f"no irreducible polynomial of degree {f} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# residue field k = F_{p^f}

class ResidueField:
    """F_{p^f} presented as F_p[w]/(gbar).

    An element is one int code in [0, q): its base-p digits, lowest first,
    are the coordinates over 1, w, ..., w^(f-1).  Sums and differences add
    digits mod p; products multiply the digit polynomials over F_p and
    reduce by gbar; powers raise them to the exponent mod q - 1, and
    inverses run the extended Euclidean algorithm against gbar.  Nothing
    is built per field, so every q is accepted.
    """

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(c % p for c in modulus)
        self.f = len(modulus) - 1
        self.order = p**self.f
        self._powers = tuple(p**a for a in range(self.f))  # digit a of a code is code // p^a % p

    def elem(self, coeffs):
        """The class of sum_a coeffs[a] w^a; an int is a constant."""
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        if len(coeffs) > self.f:
            coeffs = _fp_mod(coeffs, self.modulus, self.p)
        return ResidueElem(self, self._encode(coeffs))

    def _encode(self, coeffs):
        """The code of at most f coordinates, lowest first."""
        return sum([c % self.p * q for c, q in zip(coeffs, self._powers)])

    def _digits(self, code):
        """The f coordinates of a code: its base-p digits, lowest first."""
        return tuple([code // q % self.p for q in self._powers])

    def zero(self):
        return ResidueElem(self, 0)

    def one(self):
        return ResidueElem(self, 1)

    def gen(self):
        """The class of w: the code p, or the root -g_0 of gbar when f = 1."""
        return ResidueElem(self, self.p if self.f > 1 else -self.modulus[0] % self.p)

    def _add(self, a, b, sign=1):
        """The code of a + sign * b: digit by digit, mod p."""
        p = self.p
        return sum([(a // q + sign * (b // q)) % p * q for q in self._powers])

    def _mul(self, a, b):
        if not a or not b:
            return 0
        p = self.p
        return self._encode(_fp_mod(_fp_mul(self._digits(a), self._digits(b), p), self.modulus, p))

    def _inv(self, a):
        """1/a for a nonzero code a, by ``_fp_gcdex`` against gbar."""
        p = self.p
        (g,), s = _fp_gcdex(self._digits(a), self.modulus, p)
        c = pow(g, -1, p)
        return self._encode([x * c for x in s])

    def _pow(self, a, k):
        """a^k for a nonzero code a and any int k."""
        return self._encode(_fp_powmod(self._digits(a), k % (self.order - 1), self.modulus, self.p))

    def __eq__(self, other):
        return isinstance(other, ResidueField) and (self.p, self.modulus) == (other.p, other.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"F_{self.order}"


class ResidueElem:
    """An element of a ResidueField, held as its int code in [0, q)."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        """Coordinates over 1, w, ..., w^(f-1): the base-p digits of the code."""
        return self.field._digits(self.code)

    @property
    def is_zero(self):
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def _code(self, other):
        """The code of ``other``, which must lie in this residue field."""
        if other.field is not self.field and other.field != self.field:
            raise InvalidArgument(f"residues of two fields, {self.field!r} and {other.field!r}")
        return other.code

    def __add__(self, other):
        return ResidueElem(self.field, self.field._add(self.code, self._code(other)))

    def __sub__(self, other):
        return ResidueElem(self.field, self.field._add(self.code, self._code(other), -1))

    def __neg__(self):
        return ResidueElem(self.field, self.field._add(0, self.code, -1))

    def __mul__(self, other):
        return ResidueElem(self.field, self.field._mul(self.code, self._code(other)))

    def inv(self):
        if not self.code:
            raise DivisionByZero("inverse of zero residue")
        return ResidueElem(self.field, self.field._inv(self.code))

    def __pow__(self, n):
        if not self.code:
            if n < 0:
                return self.inv()
            return self.field.one() if n == 0 else self
        return ResidueElem(self.field, self.field._pow(self.code, n))

    def __eq__(self, other):
        return (
            isinstance(other, ResidueElem)
            and self.code == other.code
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        coeffs = self.coeffs
        if all(c == 0 for c in coeffs[1:]):
            return str(coeffs[0])
        parts = []
        for a, c in enumerate(coeffs):
            if c == 0:
                continue
            if a == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}w" + (f"^{a}" if a > 1 else ""))
        return "(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# the field K

def _rational(x):
    """An int or a Fraction x as a Fraction; any other value (a float, a
    string) is refused with InvalidArgument."""
    if not isinstance(x, (int, Fraction)):
        raise InvalidArgument(f"an element of K needs an int or a Fraction, not {x!r}")
    return Fraction(x)


class FieldSpec:
    """A finite extension K of Q_p, exact: no parameter bounds its
    arithmetic.

    Parameters
    ----------
    p : prime
    e, f : ramification index and residue degree
    unram_poly : monic integer coefficients (low to high) of degree f,
        irreducible mod p; defaults to the smallest such polynomial
    eisenstein : coefficients a_0..a_{e-1} of E(x) = x^e + sum a_i x^i,
        each given as an integer, a rational or a length-f coordinate
        tuple over the unramified layer; defaults to x^e - p
    """

    def __init__(self, p, e=1, f=1, unram_poly=None, eisenstein=None):
        if not _is_prime(p):
            raise InvalidArgument(f"p = {p} is not prime")
        if e < 1 or f < 1:
            raise InvalidArgument("need e >= 1, f >= 1")
        self.p = p
        self.e = e
        self.f = f
        self.unram_poly = tuple(unram_poly) if unram_poly else _default_unram_poly(p, f)
        if len(self.unram_poly) != f + 1 or self.unram_poly[-1] != 1:
            raise InvalidArgument("unram_poly must be monic of degree f")
        if not _fp_irreducible([c % p for c in self.unram_poly], p):
            raise InvalidArgument("unram_poly is not irreducible mod p")

        if eisenstein is None:
            eisenstein = [-p] + [0] * (e - 1)
        self.eisenstein = tuple(self._as_uelem(c) for c in eisenstein)
        if len(self.eisenstein) != e:
            raise InvalidArgument("eisenstein must list the e coefficients a_0..a_{e-1}")
        for i, a in enumerate(self.eisenstein):
            v = self._uelem_vp(a)
            if v < 1:
                raise InvalidArgument(f"Eisenstein coefficient a_{i} has valuation {v} < 1")
        if self._uelem_vp(self.eisenstein[0]) != 1:
            raise InvalidArgument("Eisenstein constant term must have p-valuation exactly 1")

        self.degree = e * f
        # scalars compare their fields on every operation
        self._key = (p, e, f, self.unram_poly, self.eisenstein)
        self._hash = hash(self._key)
        self._build_tables()
        self.residue_field = ResidueField(p, self.unram_poly)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def qp(cls, p):
        return cls(p)

    @classmethod
    def unramified(cls, p, f, poly=None):
        return cls(p, f=f, unram_poly=poly)

    @classmethod
    def totally_ramified(cls, p, e, eisenstein=None):
        return cls(p, e=e, eisenstein=eisenstein)

    @property
    def kappa(self):
        return kappa(self.p)

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"K(p={self.p}, e={self.e}, f={self.f})"

    # -- internal coordinate algebra -----------------------------------------
    # a vector is a tuple of e*f ints indexed [b*f + a] for w^a pi^b; a
    # scalar is one vector over one positive denominator

    def _as_uelem(self, c):
        if isinstance(c, (int, Fraction)):
            return (Fraction(c),) + (Fraction(0),) * (self.f - 1)
        c = tuple(Fraction(x) for x in c)
        if len(c) != self.f:
            raise InvalidArgument("unramified coordinate tuple must have length f")
        return c

    def _uelem_vp(self, c):
        return min((vp_rational(x, self.p) for x in c), default=INF)

    def _build_tables(self):
        """The basis-product table, and the scalars 1, pi and 1/pi.

        ``_products[i][j]`` lists the nonzero coordinates (k, c) of the
        product of basis elements i and j (index b*f + a for w^a pi^b),
        with w^f reduced by g and pi^e by E, as ints over the one
        denominator ``_den``: an Eisenstein coefficient may be a
        non-integral rational.  The table is derived once in Fractions.
        """
        f, n = self.f, self.degree
        g = self.unram_poly

        def times_w(vec):
            out = list(vec)
            for b in range(0, n, f):
                top = vec[b + f - 1]
                out[b] = Fraction(0)
                out[b + 1 : b + f] = vec[b : b + f - 1]
                if top:
                    for a in range(f):
                        out[b + a] -= top * g[a]
            return out

        w_pi_e = [[-c for u in self.eisenstein for c in u]]  # w^a pi^e
        for _ in range(f - 1):
            w_pi_e.append(times_w(w_pi_e[-1]))

        def times_pi(vec):
            out = [Fraction(0)] * f + list(vec[: n - f])
            for a, c in enumerate(vec[n - f :]):
                if c:
                    for k, x in enumerate(w_pi_e[a]):
                        out[k] += c * x
            return out

        def times_basis(vec, i):
            b, a = divmod(i, f)
            for _ in range(b):
                vec = times_pi(vec)
            for _ in range(a):
                vec = times_w(vec)
            return vec

        self._units = tuple(tuple(int(k == j) for k in range(n)) for j in range(n))
        table = [[times_basis(list(map(Fraction, u)), i) for u in self._units] for i in range(n)]
        den = self._den = lcm(*(c.denominator for row in table for vec in row for c in vec))
        self._products = [
            [[(k, c.numerator * (den // c.denominator)) for k, c in enumerate(vec) if c] for vec in row]
            for row in table
        ]
        if n == 2:
            # _products[j][i] as a dense 2x2x2 tensor, entry (j, i, k) at
            # 4j + 2i + k: the closed form of ``_times`` reads it
            self._quad = tuple(dict(self._products[j][i]).get(k, 0)
                               for j in range(2) for i in range(2) for k in range(2))
        # a packed vector (``_pack``) holds w^a pi^b in slot a + (2f - 1) b,
        # so a product of two holds w^A pi^B, A < 2f - 1 and B < 2e - 1, in
        # slot A + (2f - 1) B: _slot_products[slot] is that monomial reduced,
        # as the product of two basis elements
        e = self.e
        self._slots = tuple(a + (2 * f - 1) * b for b in range(e) for a in range(f))
        self._slot_products = [
            self._products[min(B, e - 1) * f + min(A, f - 1)][
                (B - min(B, e - 1)) * f + A - min(A, f - 1)]
            for B in range(2 * e - 1) for A in range(2 * f - 1)
        ]
        self._one = Scalar(self, self._units[0])
        self._pi = self._from_fractions(times_pi(list(map(Fraction, self._units[0]))))
        self._pi_inv = self._inverse(self._pi)

    def _from_fractions(self, coords):
        den = lcm(*(c.denominator for c in coords))
        return Scalar(self, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    def _mul_vec(self, u, v):
        """The product of two int vectors, over the denominator ``_den``."""
        if self.degree == 1:
            return (u[0] * v[0],)
        out = [0] * self.degree
        for x, row in zip(u, self._products):
            if x:
                for y, entry in zip(v, row):
                    if y:
                        xy = x * y
                        for k, c in entry:
                            out[k] += xy * c
        return tuple(out)

    def _times(self, num, den):
        """Multiplication by y = num/den as (cols, d), read once for many
        products by ``_sub_times``: coordinate k of y x, for an int vector
        x, is sum(map(mul, x, cols[k])) over d.  For a quadratic K cols is
        flat, (m00, m01, m10, m11), coordinate k being x0 mk0 + x1 mk1,
        its 8 products written out from ``_quad``."""
        if self.degree == 2:
            y0, y1 = num
            t000, t001, t010, t011, t100, t101, t110, t111 = self._quad
            return (y0 * t000 + y1 * t100, y0 * t010 + y1 * t110,
                    y0 * t001 + y1 * t101, y0 * t011 + y1 * t111), den * self._den
        return tuple(zip(*(self._mul_vec(num, unit) for unit in self._units))), den * self._den

    def _sub_times(self, pn, pd, x, xden, times):
        """pn/pd - (x/xden) y for ``times`` = ``_times`` of y: (num, den, v),
        num a list reduced with den by one gcd as ``Scalar`` keeps it, with
        v its valuation (+inf for zero).  It runs once per touched term of
        a canonicalization step on small ints, so for a quadratic K both
        coordinates are written out in locals."""
        cols, d = times
        d *= xden
        den = pd * d
        if self.degree == 2:
            m00, m01, m10, m11 = cols
            p0, p1 = pn
            x0, x1 = x
            n0 = p0 * d - (x0 * m00 + x1 * m01) * pd
            n1 = p1 * d - (x0 * m10 + x1 * m11) * pd
            g = gcd(n0, n1)
            if not g:
                return [0, 0], 1, INF
            h = gcd(g, den)
            if h != 1:
                n0 //= h
                n1 //= h
                den //= h
                g //= h
            num = [n0, n1]
        else:
            num = [a * d - sum(map(mul, x, col)) * pd for a, col in zip(pn, cols)]
            g = gcd(*num)
            if not g:
                return num, 1, INF
            h = gcd(g, den)
            if h != 1:
                num = [a // h for a in num]
                den //= h
                g //= h
        if self.e == 1:
            # gcd(g, den) = 1, so p divides at most one of them
            p = self.p
            return num, den, (vp_int(g, p) if g % p == 0 else -vp_int(den, p))
        return num, den, self._valuation(num, den)

    def _pack(self, terms, width):
        """(key, packed) for each (key, num, k) triple of ``terms``: the int
        vector num * k as one int, coordinate b*f + a (w^a pi^b) in the
        signed ``width``-bit slot a + (2f - 1) b (Kronecker substitution).
        The product of two packed vectors is then their product in
        Z[w, pi], unreduced, as long as every slot of it fits the width."""
        shifts = [width * s for s in self._slots]
        return [(key, sum(map(lshift, num, shifts)) * k) for key, num, k in terms]

    def _unpacked(self, packed, width):
        """For each int of ``packed``, a sum of packed products whose slots
        fit ``width`` bits, its value in K as an int vector over ``_den``.

        Slots are read from the lowest: slot s of x is x mod 2^width taken
        in [-2^(width-1), 2^(width-1)), and (x - s) >> width packs the rest.
        There are at most (2f - 1)(2e - 1) of them, so each is read in
        turn rather than locating the nonzero ones first."""
        products, n = self._slot_products, self.degree
        full = 1 << width
        half, mask = full >> 1, full - 1
        out = []
        for x in packed:
            vec = [0] * n
            for entries in products:
                if not x:
                    break
                s = x & mask
                if s >= half:
                    s -= full
                x = (x - s) >> width
                if s:
                    for k, c in entries:
                        vec[k] += s * c
            out.append(vec)
        return out

    def _inverse(self, x):
        """1/x for nonzero x: solve x z = 1 on the columns x * (w^a pi^b).

        With x = u/d the columns are the int vectors u * (w^a pi^b) over
        ``_den``, so the right-hand side is d * _den times 1.
        """
        u, d = x.num, x.den
        if self.degree == 1:
            return Scalar(self, (d if u[0] > 0 else -d,), abs(u[0]))
        cols = [self._mul_vec(u, unit) for unit in self._units]
        target = (d * self._den,) + (0,) * (self.degree - 1)
        return self._from_fractions(solve_columns(cols, target))

    def _valuation(self, num, den):
        """v(num/den) in uniformizer units: the least b + e v_p over the
        pi^b blocks of num, less e v_p(den)."""
        e, f, p = self.e, self.f, self.p
        best = INF
        for b in range(e):
            g = gcd(*num[b * f : (b + 1) * f])
            if g:
                best = min(best, b + e * vp_int(g, p))
        return best if best is INF else best - e * vp_int(den, p)

    # -- public constructors ---------------------------------------------------

    def scalar(self, x):
        """x as an element of K: a Scalar of this field, an int or a Fraction;
        any other value is refused with InvalidArgument."""
        if isinstance(x, Scalar):
            if x.field != self:
                raise InvalidArgument("scalar from a different field")
            return x
        x = _rational(x)
        return Scalar(self, (x.numerator,) + (0,) * (self.degree - 1), x.denominator)

    def zero(self):
        return Scalar(self, (0,) * self.degree)

    def one(self):
        return self._one

    def uniformizer(self):
        return self._pi

    def unram_gen(self):
        if self.f == 1:
            raise InvalidArgument("no unramified generator for f = 1")
        return Scalar(self, self._units[1])

    def from_coords(self, coords):
        coords = tuple(map(_rational, coords))
        if len(coords) != self.degree:
            raise InvalidArgument(f"need {self.degree} coordinates")
        return self._from_fractions(coords)


class Scalar:
    """An exact element of K.

    Immutable: one int vector ``num`` over one positive denominator
    ``den`` (coordinates num[k]/den over w^a pi^b, k = b*f + a), reduced so
    that gcd(den, *num) = 1; zero is (0, ..., 0) over 1.  Supports field
    arithmetic through operators, exact valuation/absolute value queries
    and residue reduction; ``short_str`` is its one text form.
    """

    __slots__ = ("field", "num", "den", "_val")

    def __init__(self, field, num, den=1):
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
        self.field = field
        self.num = num
        self.den = den
        self._val = None

    @property
    def coords(self):
        """The coordinates as Fractions, indexed [b*f + a] for w^a pi^b."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- predicates and invariants ---------------------------------------------

    @property
    def is_zero(self):
        return not any(self.num)

    @property
    def valuation(self):
        """v(x) in uniformizer units, v(pi) = 1; +inf for zero.  Exact."""
        if self._val is None:
            self._val = self.field._valuation(self.num, self.den)
        return self._val

    def abs_exponent(self):
        """q with |x| = p^(-q); +inf for zero."""
        v = self.valuation
        return INF if v is INF else Fraction(v, self.field.e)

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise InvalidArgument("scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        return Scalar(self.field, tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num)), d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        return Scalar(self.field, tuple(a * d2 - b * d1 for a, b in zip(self.num, other.num)), d1 * d2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        return Scalar(field, field._mul_vec(self.num, other.num), self.den * other.den * field._den)

    __rmul__ = __mul__

    def scale(self, q):
        q = _rational(q)
        n = q.numerator
        return Scalar(self.field, tuple(a * n for a in self.num), self.den * q.denominator)

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero scalar")
        return self.field._inverse(self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise InvalidArgument(f"a power of a scalar needs an int exponent, not {n!r}")
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    # -- reduction ---------------------------------------------------------------

    def unit_part(self):
        """x / pi^v(x); raises on zero."""
        if self.is_zero:
            raise DivisionByZero("zero has no unit part")
        v = self.valuation
        if v == 0:
            return self
        out = self
        step = self.field._pi_inv if v > 0 else self.field._pi
        for _ in range(abs(v)):
            out = out * step
        return out

    def residue(self):
        """Image in the residue field; requires valuation exactly 0."""
        if self.valuation != 0:
            raise NonUnit(f"residue of an element with valuation {self.valuation}")
        f, p = self.field.f, self.field.p
        # at valuation 0 the p-part of den divides every coordinate of the
        # pi^0 block, so the residue is (num / p^k) (den / p^k)^-1 mod p
        pk = p ** vp_int(self.den, p)
        inv = pow(self.den // pk, -1, p)
        return self.field.residue_field.elem(tuple(x // pk * inv % p for x in self.num[:f]))

    def leading_residue(self):
        """Residue class of the unit part (the symbol coefficient)."""
        return self.unit_part().residue()

    # -- text form ---------------------------------------------------------------

    def short_str(self):
        """Exact compact form: the coordinate polynomial in w and pi."""
        parts = []
        coords = self.coords
        for b in range(self.field.e):
            for a in range(self.field.f):
                c = coords[b * self.field.f + a]
                if not c:
                    continue
                factors = []
                if c != 1 or (a == 0 and b == 0):
                    factors.append(str(c))
                if a:
                    factors.append("w" if a == 1 else f"w^{a}")
                if b:
                    factors.append("pi" if b == 1 else f"pi^{b}")
                parts.append("*".join(factors))
        if not parts:
            return "0"
        return parts[0] if len(parts) == 1 else " + ".join(parts)

    def __repr__(self):
        return f"Scalar({self.short_str()})"
