"""Exact arithmetic in a finite extension K of Q_p.

The field is presented as a two-step tower: an unramified layer
U = Q_p[w]/(g) of residue degree f (g a monic lift of an irreducible
polynomial over F_p) followed by a totally ramified Eisenstein layer
K = U[pi]/(E) of index e.  Scalars hold exact rational coordinate vectors
over the basis {w^a pi^b : a < f, b < e}; all arithmetic runs in the
number field Q[w, pi]/(g, E), so every valuation, absolute value and
residue reported here is certified, never rounded.  The precision M is a
serialization budget: it bounds how many uniformizer digits the text form
carries, and round-trips are bit-exact at that budget.

Valuations are counted in uniformizer units, v(pi) = 1, and the
normalized absolute value is |x| = p^(-v(x)/e).  The text form of a
nonzero scalar is ``pi^v * (d_0 ; d_1 ; ... ; d_{M-1})`` where digit d_j
lists the f base-p coefficients of the j-th uniformizer digit of the unit
part, comma separated.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DivisionByZero, NonUnit, ParseError
from .radii import kappa, vp_rational

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


def rational_mod_prime_power(x, p, k):
    """Canonical representative in [0, p^k) of a p-integral rational."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ValueError(f"{x} is not p-integral at p={p}")
    mod = p**k
    return num * pow(den, -1, mod) % mod


def solve_columns(cols, target):
    """Solve sum_k c_k * cols[k] = target over Q; None when inconsistent."""
    rows = len(target)
    n = len(cols)
    aug = [[Fraction(cols[k][r]) for k in range(n)] + [Fraction(target[r])] for r in range(rows)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    sol = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][n]
    for i in range(rows):
        if sum(cols[k][i] * sol[k] for k in range(n)) != target[i]:
            return None
    return sol


# ---------------------------------------------------------------------------
# polynomial utilities over F_p, used for validating the unramified layer

def _fp_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _fp_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
        a[i] = 0
    return _fp_trim([c % p for c in a[:dm]])


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _fp_trim(out)


def _fp_powmod(base, exp, m, p):
    out = [1]
    base = _fp_mod(base, m, p)
    while exp:
        if exp & 1:
            out = _fp_mod(_fp_mul(out, base, p), m, p)
        base = _fp_mod(_fp_mul(base, base, p), m, p)
        exp >>= 1
    return out


def _fp_gcd(a, b, p):
    a, b = _fp_trim([c % p for c in a]), _fp_trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        bm = [c * inv % p for c in b]
        a, b = b, _fp_mod(a, bm, p)
    return a


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)])


def _fp_irreducible(g, p):
    """Irreducibility of a monic polynomial over F_p (Rabin test)."""
    f = len(g) - 1
    if f == 1:
        return True
    x = [0, 1]
    if _fp_sub(_fp_powmod(x, p**f, g, p), x, p):
        return False
    for q in {d for d in range(2, f + 1) if f % d == 0 and _is_prime(d)}:
        delta = _fp_sub(_fp_powmod(x, p ** (f // q), g, p), x, p)
        if len(_fp_gcd(delta, g, p)) > 1:
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
    raise ValueError(f"no irreducible polynomial of degree {f} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# residue field k = F_{p^f}

class ResidueField:
    """F_{p^f} presented as F_p[w]/(gbar)."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(c % p for c in modulus)
        self.f = len(modulus) - 1
        self.order = p**self.f

    def elem(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        c = [x % self.p for x in coeffs]
        c += [0] * (self.f - len(c))
        if len(c) > self.f:
            c = _fp_mod(c, list(self.modulus), self.p) or [0]
            c = list(c) + [0] * (self.f - len(c))
        return ResidueElem(self, tuple(c))

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def gen(self):
        return self.elem((0, 1))

    def __eq__(self, other):
        return isinstance(other, ResidueField) and (self.p, self.modulus) == (other.p, other.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"F_{self.order}"


class ResidueElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        return ResidueElem(
            self.field,
            tuple((a + b) % self.field.p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        return ResidueElem(
            self.field,
            tuple((a - b) % self.field.p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return ResidueElem(self.field, tuple((-a) % self.field.p for a in self.coeffs))

    def __mul__(self, other):
        F = self.field
        prod = _fp_mul(list(self.coeffs), list(other.coeffs), F.p)
        red = _fp_mod(prod, list(F.modulus), F.p) if len(prod) > F.f else prod
        red = list(red) + [0] * (F.f - len(red))
        return ResidueElem(F, tuple(red))

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero residue")
        return self ** (self.field.order - 2)

    def __pow__(self, n):
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

    def pth_root(self, h=1):
        """The unique p^h-th root (Frobenius is bijective on F_q)."""
        if self.is_zero:
            return self
        exp = pow(self.field.p, (self.field.f - 1) * h, self.field.order - 1)
        return self**exp

    def __eq__(self, other):
        return (
            isinstance(other, ResidueElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if all(c == 0 for c in self.coeffs[1:]):
            return str(self.coeffs[0])
        parts = []
        for a, c in enumerate(self.coeffs):
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

class FieldSpec:
    """A finite extension K of Q_p with working precision M.

    Parameters
    ----------
    p : prime
    e, f : ramification index and residue degree
    precision : number of uniformizer digits carried by serialization
    unram_poly : monic integer coefficients (low to high) of degree f,
        irreducible mod p; defaults to the smallest such polynomial
    eisenstein : coefficients a_0..a_{e-1} of E(x) = x^e + sum a_i x^i,
        each given as an integer or a length-f coordinate tuple over the
        unramified layer; defaults to x^e - p
    """

    def __init__(self, p, e=1, f=1, precision=20, unram_poly=None, eisenstein=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1 or f < 1 or precision < 1:
            raise ValueError("need e >= 1, f >= 1, precision >= 1")
        self.p = p
        self.e = e
        self.f = f
        self.precision = precision
        self.unram_poly = tuple(unram_poly) if unram_poly else _default_unram_poly(p, f)
        if len(self.unram_poly) != f + 1 or self.unram_poly[-1] != 1:
            raise ValueError("unram_poly must be monic of degree f")
        if not _fp_irreducible([c % p for c in self.unram_poly], p):
            raise ValueError("unram_poly is not irreducible mod p")

        if eisenstein is None:
            eisenstein = [-p] + [0] * (e - 1)
        self.eisenstein = tuple(self._as_uelem(c) for c in eisenstein)
        if len(self.eisenstein) != e:
            raise ValueError("eisenstein must list the e coefficients a_0..a_{e-1}")
        for i, a in enumerate(self.eisenstein):
            v = self._uelem_vp(a)
            if v < 1:
                raise ValueError(f"Eisenstein coefficient a_{i} has valuation {v} < 1")
        if self._uelem_vp(self.eisenstein[0]) != 1:
            raise ValueError("Eisenstein constant term must have p-valuation exactly 1")

        self.degree = e * f
        self._build_tables()
        self.residue_field = ResidueField(p, self.unram_poly)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def qp(cls, p, precision=20):
        return cls(p, precision=precision)

    @classmethod
    def unramified(cls, p, f, precision=20, poly=None):
        return cls(p, f=f, precision=precision, unram_poly=poly)

    @classmethod
    def totally_ramified(cls, p, e, precision=20, eisenstein=None):
        return cls(p, e=e, precision=precision, eisenstein=eisenstein)

    @property
    def kappa(self):
        return kappa(self.p)

    def key(self):
        return (self.p, self.e, self.f, self.unram_poly, self.eisenstein, self.precision)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"K(p={self.p}, e={self.e}, f={self.f}, M={self.precision})"

    # -- internal coordinate algebra -----------------------------------------
    # vectors are tuples of e*f Fractions indexed [b*f + a] for w^a pi^b

    def _as_uelem(self, c):
        if isinstance(c, (int, Fraction)):
            return (Fraction(c),) + (Fraction(0),) * (self.f - 1)
        c = tuple(Fraction(x) for x in c)
        if len(c) != self.f:
            raise ValueError("unramified coordinate tuple must have length f")
        return c

    def _uelem_vp(self, c):
        return min((vp_rational(x, self.p) for x in c), default=INF)

    def _build_tables(self):
        """The basis-product table, and the vectors of 1, pi and 1/pi.

        ``_products[i][j]`` lists the nonzero coordinates (k, c) of the
        product of basis elements i and j (index b*f + a for w^a pi^b),
        with w^f reduced by g and pi^e by E.
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

        self._products = [
            [
                [(k, c) for k, c in enumerate(times_basis(self._basis_vec(j), i)) if c]
                for j in range(n)
            ]
            for i in range(n)
        ]
        self._one_vec = self._int_vec(1)
        self._pi_vec = tuple(times_pi(self._one_vec))
        self._pi_inv_vec = self._inv_vec(self._pi_vec)

    def _int_vec(self, x):
        vec = [Fraction(0)] * self.degree
        vec[0] = Fraction(x)
        return tuple(vec)

    def _basis_vec(self, k):
        vec = [Fraction(0)] * self.degree
        vec[k] = Fraction(1)
        return tuple(vec)

    def _mul_vec(self, u, v):
        if self.degree == 1:
            return (u[0] * v[0],)
        out = [Fraction(0)] * self.degree
        for x, row in zip(u, self._products):
            if x:
                for y, entry in zip(v, row):
                    if y:
                        xy = x * y
                        for k, c in entry:
                            out[k] += xy * c
        return tuple(out)

    def _inv_vec(self, u):
        """Solve u * z = 1 on the columns u * (w^a pi^b)."""
        if all(x == 0 for x in u):
            raise DivisionByZero("inverse of zero")
        if self.degree == 1:
            return (1 / u[0],)
        cols = [self._mul_vec(u, self._basis_vec(k)) for k in range(self.degree)]
        return tuple(solve_columns(cols, self._one_vec))

    def _vpi_vec(self, vec):
        best = INF
        for b in range(self.e):
            m = self._uelem_vp(vec[b * self.f : (b + 1) * self.f])
            if m is not INF:
                best = min(best, b + self.e * m)
        return best

    # -- public constructors ---------------------------------------------------

    def scalar(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                raise ValueError("scalar from a different field")
            return x
        return Scalar(self, self._int_vec(x))

    def zero(self):
        return Scalar(self, self._int_vec(0))

    def one(self):
        return Scalar(self, self._one_vec)

    def uniformizer(self):
        return Scalar(self, self._pi_vec)

    def unram_gen(self):
        if self.f == 1:
            raise ValueError("no unramified generator for f = 1")
        return Scalar(self, self._basis_vec(1))

    def from_coords(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError(f"need {self.degree} coordinates")
        return Scalar(self, coords)

    def lift_residue(self, r):
        """The digit lift of a residue class, an integral scalar."""
        if r.field != self.residue_field:
            raise ValueError("residue class from a different field")
        vec = [Fraction(0)] * self.degree
        for a, c in enumerate(r.coeffs):
            vec[a] = Fraction(c)
        return Scalar(self, tuple(vec))

    # -- serialization ---------------------------------------------------------

    def parse_scalar(self, text):
        text = text.strip()
        if text == "0":
            return self.zero()
        m = re.match(r"^pi\^(-?\d+)\s*\*\s*\((.*)\)$", text)
        if not m:
            raise ParseError(f"bad scalar literal {text!r}")
        v = int(m.group(1))
        digits = []
        for j, part in enumerate(m.group(2).split(";")):
            entries = [s.strip() for s in part.split(",")]
            if len(entries) != self.f:
                raise ParseError(f"digit {j} needs {self.f} coordinates", position=j)
            try:
                digit = [int(s) for s in entries]
            except ValueError as exc:
                raise ParseError(f"bad digit {part.strip()!r}", position=j) from exc
            if any(not 0 <= c < self.p for c in digit):
                raise ParseError(f"digit {j} out of range [0, p)", position=j)
            digits.append(digit)
        if len(digits) > self.precision:
            raise ParseError(f"more than M = {self.precision} digits")
        acc = self.zero()
        pi_pow = self.one()
        for digit in digits:
            vec = [Fraction(0)] * self.degree
            for a, c in enumerate(digit):
                vec[a] = Fraction(c)
            acc = acc + Scalar(self, tuple(vec)) * pi_pow
            pi_pow = pi_pow * self.uniformizer()
        if acc.is_zero:
            raise ParseError("unit part parses to zero")
        return acc * self.uniformizer() ** v


class Scalar:
    """An exact element of K.

    Immutable; supports field arithmetic through operators, exact
    valuation/absolute value queries, residue reduction and digit
    serialization at the field's precision budget.
    """

    __slots__ = ("field", "coords", "_val")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords
        self._val = None

    # -- predicates and invariants ---------------------------------------------

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    @property
    def valuation(self):
        """v(x) in uniformizer units, v(pi) = 1; +inf for zero.  Exact."""
        if self._val is None:
            self._val = self.field._vpi_vec(self.coords)
        return self._val

    def abs_exponent(self):
        """q with |x| = p^(-q); +inf for zero."""
        v = self.valuation
        return INF if v is INF else Fraction(v, self.field.e)

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError("scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(self.field, self.field._int_vec(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul_vec(self.coords, other.coords))

    __rmul__ = __mul__

    def scale(self, q):
        q = Fraction(q)
        return Scalar(self.field, tuple(a * q for a in self.coords))

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero scalar")
        return Scalar(self.field, self.field._inv_vec(self.coords))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
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
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    # -- reduction ---------------------------------------------------------------

    def unit_part(self):
        """x / pi^v(x); raises on zero."""
        if self.is_zero:
            raise DivisionByZero("zero has no unit part")
        v = self.valuation
        if v == 0:
            return self
        pi_inv = Scalar(self.field, self.field._pi_inv_vec)
        out = self
        step = pi_inv if v > 0 else self.field.uniformizer()
        for _ in range(abs(v)):
            out = out * step
        return out

    def residue(self):
        """Image in the residue field; requires valuation exactly 0."""
        if self.valuation != 0:
            raise NonUnit(f"residue of an element with valuation {self.valuation}")
        f, p = self.field.f, self.field.p
        coeffs = tuple(
            rational_mod_prime_power(self.coords[a], p, 1) for a in range(f)
        )
        return self.field.residue_field.elem(coeffs)

    def leading_residue(self):
        """Residue class of the unit part (the symbol coefficient)."""
        return self.unit_part().residue()

    # -- serialization -------------------------------------------------------------

    def serialize(self):
        """Text form with M uniformizer digits; '0' for zero."""
        if self.is_zero:
            return "0"
        v = self.valuation
        unit = self.unit_part()
        digits = []
        pi_inv = Scalar(self.field, self.field._pi_inv_vec)
        for _ in range(self.field.precision):
            r = unit.residue() if unit.valuation == 0 else None
            digit = list(r.coeffs) if r is not None else [0] * self.field.f
            digits.append(",".join(str(c) for c in digit))
            if r is not None:
                unit = unit - self.field.lift_residue(r)
            if unit.is_zero:
                digits.extend(
                    ",".join("0" for _ in range(self.field.f))
                    for _ in range(self.field.precision - len(digits))
                )
                break
            unit = unit * pi_inv
        return f"pi^{v} * ({' ; '.join(digits)})"

    def short_str(self):
        """Exact compact form: the coordinate polynomial in w and pi."""
        parts = []
        for b in range(self.field.e):
            for a in range(self.field.f):
                c = self.coords[b * self.field.f + a]
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
