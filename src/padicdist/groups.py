"""Uniform pro-p groups presented by powerful nilpotent Z_p-Lie lattices.

A lattice with bracket constants of p-valuation >= kappa carries a group
law through the Hausdorff series.  An element is held in one chart, the
ordered-generator one x -> h_1^{x_1} ... h_d^{x_d} ("second kind"), from
which the filtration and the norms are read; the exponential chart
("first kind") is computed on demand.  Coordinates are exact p-integral
rationals; an element holds them as int numerators over one denominator.
The lattice must be nilpotent: the series then
stops at the nilpotency class, and a lattice whose lower central series
does not reach zero is refused with NotNilpotent on its first group-law
use.  The law is exact.  ``LieLattice.bch`` is the first-kind law over
Fractions.  Elements run on five maps that the Hausdorff series and one
chart fixed point compile once per lattice, on first use, into
polynomials evaluated in integers: the law F(x, y) of h^x h^y, the chart
maps E (second to first kind) and L (first to second kind), the inverse
I in the second-kind chart and the commutator C(x, y) of h^x and h^y.
The fixed point closes only on a basis adapted to the lower central
series; any other basis is refused with InvalidBasis.

The module also provides the lower p-series level, the induced
p-valuation, finite powerful quotients for the pro-2 commutator check
(which evaluates C on whole grids of integer window points and tests
divisibility of its numerators) and scalar restriction of groups
defined over a finite extension L.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import factorial, gcd, lcm
from operator import add, mul

from .errors import (
    CounterexampleFound,
    InvalidArgument,
    InvalidBasis,
    InvalidBracket,
    LawNotPIntegral,
    NotNilpotent,
    NotPIntegral,
    NotPowerful,
)
from .padics import FieldSpec, solve_columns
from .radii import kappa, vp_int, vp_rational

INF = math.inf


@lru_cache(maxsize=None)
def _hausdorff_words(depth):
    """Summed Hausdorff-series coefficients, grouped by word.

    Words are tuples over {0, 1} (0 = first argument, 1 = second); the
    word w contributes coeff * [w_1, [w_2, [... , w_t]]] to log(e^x e^y).
    Duplicate words arising from different block decompositions are merged.
    """
    coeffs = {}

    def blocks(n, remaining, word, fact_prod):
        if n == 0:
            yield word, fact_prod
            return
        cap = remaining - (n - 1)  # each later block needs length >= 1
        for r in range(cap + 1):
            for s in range(cap - r + 1):
                if r + s == 0:
                    continue
                yield from blocks(
                    n - 1,
                    remaining - r - s,
                    word + (0,) * r + (1,) * s,
                    fact_prod * factorial(r) * factorial(s),
                )

    for n in range(1, depth + 1):
        for word, fact_prod in blocks(n, depth, (), 1):
            t = len(word)
            c = Fraction((-1) ** (n - 1), n * t * fact_prod)
            coeffs[word] = coeffs.get(word, Fraction(0)) + c
    return {w: c for w, c in coeffs.items() if c != 0}


class LieLattice:
    """A powerful Z_p-Lie lattice with its induced uniform group.

    Brackets are exact rationals, the Jacobi identity is checked
    exactly, and the group law is exact at any depth.
    """

    def __init__(self, p, d, brackets=None, labels=None, name=""):
        self.p = p
        self.d = d
        self.name = name
        self.labels = tuple(labels) if labels else tuple(f"b{i + 1}" for i in range(d))
        if len(self.labels) != d:
            raise InvalidArgument(f"need one label per generator: {len(self.labels)} for d = {d}")

        table = [[(Fraction(0),) * d for _ in range(d)] for _ in range(d)]
        for (i, j), vec in (brackets or {}).items():
            if i == j:
                raise InvalidBracket("bracket of a generator with itself must be omitted")
            row = tuple(Fraction(c) for c in vec)
            if len(row) != d:
                raise InvalidBracket("bracket vectors must have length d")
            table[i][j] = row
            table[j][i] = tuple(-c for c in row)
        self.brackets = tuple(tuple(r) for r in table)
        self._constants = tuple(
            (i, j, k, c) for i, row in enumerate(self.brackets)
            for j, vec in enumerate(row) for k, c in enumerate(vec) if c
        )

        self._validate()

    @property
    def kappa(self):
        return kappa(self.p)

    def _validate(self):
        nu = INF
        for i in range(self.d):
            for j in range(self.d):
                for c in self.brackets[i][j]:
                    v = vp_rational(c, self.p)
                    if v < self.kappa:
                        raise NotPowerful(
                            f"bracket constant {c} at ({i},{j}) has v_p = {v} < kappa = {self.kappa}"
                        )
                    nu = min(nu, v)
        self.nu = nu  # INF for abelian lattices
        # the Jacobi defect must vanish exactly
        for i in range(self.d):
            for j in range(i + 1, self.d):
                for k in range(j + 1, self.d):
                    e = [Fraction(0)] * self.d
                    for vec, other in (
                        (self.brackets[j][k], i),
                        (self.brackets[k][i], j),
                        (self.brackets[i][j], k),
                    ):
                        inner = self.bracket(self._unit(other), vec)
                        e = [a + b for a, b in zip(e, inner)]
                    if any(e):
                        raise InvalidBracket(
                            f"Jacobi identity fails at ({i},{j},{k}): defect "
                            f"{tuple(str(c) for c in e)}"
                        )

    def _unit(self, i):
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(self.d))

    def bracket(self, x, y):
        """[x, y], summed over the nonzero structure constants only."""
        out = [Fraction(0)] * self.d
        for i, j, k, c in self._constants:
            if x[i] and y[j]:
                out[k] += x[i] * y[j] * c
        return tuple(out)

    @property
    def abelian(self):
        return self.nu is INF

    @cached_property
    def depth(self):
        """The nilpotency class: Hausdorff words longer than it vanish.

        Each term of the lower central series keeps only independent
        vectors, so every round brackets at most d^2 pairs; a nilpotent
        lattice of dimension d reaches zero within d rounds.
        """
        term = [self._unit(i) for i in range(self.d)]
        for depth in range(1, self.d + 1):
            nxt = []
            for i in range(self.d):
                for v in term:
                    b = self.bracket(self._unit(i), v)
                    if solve_columns(nxt, b) is None:  # b is not in the span
                        nxt.append(b)
            if not nxt:
                return depth
            term = nxt
        raise NotNilpotent(
            f"the lower central series of {self!r} does not reach zero in d = {self.d} rounds"
        )

    # -- group law --------------------------------------------------------------

    def bch(self, x, y):
        """The first-kind law: coordinates of exp(x)exp(y), exactly, by
        the Hausdorff series over Fractions.  Elements do not use it; they
        evaluate the compiled maps below."""
        for c in (*x, *y):
            if vp_rational(c, self.p) < 0:
                raise NotPIntegral("Hausdorff series needs p-integral coordinates")
        return self._bch(x, y)

    def _bch(self, x, y):
        """``bch`` without the input check, over any coordinates that add,
        multiply and test as zero: Fractions, or the polynomials of the
        compiled maps."""
        out = [a + b for a, b in zip(x, y)]
        args = (x, y)
        for word, coeff in _hausdorff_words(self.depth).items():
            if len(word) < 2:
                continue
            if word[-1] == word[-2]:
                continue
            acc = args[word[-1]]
            for letter in reversed(word[:-1]):
                acc = self.bracket(args[letter], acc)
                if not any(acc):
                    break
            else:
                for k in range(self.d):
                    if acc[k]:
                        out[k] += coeff * acc[k]
        return tuple(out)

    # Compiled maps, each built on its first use (see ``SecondKindLaw``).

    @cached_property
    def second_kind_law(self):
        """F(x, y): second-kind coordinates of h^x h^y."""
        return _compile(self, 2, lambda x, y: _chart_fixed_point(
            self, self._bch(_eval_second_kind(self, x), _eval_second_kind(self, y))
        ))

    @cached_property
    def to_first_kind(self):
        """E(x): first-kind coordinates of h^x."""
        return _compile(self, 1, lambda x: _eval_second_kind(self, x))

    @cached_property
    def to_second_kind(self):
        """L(z): second-kind coordinates of exp(z)."""
        return _compile(self, 1, lambda z: _chart_fixed_point(self, z))

    @cached_property
    def second_kind_inverse(self):
        """I(x): second-kind coordinates of (h^x)^-1 = exp(-E(x))."""
        return _compile(self, 1, lambda x: _chart_fixed_point(
            self, tuple(c * -1 for c in _eval_second_kind(self, x))
        ))

    @cached_property
    def commutator_law(self):
        """C(x, y): second-kind coordinates of [h^x, h^y] = (h^x)^-1 (h^y)^-1 h^x h^y.

        C is the product of three F and two I calls made one polynomial.
        That product refuses a non-p-integral intermediate point, which
        cannot occur when every coefficient of F and I is p-integral; this
        is checked here, once, and a law that fails it is refused with
        LawNotPIntegral.
        """
        for name in ("second_kind_law", "second_kind_inverse"):
            if any(den % self.p == 0 for den in getattr(self, name).denoms):
                raise LawNotPIntegral(
                    f"{name} of {self!r} has a coefficient with p in its denominator, "
                    "so the commutator of p-integral points may leave Z_p"
                )

        def build(x, y):
            ex, ey = _eval_second_kind(self, x), _eval_second_kind(self, y)
            inverses = self._bch(tuple(c * -1 for c in ex), tuple(c * -1 for c in ey))
            return _chart_fixed_point(self, self._bch(self._bch(inverses, ex), ey))
        return _compile(self, 2, build)

    # -- elements ----------------------------------------------------------------

    def element_first(self, coords):
        """exp(z) for the first-kind coordinates z, converted once by L."""
        return GroupElement(self, *self.to_second_kind.reduced(*_cleared(coords, self.d)))

    def element_second(self, coords):
        return GroupElement(self, *_cleared(coords, self.d))

    def identity(self):
        return self.element_second((0,) * self.d)

    def generator(self, i):
        """h_{i+1} = exp(X_{i+1})."""
        return self.element_second(self._unit(i))

    def step(self, m):
        """The lattice of the m-th lower-p-series step (basis p^m X_i)."""
        scale = Fraction(self.p) ** m
        br = {}
        for i in range(self.d):
            for j in range(i + 1, self.d):
                row = tuple(c * scale for c in self.brackets[i][j])
                if any(row):
                    br[(i, j)] = row
        return LieLattice(
            self.p, self.d, br, labels=self.labels,
            name=f"{self.name}^({m})" if self.name else "",
        )

    def structure_digest(self):
        """Stable hash of the defining data, for table cache keys."""
        blob = repr((self.p, self.d, self.brackets)).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __repr__(self):
        tag = self.name or "lattice"
        return f"{tag}(p={self.p}, d={self.d})"


def _eval_second_kind(lattice, coords):
    """First-kind coordinates of h_1^{x_1} ... h_d^{x_d}, through the
    unchecked Hausdorff core, so ``coords`` may be law polynomials."""
    acc = None
    for i, c in enumerate(coords):
        if c == 0:
            continue
        vec = tuple(c if k == i else Fraction(0) for k in range(lattice.d))
        acc = vec if acc is None else lattice._bch(acc, vec)
    return acc if acc is not None else (Fraction(0),) * lattice.d


class _LawPoly:
    """A sparse polynomial over Q in the variables of a compiled map.

    ``terms`` maps a monomial, a sorted tuple of (variable, exponent)
    pairs, to a nonzero Fraction.  Only what ``bracket``, the Hausdorff
    word loop and the chart fixed point use is defined: sums, products
    with Fractions and with each other, and zero tests.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def _terms(c):
        if isinstance(c, _LawPoly):
            return c.terms
        return {(): Fraction(c)} if c else {}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.terms == _LawPoly._terms(other)

    __hash__ = None

    def _combine(self, other, sign):
        out = dict(self.terms)
        for m, c in _LawPoly._terms(other).items():
            out[m] = out.get(m, 0) + sign * c
        return _LawPoly({m: c for m, c in out.items() if c})

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in _LawPoly._terms(other).items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return _LawPoly({m: c for m, c in out.items() if c})

    __rmul__ = __mul__


class SecondKindLaw:
    """A compiled group-law map: the law F(x, y), a chart map, the inverse
    or the commutator.

    Per coordinate k it keeps integer terms (c, monomial) and one positive
    denominator ``denoms[k]``; a monomial lists (variable, exponent) pairs
    over the concatenated input point and, as one more variable, its
    common denominator D, which makes every term of degree ``degree``.
    ``reduced`` takes a point cleared to int numerators over one D and
    returns the output the same way, over the one denominator
    lcm(denoms) D^degree and reduced by one gcd, with no Fraction built;
    it refuses a D divisible by p with NotPIntegral.  A call is the
    Fraction view of ``reduced`` at a point of ints and Fractions.
    ``grid`` evaluates an arity-2 map (F or C) on a whole grid of integer
    points xs x ys, where D = 1: each term's monomial is split once per
    map into its x-part and y-part, the x-parts are evaluated once per x
    and the y-parts once per y, and each coordinate comes back as one row
    of numerators n_k over ys per x, coordinate k at (x, y) being
    n_k / denoms[k].
    """

    __slots__ = ("p", "degree", "terms", "denoms", "nvars", "_common", "_lifts", "_plan")

    def __init__(self, p, polys, nvars):
        self.p = p
        self.nvars = nvars
        self._plan = None
        polys = [_LawPoly._terms(poly) for poly in polys]
        self.degree = max(
            (sum(e for _, e in m) for terms in polys for m in terms), default=0
        )
        self.terms, self.denoms = [], []
        for terms in polys:
            denom = lcm(*[c.denominator for c in terms.values()])
            out = []
            for m, c in terms.items():
                k = self.degree - sum(e for _, e in m)
                mono = m + ((nvars, k),) if k else m
                out.append((c.numerator * (denom // c.denominator), mono))
            self.terms.append(tuple(out))
            self.denoms.append(denom)
        self._common = lcm(*self.denoms)
        self._lifts = [self._common // q for q in self.denoms]

    def reduced(self, nums, den):
        """(nums', den') with nums'[k] / den' the output at the point
        nums / den; den' > 0 and gcd(den', *nums') = 1."""
        if den % self.p == 0:
            raise NotPIntegral("the group law needs p-integral coordinates")
        xs = (*nums, den)
        out = []
        for terms, lift in zip(self.terms, self._lifts):
            s = 0
            for c, mono in terms:
                for v, e in mono:
                    c *= xs[v] ** e
                s += c
            out.append(s * lift)
        scale = self._common * den**self.degree
        g = gcd(scale, *out)
        if g != 1:
            out = [n // g for n in out]
            scale //= g
        return tuple(out), scale

    def __call__(self, point):
        return _fractions(*self.reduced(*_cleared(point, self.nvars)))

    def _grid_plan(self):
        """The terms split for ``grid``: the distinct x-monomials and
        y-monomials, each over its own half of the variables (D = 1
        dropped), and per coordinate, for each y-monomial m it holds, the
        triple (m, coefficients, x-monomial indices) of the x-polynomial
        that multiplies y^m; an identically zero coordinate has none."""
        if self._plan is None:
            half = self.nvars // 2
            xmonos, ymonos, coords = {}, {}, []
            for terms in self.terms:
                groups = {}
                for c, mono in terms:
                    xm = tuple((v, e) for v, e in mono if v < half)
                    ym = tuple((v - half, e) for v, e in mono if half <= v < self.nvars)
                    poly = groups.setdefault(ymonos.setdefault(ym, len(ymonos)), ([], []))
                    poly[0].append(c)
                    poly[1].append(xmonos.setdefault(xm, len(xmonos)))
                coords.append(tuple((m, tuple(cs), tuple(at)) for m, (cs, at) in groups.items()))
            self._plan = list(xmonos), list(ymonos), coords
        return self._plan

    def grid(self, xs, ys):
        """The numerators n_k of an arity-2 map at every integer point
        (x, y) of ``xs`` x ``ys``, the scale D^degree being 1.

        Yields, per x in ``xs`` in order, one entry per coordinate k: the
        list of n_k(x, y) over ``ys``, or None when every x-polynomial of
        coordinate k vanishes at x, so that the row is zero (always on a
        coordinate that is identically zero).  The
        y-monomials are evaluated once per y, as one column over ``ys``
        each, and the x-polynomials once per x; a row is then the sum of
        the columns scaled by those values, one C-level ``map`` per
        nonzero term, not one Python step per point.
        """
        xmonos, ymonos, coords = self._grid_plan()
        columns = list(zip(*[_monomials(ymonos, y) for y in ys])) or [()] * len(ymonos)
        for x in xs:
            xvals = _monomials(xmonos, x)
            out = []
            for plan in coords:
                row = None
                for m, cs, at in plan:
                    c = sum(map(mul, cs, map(xvals.__getitem__, at)))
                    if c:
                        term = columns[m] if c == 1 else map(c.__mul__, columns[m])
                        row = term if row is None else map(add, row, term)
                out.append(None if row is None else list(row))
            yield out


def first_indivisible(rows, moduli):
    """The least index, over the rows of one x of ``SecondKindLaw.grid``,
    of a numerator that the modulus of its coordinate does not divide, or
    None when every one is divisible (a None row is all zeros)."""
    misses = [
        next(i for i, n in enumerate(row) if n % q)
        for row, q in zip(rows, moduli)
        if row is not None and q != 1 and any(map(q.__rmod__, row))
    ]
    return min(misses, default=None)


def _monomials(monos, point):
    """The value of each monomial, a tuple of (index, exponent) pairs, at
    the int point ``point``."""
    out = []
    for mono in monos:
        v = 1
        for i, e in mono:
            v *= point[i] ** e
        out.append(v)
    return out


def _chart_fixed_point(lattice, target):
    """Second-kind coordinates of the element with first-kind ``target``.

    Iterates y <- y + (target - first(y)) over law polynomials.  On a
    basis adapted to the lower central series the defect sinks one term
    of it per round, so it is exactly zero within ``lattice.depth``
    rounds; otherwise the basis is refused with InvalidBasis.
    """
    y = list(target)
    for _ in range(lattice.depth):
        defect = [a - b for a, b in zip(target, _eval_second_kind(lattice, tuple(y)))]
        if not any(defect):
            return tuple(y)
        y = [a + b for a, b in zip(y, defect)]
    raise InvalidBasis(
        "basis is not adapted to the lower central series: the chart "
        f"conversion did not close in {lattice.depth} rounds"
    )


def _compile(lattice, arity, build):
    """Run ``build`` over ``arity`` tuples of d polynomial variables and
    compile the polynomials it returns."""
    d = lattice.d
    variables = [_LawPoly({((k, 1),): Fraction(1)}) for k in range(arity * d)]
    args = [tuple(variables[i * d:(i + 1) * d]) for i in range(arity)]
    return SecondKindLaw(lattice.p, build(*args), arity * d)


def _cleared(coords, n):
    """A point of n int or Fraction coordinates as (int numerators, their
    least common denominator), reduced as ``GroupElement`` stores it; any
    other point is refused with InvalidArgument."""
    coords = tuple(coords)
    if len(coords) != n or not all(isinstance(c, (int, Fraction)) for c in coords):
        raise InvalidArgument(f"a point needs {n} int or Fraction coordinates, not {coords!r}")
    den = lcm(*[c.denominator for c in coords])
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


class GroupElement:
    """A group element, held in the second-kind chart.

    Its coordinates x are stored as ints ``nums`` over one positive
    denominator ``den``, reduced so that gcd(den, *nums) = 1, as
    ``Scalar`` stores K; ``second()`` is their Fraction view and
    ``first()`` evaluates E at them.  Products, inverses and commutators
    evaluate the lattice's compiled maps on those ints
    (``SecondKindLaw.reduced``: F for ``*``, I for ``inverse`` and C for
    ``commutator``), and g^lambda is L(lambda E(x)).  Every compiled call
    refuses a point that is not p-integral with NotPIntegral.  Elements
    are built by ``LieLattice.element_first`` and ``element_second`` and
    by these operations, which hand the constructor reduced ints.
    """

    __slots__ = ("lattice", "nums", "den")

    def __init__(self, lattice, nums, den):
        self.lattice = lattice
        self.nums = nums
        self.den = den

    def first(self):
        return _fractions(*self.lattice.to_first_kind.reduced(self.nums, self.den))

    def second(self):
        return _fractions(self.nums, self.den)

    def _with(self, other, what):
        """This element and ``other`` as one point over the lcm of their
        denominators."""
        if not isinstance(other, GroupElement) or other.lattice is not self.lattice:
            raise InvalidArgument(f"a {what} needs two elements of the same lattice")
        dx, dy = self.den, other.den
        if dx == dy:
            return (*self.nums, *other.nums), dx
        D = lcm(dx, dy)
        return (*[x * (D // dx) for x in self.nums], *[y * (D // dy) for y in other.nums]), D

    def __mul__(self, other):
        z = self.lattice.second_kind_law.reduced(*self._with(other, "product"))
        return GroupElement(self.lattice, *z)

    def inverse(self):
        z = self.lattice.second_kind_inverse.reduced(self.nums, self.den)
        return GroupElement(self.lattice, *z)

    def __pow__(self, exponent):
        """g^lambda = exp(lambda log g) for p-integral lambda."""
        if not isinstance(exponent, (int, Fraction)):
            raise InvalidArgument(f"an exponent must be an int or a Fraction, not {exponent!r}")
        lat = self.lattice
        if vp_rational(exponent, lat.p) < 0:
            raise NotPIntegral("exponent must be p-integral")
        nums, den = lat.to_first_kind.reduced(self.nums, self.den)
        z = [exponent.numerator * n for n in nums], exponent.denominator * den
        return GroupElement(lat, *lat.to_second_kind.reduced(*z))

    def commutator(self, other):
        """[g, h] = g^-1 h^-1 g h, by one call of the compiled C."""
        z = self.lattice.commutator_law.reduced(*self._with(other, "commutator"))
        return GroupElement(self.lattice, *z)

    def conjugate(self, by):
        moved = self * by  # refuses a ``by`` that is not an element of this lattice
        return by.inverse() * moved

    def level(self):
        """Largest i with all second-kind coordinates in p^{i-1} Z_p, that
        is 1 + min v_p over the nonzero coordinates; exact at any depth."""
        p = self.lattice.p
        vals = [vp_int(n, p) for n in self.nums if n]
        if not vals:
            raise InvalidArgument("the identity has no finite lower-p-series level")
        return 1 + min(vals) - vp_int(self.den, p)

    def p_valuation(self):
        """The p-valuation induced by the lower p-series (shifted for p = 2)."""
        if not any(self.nums):
            return INF
        lvl = self.level()
        return lvl if self.lattice.p != 2 else lvl + 1

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.lattice is other.lattice
            and self.nums == other.nums
            and self.den == other.den
        )

    def __repr__(self):
        return f"g{tuple(str(c) for c in self.second())}"


def _fractions(nums, den):
    return tuple(Fraction(n, den) for n in nums)


def second_kind_valuation_formula(g):
    """min_i (omega(h_i) + v_p(x_i)) over the second-kind coordinates."""
    lat = g.lattice
    shift = lat.kappa - vp_int(g.den, lat.p)
    return min((vp_int(n, lat.p) + shift for n in g.nums), default=INF)


def check_p_valuation(pairs):
    """Verify the p-valuation axioms and the coordinate formula on sample pairs.

    Returns the list of violations (empty when the axioms hold); each entry
    names the axiom and carries the offending pair.
    """
    violations = []
    for g, h in pairs:
        og, oh = g.p_valuation(), h.p_valuation()
        if (g * h.inverse()).p_valuation() < min(og, oh):
            violations.append(("ultrametric", g, h))
        if g.commutator(h).p_valuation() < og + oh:
            violations.append(("commutator", g, h))
        for elt, om in ((g, og), (h, oh)):
            if om is INF:
                continue
            if (elt ** elt.lattice.p).p_valuation() != om + 1:
                violations.append(("p-power", elt, None))
            if om != second_kind_valuation_formula(elt):
                violations.append(("coordinate-formula", elt, None))
    return violations


# ---------------------------------------------------------------------------
# finite quotients and the pro-2 commutator check

class FiniteQuotient:
    """The quotient by the lower-p-series step P_{level+1}.

    Elements are integer second-kind coordinate vectors modulo p^level;
    the group law is computed exactly upstairs and reduced, so any level
    >= 1 is admissible.
    """

    def __init__(self, lattice, level):
        if level < 1:
            raise InvalidArgument(f"quotient level must be >= 1, not {level}")
        self.lattice = lattice
        self.level = level

    def window_members(self, i, window):
        """Representatives of P_i modulo P_{i+window} inside the quotient."""
        p = self.lattice.p
        stride = p ** (i - 1)
        steps = range(0, stride * p**window, stride)
        return list(product(steps, repeat=self.lattice.d))


def _commutator_windows(level, i, j):
    """Window sizes of P_i and P_j in the commutator check at ``level``."""
    return min(j, level - i + 1), min(i, level - j + 1)


def pro2_sweep_pairs(d, level):
    """Pairs the pro-2 sweep checks at ``level`` on a d-dimensional
    lattice: ``check_powerful_commutator`` over every step pair (i, j)
    with i + j + 1 <= level, 2^(d (w_a + w_b)) pairs each."""
    total = 0
    for i in range(1, level):
        for j in range(1, level - i):
            window_a, window_b = _commutator_windows(level, i, j)
            total += 2 ** (d * (window_a + window_b))
    return total


def check_powerful_commutator(quotient, i, j):
    """Exhaustively verify [P_i, P_j] <= P_{i+j+1} in a powerful 2-group quotient.

    Enumeration runs over representatives of P_i mod P_{i+j} and P_j mod
    P_{i+j}: replacing a by az with z in P_{i+j} changes [a,b] by factors
    from [P_{i+j}, G] <= P_{i+j+1}, so these windows cover every pair.
    The compiled commutator C is evaluated on the whole window grid
    (``SecondKindLaw.grid``), one row of numerators n_k per a and
    coordinate.  [a, b] lies in P_bound, bound = min(i + j + 1, level +
    1), iff every n_k is divisible by p^(bound - 1 + v_p(denoms[k])),
    exactly so since bound - 1 <= level.  The first escaping pair in
    (a, b) order is the witness, with the second-kind coordinates of
    [a, b].  Returns the number of pairs checked.
    """
    lat = quotient.lattice
    if lat.p != 2:
        raise InvalidArgument(f"the commutator check is specific to p = 2, not p = {lat.p}")
    if i < 1 or j < 1:
        raise InvalidArgument(f"step indices need 1 <= i, j, not i = {i}, j = {j}")
    if quotient.level < i + j:
        raise InvalidArgument(
            f"quotient level {quotient.level} is below i + j = {i + j} for the step pair"
        )
    window_a, window_b = _commutator_windows(quotient.level, i, j)
    law = lat.commutator_law
    bound = min(i + j + 1, quotient.level + 1)
    moduli = [lat.p ** (bound - 1 + vp_int(q, lat.p)) for q in law.denoms]
    xs = quotient.window_members(i, window_a)
    ys = quotient.window_members(j, window_b)
    for a, rows in zip(xs, law.grid(xs, ys)):
        at = first_indivisible(rows, moduli)
        if at is not None:
            b = ys[at]
            c = lat.element_second(a).commutator(lat.element_second(b))
            raise CounterexampleFound(
                f"[P_{i}, P_{j}] escapes P_{i + j + 1}",
                witness=(a, b, c.second()),
            )
    return len(xs) * len(ys)


# ---------------------------------------------------------------------------
# scalar restriction of groups over a finite extension L

class LGroupSpec:
    """A group over L presented through its scalar-restriction data.

    The field K must contain L; ``v_basis`` lists the images in K of a
    Z_p-basis v_1 = 1, ..., v_n of the valuation ring of L, and
    ``brackets`` gives the L-bilinear bracket [x_j, x_l] = sum_m beta *
    x_m with each beta an o-element written over the v-basis.  The data
    asserts that the second-kind chart of the restriction is a global
    chart compatible with integer powers of exp.
    """

    def __init__(self, field: FieldSpec, v_basis, d, brackets=None, name=""):
        self.field = field
        self.v_basis = [field.scalar(v) for v in v_basis]
        self.d = d
        self.name = name
        if not self.v_basis or self.v_basis[0] != field.one():
            raise InvalidBasis("v_1 must be 1")
        self.n = len(self.v_basis)
        self.brackets = {}
        for (j, l), vecs in (brackets or {}).items():
            if j == l:
                raise InvalidBracket("bracket of x_j with itself must be omitted")
            entry = tuple(tuple(Fraction(c) for c in o_elem) for o_elem in vecs)
            if len(entry) != d or any(len(o) != self.n for o in entry):
                raise InvalidBracket("bracket entries must be d o-elements over the v-basis")
            self.brackets[(j, l)] = entry
            self.brackets[(l, j)] = tuple(
                tuple(-c for c in o_elem) for o_elem in entry
            )
        self._omul = self._solve_o_multiplication()

    def _solve_o_multiplication(self):
        cols = [v.coords for v in self.v_basis]
        table = {}
        for i in range(self.n):
            for j in range(i, self.n):
                prod = self.v_basis[i] * self.v_basis[j]
                sol = solve_columns(cols, prod.coords)
                if sol is None:
                    raise InvalidBasis("v-basis does not span a ring: products leave the span")
                for c in sol:
                    if vp_rational(c, self.field.p) < 0:
                        raise InvalidBasis("v-basis products have non-integral coordinates")
                table[(i, j)] = tuple(sol)
                table[(j, i)] = tuple(sol)
        return table

    def o_mul(self, u, w):
        """Product of two o-elements given over the v-basis."""
        out = [Fraction(0)] * self.n
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(w):
                if not b:
                    continue
                row = self._omul[(i, j)]
                c = a * b
                for k in range(self.n):
                    if row[k]:
                        out[k] += c * row[k]
        return tuple(out)

    def flat_index(self, i, j):
        """Position of the generator h_ij in the order (1,1),(2,1),...,(n,d)."""
        return (j - 1) * self.n + (i - 1)

    def restrict(self):
        """The nd-dimensional Q_p-lattice of the scalar restriction.

        Generators are labelled b_ij in the basis order v_i x_j; raises
        NotPowerful when the induced constants violate the kappa bound.
        """
        n, d = self.n, self.d
        nd = n * d
        one = tuple(Fraction(1) if k == 0 else Fraction(0) for k in range(n))

        def basis_o(i):
            return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))

        br = {}
        for j in range(1, d + 1):
            for l in range(j + 1, d + 1):
                beta = self.brackets.get((j, l))
                if beta is None:
                    continue
                for a in range(n):
                    for b in range(n):
                        vab = self.o_mul(basis_o(a), basis_o(b))
                        row = [Fraction(0)] * nd
                        nonzero = False
                        for m in range(1, d + 1):
                            coeff_o = self.o_mul(vab, beta[m - 1])
                            for i in range(n):
                                c = coeff_o[i]
                                if c:
                                    row[self.flat_index(i + 1, m)] += c
                                    nonzero = True
                        if nonzero:
                            key = (self.flat_index(a + 1, j), self.flat_index(b + 1, l))
                            br[key] = tuple(row)
        labels = tuple(f"b{i}{j}" for j in range(1, d + 1) for i in range(1, n + 1))
        return LieLattice(
            self.field.p, nd, br,
            labels=labels,
            name=f"{self.name}|Qp" if self.name else "restricted",
        )

    def step(self, m):
        """The spec of the m-th lower-p-series step (basis v_i (p^m x_j))."""
        scale = Fraction(self.field.p) ** m
        br = {
            key: tuple(tuple(c * scale for c in o_elem) for o_elem in entry)
            for key, entry in self.brackets.items()
        }
        # keep only one orientation; constructor rebuilds the other
        br = {(j, l): e for (j, l), e in br.items() if j < l}
        return LGroupSpec(
            self.field, self.v_basis, self.d, br,
            name=f"{self.name}^({m})" if self.name else "",
        )

    def residue_of_v(self, i):
        """The residue class of v_i (i is 1-based): zero when v(v_i) > 0."""
        v = self.v_basis[i - 1]
        return v.residue() if v.valuation == 0 else self.field.residue_field.zero()

    def __repr__(self):
        return f"LGroup({self.name or 'anon'}, n={self.n}, d={self.d})"
