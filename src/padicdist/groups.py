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
chart fixed point compile on first use, once per structure (p, d,
brackets), into polynomials evaluated in integers: the law F(x, y) of
h^x h^y, the chart maps E (second to first kind) and L (first to second
kind), the inverse I in the second-kind chart and the commutator C(x, y)
of h^x and h^y.
The fixed point closes only on a basis adapted to the lower central
series; any other basis is refused with InvalidBasis.

The module also provides the lower p-series level, the induced
p-valuation and its axiom check (which evaluates each map once over the
whole sample), the pro-2 commutator check (which reads the
divisibility of C's numerators on a whole box of window points of the
lower p-series off their coefficients in the binomial basis) and scalar
restriction of groups defined over a finite extension L, computed in K.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product, repeat
from math import factorial, gcd, lcm, prod
from operator import add, floordiv, itemgetter, lt, mul

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
from .indices import unit_index
from .padics import FieldSpec, ResidueField, Subspace, solve_columns
from .radii import kappa, vp_int, vp_rational

INF = math.inf


def require_step(m):
    """Refuse a lower-p-series step m < 0 with InvalidArgument."""
    if m < 0:
        raise InvalidArgument(f"the step m = {m} must be >= 0")


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
        checked = _bracket_table(brackets, 0, (d,), "bracket vectors must have length d")
        for (i, j), row in checked.items():
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
                        inner = self.bracket(unit_index(self.d, other), vec)
                        e = [a + b for a, b in zip(e, inner)]
                    if any(e):
                        raise InvalidBracket(
                            f"Jacobi identity fails at ({i},{j},{k}): defect "
                            f"{tuple(str(c) for c in e)}"
                        )

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
        term = [unit_index(self.d, i) for i in range(self.d)]
        for depth in range(1, self.d + 1):
            nxt, span = [], Subspace(Fraction(0), self.d)
            for i in range(self.d):
                for v in term:
                    b = self.bracket(unit_index(self.d, i), v)
                    if span.add(enumerate(b)):  # b is not in the span
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
        return _compile(self, "F", 2, lambda x, y: _chart_fixed_point(
            self, self._bch(_eval_second_kind(self, x), _eval_second_kind(self, y))
        ))

    @cached_property
    def to_first_kind(self):
        """E(x): first-kind coordinates of h^x."""
        return _compile(self, "E", 1, lambda x: _eval_second_kind(self, x))

    @cached_property
    def to_second_kind(self):
        """L(z): second-kind coordinates of exp(z)."""
        return _compile(self, "L", 1, lambda z: _chart_fixed_point(self, z))

    @cached_property
    def second_kind_inverse(self):
        """I(x): second-kind coordinates of (h^x)^-1 = exp(-E(x))."""
        return _compile(self, "I", 1, lambda x: _chart_fixed_point(
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
        return _compile(self, "C", 2, build)

    # -- elements ----------------------------------------------------------------

    def element_first(self, coords):
        """exp(z) for the first-kind coordinates z, converted once by L."""
        return GroupElement(self, *self.to_second_kind.reduced_all([_cleared(coords, self.d)])[0])

    def element_second(self, coords):
        return GroupElement(self, *_cleared(coords, self.d))

    def identity(self):
        return self.element_second((0,) * self.d)

    def generator(self, i):
        """h_{i+1} = exp(X_{i+1})."""
        return self.element_second(unit_index(self.d, i))

    def step(self, m):
        """The lattice of the m-th lower-p-series step (basis p^m X_i)."""
        require_step(m)
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


def _bracket_table(brackets, first, shape, what):
    """``brackets`` checked and in one orientation: {(i, j): entry} with
    i < j, an entry given at (j, i) negated, its constants as Fractions.
    A key that is not a pair of distinct generator indices first, ...,
    first + d - 1 (d = shape[0]) and a constant that is not an int or a
    Fraction are refused with InvalidBracket, and so, with the message
    ``what``, is an entry whose nesting is not of the lengths ``shape``."""
    d = shape[0]

    def constants(entry, dims, sign):
        entry = tuple(entry)
        if len(entry) != dims[0]:
            raise InvalidBracket(what)
        if len(dims) > 1:
            return tuple(constants(e, dims[1:], sign) for e in entry)
        if not all(isinstance(c, (int, Fraction)) for c in entry):
            raise InvalidBracket(f"bracket constants must be ints or Fractions, not {entry!r}")
        return tuple(sign * Fraction(c) for c in entry)

    table = {}
    for key, entry in (brackets or {}).items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(i, int) and first <= i < first + d for i in key)):
            raise InvalidBracket(f"bracket key {key!r} is not a pair of generator indices "
                                 f"in {first}..{first + d - 1}")
        i, j = key
        if i == j:
            raise InvalidBracket("bracket of a generator with itself must be omitted")
        table[min(i, j), max(i, j)] = constants(entry, shape, 1 if i < j else -1)
    return table


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
    ``reduced_all`` takes a list of points, each cleared to int numerators
    over one D, and returns each output the same way, over the one
    denominator lcm(denoms) D^degree and reduced by one gcd, with no
    Fraction built; it refuses a D divisible by p with NotPIntegral.  A
    single point is a list of one: a call is the Fraction view of
    ``reduced_all`` at one point of ints and Fractions, and so are the
    operations of ``GroupElement``.  ``binomial_numerators`` writes the
    numerators at int points in the binomial basis, where divisibility
    on a whole down-set of points is read off the coefficients.
    """

    __slots__ = ("p", "degree", "terms", "denoms", "nvars", "_common", "_lifts")

    def __init__(self, p, polys, nvars):
        self.p = p
        self.nvars = nvars
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

    def reduced_all(self, points):
        """(nums', den') at each (nums, den) of the list ``points``, in order,
        with nums'[k] / den' the output at the point nums / den, den' > 0
        and gcd(den', *nums') = 1.  Each power of a variable is computed
        once, as a column over the points, and every term, gcd and
        division is a C-level ``map`` over such columns, not a Python step
        per point."""
        if not points:
            return []
        dens = list(map(itemgetter(1), points))
        if not all(map(self.p.__rmod__, dens)):
            raise NotPIntegral("the group law needs p-integral coordinates")
        columns = [*zip(*map(itemgetter(0), points)), dens]
        powers, sums = {(v, 1): column for v, column in enumerate(columns)}, []
        for terms, lift in zip(self.terms, self._lifts):
            total = repeat(0, len(points))
            for c, mono in terms:
                c *= lift
                term = None if c == 1 and mono else repeat(c, len(points))
                for v, e in mono:
                    if (v, e) not in powers:
                        powers[v, e] = list(map(pow, columns[v], repeat(e)))
                    term = powers[v, e] if term is None else map(mul, term, powers[v, e])
                total = map(add, total, term)
            sums.append(list(total))
        scales = list(map(mul, repeat(self._common), map(pow, dens, repeat(self.degree))))
        gcds = list(map(gcd, scales, *sums))
        nums = zip(*[map(floordiv, column, gcds) for column in sums])
        return list(zip(nums, map(floordiv, scales, gcds)))

    def __call__(self, point):
        return _fractions(*self.reduced_all([_cleared(point, self.nvars)])[0])

    def binomial_numerators(self, scales):
        """The numerators n_k of the map at the int points (scales[v]
        z_v)_v, D = 1, in the binomial (Mahler) basis: per coordinate k, the
        map index -> c, over the nonzero c, with n_k the sum of c
        binom(z, index), an index holding one exponent per variable.  Each
        power goes in through z^e = sum_j S(e, j) j! binom(z, j), S the
        Stirling numbers of the second kind.  On a down-set B of N_0^nvars,
        closed under lowering a coordinate, the values of n_k on B and its
        coefficients at the indices in B determine each other by a
        unitriangular int matrix: a modulus divides every value on B iff it
        divides every such coefficient, and in an order that extends the
        componentwise one the first failing point is the first failing
        index."""
        surjections = [[1]]  # S(e, j) j! for j = 0..e
        for _ in range(self.degree):
            last = surjections[-1]
            surjections.append([j * (a + b) for j, (a, b) in enumerate(zip(last + [0], [0] + last))])
        out = []
        for terms in self.terms:
            coeffs = {}
            for c, mono in terms:
                powers = [(v, e) for v, e in mono if v < self.nvars]  # the scale variable is 1
                c *= prod(scales[v] ** e for v, e in powers)
                for js in product(*(range(1, e + 1) for _, e in powers)):
                    index, n = [0] * self.nvars, c
                    for (v, e), j in zip(powers, js):
                        index[v] = j
                        n *= surjections[e][j]
                    index = tuple(index)
                    coeffs[index] = coeffs.get(index, 0) + n
            out.append({index: c for index, c in coeffs.items() if c})
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


_COMPILED = {}  # (p, d, brackets, map name) -> its SecondKindLaw


def _compile(lattice, name, arity, build):
    """Run ``build`` over ``arity`` tuples of d polynomial variables and
    compile the polynomials it returns, once per structure: lattices with
    the same (p, d, brackets) share the map ``name``."""
    key = (lattice.p, lattice.d, lattice.brackets, name)
    if key not in _COMPILED:
        d = lattice.d
        variables = [_LawPoly({((k, 1),): Fraction(1)}) for k in range(arity * d)]
        args = [tuple(variables[i * d:(i + 1) * d]) for i in range(arity)]
        _COMPILED[key] = SecondKindLaw(lattice.p, build(*args), arity * d)
    return _COMPILED[key]


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
    evaluate the lattice's compiled maps on those ints, one point each
    (``SecondKindLaw.reduced_all`` at a list of one: F for ``*``, I for
    ``inverse`` and C for ``commutator``), and g^lambda is L(lambda E(x)).
    Every compiled call refuses a point that is not p-integral with
    NotPIntegral.  Elements are built by ``LieLattice.element_first`` and
    ``element_second``, by these operations, which hand the constructor
    reduced ints, and by ``samplers.random_element``, whose drawn ints
    over den = 1 are reduced as they stand.
    """

    __slots__ = ("lattice", "nums", "den")

    def __init__(self, lattice, nums, den):
        self.lattice = lattice
        self.nums = nums
        self.den = den

    def first(self):
        return _fractions(*self.lattice.to_first_kind.reduced_all([(self.nums, self.den)])[0])

    def second(self):
        return _fractions(self.nums, self.den)

    def _with(self, other, what):
        """This element and ``other`` as one point over the lcm of their
        denominators."""
        if not isinstance(other, GroupElement) or other.lattice is not self.lattice:
            raise InvalidArgument(f"a {what} needs two elements of the same lattice")
        return _joined((self.nums, self.den), (other.nums, other.den))

    def __mul__(self, other):
        z = self.lattice.second_kind_law.reduced_all([self._with(other, "product")])[0]
        return GroupElement(self.lattice, *z)

    def inverse(self):
        z = self.lattice.second_kind_inverse.reduced_all([(self.nums, self.den)])[0]
        return GroupElement(self.lattice, *z)

    def __pow__(self, exponent):
        """g^lambda = exp(lambda log g) for p-integral lambda."""
        if not isinstance(exponent, (int, Fraction)):
            raise InvalidArgument(f"an exponent must be an int or a Fraction, not {exponent!r}")
        lat = self.lattice
        if vp_rational(exponent, lat.p) < 0:
            raise NotPIntegral("exponent must be p-integral")
        nums, den = lat.to_first_kind.reduced_all([(self.nums, self.den)])[0]
        z = [exponent.numerator * n for n in nums], exponent.denominator * den
        return GroupElement(lat, *lat.to_second_kind.reduced_all([z])[0])

    def commutator(self, other):
        """[g, h] = g^-1 h^-1 g h, by one call of the compiled C."""
        z = self.lattice.commutator_law.reduced_all([self._with(other, "commutator")])[0]
        return GroupElement(self.lattice, *z)

    def conjugate(self, by):
        moved = self * by  # refuses a ``by`` that is not an element of this lattice
        return by.inverse() * moved

    def level(self):
        """Largest i with all second-kind coordinates in p^{i-1} Z_p, that
        is omega - kappa + 1; exact at any depth."""
        omega = self.p_valuation()
        if omega is INF:
            raise InvalidArgument("the identity has no finite lower-p-series level")
        return omega - self.lattice.kappa + 1

    def p_valuation(self):
        """The p-valuation omega induced by the lower p-series (see ``_omegas``)."""
        return _omegas(self.lattice.p, [(self.nums, self.den)])[0]

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


def _joined(x, y):
    """Two points (nums, den) as one point over the lcm of their denominators."""
    (xs, dx), (ys, dy) = x, y
    if dx == dy:
        return (*xs, *ys), dx
    D = lcm(dx, dy)
    return (*[n * (D // dx) for n in xs], *[n * (D // dy) for n in ys]), D


def _omegas(p, points):
    """The p-valuation at each point (nums, den) of the list ``points``,
    in either chart: kappa + v_p(gcd(nums) / den); INF at the identity."""
    k = kappa(p)
    return [k + vp_int(g, p) - vp_int(den, p) if (g := gcd(*nums)) else INF for nums, den in points]


def check_p_valuation(pairs):
    """Verify the p-valuation axioms on sample pairs.

    Returns the list of violations (empty when the axioms hold); each entry
    names the axiom and carries the offending pair.  Besides the
    ultrametric, commutator and p-power axioms, the "coordinate-formula"
    one asks that omega agree with the first-kind chart: omega(g) =
    ``_omegas`` at E(x), as omega(exp z) = kappa + v_p(z).  The elements
    share one lattice, whose maps each run once over the sample
    (``reduced_all``): I at every h, F at every (g, h^-1), C at every
    (g, h), E at every element and L at every p E, as g^p = L(p E(g)).
    omega is read once per column (``_omegas``), and one loop over the
    pairs compares the axioms on those columns.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    lat = pairs[0][0].lattice
    if any(not isinstance(x, GroupElement) or x.lattice is not lat for pair in pairs for x in pair):
        raise InvalidArgument("the p-valuation check needs elements of one lattice")
    p = lat.p
    points = [(x.nums, x.den) for pair in pairs for x in pair]  # g_1, h_1, g_2, ...
    gs, hs = points[::2], points[1::2]
    inverses = lat.second_kind_inverse.reduced_all(hs)
    quotients = lat.second_kind_law.reduced_all(list(map(_joined, gs, inverses)))
    commutators = lat.commutator_law.reduced_all(list(map(_joined, gs, hs)))
    firsts = lat.to_first_kind.reduced_all(points)
    powers = lat.to_second_kind.reduced_all([([p * n for n in nums], den) for nums, den in firsts])
    om, oq, oc, op, oe = (_omegas(p, col) for col in (points, quotients, commutators, powers, firsts))
    violations = []
    for (g, h), wg, wh, q, c, pg, ph, eg, eh in zip(
        pairs, om[::2], om[1::2], oq, oc, op[::2], op[1::2], oe[::2], oe[1::2]
    ):
        if q < min(wg, wh):
            violations.append(("ultrametric", g, h))
        if c < wg + wh:
            violations.append(("commutator", g, h))
        for elt, w, power, first in ((g, wg, pg, eg), (h, wh, ph, eh)):
            if w is INF:
                continue
            if power != w + 1:
                violations.append(("p-power", elt, None))
            if first != w:
                violations.append(("coordinate-formula", elt, None))
    return violations


# ---------------------------------------------------------------------------
# the pro-2 commutator check

def check_powerful_commutator(lattice, level, i, j):
    """Exhaustively verify [P_i, P_j] <= P_{i+j+1} modulo P_{level+1}.

    The lattice must have p = 2 and level must be at least i + j.
    Enumeration runs over representatives of P_i mod P_{i+j} and P_j mod
    P_{i+j}, cut at P_{level+1}: integer second-kind points a = p^(i-1) s
    and b = p^(j-1) t with 0 <= s_k < p^(w_a) and 0 <= t_k < p^(w_b), the
    w the window sizes.  Replacing a by az with z in P_{i+j} changes
    [a,b] by factors from [P_{i+j}, G] <= P_{i+j+1}, so these windows
    cover every pair.  [a, b] lies in P_bound, bound = min(i + j + 1,
    level + 1), iff every numerator n_k of the compiled commutator C is
    divisible by p^(bound - 1 + v_p(denoms[k])), exactly so since
    bound - 1 <= level.  The windows form a box, a down-set in (s, t), so
    that holds on the whole box iff it holds for every coefficient of
    n_k(p^(i-1) s, p^(j-1) t) in the binomial basis at an index in the box
    (``SecondKindLaw.binomial_numerators``), and the first escaping pair
    in (a, b) order is the least such index that fails; it is the
    witness, with the second-kind coordinates of [a, b].  Returns the
    number of pairs checked.
    """
    p, d = lattice.p, lattice.d
    if p != 2:
        raise InvalidArgument(f"the commutator check is specific to p = 2, not p = {p}")
    if i < 1 or j < 1:
        raise InvalidArgument(f"step indices need 1 <= i, j, not i = {i}, j = {j}")
    if level < i + j:
        raise InvalidArgument(f"quotient level {level} is below i + j = {i + j} for the step pair")
    law = lattice.commutator_law
    bound = min(i + j + 1, level + 1)
    window_a, window_b = min(j, level - i + 1), min(i, level - j + 1)
    strides = (p ** (i - 1),) * d + (p ** (j - 1),) * d
    box = (p ** window_a,) * d + (p ** window_b,) * d
    moduli = [p ** (bound - 1 + vp_int(q, p)) for q in law.denoms]
    misses = [index for coeffs, q in zip(law.binomial_numerators(strides), moduli)
              for index, c in coeffs.items() if c % q and all(map(lt, index, box))]
    if misses:
        point = tuple(map(mul, strides, min(misses)))
        a, b = point[:d], point[d:]
        c = lattice.element_second(a).commutator(lattice.element_second(b))
        raise CounterexampleFound(
            f"[P_{i}, P_{j}] escapes P_{i + j + 1}",
            witness=(a, b, c.second()),
        )
    return p ** (d * (window_a + window_b))


# ---------------------------------------------------------------------------
# scalar restriction of groups over a finite extension L

class LGroupSpec:
    """A group over L presented through its scalar-restriction data.

    The field K must contain L; ``v_basis`` lists the images in K of a
    Z_p-basis v_1 = 1, ..., v_n of the valuation ring of L, and
    ``brackets`` gives the L-bilinear bracket [x_j, x_l] = sum_m beta *
    x_m with each beta an o-element, p-integral over the v-basis.  The data
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
        # the span is o_L = L meet o_K iff its coordinates over w^a pi^b are p-integral,
        # of rank n mod p; a Q rank names a dependent basis, _v_coords's checks go next
        p, fp = field.p, ResidueField(field.p, (0, 1))
        span, rational = Subspace(fp.zero(), field.degree), Subspace(Fraction(0), field.degree)
        maximal = all(all(c.denominator % p for c in v.coords) and span.add(
            (k, fp.elem(c.numerator * pow(c.denominator, -1, p))) for k, c in enumerate(v.coords)
        ) for v in self.v_basis)
        if not maximal and not all(rational.add(enumerate(v.coords)) for v in self.v_basis):
            raise InvalidBasis("v-basis is linearly dependent")
        self.n = len(self.v_basis)
        self.brackets = _bracket_table(
            brackets, 1, (d, self.n), "bracket entries must be d o-elements over the v-basis"
        )
        if any(vp_rational(c, field.p) < 0 for e in self.brackets.values() for c in chain(*e)):
            raise InvalidBracket("an o-element needs p-integral coordinates over the v-basis")
        for a, b in product(range(self.n), repeat=2):
            self._v_coords(self.v_basis[a] * self.v_basis[b])
        if not maximal:
            raise InvalidBasis("v-basis is not a Z_p-basis of the valuation ring of L")
        # the residue classes vbar_1 = 1, ..., vbar_n: zero where v(v_i) > 0
        zero = field.residue_field.zero()
        self.vbars = tuple(v.residue() if v.valuation == 0 else zero for v in self.v_basis)

    def _v_coords(self, x):
        """The coordinates over the v-basis of the scalar x of K, which
        must lie in the Z_p-span of the v-basis, with p-integral
        coordinates; refused with InvalidBasis otherwise."""
        sol = solve_columns([v.coords for v in self.v_basis], x.coords)
        if sol is None:
            raise InvalidBasis("v-basis does not span a ring: products leave the span")
        if any(vp_rational(c, self.field.p) < 0 for c in sol):
            raise InvalidBasis("v-basis products have non-integral coordinates")
        return sol

    def flat_index(self, i, j):
        """Position of the generator h_ij in the order (1,1),(2,1),...,(n,d)."""
        return (j - 1) * self.n + (i - 1)

    # The first row h_11, ..., h_1d sits at every n-th position of that
    # order, so an nd-index alpha has its first-row exponents at alpha[::n].

    def is_first_row(self, alpha):
        """Whether the nd-index alpha has no exponent off the first row."""
        return sum(alpha) == sum(alpha[::self.n])

    def to_canonical_index(self, alpha):
        """The first-row exponents (alpha_11, ..., alpha_1d) of alpha."""
        return alpha[::self.n]

    def from_canonical_index(self, beta):
        """The nd-index with first-row exponents beta and zeros elsewhere."""
        alpha = [0] * (self.n * self.d)
        alpha[::self.n] = beta
        return tuple(alpha)

    def restrict(self):
        """The nd-dimensional Q_p-lattice of the scalar restriction.

        Generators are labelled b_ij in the basis order v_i x_j, and
        [b_aj, b_bl] = sum_m v_a v_b beta_m x_m is computed in K, each
        product read back over the v-basis; raises NotPowerful when the
        induced constants violate the kappa bound.
        """
        n, d, v = self.n, self.d, self.v_basis
        br = {}
        for (j, l), entry in self.brackets.items():
            beta = [sum(map(mul, v, o_elem), self.field.zero()) for o_elem in entry]
            for a, b in product(range(n), repeat=2):
                row = [Fraction(0)] * (n * d)
                for m, beta_m in enumerate(beta, 1):
                    for i, c in enumerate(self._v_coords(v[a] * v[b] * beta_m), 1):
                        row[self.flat_index(i, m)] = c
                if any(row):
                    br[(self.flat_index(a + 1, j), self.flat_index(b + 1, l))] = tuple(row)
        labels = tuple(f"b{i}{j}" for j in range(1, d + 1) for i in range(1, n + 1))
        return LieLattice(
            self.field.p, n * d, br,
            labels=labels,
            name=f"{self.name}|Qp" if self.name else "restricted",
        )

    def step(self, m):
        """The spec of the m-th lower-p-series step (basis v_i (p^m x_j))."""
        require_step(m)
        scale = Fraction(self.field.p) ** m
        br = {
            key: tuple(tuple(c * scale for c in o_elem) for o_elem in entry)
            for key, entry in self.brackets.items()
        }
        return LGroupSpec(
            self.field, self.v_basis, self.d, br,
            name=f"{self.name}^({m})" if self.name else "",
        )

    def __repr__(self):
        return f"LGroup({self.name or 'anon'}, n={self.n}, d={self.d})"
