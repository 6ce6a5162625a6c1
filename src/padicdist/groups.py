"""Uniform pro-p groups presented by powerful Z_p-Lie lattices.

A lattice with bracket constants of p-valuation >= kappa carries a group
law through the Hausdorff series; elements live in two charts, the
exponential one ("first kind") and the ordered-generator one
x -> h_1^{x_1} ... h_d^{x_d} ("second kind").  Coordinates are exact
p-integral rationals; the series is evaluated with a certified truncation
depth, which is the exact nilpotency degree when the lattice is nilpotent
and a valuation bound otherwise.

The module also provides the lower p-series level, the induced
p-valuation, finite powerful quotients for the pro-2 commutator check and
scalar restriction of groups defined over a finite extension L.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from .errors import (
    CounterexampleFound,
    InvalidBasis,
    InvalidBracket,
    NotPowerful,
    PrecisionExhausted,
)
from .padics import FieldSpec, solve_columns
from .radii import kappa, vp_rational

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
    """A powerful Z_p-Lie lattice with its induced uniform group."""

    def __init__(self, p, d, brackets=None, precision=40, max_series_depth=10,
                 labels=None, name=""):
        self.p = p
        self.d = d
        self.precision = precision
        self.max_series_depth = max_series_depth
        self.name = name
        self.labels = tuple(labels) if labels else tuple(f"b{i + 1}" for i in range(d))
        if len(self.labels) != d:
            raise ValueError("need one label per generator")

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

        self._validate()
        self._depth_info = None

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
        # Jacobi defect must vanish within precision
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
                    defect = min((vp_rational(c, self.p) for c in e if c != 0), default=INF)
                    if defect < self.precision:
                        raise InvalidBracket(
                            f"Jacobi identity fails at ({i},{j},{k}) with defect valuation {defect}"
                        )

    def _unit(self, i):
        return tuple(Fraction(1) if k == i else Fraction(0) for k in range(self.d))

    def bracket(self, x, y):
        out = [Fraction(0)] * self.d
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.brackets[i][j]
                c = xi * yj
                for k in range(self.d):
                    if row[k]:
                        out[k] += c * row[k]
        return tuple(out)

    @property
    def abelian(self):
        return self.nu is INF

    # -- series depth certification ------------------------------------------

    def _series_depth(self):
        """(exact, depth): exact nilpotency degree, or a valuation bound.

        When not nilpotent, depth T certifies that every Hausdorff term of
        word length > T has coordinate valuation >= precision on
        p-integral inputs: a length-t term gains (t-1)*nu from brackets
        and loses at most (t-1)/(p-1) + 2*digits_p(t) to denominators.
        The scan margin 130 covers the finitely many digit jumps before
        the linear term dominates outright.
        """
        if self._depth_info is not None:
            return self._depth_info
        if self.abelian:
            self._depth_info = (True, 1)
            return self._depth_info
        span = [self._unit(i) for i in range(self.d)]
        depth = 1
        while depth <= self.max_series_depth + 1:
            nxt = []
            for i in range(self.d):
                for v in span:
                    b = self.bracket(self._unit(i), v)
                    if any(b):
                        nxt.append(b)
            if not nxt:
                self._depth_info = (True, depth)
                return self._depth_info
            span = nxt
            depth += 1
        delta = self.nu - Fraction(1, self.p - 1)
        if delta <= 0:
            raise NotPowerful(f"nu = {self.nu} leaves no valuation gain over 1/(p - 1)")
        t = 2
        while True:
            digits = len(self._base_p_digits(t))
            if (t - 1) * delta - 2 * digits >= self.precision + 130:
                break
            t += 1
        self._depth_info = (False, t)
        return self._depth_info

    def _base_p_digits(self, n):
        out = []
        while n:
            out.append(n % self.p)
            n //= self.p
        return out

    # -- group law --------------------------------------------------------------

    def bch(self, x, y):
        """First-kind coordinates of exp(x)exp(y); exact on nilpotent lattices."""
        for c in (*x, *y):
            if vp_rational(c, self.p) < 0:
                raise ValueError("Hausdorff series needs p-integral coordinates")
        exact, depth = self._series_depth()
        if depth > self.max_series_depth:
            raise PrecisionExhausted(
                f"certified series depth {depth} exceeds the configured maximum "
                f"{self.max_series_depth}"
            )
        out = [a + b for a, b in zip(x, y)]
        args = (x, y)
        for word, coeff in _hausdorff_words(depth).items():
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

    # -- elements ----------------------------------------------------------------

    def element_first(self, coords):
        return GroupElement(self, "first", tuple(Fraction(c) for c in coords))

    def element_second(self, coords):
        return GroupElement(self, "second", tuple(Fraction(c) for c in coords))

    def identity(self):
        return self.element_first((0,) * self.d)

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
            self.p, self.d, br, precision=self.precision,
            max_series_depth=self.max_series_depth, labels=self.labels,
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
    """First-kind coordinates of h_1^{x_1} ... h_d^{x_d}."""
    acc = None
    for i, c in enumerate(coords):
        if c == 0:
            continue
        vec = tuple(c if k == i else Fraction(0) for k in range(lattice.d))
        acc = vec if acc is None else lattice.bch(acc, vec)
    return acc if acc is not None else (Fraction(0),) * lattice.d


class GroupElement:
    """A group element in a fixed chart; conversions are cached.

    Conversion from the exponential chart to the ordered-generator chart
    runs a fixed-point iteration whose defect gains at least nu in
    valuation per round; it terminates exactly on nilpotent lattices and
    at the working precision otherwise.
    """

    __slots__ = ("lattice", "mode", "coords", "_other")

    def __init__(self, lattice, mode, coords):
        if mode not in ("first", "second"):
            raise ValueError("mode must be 'first' or 'second'")
        self.lattice = lattice
        self.mode = mode
        self.coords = coords
        self._other = None

    def first(self):
        if self.mode == "first":
            return self.coords
        if self._other is None:
            self._other = _eval_second_kind(self.lattice, self.coords)
        return self._other

    def second(self):
        if self.mode == "second":
            return self.coords
        if self._other is None:
            self._other = self._to_second()
        return self._other

    def _to_second(self):
        lat = self.lattice
        target = self.coords
        y = list(target)
        prev_gain = -1
        for _ in range(lat.precision + 8):
            w = _eval_second_kind(lat, tuple(y))
            defect = [a - b for a, b in zip(target, w)]
            if not any(defect):
                return tuple(y)
            gain = min(vp_rational(c, lat.p) for c in defect if c != 0)
            if gain >= lat.precision:
                return tuple(y)
            if gain <= prev_gain:
                raise PrecisionExhausted("chart conversion failed to contract")
            prev_gain = gain
            y = [a + b for a, b in zip(y, defect)]
        raise PrecisionExhausted("chart conversion did not terminate within precision")

    @property
    def is_identity(self):
        return not any(self.coords)

    def __mul__(self, other):
        if other.lattice is not self.lattice:
            raise ValueError("elements of different lattices")
        z = self.lattice.bch(self.first(), other.first())
        return GroupElement(self.lattice, "first", z)

    def inverse(self):
        return GroupElement(self.lattice, "first", tuple(-c for c in self.first()))

    def __pow__(self, exponent):
        """g^lambda = exp(lambda log g) for p-integral lambda."""
        lam = Fraction(exponent)
        if vp_rational(lam, self.lattice.p) < 0:
            raise ValueError("exponent must be p-integral")
        return GroupElement(
            self.lattice, "first", tuple(lam * c for c in self.first())
        )

    def commutator(self, other):
        return self.inverse() * other.inverse() * self * other

    def conjugate(self, by):
        return by.inverse() * self * by

    def level(self):
        """Largest i with all second-kind coordinates in p^{i-1} Z_p."""
        coords = self.second()
        vals = [vp_rational(c, self.lattice.p) for c in coords if c != 0]
        if not vals:
            raise ValueError("the identity has no finite lower-p-series level")
        m = min(vals)
        if m >= self.lattice.precision:
            raise PrecisionExhausted(
                "all coordinates vanish modulo p^M; level not certifiable"
            )
        return 1 + m

    def p_valuation(self):
        """The p-valuation induced by the lower p-series (shifted for p = 2)."""
        if not any(self.second()):
            return INF
        lvl = self.level()
        return lvl if self.lattice.p != 2 else lvl + 1

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.lattice is other.lattice
            and self.second() == other.second()
        )

    def __repr__(self):
        return f"g{self.mode[0]}{tuple(str(c) for c in self.coords)}"


def second_kind_valuation_formula(g):
    """min_i (omega(h_i) + v_p(x_i)) over the second-kind coordinates."""
    lat = g.lattice
    kappa = lat.kappa
    vals = [kappa + vp_rational(c, lat.p) for c in g.second()]
    return min(vals) if vals else INF


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
    the group law is computed exactly upstairs and reduced.
    """

    def __init__(self, lattice, level):
        if level < 1 or level >= lattice.precision:
            raise ValueError("quotient level must satisfy 1 <= level < precision")
        self.lattice = lattice
        self.level = level
        self.modulus = lattice.p**level

    def window_members(self, i, window):
        """Representatives of P_i modulo P_{i+window} inside the quotient."""
        p = self.lattice.p
        stride = p ** (i - 1)
        steps = range(0, stride * p**window, stride)
        return list(product(steps, repeat=self.lattice.d))

    def member_level(self, g):
        """Lower-p-series level inside the quotient (level+1 for the class of 1)."""
        vals = []
        for c in g.second():
            v = vp_rational(c, self.lattice.p)
            vals.append(min(v, self.level))
        return 1 + min(vals)


def check_powerful_commutator(quotient, i, j):
    """Exhaustively verify [P_i, P_j] <= P_{i+j+1} in a powerful 2-group quotient.

    Enumeration runs over representatives of P_i mod P_{i+j} and P_j mod
    P_{i+j}: replacing a by az with z in P_{i+j} changes [a,b] by factors
    from [P_{i+j}, G] <= P_{i+j+1}, so these windows cover every pair.
    Returns the number of pairs checked.
    """
    lat = quotient.lattice
    if lat.p != 2:
        raise ValueError("the commutator check is specific to p = 2")
    if quotient.level < i + j:
        raise ValueError("quotient level too small for the requested step pair")
    window_a = min(j, quotient.level - i + 1)
    window_b = min(i, quotient.level - j + 1)
    checked = 0
    for a in quotient.window_members(i, window_a):
        ga = lat.element_second(a)
        for b in quotient.window_members(j, window_b):
            gb = lat.element_second(b)
            c = ga.commutator(gb)
            if quotient.member_level(c) < min(i + j + 1, quotient.level + 1):
                raise CounterexampleFound(
                    f"[P_{i}, P_{j}] escapes P_{i + j + 1}",
                    witness=(a, b, c.second()),
                )
            checked += 1
    return checked


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

    def restrict(self, precision=None, max_series_depth=10):
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
            precision=precision or self.field.precision,
            max_series_depth=max_series_depth,
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
        """The residue class of v_i (i is 1-based)."""
        return self.v_basis[i - 1].leading_residue()

    def __repr__(self):
        return f"LGroup({self.name or 'anon'}, n={self.n}, d={self.d})"
