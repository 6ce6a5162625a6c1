"""Shared test utilities: independent oracles and samplers.

The matrix oracle realizes the Heisenberg-type lattice inside 3x3
unitriangular matrices, where exp and log are exact quadratic polynomials;
it shares no code with the series evaluation it checks.  The box-sum
oracle rebuilds structure-constant rows from their defining signed sum
over the group law, independently of the table's finite-difference
transform.  The lattice oracle computes ultrametric least distances to a finitely generated
right-ideal lattice by weighted elimination, independently of the
symbol-rewriting canonicalizer.  The field-product oracle multiplies
scalars of K as polynomials in Q[w, pi] and reduces by long division,
independently of the basis-product table.
"""

import math
from fractions import Fraction
from itertools import product

INF = math.inf


# ---------------------------------------------------------------------------
# exact 3x3 unitriangular oracle for [X1, X2] = c X3

def _matmul3(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def heisenberg_mat_exp(coords, c):
    """exp of x1*(c E12) + x2*E23 + x3*E13; exact since strictly upper."""
    x1, x2, x3 = coords
    E = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    E[0][1] = c * x1
    E[1][2] = Fraction(x2)
    E[0][2] = Fraction(x3) + c * x1 * x2 / 2
    return E

def heisenberg_mat_log(E, c):
    A01, A12, A02 = E[0][1], E[1][2], E[0][2]
    return (A01 / c, A12, A02 - A01 * A12 / 2)


def heisenberg_bch_oracle(x, y, c):
    """First-kind coordinates of exp(x)exp(y) through the matrix model."""
    return heisenberg_mat_log(
        _matmul3(heisenberg_mat_exp(x, c), heisenberg_mat_exp(y, c)), c
    )


def heisenberg_second_kind_oracle(coords, c):
    """Second-kind coordinates via ordered matrix products."""
    # solve exp(a c E12) exp(b E23) exp(e E13) = exp(coords) entrywise
    E = heisenberg_mat_exp(coords, c)
    a = E[0][1] / c
    b = E[1][2]
    e = E[0][2] - c * a * b
    return (a, b, e)


# ---------------------------------------------------------------------------
# structure-constant oracle: the signed box sum that defines a row

def simplex(d, N):
    """All points of N_0^d with |x| <= N."""
    return [x for x in product(range(N + 1), repeat=d) if sum(x) <= N]


def box(alpha):
    """All x <= alpha componentwise."""
    return product(*(range(a + 1) for a in alpha))


def signed_binom(alpha, x):
    """(-1)^{|alpha - x|} binom(alpha, x), the weight of f(x) in c_alpha."""
    w = (-1) ** (sum(alpha) - sum(x))
    for a, b in zip(alpha, x):
        w *= math.comb(a, b)
    return w


class BoxSumRows:
    """Rows c^gamma_{alpha beta} of a structure-constant table by definition:

        sum_{x <= alpha, y <= beta} (-1)^{|alpha - x| + |beta - y|}
            binom(alpha, x) binom(beta, y) binom(F(x, y), gamma),

    with F the table's group law, the only thing taken from the table.
    Sums over y are shared between rows with the same (x, beta).
    """

    def __init__(self, table):
        self.table = table
        self.gammas = simplex(table.lattice.d, table.N)
        self._points = {}   # (x, y) -> [binom(F(x, y), gamma)]
        self._inner = {}    # (x, beta) -> sum over y <= beta

    def _point(self, x, y):
        out = self._points.get((x, y))
        if out is None:
            ladders = []  # binom(F_k, j) for j <= N, one list per coordinate
            for t in self.table.group_law(x, y):
                ladder = [Fraction(1)]
                for j in range(self.table.N):
                    ladder.append(ladder[-1] * (t - j) / (j + 1))
                ladders.append([v.numerator if v.denominator == 1 else v for v in ladder])
            out = [math.prod(ladder[k] for ladder, k in zip(ladders, gamma))
                   for gamma in self.gammas]
            self._points[(x, y)] = out
        return out

    def _inner_sum(self, x, beta):
        out = self._inner.get((x, beta))
        if out is None:
            out = [0] * len(self.gammas)
            for y in box(beta):
                w = signed_binom(beta, y)
                out = [a + w * b for a, b in zip(out, self._point(x, y))]
            self._inner[(x, beta)] = out
        return out

    def row(self, alpha, beta):
        acc = [0] * len(self.gammas)
        for x in box(alpha):
            w = signed_binom(alpha, x)
            acc = [a + w * b for a, b in zip(acc, self._inner_sum(x, beta))]
        return {g: Fraction(v) for g, v in zip(self.gammas, acc) if v}


# ---------------------------------------------------------------------------
# ultrametric lattice-distance oracle

class LatticeOracle:
    """Least distance to the span of given distributions, at a fixed radius."""

    def __init__(self, span, r):
        self.r = r
        if span:
            self.kappa = span[0].algebra.kappa
        self.basis = []
        self._echelonize([v for v in span if not v.is_zero])

    def _exp(self, alpha, coeff):
        return coeff.abs_exponent() + self.kappa * sum(alpha) * self.r.exponent

    def _norm(self, v):
        return min((self._exp(a, c) for a, c in v.coeffs.items()), default=INF)

    def _leads(self, v):
        q = self._norm(v)
        return [a for a, c in v.coeffs.items() if self._exp(a, c) == q]

    def _echelonize(self, pending):
        while pending:
            best_i, best_q = None, None
            for i, v in enumerate(pending):
                q = self._norm(v)
                if q is not INF and (best_q is None or q < best_q):
                    best_i, best_q = i, q
            if best_i is None:
                return
            v = pending.pop(best_i)
            while not v.is_zero:
                leads = self._leads(v)
                hit = next(((p, pv) for (p, pv) in self.basis if p in leads), None)
                if hit is None:
                    break
                p, pv = hit
                v = v - pv.scale(v.coeffs[p] * pv.coeffs[p].inv())
            if v.is_zero:
                continue
            self.basis.append((sorted(self._leads(v))[0], v))

    def distance(self, lam, step_cap=500):
        """Exact norm distance from lam to the span (exponent; INF if inside)."""
        v = lam
        for _ in range(step_cap):
            if v.is_zero:
                return INF
            leads = self._leads(v)
            hit = next(
                ((a, pv) for a in leads for (p, pv) in self.basis if p == a), None
            )
            if hit is None:
                return self._norm(v)
            a, pv = hit
            v = v - pv.scale(v.coeffs[a] * pv.coeffs[a].inv())
        raise RuntimeError("distance reduction did not stabilize")


# ---------------------------------------------------------------------------
# products in K = Q[w, pi]/(g, E) by polynomial long division

def _wmul(u, v):
    out = [Fraction(0)] * max(0, len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _wadd(u, v, scale=1):
    """u + scale * v."""
    n = max(len(u), len(v))
    u = list(u) + [Fraction(0)] * (n - len(u))
    v = list(v) + [Fraction(0)] * (n - len(v))
    return [a + scale * b for a, b in zip(u, v)]


def _wmod(u, g):
    """Remainder of u modulo the monic polynomial g, by long division."""
    u = list(u)
    dg = len(g) - 1
    for top in range(len(u) - 1, dg - 1, -1):
        c = u[top]
        for k, gk in enumerate(g):
            u[top - dg + k] -= c * gk
    return u[:dg] + [Fraction(0)] * (dg - len(u))


def field_product_oracle(field, x, y):
    """Coordinates of x * y: multiply in Q[w, pi], divide by E, reduce by g.

    The pi-coefficients stay unreduced polynomials in w while pi^B, B >= e,
    is rewritten as -pi^(B - e) (a_0 + ... + a_(e-1) pi^(e-1)); only then is
    every coefficient reduced modulo g.
    """
    f, e = field.f, field.e
    px = [list(x.coords[b * f:(b + 1) * f]) for b in range(e)]
    py = [list(y.coords[b * f:(b + 1) * f]) for b in range(e)]
    prod = [[] for _ in range(2 * e - 1)]
    for b1, u in enumerate(px):
        for b2, v in enumerate(py):
            prod[b1 + b2] = _wadd(prod[b1 + b2], _wmul(u, v))
    for top in range(2 * e - 2, e - 1, -1):
        for i, a_i in enumerate(field.eisenstein):
            prod[top - e + i] = _wadd(prod[top - e + i], _wmul(prod[top], a_i), -1)
    return tuple(c for b in range(e) for c in _wmod(prod[b], field.unram_poly))


def random_scalar(field, rng, valuation_window=2, allow_negative=False):
    lo = -valuation_window if allow_negative else 0
    unit = field.scalar(rng.randrange(1, field.p))
    if field.f > 1 and rng.randrange(2):
        unit = unit + field.unram_gen() * rng.randrange(1, field.p)
    return unit * field.uniformizer() ** rng.randrange(lo, valuation_window + 1)


def random_support(algebra, rng, max_degree, max_terms=3, valuation_window=2):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        alpha = tuple(rng.randrange(0, max_degree + 1) for _ in range(algebra.d))
        if sum(alpha) > max_degree:
            continue
        terms[alpha] = random_scalar(algebra.field, rng, valuation_window)
    if not terms:
        terms[(0,) * algebra.d] = algebra.field.one()
    return algebra.from_terms(terms)
