"""Distribution-algebra structure constants, in the binomial basis.

The product law of the generator monomials b^alpha is read off the group
itself: writing F(x, y) for the second-kind coordinates of h^x * h^y,
the coefficients c of b^alpha b^beta = sum_gamma c * b^gamma are those of
binom(x, alpha) binom(y, beta) in binom(F(x, y), gamma), written in the
binomial (Mahler) basis of functions on Z_p^d x Z_p^d (K. Mahler, J.
reine angew. Math. 199, 1958).  A product in that basis never lowers an
index, so dropping every term with |alpha| > N or |beta| > N is a ring
homomorphism and a table computed in the truncated ring is exact.  A
non-abelian table is built whole on its first missing row, in ints: the
law's coordinates go into the basis through the Stirling numbers, their
coefficients there decide that the law stays in Z_p on the truncated
index set, and binom(F, gamma) is reached by a walk over the coordinates
that climbs the ladder binom(F_k, n) one rung at a time, each rung one
factor F_k - n whose x_k and y_k terms act on coordinate k alone.
Abelian rows have a closed form, made per alpha on first use.  A table
holds only its nonempty rows, alpha -> {beta: [g, n, g, n, ...]}, each a
flat int list, g the position of gamma in ``iter_multi_indices(d, N)``,
over one denominator shared by the whole table: ``DistAlgebra.mul`` walks
them, and the cache file holds each one after its alpha and beta.  Every
table is exact, so a non-abelian table's denominator and rows, as built,
serialize to a versioned cache file keyed by (group digest, N) alone; an
abelian table is not cached, its closed form costing less than a load.
The file (format 4) is plain JSON, {"version", "digest", "N", "den",
"rows"}, each row a flat int list [alpha, beta, gamma, n, gamma, n, ...]
with every multi-index written as its position, rows in (alpha, beta)
order and the gammas of a row in increasing order.  A file that is
absent, is not JSON, holds another table or is anything ``save`` cannot
have written (a number not an int, a position out of range, rows out of
order or repeated, a gamma out of order or repeated within a row, an
alpha without rows, a short or odd row, a zero entry, den < 1) is a miss.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from fractions import Fraction
from itertools import chain, repeat, takewhile
from math import comb, factorial, gcd, lcm, prod
from operator import floordiv, lt, mul
from pathlib import Path

from .errors import CounterexampleFound
from .indices import add_index, check_multi_index, iter_multi_indices, unit_index
from .radii import vp_int, vp_rational

CACHE_FORMAT_VERSION = 4


def _ladder(top, step, N):
    """prod_{j < g} (top - j step) for g = 0..N, that is step^g g!
    binom(top / step, g)."""
    ladder = [1]
    for j in range(N):
        ladder.append(ladder[-1] * (top - j * step))
    return ladder


class StructureConstants:
    """Table of the product-law coefficients c^gamma_{alpha beta}.

    Rows are exact: the value at every stored gamma (|gamma| <= N) is the
    true coefficient, computed in the binomial basis, where truncation at
    degree N is exact.  A multi-index is also known by its position in
    ``_gammas`` (``_position``), whose degree and gamma! are ``_degree``
    and ``_factorial``.  ``rows_from(alpha)`` gives the nonempty rows of
    alpha as {beta: [g, n, g, n, ...]}, g the position of gamma, rising,
    and the coefficient n / ``den``, one denominator for the whole
    table, which reading ``den`` builds if it was not loaded; ``int_row``
    gives one row of it as (gamma, n) pairs (empty if absent) and ``row``
    the same as a dict of Fractions.
    ``_peak``, the largest |n|, is read where the rows are walked anyway
    (the build and the cache load); ``DistAlgebra.mul`` sizes its packed
    slots by it.
    ``has_tail(alpha, beta)`` reports whether degrees beyond N were
    discarded for that row.
    """

    def __init__(self, lattice, N, cache_dir=None):
        self.lattice = lattice
        self.N = N
        self._rows = {}         # alpha -> {beta: [g, n, g, n, ...]}, nonempty rows, c = n / den
        self._den = 1 if lattice.abelian else None  # None until built or loaded
        self._peak = 1          # max |n| over the rows; an abelian row is n = den = 1
        self._gammas = list(iter_multi_indices(lattice.d, N))
        self._position = {gamma: g for g, gamma in enumerate(self._gammas)}
        self._degree = [sum(gamma) for gamma in self._gammas]
        self._factorial = [prod(map(factorial, gamma)) for gamma in self._gammas]
        self._built = False     # rows computed here, not only loaded
        self._cache_path = None
        if cache_dir is not None and not lattice.abelian:
            key = f"sc-{lattice.structure_digest()}-N{N}-v{CACHE_FORMAT_VERSION}"
            self._cache_path = Path(cache_dir) / f"{key}.json"
            self._load_cache()

    # -- group-law evaluation ---------------------------------------------------

    def group_law(self, x, y):
        """Second-kind coordinates of h^x h^y at integer points, from the
        lattice's compiled law polynomial."""
        out = self.lattice.second_kind_law((*x, *y))
        for c in out:
            if vp_rational(c, self.lattice.p) < 0:
                raise CounterexampleFound(
                    "group law left Z_p; the lattice is not powerful enough",
                    witness=(x, y, out),
                )
        return out

    def expansion(self, nums, den):
        """den^|gamma| gamma! binom(x, gamma) for all |gamma| <= N, x being
        nums / den, in the order of ``iter_multi_indices(d, N)``: the
        coefficients of ``DistAlgebra.delta`` over the denominator ``den``.

        Entry gamma is the integer prod_k prod_{j < gamma_k} (nums_k - j den).
        """
        ladders = [_ladder(n, den, self.N) for n in nums]
        return [prod(map(list.__getitem__, ladders, gamma)) for gamma in self._gammas]

    # -- rows ---------------------------------------------------------------------

    @property
    def den(self):
        """The one denominator of every entry.  A non-abelian table is built
        whole, so it is built here if it was not loaded."""
        if self._den is None:
            self._build()
        return self._den

    def _check(self, index):
        """``indices.check_multi_index`` against this table's d and N."""
        check_multi_index(index, self.lattice.d, self.N)

    def rows_from(self, alpha):
        """The nonempty rows of alpha as held, {beta: [g, n, g, n, ...]}
        with beta in ``_gammas`` order, g the position of gamma in ``_gammas``,
        rising along the row, and c^gamma_{alpha beta} = n / ``den``.  A
        non-abelian table is built whole on the first read; an abelian
        alpha's rows are b^alpha b^beta = b^(alpha + beta), made here, the
        beta with |beta| <= N - |alpha| being a prefix of ``_gammas``.
        alpha is checked on every call, also where its rows are held."""
        self._check(alpha)
        return self._rows_of(alpha)

    def _rows_of(self, alpha):
        """``rows_from`` with no check, for an alpha of ``_gammas`` or a
        key of a ``Distribution``, which its constructor checked."""
        rows = self._rows.get(alpha)
        if rows is not None:
            return rows
        if not self.lattice.abelian:
            self._build()
            return self._rows[alpha]
        room, position = self.N - sum(alpha), self._position
        betas = takewhile(lambda beta: sum(beta) <= room, self._gammas)
        rows = self._rows[alpha] = {beta: [position[add_index(alpha, beta)], 1]
                                    for beta in betas}
        return rows

    def int_row(self, alpha, beta):
        """c^gamma_{alpha beta} for |gamma| <= N, as sparse (gamma, n)
        pairs with c = n / ``den``; both indices are checked, alpha also
        where its rows are already held."""
        self._check(alpha)
        self._check(beta)
        gammas, it = self._gammas, iter(self._rows_of(alpha).get(beta, ()))
        return tuple((gammas[g], n) for g, n in zip(it, it))

    def row(self, alpha, beta):
        """c^gamma_{alpha beta} for |gamma| <= N, as a sparse dict of Fractions."""
        entries = self.int_row(alpha, beta)
        return {g: Fraction(n, self.den) for g, n in entries}

    def _build(self):
        """Every row at once, in the binomial basis, in ints.

        An element of the truncated ring is {a G + b: n}, G = len(gammas),
        the sum of n binom(x, gammas[a]) binom(y, gammas[b]); a term with
        |alpha| > N or |beta| > N is dropped where it arises, and as no
        product lowers an index, every kept one is exact.  With
        D = lcm(law.denoms), each D F_k goes into the basis
        (``SecondKindLaw.binomial_numerators``) as D x_k + D y_k + D P_k.
        These coefficients first give the p-integrality test: F is
        p-integral on the down-set {|x| <= N} x {|y| <= N} iff p^(v_p(D))
        divides every kept one, and the first point, in the order of
        (position of x, position of y), where F leaves Z_p is the least
        (a, b) of one that it does not divide; the build is refused there,
        through ``group_law``.  Rung n of coordinate k,
        D^n n! binom(F_k, n), is rung n - 1 times D F_k - (n - 1) D, so
        D^|gamma| gamma! binom(F, gamma), the product over k of rung
        gamma_k, is reached by a walk over the coordinates, depth first:
        a prefix product is extended one such factor at a time and dropped
        once its last extension has been read.  The x_k and y_k terms of a
        factor act on coordinate k alone, through
        z binom(z, i) = i binom(z, i) + (i + 1) binom(z, i + 1); only D P_k
        needs whole basis products, and it is zero for an additive
        coordinate, so the walk takes the other coordinates first and the
        additive ones, whose factors are cheapest, where the products are
        largest.  The coefficient v at (a, b) is D^|gamma| gamma!
        c^gamma_{alpha beta}, and the table is stored over the lcm, over
        gamma, of D^|gamma| gamma! over its gcd with every v at gamma: the
        least common denominator of the entries.
        """
        d, N, p = self.lattice.d, self.N, self.lattice.p
        law = self.lattice.second_kind_law
        gammas, position = self._gammas, self._position
        G = len(gammas)
        D = lcm(*law.denoms)
        tops = []  # per k: D F_k, keyed (a, b)
        for coeffs, q in zip(law.binomial_numerators((1,) * law.nvars), law.denoms):
            top = {}
            for index, c in coeffs.items():
                alpha, beta = index[:d], index[d:]
                if sum(alpha) <= N and sum(beta) <= N:
                    top[position[alpha], position[beta]] = c * (D // q)
            tops.append(top)
        modulus = p ** vp_int(D, p)
        misses = [key for top in tops for key, c in top.items() if c % modulus]
        if misses:
            a, b = min(misses)
            self.group_law(gammas[a], gammas[b])  # raises, with the Fraction point as witness
        # binom(z, i) binom(z, j) = sum of m binom(z, k) over line[i][j], k <= N
        line = [[[(k, comb(k, i) * comb(i, k - j)) for k in range(max(i, j), min(i + j, N) + 1)]
                 for j in range(N + 1)] for i in range(N + 1)]
        pairs = {}

        def basis_product(a, b):
            # binom(z, gammas[a]) binom(z, gammas[b]) as (position, m) pairs,
            # a coordinate at a time, each term above degree N dropped
            out = pairs.get((a, b))
            if out is None:
                terms = [((), 1)]
                for i, j in zip(gammas[a], gammas[b]):
                    terms = [(k + (t,), c * m) for k, c in terms for t, m in line[i][j]
                             if sum(k) + t <= N]
                out = pairs[a, b] = [(position[k], c) for k, c in terms]
            return out

        factors = []  # per k: the x_k and y_k coefficients of D F_k, and its other terms
        for k, top in enumerate(tops):
            unit = position[unit_index(d, k)]
            cx, cy = top.pop((unit, 0), 0), top.pop((0, unit), 0)
            factors.append((cx, cy, [(a, b, c) for (a, b), c in top.items()]))
        column = [[gamma[k] for gamma in gammas] for k in range(d)]
        # up[k][a]: the position of gammas[a] + e_k, None above degree N
        up = [[position.get(gamma[:k] + (gamma[k] + 1,) + gamma[k + 1:]) for gamma in gammas]
              for k in range(d)]

        def extend(u, k, n):
            # u times D F_k - n D
            cx, cy, rest = factors[k]
            col, upk = column[k], up[k]
            out = defaultdict(int)
            for key, v in u.items():
                a, b = divmod(key, G)
                i, j = col[a], col[b]
                out[key] += (cx * i + cy * j - n * D) * v
                if upk[a] is not None:
                    out[key + (upk[a] - a) * G] += cx * (i + 1) * v
                if upk[b] is not None:
                    out[key + upk[b] - b] += cy * (j + 1) * v
                for a2, b2, c in rest:
                    ys = basis_product(b, b2)
                    for a3, m in basis_product(a, a2):
                        m *= c * v
                        for b3, m2 in ys:
                            out[a3 * G + b3] += m * m2
            return {key: v for key, v in out.items() if v}

        order = sorted(range(d), key=lambda k: not factors[k][2])
        found = [None] * G  # g -> the product at gammas[g]
        gamma = [0] * d

        def walk(u, depth, room):
            k = order[depth]
            for n in range(room + 1):
                if n:
                    u = extend(u, k, n - 1)
                gamma[k] = n
                if depth + 1 == d:
                    found[position[tuple(gamma)]] = u
                else:
                    walk(u, depth + 1, room - n)
            gamma[k] = 0

        walk({0: 1}, 0, N)
        del pairs
        scales = [D ** n * f for n, f in zip(self._degree, self._factorial)]
        den = lcm(*(s // gcd(s, *u.values()) for s, u in zip(scales, found)))
        entries = defaultdict(list)  # a G + b -> [g, n, g, n, ...], g rising
        peak = 1
        for g, s in enumerate(scales):
            u, found[g] = found[g], None
            ns = list(map(floordiv, map(mul, u.values(), repeat(den)), repeat(s)))
            peak = max(peak, max(map(abs, ns), default=0))
            for key, n in zip(u, ns):
                row = entries[key]
                row.append(g)
                row.append(n)
        rows = {alpha: {} for alpha in gammas}
        for key in sorted(entries):
            a, b = divmod(key, G)
            rows[gammas[a]][gammas[b]] = entries[key]
        self._rows, self._peak, self._den = rows, peak, den
        self._built = True

    def has_tail(self, alpha, beta):
        """Whether the (alpha, beta) product may have terms beyond degree N."""
        if self.lattice.abelian:
            return sum(alpha) + sum(beta) > self.N
        return True

    # -- verification ----------------------------------------------------------

    def check_filtration_bound(self):
        """v_p(c) >= max(0, kappa (|alpha| + |beta| - |gamma|)) over the
        whole table: the bound at r = 1/p, and p-integrality, the bound as
        r -> 1.

        Reads every row; raises CounterexampleFound on violation of either
        and returns the number of entries checked.  A table that passes is
        saved to the cache if any of its rows were computed rather than
        loaded.
        """
        kappa = self.lattice.kappa
        p = self.lattice.p
        degree = self._degree
        checked = 0
        shift = vp_int(self.den, p)  # builds a non-abelian table not loaded
        for alpha in self._gammas:
            for beta, row in self._rows_of(alpha).items():
                top, it = kappa * (sum(alpha) + sum(beta)), iter(row)
                for g, n in zip(it, it):
                    v = vp_int(n, p) - shift
                    if v < 0 or v < top - kappa * degree[g]:
                        raise CounterexampleFound(
                            "structure-constant valuation bound fails",
                            witness=(alpha, beta, self._gammas[g], Fraction(n, self.den)),
                        )
                    checked += 1
        if self._built:
            self.save()
        return checked

    # -- cache -------------------------------------------------------------------

    def save(self):
        path = self._cache_path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        den = self.den  # builds a non-abelian table that was neither built nor loaded
        position = self._position
        rows = [[position[alpha], position[beta], *row]
                for alpha, inner in self._rows.items() for beta, row in inner.items()]
        doc = {"version": CACHE_FORMAT_VERSION, "digest": self.lattice.structure_digest(),
               "N": self.N, "den": den, "rows": rows}
        # a temp file in the same directory, then an atomic rename: a
        # failed write leaves the previous cache file intact
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(doc, separators=(",", ":")), encoding="ascii")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # only left after a failed write

    def _load_cache(self):
        """Load the saved table unless the file is a miss (see the module
        docstring), each check but the order of a row's gammas running over
        all the numbers at once.  The loaded keys are the tuples of
        ``_gammas`` and the entries' positions the file's ints, as built
        ones are."""
        path = self._cache_path
        if path is None:
            return
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, ValueError, RecursionError):
            return  # absent or unreadable, not JSON, an over-long int, nested too deep
        if type(doc) is not dict or doc.keys() != {"version", "digest", "N", "den", "rows"}:
            return
        rows, gammas = doc["rows"], self._gammas
        if type(rows) is not list or set(map(type, rows)) != {list}:
            return
        head = (doc["version"], doc["digest"], doc["N"])
        if (set(map(type, chain((doc["version"], doc["N"], doc["den"]), *rows))) != {int}
                or head != (CACHE_FORMAT_VERSION, self.lattice.structure_digest(), self.N)
                or doc["den"] < 1 or any(len(r) < 4 or len(r) & 1 for r in rows)):
            return
        keys = [r[:2] for r in rows]
        positions = [*chain(*keys), *chain.from_iterable(r[2::2] for r in rows)]
        entries = [*chain.from_iterable(r[3::2] for r in rows)]
        if (min(positions) < 0 or max(positions) >= len(gammas) or 0 in entries
                or not all(map(lt, keys, keys[1:]))
                or not all(all(map(lt, r[2:-2:2], r[4::2])) for r in rows)):
            return
        table = {alpha: {} for alpha in gammas}
        for r in rows:
            table[gammas[r[0]]][gammas[r[1]]] = r[2:]
        if all(table.values()):  # every alpha has at least its beta = 0 row
            self._rows, self._den, self._peak = table, doc["den"], max(map(abs, entries))
