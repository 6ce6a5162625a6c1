"""Finite differences on Z_p^d and distribution-algebra structure constants.

The product law of the generator monomials b^alpha is recovered from the
group itself: writing F(x, y) for the second-kind coordinates of
h^x * h^y, the coefficients c of b^alpha b^beta = sum_gamma c * b^gamma
are the joint finite differences of (x, y) -> binom(F(x, y), gamma) over
integer grid points.  One routine, ``mahler_coefficients``, takes finite
differences: Mahler coefficients on a product of down-sets factor into
one 1-D binomial transform per axis, run in place on a flat list over
the product, one slice subtraction per grid line.  A non-abelian table
is built whole on its first missing row: the integer law gives each
point of simplex x simplex one packed int, a signed slot per gamma over
one common denominator, and one transform of that list gives every row.
A slot's width is certified per degree |gamma|: packing is linear over
Z, so slots may carry into each other during the transform and only the
final values need to fit their own slot.  Abelian rows have a closed
form, made per alpha on first use.  A table holds only its nonempty
rows, alpha -> {beta: row}, each row (g, int) pairs, g the position of
gamma in ``iter_multi_indices(d, N)``, over one denominator shared by
the whole table: the form ``DistAlgebra.mul`` walks per alpha.  Every
table is exact, so a non-abelian table's denominator and rows, as built,
serialize to a versioned cache file keyed by (group digest, N) alone;
an abelian table is not cached, its closed form costing less than a
load.  The file (format 4) is plain JSON, {"version", "digest", "N",
"den", "rows"}, each row a flat int list [alpha, beta, gamma, n, gamma,
n, ...] with every multi-index written as its position, rows in (alpha,
beta) order and the gammas of a row in increasing order.  A file that is
absent, is not JSON, holds another table or is anything ``save`` cannot
have written (a number not an int, a position out of range, rows out of
order or repeated, a gamma out of order or repeated within a row, an
alpha without rows, a short or odd row, a zero entry, den < 1) is a
miss.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, takewhile
from math import factorial, gcd, lcm, prod
from operator import lshift, lt, mul, sub
from pathlib import Path

from .errors import CounterexampleFound, DegreeOverflow, InvalidArgument, PadicError
from .groups import first_indivisible
from .indices import add_index, iter_multi_indices
from .radii import vp_int, vp_rational

CACHE_FORMAT_VERSION = 4


def mahler_coefficients(values, factors):
    """Mahler table of a grid function, by separable finite differences.

    ``factors`` lists downward-closed sets of multi-indices (the simplex
    {|x| <= N}, twice for the structure constants); ``values`` is a flat
    list over their product, row-major with the last factor fastest, of
    ring elements supporting subtraction.  It is overwritten in place
    with c_alpha = sum_{beta <= alpha} (-1)^{|alpha - beta|}
    binom(alpha, beta) f(beta): forward differences along one axis at a
    time, the passes of an axis turning each line of the grid into its
    1-D binomial transform.  A step subtracts the grid line at x - e_k
    from the line at x, a slice of ``values`` per block, so its cost is
    one list operation, not one per grid point.  Returns ``values``.
    """
    sizes = [len(points) for points in factors]
    if len(values) != prod(sizes):
        raise InvalidArgument(
            f"{len(values)} values for a grid of {' x '.join(map(str, sizes)) or 1} points"
        )
    outer, inner = 1, len(values)
    for points, n in zip(factors, sizes):
        inner //= n
        span = n * inner

        def line(i):
            # the grid line at index i of this factor: `outer` blocks of
            # `inner` consecutive values, or `inner` slices of stride span
            if outer <= inner:
                return [slice(s, s + inner) for s in range(i * inner, outer * span, span)]
            return [slice(i * inner + s, None, span) for s in range(inner)]

        index = {x: i for i, x in enumerate(points)}
        for k in range(len(points[0]) if points else 0):
            # (x_k, x, x - e_k), highest x_k first, so a difference at one
            # level reads its lower neighbour before that is overwritten
            steps = []
            for i, x in enumerate(points):
                if x[k]:
                    j = index.get(x[:k] + (x[k] - 1,) + x[k + 1:])
                    if j is None:
                        raise InvalidArgument(f"factor points are not downward closed at {x}")
                    steps.append((x[k], i, j))
            steps.sort(reverse=True)
            steps = [(t, line(i), line(j)) for t, i, j in steps]
            for level in range(1, steps[0][0] + 1 if steps else 1):
                for t, at, of in steps:
                    if t < level:
                        break
                    for dst, src in zip(at, of):
                        values[dst] = map(sub, values[dst], values[src])
        outer *= n
    return values


def _ladder(top, step, N):
    """prod_{j < g} (top - j step) for g = 0..N, that is step^g g!
    binom(top / step, g)."""
    ladder = [1]
    for j in range(N):
        ladder.append(ladder[-1] * (top - j * step))
    return ladder


def _slot_width(bound, N):
    """Bits per signed slot for the transform of grid values bounded by
    ``bound`` on simplex x simplex of degree N (see ``_build``)."""
    return (bound << 2 * N).bit_length() + 1


def _unpack(values, widths, labels):
    """(n, entries) for each nonzero int ``values[n]``, the ints packing
    signed slots of ``widths`` bits, slot 0 lowest: ``entries`` lists
    (``labels[i]``, value) for each nonzero slot i, in label order.

    A zero int has only zero slots and is skipped.  Adding half its range
    to every slot makes each one nonnegative without carries; XOR with the
    same offset is then zero exactly on the zero slots, and each nonzero
    slot is found by its top bit."""
    starts = list(accumulate(widths, initial=0))
    offset = sum(1 << s + w - 1 for s, w in zip(starts, widths))
    slots = [(s, (1 << w) - 1, 1 << w - 1, (1 << s) - 1, label)
             for s, w, label in zip(starts, widths, labels)]
    for n, packed in enumerate(values):
        if packed:
            shifted = packed + offset
            live = shifted ^ offset
            out = []
            while live:
                start, mask, half, below, label = slots[bisect_right(starts, live.bit_length() - 1) - 1]
                out.append((label, (shifted >> start & mask) - half))
                live &= below
            out.sort()
            yield n, out


class StructureConstants:
    """Table of the product-law coefficients c^gamma_{alpha beta}.

    Rows are exact: the value at every stored gamma (|gamma| <= N) is the
    true coefficient, obtained from finite differences of the group law,
    not from truncated series chaining.  A multi-index is also known by
    its position in ``_gammas`` (``_position``), whose degree and gamma!
    are ``_degree`` and ``_factorial``.  ``rows_from(alpha)`` gives the
    nonempty rows of alpha as {beta: ((g, n), ...)}, g the position of
    gamma, in increasing order, and the coefficient n / ``den``, one
    denominator for the whole table, which reading ``den`` builds if it
    was not loaded; ``int_row`` gives one row of it as (gamma, n) pairs
    (empty if absent) and ``row`` the same as a dict of Fractions.
    ``_peak``, the largest |n|, is read where the rows are walked anyway
    (the build and the cache load); ``DistAlgebra.mul`` sizes its packed
    slots by it, and tests its operands against ``_position``.
    ``has_tail(alpha, beta)`` reports whether degrees beyond N were
    discarded for that row.
    """

    def __init__(self, lattice, N, cache_dir=None):
        self.lattice = lattice
        self.N = N
        self._rows = {}         # alpha -> {beta: ((g, n), ...)}, nonempty rows, c = n / den
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
        """Refuse an index that is not a multi-index in N_0^d (of another
        length, or with an entry that is negative or not an int) with
        PadicError, and a multi-index above N with DegreeOverflow."""
        d = self.lattice.d
        if len(index) != d or not all(type(a) is int and a >= 0 for a in index):
            raise PadicError(f"index {index} is not a multi-index in N_0^{d}")
        if sum(index) > self.N:
            raise DegreeOverflow(f"index {index} outside the degree-{self.N} table",
                                 required_degree=sum(index))

    def rows_from(self, alpha):
        """The nonempty rows of alpha, {beta: ((g, n), ...)} with beta in
        ``_gammas`` order, g the position of gamma in ``_gammas``, rising
        along the row, and c^gamma_{alpha beta} = n / ``den``.  A
        non-abelian table is built whole on the first read; an abelian
        alpha's rows are b^alpha b^beta = b^(alpha + beta), made here, the
        beta with |beta| <= N - |alpha| being a prefix of ``_gammas``."""
        rows = self._rows.get(alpha)
        if rows is not None:
            return rows
        self._check(alpha)
        if not self.lattice.abelian:
            self._build()
            return self._rows[alpha]
        room, position = self.N - sum(alpha), self._position
        betas = takewhile(lambda beta: sum(beta) <= room, self._gammas)
        rows = self._rows[alpha] = {beta: ((position[add_index(alpha, beta)], 1),)
                                    for beta in betas}
        return rows

    def int_row(self, alpha, beta):
        """c^gamma_{alpha beta} for |gamma| <= N, as sparse (gamma, n)
        pairs with c = n / ``den``; both indices are checked, alpha also
        where its rows are already held."""
        self._check(alpha)
        self._check(beta)
        gammas = self._gammas
        return tuple((gammas[g], n) for g, n in self.rows_from(alpha).get(beta, ()))

    def row(self, alpha, beta):
        """c^gamma_{alpha beta} for |gamma| <= N, as a sparse dict of Fractions."""
        entries = self.int_row(alpha, beta)
        return {g: Fraction(n, self.den) for g, n in entries}

    def _build(self):
        """Every row at once: the Mahler transform of binom(F(x, y), gamma).

        The integer law is evaluated on {|x| <= N} x {|y| <= N} by
        ``SecondKindLaw.grid``, one row of numerators per x and coordinate;
        the p-integrality test runs on those rows and refuses the first
        point, in grid order, where F leaves Z_p, through ``group_law``.
        With D = lcm(law.denoms) and tops t = D F, the grid value at gamma is
        prod_k ladder(t_k)[gamma_k] = D^|gamma| gamma! binom(F, gamma).  A
        point's values are packed into one int, gamma in lex order in signed
        slots, in a flat list over the grid (x outer, y inner, each in
        ``_gammas`` order), so a transform step is one slice subtraction of
        packed ints along a grid line; after it slot gamma of row (x, y) is
        v / (D^|gamma| gamma!).  The table is stored over the lcm of the
        reduced denominators of those entries.  ``_unpack`` skips the
        points whose int is zero, the empty rows, and gives each other
        point's entries at their positions in ``_gammas``.

        The widths: |v| <= M0(gamma) = prod_k max_t |ladder(t_k)[gamma_k]|
        at every point, and c_(alpha, beta) sums v(x, y) over x <= alpha,
        y <= beta with weights +-binom(alpha, x) binom(beta, y), so
        |c| <= 2^(|alpha| + |beta|) M0(gamma) <= 4^N M0(gamma).  Packing is
        linear over Z, so slots may overflow into each other during the
        transform; only the final values must fit their own slot, and
        B = bit_length(4^N M0) + 1 bits hold every value of absolute value
        below 2^(B-1).  Every slot of degree n gets the largest such B over
        |gamma| = n.  A sub-pack, the simplex {|gamma| <= R} of the last k
        coordinates in lex order, sits where the earlier coordinates sum to
        N - R, so its slots have degree N - R plus their own: its layout
        depends on (k, R) alone, and one packed int serves every point
        whose last k tops agree.
        """
        d, N, p = self.lattice.d, self.N, self.lattice.p
        law = self.lattice.second_kind_law
        denom = lcm(*law.denoms)
        lifts = [denom // q for q in law.denoms]
        # coordinate k is nums[k] / denoms[k]: p-integral iff the p-part
        # of denoms[k] divides nums[k]
        moduli = [p ** vp_int(q, p) for q in law.denoms]
        gammas, degree = self._gammas, self._degree
        cols = [[] for _ in law.denoms]  # the tops t_k over the grid
        for x, rows in zip(gammas, law.grid(gammas, gammas)):
            at = first_indivisible(rows, moduli)
            if at is not None:
                self.group_law(x, gammas[at])  # raises, with the Fraction point as witness
            for col, row, lift in zip(cols, rows, lifts):
                if row is None:
                    col.extend([0] * len(gammas))
                else:
                    col.extend(row if lift == 1 else map(lift.__mul__, row))
        ladders = [{t: _ladder(t, denom, N) for t in set(col)} for col in cols]
        peaks = [[max(abs(ladder[j]) for ladder in col.values()) for j in range(N + 1)]
                 for col in ladders]
        width = [0] * (N + 1)
        for gamma, n in zip(gammas, degree):
            width[n] = max(width[n], _slot_width(prod(map(list.__getitem__, peaks, gamma)), N))
        # shifts[k, R][a]: where the sub-pack of the last k - 1 coordinates
        # at R - a starts when coordinate d - k is a; size[k, R] is the
        # bit length of a sub-pack
        size = {(0, R): width[N - R] for R in range(N + 1)}
        shifts = {}
        for k in range(1, d + 1):
            for R in range(N + 1):
                *shifts[k, R], size[k, R] = accumulate(
                    (size[k - 1, R - a] for a in range(R + 1)), initial=0)
        memo = {(): [1] * (N + 1)}

        def packs(tail):
            # the simplex {|gamma| <= R} of the last len(tail) coordinates,
            # lex order, for each R = 0..N: the level above reads every R
            out = memo.get(tail)
            if out is None:
                ladder, subs = ladders[d - len(tail)][tail[0]], packs(tail[1:])
                out = memo[tail] = [
                    sum(map(lshift, map(mul, ladder, reversed(subs[:R + 1])), shifts[len(tail), R]))
                    for R in range(N + 1)]
            return out

        packed, values = {}, []  # the whole simplex, R = N, once per distinct tops
        for t in zip(*cols):
            if t not in packed:
                packed[t] = sum(map(lshift, map(mul, ladders[0][t[0]], reversed(packs(t[1:]))),
                                    shifts[d, N]))
            values.append(packed[t])
        del cols, memo, packed
        mahler_coefficients(values, [gammas, gammas])
        # slot i of the layout holds the gamma at position lex[i], at its degree's width
        lex = sorted(range(len(gammas)), key=gammas.__getitem__)
        found = list(_unpack(values, [width[degree[g]] for g in lex], lex))
        del values
        scales = [denom ** n * f for n, f in zip(degree, self._factorial)]
        den = lcm(*(scales[g] // gcd(v, scales[g]) for _, entries in found for g, v in entries))
        rows = {alpha: {} for alpha in gammas}
        peak = 1
        for i, entries in found:
            # point i is (x, y) = (alpha, beta), alpha-major
            alpha, beta = divmod(i, len(gammas))
            row = rows[gammas[alpha]][gammas[beta]] = tuple(
                (g, v * den // scales[g]) for g, v in entries)
            peak = max(peak, *(abs(n) for _, n in row))
        self._rows, self._peak, self._den = rows, peak, den
        self._built = True

    def has_tail(self, alpha, beta):
        """Whether the (alpha, beta) product may have terms beyond degree N."""
        if self.lattice.abelian:
            return sum(alpha) + sum(beta) > self.N
        return True

    # -- verification ----------------------------------------------------------

    def check_filtration_bound(self):
        """v_p(c) >= kappa (|alpha| + |beta| - |gamma|) over the whole table.

        Reads every row; raises CounterexampleFound on violation and
        returns the number of entries checked.  A table that passes is
        saved to the cache if any of its rows were computed rather than
        loaded.
        """
        kappa = self.lattice.kappa
        p = self.lattice.p
        degree = self._degree
        checked = 0
        shift = vp_int(self.den, p)  # builds a non-abelian table not loaded
        for alpha in self._gammas:
            for beta, entries in self.rows_from(alpha).items():
                top = kappa * (sum(alpha) + sum(beta))
                for g, n in entries:
                    if vp_int(n, p) - shift < top - kappa * degree[g]:
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
        rows = [[position[alpha], position[beta], *chain.from_iterable(row)]
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
            table[gammas[r[0]]][gammas[r[1]]] = tuple(zip(r[2::2], r[3::2]))
        if all(table.values()):  # every alpha has at least its beta = 0 row
            self._rows, self._den, self._peak = table, doc["den"], max(map(abs, entries))
