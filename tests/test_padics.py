import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from padicdist import DistAlgebra, FieldSpec, abelian
from padicdist.errors import DivisionByZero, InvalidArgument, NonUnit, PadicError
from padicdist.padics import ResidueElem, Subspace, solve_columns

INF = math.inf


def test_cancellation_gives_exact_zero(q3):
    z = q3.one() + q3.scalar(-1)
    assert z.is_zero
    assert z.valuation == INF


def test_valuation_multiplicative(q3):
    p = q3.scalar(3)
    assert (p * p).valuation == 2
    assert p.abs_exponent() == 1


def test_uniformizer_inverse_ramified(k3r2):
    pi = k3r2.uniformizer()
    assert pi.inv().valuation == -1
    assert pi.inv().abs_exponent() == Fraction(-1, 2)
    assert pi.abs_exponent() == Fraction(1, 2)


def test_zero_abs_exponent(q3):
    assert q3.zero().abs_exponent() == INF


def test_residue_basic(q3):
    assert q3.one().residue() == q3.residue_field.one()
    assert (q3.one() + q3.scalar(3)).residue() == q3.residue_field.one()


def test_residue_nontrivial_class(k3u2):
    wbar = k3u2.unram_gen().residue()
    k = k3u2.residue_field
    # wbar lies outside the prime field: it is not a scalar multiple of 1
    assert all(wbar != k.elem(c) for c in range(3))
    assert wbar == k.gen()


def test_residue_requires_unit(q3):
    with pytest.raises(NonUnit):
        q3.scalar(3).residue()


def test_division_by_zero(q3):
    with pytest.raises(DivisionByZero):
        q3.zero().inv()


def test_abs_multiplicative_sampled(k3r2):
    rng = random.Random(0)
    field = k3r2
    elems = []
    for _ in range(12):
        coords = [Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 5))) for _ in range(field.degree)]
        s = field.from_coords(coords)
        if not s.is_zero:
            elems.append(s)
    for x in elems:
        for y in elems:
            assert (x * y).abs_exponent() == x.abs_exponent() + y.abs_exponent()


def test_ultrametric_addition(k3u2):
    rng = random.Random(1)
    for _ in range(40):
        x = k3u2.from_coords([rng.randrange(-20, 20) for _ in range(2)])
        y = k3u2.from_coords([rng.randrange(-20, 20) for _ in range(2)])
        s = x + y
        if x.is_zero or y.is_zero:
            continue
        assert s.valuation >= min(x.valuation, y.valuation)
        if x.valuation != y.valuation:
            assert s.valuation == min(x.valuation, y.valuation)


def test_residue_multiplicative_on_units(k3u2):
    rng = random.Random(2)
    units = []
    for _ in range(10):
        s = k3u2.from_coords([rng.randrange(0, 9) for _ in range(2)])
        if not s.is_zero and s.valuation == 0:
            units.append(s)
    for x in units:
        for y in units:
            assert (x * y).residue() == x.residue() * y.residue()


def test_eisenstein_validation():
    with pytest.raises(ValueError):
        FieldSpec(3, e=2, eisenstein=[1, 0])  # constant term valuation 0
    with pytest.raises(ValueError):
        FieldSpec(3, e=2, eisenstein=[9, 0])  # constant term valuation 2
    with pytest.raises(ValueError):
        FieldSpec(4)  # not prime


def test_refusals_are_typed(q3, k3u2):
    # each is a PadicError that a caller can catch, and still a ValueError
    refusals = [
        lambda: FieldSpec(4),
        lambda: FieldSpec(3, e=0),
        lambda: q3.from_coords((1, 2)),
        lambda: q3.unram_gen(),
        lambda: q3.scalar(k3u2.one()),
        lambda: q3.one() + k3u2.one(),
        # a float or a string never enters K
        lambda: q3.scalar(0.1),
        lambda: q3.scalar("1/3"),
        lambda: q3.from_coords([0.5]),
        lambda: q3.one().scale(0.25),
        lambda: q3.one() ** Fraction(1, 2),
        lambda: q3.one() ** 0.5,
        lambda: DistAlgebra(abelian(1, p=3), q3, 2).monomial((1,), 0.1),
    ]
    for refuse in refusals:
        with pytest.raises(InvalidArgument):
            refuse()
    assert issubclass(InvalidArgument, PadicError)
    assert issubclass(InvalidArgument, ValueError)


def test_tower_with_both_layers():
    field = FieldSpec(3, e=2, f=2)
    pi, w = field.uniformizer(), field.unram_gen()
    assert (pi * pi).valuation == 2
    assert field.degree == 4
    x = (w + pi) * (w - pi)
    assert x == w * w - pi * pi
    y = field.one() + pi * w
    assert (y * y.inv()) == field.one()


# ---------------------------------------------------------------------------
# Subspace, the one echelon routine, against brute force


def test_residue_elem_is_falsy_only_at_zero(k3u2):
    k = k3u2.residue_field
    assert [bool(ResidueElem(k, code)) for code in range(k.order)] == [False] + [True] * 8
    assert not k.gen() - k.gen()


@pytest.mark.parametrize("f", [1, 2])
def test_subspace_matches_the_enumerated_span(f):
    """Over F_3 and F_9, the span of at most 4 vectors of length at most 4
    has q^rank elements, and ``reduce`` zeroes exactly those vectors."""
    k = FieldSpec(3, f=f).residue_field
    elems = [ResidueElem(k, code) for code in range(k.order)]
    draws = [k.zero()] * k.order + elems  # zero half the time, for dependent vectors
    rng = random.Random(f)
    for _ in range(25):
        dim = rng.randint(1, 4)
        vectors = [[rng.choice(draws) for _ in range(dim)] for _ in range(rng.randint(0, 4))]
        span = Subspace(k.zero(), dim)
        for v in vectors:
            span.add(enumerate(v))
        spanned = set()
        for cs in product(elems, repeat=len(vectors)):
            combo = [k.zero()] * dim
            for c, v in zip(cs, vectors):
                combo = [a + c * b for a, b in zip(combo, v)]
            spanned.add(tuple(a.code for a in combo))
        assert len(spanned) == k.order ** len(span.pivots)
        for v in product(elems, repeat=dim):
            assert (not any(span.reduce(v))) == (tuple(a.code for a in v) in spanned)
        for lead in span.pivots:
            row = span.row(lead)
            assert not any(row[:lead]) and row[lead] == k.one()
            assert tuple(a.code for a in row) in spanned


def _det(m):
    """The determinant of a square int matrix by the Leibniz formula."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def _rank(cols, rows):
    """The largest r with a nonzero r x r minor of the matrix of ``cols``."""
    return max((r for r in range(1, min(len(cols), rows) + 1)
                for picked_rows in combinations(range(rows), r)
                for picked in combinations(cols, r)
                if _det([[col[i] for col in picked] for i in picked_rows])), default=0)


def test_solve_columns_matches_a_determinant_rank_oracle():
    """On int matrices of at most 3 x 3, ``solve_columns`` returns an exact
    solution, and None exactly when the target raises the rank."""
    rng = random.Random(0)
    seen = set()
    for _ in range(400):
        rows, n = rng.randint(1, 3), rng.randint(0, 3)
        cols = [[rng.randint(-2, 2) for _ in range(rows)] for _ in range(n)]
        target = [rng.randint(-2, 2) for _ in range(rows)]
        sol = solve_columns(cols, target)
        inconsistent = _rank(cols + [target], rows) > _rank(cols, rows)
        assert (sol is None) == inconsistent
        if sol is not None:
            assert all(isinstance(c, Fraction) for c in sol)
            assert [sum(c * col[i] for c, col in zip(sol, cols)) for i in range(rows)] == target
        seen.add(inconsistent)
    assert seen == {False, True}
