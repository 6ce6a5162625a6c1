"""Seeded samplers of group elements, scalars and distributions.

The verification suites and the tests draw from these, so one seed gives
the same samples everywhere.  Each sampler consumes its generator in a
fixed order, which is part of its contract: a suite's report is
byte-identical for a given seed only while that order holds.
"""

from __future__ import annotations

from .groups import GroupElement


def random_element(lattice, rng):
    """A second-kind element with coordinates below p^9, scaled by p^s with
    s drawn from (0, 0, 0, 1, 2); some coordinate is a unit before scaling.
    The drawn ints are its numerators over den = 1, reduced as they are."""
    p, top = lattice.p, lattice.p**9
    coords = [rng.randrange(top) for _ in range(lattice.d)]
    if not any(map(p.__rmod__, coords)):
        coords[rng.randrange(lattice.d)] += 1  # keep at level 1 occasionally
    scale = p ** rng.choice((0, 0, 0, 1, 2))
    return GroupElement(lattice, tuple(map(scale.__mul__, coords)), 1)


def random_scalar(field, rng):
    """unit * pi^v with the unit an integer in [1, p) and v uniform in
    [0, 2]."""
    unit = field.scalar(rng.randrange(1, field.p))
    return unit * field.uniformizer() ** rng.randrange(0, 3)


def random_terms(field, d, cap, rng, max_terms):
    """Up to ``max_terms`` terms {alpha: random_scalar}, each alpha in
    N_0^d drawn coordinate by coordinate from 0..cap and dropped when
    |alpha| > cap; the constant term 1 when every drawn index overshoots."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        alpha = tuple(rng.randrange(0, cap + 1) for _ in range(d))
        if sum(alpha) > cap:
            continue
        terms[alpha] = random_scalar(field, rng)
    if not terms:
        terms[(0,) * d] = field.one()
    return terms


def random_distribution(algebra, rng, max_degree=None, max_terms=4):
    """The distribution of ``random_terms`` of support degree <= max_degree
    (default N)."""
    cap = algebra.N if max_degree is None else max_degree
    return algebra.from_terms(random_terms(algebra.field, algebra.d, cap, rng, max_terms))
