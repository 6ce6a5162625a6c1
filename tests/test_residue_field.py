"""The residue fields F_q, exhaustively against polynomial arithmetic over
F_p for q in {4, 8, 9, 25, 27, 125}, and by sampling in F_(2^17) and
F_(2^19)."""

import hashlib
import random
from itertools import product

import pytest

from helpers import residue_product_oracle
from padicdist.errors import DivisionByZero, InvalidArgument
from padicdist.padics import ResidueField, _default_unram_poly

# (p, f) -> sha256 of the lines "coeffs repr" over all elements, in the
# order of ``_elements``; recorded from the polynomial-coordinate encoding
# this one replaced, so the printed forms did not move.
PRINTED = {
    (2, 2): "48ccb4d9edda04fdc23fc1c3854159f82535dff4ad05f4d3060813242984375a",
    (2, 3): "1af5cd511d6f01e9627a0344a527576d6f1dddcf9ce538106d82247088879a72",
    (3, 2): "1797c5b155e498de1e5a3bafbc1e1944c9d2fbf6d62c04c95972447561c409a7",
    (5, 2): "474426e4f73dea52785a8446b713aa9bddb65da23c3b8b9c52880d1f315981ad",
    (3, 3): "d2db9e5e58a68d16aec42391093d151f4915847452495f23b4f53dec8f2739c1",
    (5, 3): "8353de7fa15dc89b2276daa9da7ed9ef640f1428c99f10564c005f90bc98d3a1",
}
FIELDS = list(PRINTED)


def _field(p, f):
    return ResidueField(p, _default_unram_poly(p, f))


def _elements(k):
    """Every element, built from its coordinate tuple (highest first)."""
    return [k.elem(tuple(reversed(t))) for t in product(range(k.p), repeat=k.f)]


def _one(k):
    return (1,) + (0,) * (k.f - 1)


@pytest.mark.parametrize("p,f", FIELDS)
def test_every_product_matches_polynomial_oracle(p, f):
    k = _field(p, f)
    elems = _elements(k)
    for x in elems:
        for y in elems:
            assert (x * y).coeffs == residue_product_oracle(k, x, y), (x, y)


@pytest.mark.parametrize("p,f", FIELDS)
def test_every_sum_difference_and_negative_is_digitwise(p, f):
    k = _field(p, f)
    elems = _elements(k)
    for x in elems:
        assert (-x).coeffs == tuple(-a % p for a in x.coeffs)
        for y in elems:
            assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))
            assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))


@pytest.mark.parametrize("p,f", FIELDS)
def test_every_inverse_and_power(p, f):
    k = _field(p, f)
    for x in _elements(k):
        if x.is_zero:
            with pytest.raises(DivisionByZero):
                x.inv()
            assert x**0 == k.one() and x**3 == x
            continue
        assert residue_product_oracle(k, x, x.inv()) == _one(k)
        assert x**-1 == x.inv()
        acc = k.one()
        for n in range(6):
            assert (x**n).coeffs == acc.coeffs
            acc = k.elem(residue_product_oracle(k, acc, x))


@pytest.mark.parametrize("p,f", FIELDS)
def test_equality_hash_and_repr_unchanged(p, f):
    k, k_again = _field(p, f), _field(p, f)
    elems = _elements(k)
    lines = [f"{x.coeffs} {x!r}" for x in elems]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PRINTED[(p, f)]
    for x, twin in zip(elems, _elements(k_again)):
        assert x == twin and hash(x) == hash(twin) == hash((k, x.coeffs))


@pytest.mark.parametrize("p,f", FIELDS)
def test_long_coordinate_tuples_reduce_modulo_gbar(p, f):
    k = _field(p, f)
    w = k.gen()
    for t in product(range(p), repeat=f + 1):
        expect = k.zero()
        for c in reversed(t):
            expect = k.elem(residue_product_oracle(k, expect, w)) + k.elem(c)
        assert k.elem(t) == expect


def test_prime_field_generator_is_the_root_of_gbar():
    k = ResidueField(5, (2, 1))  # gbar = x + 2, so w = -2 = 3
    assert k.gen() == k.elem(3) == k.elem((0, 1))


def _check_sampled(k, seed):
    """Sums, differences, products and inverses of 50 seeded pairs of k."""
    rng = random.Random(seed)
    p = k.p
    for _ in range(50):
        x = k.elem(tuple(rng.randrange(p) for _ in range(k.f)))
        y = k.elem(tuple(rng.randrange(p) for _ in range(k.f)))
        assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))
        assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))
        assert (x * y).coeffs == residue_product_oracle(k, x, y)
        if not x.is_zero:
            assert residue_product_oracle(k, x, x.inv()) == _one(k)


def test_fields_above_two_to_the_sixteen():
    k = ResidueField(2, _default_unram_poly(2, 17))  # q = 131,072
    assert k.order > 1 << 16
    _check_sampled(k, 17)


def test_fields_above_two_to_the_eighteen():
    """F_(2^19): no bound on q, so sums, products and inverses all run."""
    k = ResidueField(2, _default_unram_poly(2, 19))  # q = 524,288
    x = k.elem((1, 1))
    assert repr(x) == "(1 + w)" and x.coeffs[:3] == (1, 1, 0)
    assert x * x == k.elem((1, 0, 1)) and x + x == k.zero()
    _check_sampled(k, 19)


def test_arithmetic_across_fields_is_refused():
    k9, k3, k5 = _field(3, 2), ResidueField(3, (0, 1)), ResidueField(5, (0, 1))
    for op in (k9.gen().__add__, k9.gen().__sub__, k9.gen().__mul__):
        with pytest.raises(InvalidArgument, match="residues of two fields"):
            op(k3.elem(2))
    with pytest.raises(InvalidArgument, match="F_9 and F_5"):
        k9.gen() * k5.elem(4)
    with pytest.raises(InvalidArgument, match="F_3 and F_9"):
        k3.elem(2) * k9.gen()
    assert k9.gen() + _field(3, 2).one() == k9.elem((1, 1))  # an equal field is one field


@pytest.mark.parametrize("p,f,samples", [(3, 4, None), (2, 19, 200)], ids=["F_81", "F_2^19"])
def test_euclid_inverse_is_the_power_q_minus_2(p, f, samples):
    """The extended-Euclid inverse gives the code of a^(q - 2), which
    ``_pow`` computes by squaring: every nonzero element of F_81 and 200
    seeded ones of F_(2^19)."""
    k = _field(p, f)
    if samples is None:
        codes = range(1, k.order)
    else:
        rng = random.Random(20)
        codes = [rng.randrange(1, k.order) for _ in range(samples)]
    for code in codes:
        x = k.elem(k._digits(code))
        assert x.inv().code == k._pow(code, k.order - 2)
