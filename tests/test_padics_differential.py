"""Differential digest of arithmetic in K over 29 fields.

The 27 towers with p in {2, 3, 5} and e, f <= 3 (seeded Eisenstein
polynomials), plus x^2 + (9 + 3w)x + 3 + 6w over F_9 and
x^3 + 4x^2 + (2/3)x + 6 over Q_2, whose coefficient 2/3 is not
integral.  On seeded elements of each field the test hashes the
coordinates of every product, sum, inverse and unit part into one
sha256.  Any change to an exact result changes it.
"""

import hashlib
import math
import random
from fractions import Fraction

from padicdist import FieldSpec

DIGEST = "68f2f720a6694c61243db82ea5a16c324efe42490e67afcbe6b3e531ffef8116"
ELEMENTS = 8


def _fields():
    for p in (2, 3, 5):
        for e in (1, 2, 3):
            for f in (1, 2, 3):
                rng = random.Random(f"padics-differential:{p}:{e}:{f}")
                small = range(-p, p + 1)
                a0 = [rng.randrange(1, p)] + [rng.choice(small) for _ in range(f - 1)]
                eisenstein = [tuple(p * c for c in a0)]
                for _ in range(e - 1):
                    eisenstein.append(tuple(p * rng.choice(small) for _ in range(f)))
                yield (p, e, f, eisenstein)
    yield (3, 2, 2, [(3, 6), (9, 3)])
    yield (2, 3, 1, [6, Fraction(2, 3), 4])


def _elements(field, label):
    """Small rational coordinates with p among the denominators, times a
    power of the uniformizer; the first element is zero."""
    rng = random.Random(f"padics-differential:{label}")
    dens = (1, 2, 3, 5, 7, field.p**2)
    out = [field.zero()]
    pi = field.uniformizer()
    while len(out) < ELEMENTS:
        x = field.from_coords(
            [Fraction(rng.randrange(-20, 21), rng.choice(dens)) for _ in range(field.degree)]
        )
        out.append(x * pi ** rng.randrange(-2, 3))
    return out


def _coords(x):
    return ",".join(str(c) for c in x.coords)


def differential_digest():
    h = hashlib.sha256()
    specs = list(_fields())
    for p, e, f, eisenstein in specs:
        label = f"{p}:{e}:{f}:{eisenstein}"
        h.update(label.encode())
        field = FieldSpec(p, e=e, f=f, eisenstein=eisenstein)
        xs = _elements(field, label)
        for x in xs:
            for y in xs:
                h.update(f"*{_coords(x * y)}+{_coords(x + y)};".encode())
            if not x.is_zero:
                h.update(f"/{_coords(x.inv())}u{_coords(x.unit_part())};".encode())
    return len(specs), h.hexdigest()


def test_field_arithmetic_digest():
    assert differential_digest() == (29, DIGEST)


def test_sub_times_matches_scalar_arithmetic():
    """The int step of canonicalization, prev - g c over one denominator
    with its valuation (``FieldSpec._times`` and ``_sub_times``), against
    the same difference in Scalars, on the seeded elements of every field
    above, and on the exact cancellation prev = g c, which must give zero
    over 1 at valuation +inf on every field (the degree-1 fields reach
    zero otherwise too, the others only there)."""
    checked = 0
    for p, e, f, eisenstein in _fields():
        label = f"{p}:{e}:{f}:{eisenstein}"
        field = FieldSpec(p, e=e, f=f, eisenstein=eisenstein)
        xs = _elements(field, label)
        for c in xs[1:]:
            times = field._times(c.num, c.den)
            for g in xs[1:]:
                for prev in [*xs, g * c]:
                    num, den, v = field._sub_times(prev.num, prev.den, g.num, g.den, times)
                    want = prev - g * c
                    assert (tuple(num), den, v) == (want.num, want.den, want.valuation), label
                    checked += 1
                assert (tuple(num), den, v) == ((0,) * field.degree, 1, math.inf), label
    assert checked == 29 * 7 * 7 * 9
