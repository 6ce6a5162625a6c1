"""Property tests of ``canonicalize`` against the binomial series.

For v = sum_i c_i v_i in o_L the element prod_i h_i1^(c_i) = exp(v x_1)
has delta prod_i (1 + b_i1)^(c_i), and since every G_i1 lies in the
kernel, 1 + b_i1 = (1 + b_11)^(v_i) in the quotient.  So the canonical
form of delta - 1 must agree with (1 + b_11)^v - 1 = sum_k binom(v, k)
b_11^k up to the residual p^-M', over the unramified (e = 1) and the
ramified (e = 2) quadratic extension of Q_3 alike; over e = 2, v_2 = pi
has residue 0, which is where a check of the leading residue alone went
wrong.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from padicdist import FieldSpec, build_kernel_family, canonicalize, o_additive, quotient_norm  # noqa: E402
from padicdist.radii import Radius  # noqa: E402

R23 = Radius(2, 3)  # 3^(-2/3), dominant index 0
MP = 2
FAMILIES = {
    "e=1": build_kernel_family(o_additive(FieldSpec.unramified(3, 2), 1), 8),
    "e=2": build_kernel_family(o_additive(FieldSpec.totally_ramified(3, 2), 1), 8),
}
SETTINGS = hypothesis.settings(max_examples=25, deadline=None)

p_integral = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 8).filter(lambda q: q % 3)
)


def power_delta(fam, c):
    """delta(prod_i h_i1^(c_i)) - 1: second-kind coordinates c on the
    generators b_i1, in the algebra of the restricted group."""
    alg, lg = fam.algebra, fam.lgspec
    coords = [0] * alg.d
    for i, ci in enumerate(c, start=1):
        coords[lg.flat_index(i, 1)] = ci
    return alg.delta(alg.lattice.element_second(coords)) - alg.one()


@pytest.mark.parametrize("name", list(FAMILIES))
@SETTINGS
@hypothesis.given(c=st.lists(p_integral, min_size=2, max_size=2))
def test_canonical_form_is_the_binomial_series(name, c):
    fam = FAMILIES[name]
    lg = fam.lgspec
    v = sum((lg.v_basis[i] * ci for i, ci in enumerate(c)), lg.field.zero())
    series = fam.algebra.binomial_series(lg.flat_index(1, 1), v)
    form = canonicalize(fam, power_delta(fam, c), R23, MP)
    assert form.residual_exponent >= MP
    assert (form.as_distribution() - series).norm(R23) >= MP
    norm = series.norm(R23)
    if norm < MP:
        assert quotient_norm(fam, power_delta(fam, c), R23, MP) == norm


@pytest.mark.parametrize("name", list(FAMILIES))
@SETTINGS
@hypothesis.given(c=st.integers(-40, 40))
def test_binomial_series_at_integers_is_delta(name, c):
    """At v = c in Z the series is delta(h_11^c) - 1, read off the
    table's binomial ladder."""
    fam = FAMILIES[name]
    series = fam.algebra.binomial_series(fam.lgspec.flat_index(1, 1), fam.lgspec.field.scalar(c))
    assert series == power_delta(fam, (c, 0))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_bij_canonical_form_is_the_series_at_v_i(name):
    fam = FAMILIES[name]
    lg = fam.lgspec
    b21 = fam.algebra.generator(lg.flat_index(2, 1))
    form = canonicalize(fam, b21, R23, MP)
    series = fam.algebra.binomial_series(lg.flat_index(1, 1), lg.v_basis[1])
    assert (form.as_distribution() - series).norm(R23) >= MP
