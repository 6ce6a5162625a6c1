import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from padicdist import (
    DistAlgebra,
    FieldSpec,
    abelian,
    build_kernel_family,
    heisenberg,
    heisenberg2,
    o_additive,
)


@pytest.fixture(scope="session")
def q3():
    return FieldSpec.qp(3)


@pytest.fixture(scope="session")
def q2():
    return FieldSpec.qp(2)


@pytest.fixture(scope="session")
def k3u2():
    return FieldSpec.unramified(3, 2)


@pytest.fixture(scope="session")
def k2u2():
    return FieldSpec.unramified(2, 2)


@pytest.fixture(scope="session")
def k3r2():
    return FieldSpec.totally_ramified(3, 2)


@pytest.fixture(scope="session")
def heis():
    return heisenberg(3)


@pytest.fixture(scope="session")
def heis_alg(heis, q3):
    return DistAlgebra(heis, q3, 6)


@pytest.fixture(scope="session")
def heis2():
    return heisenberg2()


@pytest.fixture(scope="session")
def heis2_alg(heis2, q2):
    return DistAlgebra(heis2, q2, 6)


@pytest.fixture(scope="session")
def ab2_alg(q3):
    return DistAlgebra(abelian(2, p=3), q3, 6)


@pytest.fixture(scope="session")
def fam31(k3u2):
    """o-additive, n = 2, d = 1 over the unramified quadratic of Q_3."""
    return build_kernel_family(o_additive(k3u2, 1), 8)


@pytest.fixture(scope="session")
def fam31_small(k3u2):
    return build_kernel_family(o_additive(k3u2, 1), 4)


@pytest.fixture(scope="session")
def fam32(k3u2):
    """o-additive, n = 2, d = 2."""
    return build_kernel_family(o_additive(k3u2, 2), 6)


@pytest.fixture(scope="session")
def fam21(k2u2):
    """o-additive, n = 2, d = 1 at p = 2."""
    return build_kernel_family(o_additive(k2u2, 1), 8)
