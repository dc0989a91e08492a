import os
from fractions import Fraction

import pytest
from hypothesis import settings

from groupconvex import (
    CyclicMetric,
    DyadicLattice,
    FiniteGroup,
    IntLattice,
    LinfMetric,
)

# CI draws the same examples on every run and puts no deadline on one: big
# integer roots and -X dev on a slow runner can pass 200 ms.  Local runs keep
# random exploration.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def z9():
    return FiniteGroup((9,))


@pytest.fixture
def z12():
    return FiniteGroup((12,))


@pytest.fixture
def z6():
    return FiniteGroup((6,))


@pytest.fixture
def cyclic1():
    return CyclicMetric((Fraction(1),))


@pytest.fixture
def zline():
    return IntLattice(1)


@pytest.fixture
def zplane():
    return IntLattice(2)


@pytest.fixture
def linf1():
    return LinfMetric((Fraction(1),))


@pytest.fixture
def linf2():
    return LinfMetric((Fraction(1), Fraction(1)))


@pytest.fixture
def dyline():
    return DyadicLattice(1)


@pytest.fixture
def dyplane():
    return DyadicLattice(2)
