import pytest

from fhmerge.painleve import integrate_sigma
from fhmerge.symbol import FHParams


@pytest.fixture(scope="session")
def p03():
    return FHParams(0.3, 0.3, t=0.3)


@pytest.fixture(scope="session")
def traj03(p03):
    """Series-initialized trajectory for the symmetric 0.3 pair, to x = 42."""
    return integrate_sigma(p03, x_max=42.0)
