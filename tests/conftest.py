import pytest

from hopfforge import catalog
from hopfforge.analyze import Analysis


@pytest.fixture(scope="session")
def b0_entry():
    return catalog.b0()


@pytest.fixture(scope="session")
def xmas_entry():
    return catalog.xmas()


@pytest.fixture(scope="session")
def c4min_entry():
    return catalog.c4min()


@pytest.fixture(scope="session")
def qline6_entry():
    return catalog.qline6()


@pytest.fixture(scope="session")
def smash36_entry():
    return catalog.smash36()


@pytest.fixture(scope="session")
def kc12n6_entry():
    return catalog.kc12n6()


@pytest.fixture(scope="session")
def xmas_pi_analysis(xmas_entry):
    """The Analysis of the non-normalized projection of the dim-72 example,
    shared by the session so that each stage is formed once."""
    an = Analysis(xmas_entry.extra["setup_pi"])
    assert an.basis is not None
    return an


@pytest.fixture(scope="session")
def c4min_analysis(c4min_entry):
    an = Analysis(c4min_entry.setup)
    assert an.basis is not None
    return an
