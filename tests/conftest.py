import pytest

from pealab import build_catalog


@pytest.fixture(scope="session")
def catalog6():
    """Catalog entries for every bounded-poset class up to six elements."""
    return build_catalog(6)


@pytest.fixture(scope="session")
def catalog5(catalog6):
    return [e for e in catalog6 if e.base.n <= 5]


@pytest.fixture(scope="session")
def pdps4(catalog6):
    return [X for e in catalog6 if e.base.n <= 4 for X in e.structures]


@pytest.fixture(scope="session")
def pdps5(catalog6):
    return [X for e in catalog6 if e.base.n <= 5 for X in e.structures]


@pytest.fixture(scope="session")
def pdps6(catalog6):
    return [X for e in catalog6 for X in e.structures]
