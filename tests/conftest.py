import functools
import operator

import pytest
from hypothesis import settings

from sd40.constructions import printed_de_matrix, printed_se_matrix
from sd40.oracle import build_oracle
from sd40.quaternary import b10_table, e10_table

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("sd40", derandomize=True, database=None, deadline=None)
settings.load_profile("sd40")


@pytest.fixture(scope="session")
def e10():
    return e10_table()


@pytest.fixture(scope="session")
def b10():
    return b10_table()


@pytest.fixture(scope="session")
def de_matrix():
    return printed_de_matrix()


@pytest.fixture(scope="session")
def se_matrix():
    return printed_se_matrix()


@pytest.fixture(scope="session")
def de_oracle(de_matrix):
    return build_oracle(de_matrix)


@pytest.fixture(scope="session")
def se_oracle(se_matrix):
    return build_oracle(se_matrix)


@pytest.fixture(scope="session")
def span_entry():
    """span_entry(rows, i) is entry i of the rows' span in the order certify
    reads it: the XOR of the rows at the set bits of i."""
    return lambda rows, i: functools.reduce(
        operator.xor, (row for j, row in enumerate(rows) if i >> j & 1), 0)


def pytest_collection_modifyitems(items):
    """Only sweep tests may read test_decoders' exhaustive coset pass, so
    `pytest -m "not sweep"` never builds it."""
    for item in items:
        reads = "coset_pass" in getattr(item, "fixturenames", ())
        if reads and not item.get_closest_marker("sweep"):
            raise pytest.UsageError(f"{item.nodeid} reads coset_pass but is not marked sweep")
