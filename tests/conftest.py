import importlib

import pytest

from msclust import cscan

from helpers import line_matrix

# the package re-exports the function fastmsc under the module's name
fm = importlib.import_module("msclust.fastmsc")


@pytest.fixture
def line():
    """Distance matrix of the points 0, 1, 10, 11 on a line."""
    return line_matrix()


@pytest.fixture(scope="session")
def kernel():
    """The compiled scan kernel; the test is skipped where it cannot be built."""
    loaded = cscan.load()
    if loaded is None:
        pytest.skip("the scan kernel cannot be built here (no cc, or __pycache__ "
                    "is not writable)")
    return loaded


@pytest.fixture(params=["compiled", "numpy"])
def scan_path(request, monkeypatch):
    """Every block scored by the compiled kernel, or by the numpy body (the
    kernel handle set to None)."""
    loaded = request.getfixturevalue("kernel") if request.param == "compiled" else None
    monkeypatch.setattr(fm, "_kernel", loaded)
    return request.param
