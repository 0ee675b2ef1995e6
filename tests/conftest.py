import pytest

from msclust import cscan

from helpers import line_matrix, scan_on


@pytest.fixture
def line():
    """Distance matrix of the points 0, 1, 10, 11 on a line."""
    return line_matrix()


@pytest.fixture(scope="session")
def kernel():
    """The library of _scan.c, as cscan.load gives it; the test is skipped
    where it cannot be built."""
    loaded = cscan.load()
    if loaded is None:
        pytest.skip("the scan kernel cannot be built here (no cc, or __pycache__ "
                    "is not writable)")
    return loaded


@pytest.fixture(params=["compiled", "numpy"])
def scan_path(request):
    """Every state that the test makes scored by the compiled kernel, which
    must then be called, or by the numpy body, which must then call no C
    function (see helpers.scan_on)."""
    kernel = request.getfixturevalue("kernel") if request.param == "compiled" else None
    with scan_on(request.param, kernel) as calls:
        yield request.param
    assert request.param == "numpy" or sum(calls.values()) > 0
