"""A differential tier at the paper's scale, n = 2000: the compiled and
numpy paths make the same runs, field for field, and fastmsc makes
pammedsil's swaps. The property tests draw a few dozen points at most,
while some defects, such as a duplicate's zero gain that the scan totals
round above EPS_GAIN, show only from n near 2000. On the duplicate grid
many candidates tie in every share of a split pass, so the first best
across shares must win. Deterministic, and about 25 s on a 2-CPU box."""

import numpy as np
import pytest

from msclust import build_matrix, dynmsc, fastermsc, fastmsc, init_random
from msclust.naive import pammedsil

from helpers import assert_no_child_left, duplicate_grid, scan_on
from test_scan_split import forks  # noqa: F401

N = 2000


MATRICES = {
    "uniform": lambda: build_matrix(np.random.default_rng(2000).random((N, 2))),
    "grid": lambda: build_matrix(np.random.default_rng(2001).integers(0, 20, (N, 2)),
                                 metric="manhattan"),
    "duplicates": duplicate_grid,
}


@pytest.fixture(scope="module", params=list(MATRICES))
def matrix(request):
    """Uniform points in the unit square; points of a 20 x 20 integer grid
    under Manhattan, with many duplicates and many equal distances; or the
    2000 points of a 6 x 6 grid, each with some 55 exact duplicates."""
    return MATRICES[request.param]()


def fields(result):
    return (result.medoids.tolist(), result.labels.tolist(), result.ams.hex(), result.swaps,
            result.iterations, result.converged)


RUNS = {
    # (n - k) n distances make 3 shares of SHARE_DISTANCES, so 2 workers split every pass
    "fastmsc-1": lambda matrix: [fastmsc(matrix, init_random(N, 8, seed=1))],
    "fastmsc-2": lambda matrix: [fastmsc(matrix, init_random(N, 8, seed=1), workers=2)],
    "fastermsc": lambda matrix: [fastermsc(matrix, init_random(N, 20, seed=2))],
    "dynmsc": lambda matrix: list(dynmsc(matrix, k_max=20, seed=3).per_k.values()),
}


@pytest.mark.parametrize("run", RUNS)
def test_both_paths_make_the_same_run(kernel, matrix, run, forks):
    got = {}
    for path in ("compiled", "numpy"):
        del forks[:]
        with scan_on(path, kernel) as calls:
            got[path] = [fields(result) for result in RUNS[run](matrix)]
        assert (sum(calls.values()) > 0) == (path == "compiled")
        assert (len(forks) > 0) == (run == "fastmsc-2")
    assert got["compiled"] == got["numpy"]
    assert_no_child_left()


@pytest.fixture(scope="module")
def steepest_starts():
    """On uniform points and on the duplicate grid: the matrix, k = 3
    random medoids, and pammedsil's two swaps."""
    starts = []
    for data in ("uniform", "duplicates"):
        matrix = MATRICES[data]()
        m0 = init_random(N, 3, seed=4)
        starts.append((matrix, m0, fields(pammedsil(matrix, m0, max_iter=2))))
    return starts


@pytest.mark.parametrize("workers", [1, 2])
def test_fastmsc_makes_pammedsil_swaps(kernel, steepest_starts, workers, forks):
    for matrix, m0, want in steepest_starts:
        del forks[:]
        with scan_on("compiled", kernel) as calls:
            fast = fastmsc(matrix, m0, max_iter=2, workers=workers)
        assert calls["best_swap"] > 0
        assert (len(forks) > 0) == (workers == 2)
        assert fields(fast) == want and fast.swaps == 2
    assert_no_child_left()
