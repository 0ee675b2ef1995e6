"""Shared test data generators, the seams of the forked workers, and the
stand-ins for the library of ``_scan.c`` that ``core.compiled`` gives."""

import collections
import contextlib
import importlib
import os
import types

import numpy as np
import pytest

from msclust import build_matrix, core, pool

fm = importlib.import_module("msclust.fastmsc")
C_FUNCTIONS = ("best_swap", "rescan", "eager_next", "parse_csv")

LINE_POINTS = [[0.0], [1.0], [10.0], [11.0]]

# finite points whose distance overflows float64: in the square of a
# difference, in the running sum over coordinates, and in a difference
OVERFLOWS = [
    ("euclidean", [[1e200, 0], [0, 0], [1, 1], [2, 2]]),
    ("sq-euclidean", [[1e200, 0], [0, 0], [1, 1], [2, 2]]),
    ("manhattan", [[1e308, 1e308], [0, 0], [1, 1], [2, 2]]),
    ("manhattan", [[1.5e308], [-1.5e308], [0], [1]]),
]
OVERFLOW_IDS = ["euclidean-square", "sq-euclidean-square", "manhattan-sum", "manhattan-difference"]


def line_matrix() -> np.ndarray:
    return build_matrix(LINE_POINTS)


def uniform_instance(n: int, seed: int) -> np.ndarray:
    """Euclidean distances of seeded uniform points in the unit square."""
    rng = np.random.default_rng(seed)
    return build_matrix(rng.random((n, 2)))


def duplicate_grid() -> np.ndarray:
    """2000 points on a 6x6 integer grid: every point has many exact
    duplicates, so swapping a medoid for one of them has a true gain of
    exactly 0, while the scan totals score it with rounding noise that
    reaches EPS_GAIN at this n."""
    return build_matrix(np.random.default_rng(5).integers(0, 6, (2000, 2)))


def blob_matrix(seed: int, n: int = 400) -> np.ndarray:
    """Four well-separated 2-d Gaussian blobs (centers 20 apart, sigma 1)."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [20, 0], [0, 20], [20, 20]], dtype=float)
    pts = np.vstack([c + rng.normal(0.0, 1.0, (n // 4, 2)) for c in centers])
    return build_matrix(pts)


def use_cpus(monkeypatch, count):
    """The test seam for the usable CPUs: an affinity mask of count CPUs
    and no cgroup CPU quota, whatever the host's are."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(pool, "OWN_CGROUP", os.devnull)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting(library, calls):
    """A stand-in for the library of _scan.c that passes every call on to
    library and counts it in calls: by the C function's name, and for
    eager_next by the code it returns."""
    def counted(name):
        def call(*args):
            result = getattr(library, name)(*args)
            calls[result if name == "eager_next" else name] += 1
            return result
        return call
    return types.SimpleNamespace(**{name: counted(name) for name in C_FUNCTIONS})


def refuse(*args):
    raise AssertionError("C was called on a state or path that numpy must score")


REFUSING = types.SimpleNamespace(**dict.fromkeys(C_FUNCTIONS, refuse))


@contextlib.contextmanager
def scan_on(path, kernel=None):
    """Inside the block, core.compiled gives the "compiled" path a counting
    stand-in for kernel, and the "numpy" path None; there the gates to C
    refuse, so a state that holds a cscan.State, even one made before the
    block, fails the test. Yields the counts of the C calls."""
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        if path == "compiled":
            mp.setattr(core, "_library", counting(kernel, calls))
        else:
            mp.setattr(core, "_library", None)
            mp.setattr(fm, "_kernel_reads", refuse)  # _best_positions' and _rescan's gate
            mp.setattr(fm, "_eager_compiled", refuse)
        yield calls
