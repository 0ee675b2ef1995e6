"""Property-based checks of the reported results and the warm cache.

Inputs are small dissimilarity matrices (n <= 30) built to be awkward:
few distinct values (so ties everywhere and no triangle inequality),
duplicate points and blocks of mutually zero-distance points.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msclust import ams, dynmsc, fastermsc, fastmsc, init_random, nearest_three_all, pammedsil
from msclust.cli import main
from msclust.dynmsc import remove_medoid
from msclust.fastmsc import _apply_swap, make_state

SETTINGS = settings(deadline=None, max_examples=100)


@st.composite
def awkward_matrices(draw, min_n=4, max_n=30):
    n = draw(st.integers(min_n, max_n))
    m = draw(arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])))
    m = np.triu(m, 1)
    m = m + m.T
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        if a != b:  # b duplicates a
            m[b, :] = m[a, :]
            m[:, b] = m[:, a]
            m[a, b] = m[b, a] = 0.0
    block = draw(st.integers(0, n // 2))
    m[:block, :block] = 0.0
    np.fill_diagonal(m, 0.0)
    return m


@st.composite
def instances(draw, max_k=8):
    """(matrix, starting medoids)."""
    m = draw(awkward_matrices())
    n = len(m)
    k = draw(st.integers(2, min(max_k, n - 1)))
    return m, init_random(n, k, draw(st.integers(0, 2**16)))


def assert_cache_is_fresh(state):
    fresh = make_state(state.matrix, state.medoids)
    for name in ("n1", "n2", "d1", "d2", "d3"):
        np.testing.assert_array_equal(getattr(state.cache, name), getattr(fresh.cache, name))
    np.testing.assert_array_equal(state.removal_loss, fresh.removal_loss)


def assert_truthful(matrix, result):
    assert result.ams == ams(matrix, result.medoids)
    np.testing.assert_array_equal(result.labels, nearest_three_all(matrix, result.medoids).n1)


@SETTINGS
@given(instances(), st.sampled_from([1, 2, 1000]))
def test_fast_optimisers_report_fresh_ams_and_labels(inst, max_iter):
    m, m0 = inst
    for optimise in (fastmsc, fastermsc):
        result = optimise(m, m0, max_iter=max_iter)
        assert_truthful(m, result)
        assert result.iterations <= max_iter


@SETTINGS
@given(awkward_matrices(), st.integers(0, 2**16), st.sampled_from([1, 1000]))
def test_every_sweep_entry_reports_fresh_ams_and_labels(m, seed, max_iter):
    k_max = min(8, len(m) - 1)
    sweep = dynmsc(m, k_max=k_max, seed=seed, max_iter=max_iter)
    assert sorted(sweep.per_k) == list(range(2, k_max + 1))
    for result in sweep.per_k.values():
        assert_truthful(m, result)
    assert sweep.best.ams == max(r.ams for r in sweep.per_k.values())
    assert_truthful(m, sweep.best)


@SETTINGS
@given(instances(), st.data())
def test_cache_stays_fresh_after_swaps_and_removals(inst, data):
    m, m0 = inst
    n = len(m)
    state = make_state(m, m0)
    for _ in range(data.draw(st.integers(1, 6))):
        non_medoids = np.setdiff1d(np.arange(n), state.medoids)
        position = data.draw(st.integers(0, state.k - 1))
        _apply_swap(state, position, int(data.draw(st.sampled_from(non_medoids))))
        assert_cache_is_fresh(state)
    while state.k > 2:
        remove_medoid(state, data.draw(st.integers(0, state.k - 1)))
        assert_cache_is_fresh(state)


@settings(deadline=None, max_examples=30)
@given(st.integers(4, 16), st.integers(0, 2**16), st.data())
def test_fastmsc_equals_pammedsil_on_tie_free_input(n, seed, data):
    # continuous random entries: no two distances, and no two swap gains, tie
    rng = np.random.default_rng(seed)
    m = np.triu(rng.random((n, n)) + 0.1, 1)
    m = m + m.T
    m0 = init_random(n, data.draw(st.integers(2, min(5, n - 1))), seed)
    fast, slow = fastmsc(m, m0), pammedsil(m, m0)
    np.testing.assert_array_equal(fast.medoids, slow.medoids)
    assert fast.ams == slow.ams
    assert fast.swaps == slow.swaps


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("props") / "points.csv"
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in rng.random((12, 2)).tolist()))
    return str(path)


COUNT = st.integers(-3, 14).map(str)
COUNT_LIST = st.lists(st.integers(-3, 14), min_size=1, max_size=2).map(
    lambda v: ",".join(map(str, v)))


def run_cli(argv) -> int:
    """The exit status of one CLI call; a traceback fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_cli_counts_never_traceback(points_csv, data):
    verb = data.draw(st.sampled_from(["cluster", "sweep", "bench"]))
    if verb == "cluster":
        argv = ["cluster", "--input", points_csv, "--k", data.draw(COUNT),
                "--restarts", data.draw(COUNT), "--max-iter", data.draw(COUNT)]
    elif verb == "sweep":
        argv = ["sweep", "--input", points_csv, "--k-min", data.draw(COUNT),
                "--max-iter", data.draw(COUNT)]
        if data.draw(st.booleans()):
            argv += ["--k-max", data.draw(COUNT)]
    else:
        argv = ["bench", "--sizes", data.draw(COUNT_LIST), "--ks", data.draw(COUNT_LIST),
                "--max-iter", data.draw(COUNT), "--repeats", "1",
                "--timeout", data.draw(COUNT)]
    argv += ["--seed", data.draw(COUNT)]
    assert run_cli(argv) in (0, 1)
