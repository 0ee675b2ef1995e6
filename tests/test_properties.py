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
from msclust.fastmsc import make_state, update_caches_after_swap
from msclust.silhouette import medoid_widths

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
    np.testing.assert_array_equal(state.is_medoid, fresh.is_medoid)
    c = state.cache
    assert state.ams_sum == float(medoid_widths(c.d1, c.d2).sum())


def assert_truthful(matrix, result):
    assert result.ams == ams(matrix, result.medoids)
    np.testing.assert_array_equal(result.labels, nearest_three_all(matrix, result.medoids).n1)


@SETTINGS
@given(instances(), st.sampled_from([0, 1, 2, 1000]))
def test_fast_optimisers_report_fresh_ams_and_labels(inst, max_iter):
    m, m0 = inst
    for optimise in (fastmsc, fastermsc):
        result = optimise(m, m0, max_iter=max_iter)
        assert_truthful(m, result)
        assert result.iterations <= max_iter


@SETTINGS
@given(awkward_matrices(), st.integers(0, 2**16), st.sampled_from([0, 1, 1000]))
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
        update_caches_after_swap(state, position,
                                 int(data.draw(st.sampled_from(non_medoids))))
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


N_POINTS = 12


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("props") / "points.csv"
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in rng.random((N_POINTS, 2)).tolist()))
    return str(path)


def out_of_range(low, high=None):
    """Integers just below low, or just above high if there is one."""
    below = st.integers(low - 3, low - 1)
    return below if high is None else below | st.integers(high + 1, high + 3)


def run_cli(argv) -> int:
    """The exit status of one CLI call; a traceback fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_cli_counts_never_traceback(points_csv, data):
    """Every flag is drawn from its valid range except at most one, which
    is drawn just outside it, so each range check is reached: the call
    exits 0 with every flag in range and 1 with one out of range."""
    verb = data.draw(st.sampled_from(["cluster", "sweep", "bench"]))
    flags = {"cluster": ["--k", "--restarts"], "sweep": ["--k-min", "--k-max"],
             "bench": ["--ks", "--sizes", "--repeats", "--timeout"]}[verb]
    bad = data.draw(st.sampled_from([None, "--max-iter", "--seed", *flags]))
    argv = [verb] if verb == "bench" else [verb, "--input", points_csv]

    def pick(flag, low, high=None, cap=None):
        """Draw flag's value from [low, high] (or [low, cap] if it has no
        upper end), or outside that range if flag is the bad one."""
        if flag == bad:
            value = data.draw(out_of_range(low, high))
        else:
            value = data.draw(st.integers(low, cap if high is None else high))
        argv.extend([flag, str(value)])
        return value

    def pick_list(flag, low, high):
        values = data.draw(st.lists(st.integers(low, high), min_size=1, max_size=2))
        if flag == bad:
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(out_of_range(low))
        argv.extend([flag, ",".join(map(str, values))])
        return values

    top = N_POINTS - 1  # the largest k, and sweep's default --k-max
    if verb == "cluster":
        pick("--k", 2, top)
        pick("--restarts", 1, cap=3)
    elif verb == "sweep":
        if bad == "--k-min":
            pick("--k-min", 2, pick("--k-max", 2, top) if data.draw(st.booleans()) else top)
        else:
            k_min = pick("--k-min", 2, top)
            if bad == "--k-max" or data.draw(st.booleans()):
                pick("--k-max", k_min, top)
    else:
        ks = pick_list("--ks", 2, 5)
        pick_list("--sizes", max(ks) + 1, max(ks) + 4)
        pick("--repeats", 1, cap=2)
        if bad == "--timeout":
            timeout = data.draw(st.sampled_from(["nan", "-1", "-0.5"]))
        else:
            timeout = repr(data.draw(st.floats(0, 14)))
        argv += ["--timeout", timeout]
    pick("--max-iter", 1, cap=14)
    pick("--seed", 0, cap=2**16)
    assert run_cli(argv) == (0 if bad is None else 1)
