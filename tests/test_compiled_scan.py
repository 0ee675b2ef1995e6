"""The compiled scan kernel (``_scan.c``, built by ``msclust.cscan``): the
numpy body's exact bits on awkward inputs, and the numpy body wherever the
kernel cannot be built, loaded or used."""

import collections
import importlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msclust import build_matrix, core, cscan, dynmsc, fastermsc, fastmsc, init_random, pool
from msclust.fastmsc import make_state

from helpers import REFUSING, assert_no_child_left, counting, scan_on, uniform_instance
from test_properties import awkward_matrices
from test_scan_kernel import (assert_best_positions_match, assert_same_bits, blob_grid,
                              reference_block_totals, tied_instance)

fm = importlib.import_module("msclust.fastmsc")
dynmsc_module = importlib.import_module("msclust.dynmsc")


@st.composite
def stacks(draw):
    """(matrix, medoids): points stacked at 0 and at 1 on a line, every
    medoid at 0. From k = 3 a candidate row at 0 has no near point (each
    d(o, j) equals d3(o)) and one at 1 has the points at 1, about half; at
    k = 2 (d3 = inf) every point is near. Each stack's rows are equal, so
    their totals tie."""
    n = draw(st.integers(4, 40))
    k = draw(st.integers(2, min(8, n - 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    order = rng.permutation(n)  # the point at i is point order[i] of the stacks
    at = np.r_[np.zeros(k), rng.integers(0, 2, n - k)]
    return build_matrix(at[order, None]), np.argsort(order)[:k]


@st.composite
def scan_inputs(draw):
    """(state, J): few distinct values, duplicate points and zero blocks,
    integer points under Manhattan, uniform points, or stacks; every zero
    made -0.0 or not; k from 2 (d3 = inf); all candidates or a run of
    them."""
    kind = draw(st.sampled_from(["awkward", "manhattan", "uniform", "stacks"]))
    medoids = None
    if kind == "awkward":
        matrix = draw(awkward_matrices(min_n=3))
    elif kind == "stacks":
        matrix, medoids = draw(stacks())
    else:
        n = draw(st.integers(3, 40))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        matrix = (build_matrix(rng.integers(0, 4, (n, 2)), metric="manhattan")
                  if kind == "manhattan" else build_matrix(rng.random((n, 2))))
    if draw(st.booleans()):
        matrix[matrix == 0] = -0.0
    n = len(matrix)
    if medoids is None:
        k = draw(st.integers(2, min(8, n - 1)))
        medoids = init_random(n, k, draw(st.integers(0, 2**16)))
    state = make_state(matrix, medoids)
    J = np.flatnonzero(~state.is_medoid)
    start = draw(st.integers(0, len(J) - 1))
    return state, J[start:draw(st.integers(start + 1, len(J)))]


@settings(deadline=None, max_examples=300)
@given(scan_inputs())
def test_the_kernel_gives_the_numpy_bits(kernel, inputs):
    # a C state scores every candidate that Python hands it, one or many, by
    # best_swap; a row's best position and total are all that the steepest
    # pass and the eager loop use of its scores
    state, J = inputs
    with scan_on("numpy"):
        acc, shared = fm.block_totals(make_state(state.matrix, state.medoids), J)
    with scan_on("compiled", kernel) as calls:
        assert_best_positions_match(make_state(state.matrix, state.medoids), J, acc, shared)
    assert calls == {"best_swap": len(J) + 1}  # each row alone, then J whole


def swap_bits(swap):
    return swap and (swap[:2], swap[2].hex())


@settings(deadline=None, max_examples=100)
@given(scan_inputs())
def test_the_compiled_pass_finds_the_numpy_swap(kernel, inputs):
    # with SHARE_DISTANCES = 1 a pass splits into min(workers, n - k) shares,
    # each scored by one best_swap call, a share of one candidate too;
    # duplicated points tie across shares, and the first wins. The shares
    # run here, unforked, so that every C call is counted
    # (tests/test_scan_split.py forks them)
    base, _ = inputs
    with scan_on("numpy"):
        want = swap_bits(fm.find_best_swap(make_state(base.matrix, base.medoids)))
    candidates = len(base.matrix) - base.k
    for workers in (1, 2, 3):
        with scan_on("compiled", kernel) as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "SHARE_DISTANCES", 1)
            mp.setattr(pool, "_fork_share", lambda fn, share: None)
            state = make_state(base.matrix, base.medoids)
            assert swap_bits(fm.find_best_swap(state, workers)) == want
        assert calls == {"best_swap": min(workers, candidates)}


@pytest.mark.parametrize("data", ["uniform", "tied", "blobs"])
def test_both_paths_make_the_same_runs(kernel, data):
    matrix = {"uniform": lambda: uniform_instance(300, seed=4),
              "tied": lambda: tied_instance(300, 4),
              "blobs": lambda: blob_grid(2)}[data]()
    m0 = init_random(len(matrix), 12, seed=4)

    def runs(path):
        with scan_on(path, kernel) as calls:
            results = [fastmsc(matrix, m0), fastermsc(matrix, m0)]
            results += dynmsc(matrix, k_max=12, seed=4).per_k.values()
        assert (path == "compiled") == (sum(calls.values()) > 0)
        return [fields(r) for r in results]

    assert runs("compiled") == runs("numpy")


def fields(result):
    return (result.medoids.tolist(), result.labels.tolist(), result.ams.hex(), result.swaps,
            result.iterations, result.converged)


def test_nothing_is_loaded_at_import(tmp_path):
    # a run that loads a cached kernel imports none of the build tools, and
    # the CSV loader and the scan share one load of the library
    cached = cscan.load() is not None
    path = tmp_path / "matrix.csv"
    path.write_text("0,1,5\n1,0,4\n5,4,0\n")
    code = ("import ctypes, sys, msclust.cli\n"
            "core = sys.modules['msclust.core']\n"
            "assert core._library is False and 'msclust.cscan' not in sys.modules\n"
            "if sys.argv[1] == 'True':\n"
            "    loads = []\n"
            "    class CDLL(ctypes.CDLL):\n"
            "        def __init__(self, name, *args, **kwargs):\n"
            "            loads.append(name)\n"
            "            super().__init__(name, *args, **kwargs)\n"
            "    ctypes.CDLL = CDLL\n"
            "    from msclust import fastermsc\n"
            "    from msclust.core import load_matrix_csv\n"
            "    matrix = load_matrix_csv(sys.argv[2])\n"
            "    assert core._library is not None and 'subprocess' not in sys.modules\n"
            "    fastermsc(matrix, [0, 1])\n"
            "    assert len(loads) == 1 and 'subprocess' not in sys.modules, loads\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cscan.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code, str(cached), str(path)], env=env, check=True)


# a stand-in for cc: finds its -o argument, then does what the case needs
FAKE_CC = """#!/bin/sh
while [ $# -gt 0 ]; do [ "$1" = -o ] && out=$2; shift; done
{}
"""
FAKE_BODIES = {
    "cc-fails": 'echo partial > "$out"; exit 1',
    "timeout": 'sleep 60 & echo $! > "{pidfile}"; wait',
    "unloadable": 'echo "not a library" > "$out"',
}


def gone(pid: int) -> bool:
    """Whether pid has exited (it may be a zombie until init reaps it)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc for the pids")
@pytest.mark.parametrize("failure", ["no-cc", "cc-fails", "unwritable-cache", "timeout",
                                     "unloadable"])
def test_a_kernel_that_cannot_load_leaves_the_numpy_scan(failure, tmp_path, monkeypatch):
    monkeypatch.setattr(cscan, "CACHE", tmp_path / "__pycache__")
    pidfile = tmp_path / "grandchild.pid"
    if failure == "no-cc":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    elif failure == "unwritable-cache":
        # a directory under a regular file cannot be made, even by root
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(cscan, "CACHE", tmp_path / "file" / "__pycache__")
    else:
        fake = tmp_path / "cc"
        fake.write_text(FAKE_CC.format(FAKE_BODIES[failure].format(pidfile=pidfile)))
        fake.chmod(0o755)
        monkeypatch.setattr(shutil, "which", lambda name: str(fake))
        monkeypatch.setattr(cscan, "COMPILE_SECONDS", 1.0)
    matrix = uniform_instance(40, seed=8)
    csv = tmp_path / "matrix.csv"
    csv.write_text("\n".join(",".join(map(repr, row)) for row in matrix.tolist()))
    monkeypatch.setattr(core, "_library", None)
    numpy_runs = optimizer_runs(matrix, 4, 8)
    monkeypatch.setattr(core, "_library", False)

    # the CSV loader makes the first load attempt, and reads token by token
    started = time.monotonic()
    assert core.load_matrix_csv(csv).tobytes() == matrix.tobytes()
    state = make_state(matrix, init_random(40, 4, seed=8))
    J = np.flatnonzero(~state.is_medoid)
    got = fm.block_totals(state, J)
    assert time.monotonic() - started < 20
    assert core._library is None and state.addresses is None
    for a, b in zip(got, reference_block_totals(state, J)):
        assert_same_bits(a, b)
    assert optimizer_runs(matrix, 4, 8) == numpy_runs
    left = sorted(p.name for p in tmp_path.rglob("*"))
    assert not [name for name in left if name.endswith(".tmp")]
    if failure == "timeout":  # cc's own children die with it
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 5
        while not gone(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert gone(pid)
    assert_no_child_left()


def strided(matrix):
    """matrix as the top-left corner of a larger one: a view whose rows are
    not adjacent."""
    n = len(matrix)
    big = np.zeros((n + 10, n + 10))
    big[:n, :n] = matrix
    return big[:n, :n]


@pytest.mark.parametrize("layout", [np.asfortranarray, strided], ids=["fortran", "strided"])
def test_a_fortran_ordered_matrix_is_scored_with_numpy(monkeypatch, layout):
    # the library refuses every call, as C cannot read such a matrix
    monkeypatch.setattr(core, "_library", REFUSING)
    matrix = uniform_instance(50, seed=3)
    m0 = init_random(50, 4, seed=3)
    state = make_state(layout(matrix), m0)
    J = np.flatnonzero(~state.is_medoid)
    for a, b in zip(fm.block_totals(state, J), reference_block_totals(state, J)):
        assert_same_bits(a, b)
    fortran = optimizer_runs(layout(matrix), 4, 3)
    monkeypatch.setattr(core, "_library", None)
    assert fortran == optimizer_runs(matrix, 4, 3)
    assert_no_child_left()


def test_a_state_keeps_the_path_it_was_made_with(kernel, monkeypatch):
    # make_state asks core.compiled once: a library that it gives later
    # reaches no state made before, on either path
    matrix = uniform_instance(60, seed=6)
    m0 = init_random(60, 6, seed=6)
    calls = collections.Counter()
    states = {}
    for path, library in (("numpy", None), ("compiled", counting(kernel, calls))):
        monkeypatch.setattr(core, "_library", library)
        states[path] = make_state(matrix, m0)
    monkeypatch.setattr(core, "_library", REFUSING)
    runs = {}
    for path, state in states.items():
        best = fm.find_best_swap(state)
        converged = fm._fastermsc_state(state, 1000)
        dynmsc_module.remove_medoid(state, int(np.argmax(state.removal_loss)))
        runs[path] = best, converged, state.swaps, state.iterations, state_bits(state)
        if path == "numpy":
            assert not calls
    assert runs["numpy"] == runs["compiled"]
    assert calls["best_swap"] > 0 and calls["rescan"] > 0 and calls[fm.CONVERGED] == 1


def optimizer_runs(matrix, k, seed):
    """The fields of every optimizer's run from init_random(n, k, seed)."""
    m0 = init_random(len(matrix), k, seed)
    results = [fastmsc(matrix, m0), fastermsc(matrix, m0)]
    results += dynmsc(matrix, k_max=k, seed=seed).per_k.values()
    return [fields(r) for r in results]


def state_bits(state):
    """Every array of the state, as bytes."""
    c = state.cache
    return [a.tobytes() for a in (state.medoids, state.is_medoid, c.n1, c.n2, c.d1, c.d2, c.d3,
                                  state.r12, state.r13, state.r23, state.removal_loss)]


@st.composite
def eager_inputs(draw):
    """(matrix, medoids): the property tests' awkward matrices, integer
    points under Manhattan, whose zeros are made -0.0 all, some or none,
    or uniform points; k from 2 (d3 = inf)."""
    kind = draw(st.sampled_from(["awkward", "manhattan", "uniform"]))
    if kind == "awkward":
        matrix = draw(awkward_matrices(min_n=3))
    else:
        n = draw(st.integers(3, 50))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        matrix = (build_matrix(rng.integers(0, 5, (n, 2)), metric="manhattan")
                  if kind == "manhattan" else build_matrix(rng.random((n, 2))))
        zeros = draw(st.sampled_from(["none", "some", "all"]))
        if zeros != "none":
            flip = np.triu(matrix == 0) & ((rng.random(matrix.shape) < 0.5) | (zeros == "all"))
            flip |= flip.T
            matrix[flip] = -0.0
    n = len(matrix)
    k = draw(st.integers(2, min(8, n - 1)))
    return matrix, init_random(n, k, draw(st.integers(0, 2**16)))


@settings(deadline=None, max_examples=200)
@given(eager_inputs(), st.sampled_from([-1, 0, 1, 2, 10**30]))
def test_the_compiled_eager_loop_makes_the_numpy_runs(kernel, inputs, max_iter):
    matrix, m0 = inputs
    runs = []
    for path in ("compiled", "numpy"):
        with scan_on(path, kernel) as calls:
            state = make_state(matrix, m0)
            converged = fm._fastermsc_state(state, max_iter)
            sweep = dynmsc(matrix, k_max=len(m0), seed=len(matrix), max_iter=max_iter)
        runs.append((fields(fm._result(state, converged)), state_bits(state),
                     [fields(r) for r in sweep.per_k.values()], sweep.best_k))
        if path == "compiled":
            assert calls[fm.CONVERGED] + calls[fm.OUT_OF_PASSES] == 1 + len(runs[0][2])
    assert runs[0] == runs[1]


@settings(deadline=None, max_examples=200)
@given(scan_inputs(), st.data())
def test_the_c_rescan_gives_the_numpy_bits(kernel, inputs, data):
    base, _ = inputs
    n, k = len(base.matrix), base.k
    position = data.draw(st.integers(0, k - 1))
    replacement = data.draw(st.sampled_from(np.flatnonzero(~base.is_medoid).tolist()))
    drop = data.draw(st.integers(0, k - 2))
    bits = []
    for path in ("compiled", "numpy"):
        with scan_on(path, kernel) as calls:
            state = make_state(base.matrix, base.medoids)
            before = state_bits(state)
            # a swap that cannot raise the sum by more than inf is undone
            assert fm._swap_if_sum_rises(state, position, replacement, np.inf) is None
            assert state_bits(state) == before
            fm.update_caches_after_swap(state, position, replacement)
            swapped = state_bits(state)
            fm._rescan(state, np.arange(n))
            assert state_bits(state) == swapped
            if k > 2:
                dynmsc_module.remove_medoid(state, drop)
        bits.append((swapped, state_bits(state)))
        if path == "compiled":
            assert calls["rescan"] == 4 + (k > 2)
    assert bits[0] == bits[1]


def addresses(state):
    """The addresses that the state's arrays have now, by the name of the
    field of cscan.State that holds each."""
    c = state.cache
    arrays = dict(n1=c.n1, n2=c.n2, matrix=state.matrix, d1=c.d1, d2=c.d2, d3=c.d3,
                  r12=state.r12, r13=state.r13, r23=state.r23,
                  removal_loss=state.removal_loss, medoids=state.medoids, work=state.work,
                  is_medoid=state.is_medoid, idx=state.idx)
    return {name: a.ctypes.data for name, a in arrays.items()}


@settings(deadline=None, max_examples=100)
@given(eager_inputs(), st.booleans(), st.data())
def test_the_address_table_stays_live(kernel, inputs, read_only, data):
    # make_state allocates every array, and on the compiled path fills its
    # cscan.State with their addresses once; a swap kept or undone, a full
    # rescan, every removal down to k = 2, a steepest pass after them
    # (best_swap's work and index buffers were sized at the first k and n)
    # and the optimizers' runs must write the same buffers on both paths. A
    # read-only matrix is still scored by C.
    matrix, m0 = inputs
    matrix.flags.writeable = not read_only
    n, k = len(matrix), len(m0)
    position = data.draw(st.integers(0, k - 1))
    replacement = data.draw(st.sampled_from(sorted(set(range(n)) - set(m0.tolist()))))
    drops = [data.draw(st.integers(0, j - 1)) for j in range(k, 2, -1)]
    for path in ("compiled", "numpy"):
        states, taken = [], {}  # per state made: its arrays' addresses then

        def made(*args):
            states.append(make_state(*args))
            taken[id(states[-1])] = addresses(states[-1])
            return states[-1]

        def live(state):
            want = taken[id(state)]
            assert addresses(state) == want
            if path == "numpy":
                assert state.addresses is None
            else:  # each field read by name
                table = state.addresses[1]
                assert table.n == len(state.matrix)
                assert {name: getattr(table, name) for name in want} == want

        def checked(call):
            """call, a rescan or a scan, after asserting the struct: a stale
            address fails here, before C reads it."""
            def wrapper(state, idx):
                live(state)
                return call(state, idx)
            return wrapper

        with scan_on(path, kernel) as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "_rescan", checked(fm._rescan))
            mp.setattr(dynmsc_module, "_rescan", checked(dynmsc_module._rescan))
            mp.setattr(fm, "_best_positions", checked(fm._best_positions))
            state = made(matrix, m0)
            live(state)
            assert fm._swap_if_sum_rises(state, position, replacement, np.inf) is None
            live(state)
            assert fm._swap_if_sum_rises(state, position, replacement, -np.inf) is not None
            live(state)
            fm._rescan(state, np.arange(n))
            live(state)
            for drop in drops:
                dynmsc_module.remove_medoid(state, drop)
                live(state)
            fm.find_best_swap(state)
            live(state)
            mp.setattr(fm, "make_state", made)
            fastmsc(matrix, m0, max_iter=3)
            fm._fastermsc_state(states[1], 3)
            live(states[1])
        # a steepest pass is one best_swap call
        assert path == "numpy" or (calls["rescan"] > 0 and calls["best_swap"] > 0)


def test_the_eager_loop_returns_once_per_distance_budget(kernel, monkeypatch):
    matrix = blob_grid(3)
    m0 = init_random(len(matrix), 20, seed=3)
    monkeypatch.setattr(core, "_library", kernel)
    expected = fields(fastermsc(matrix, m0))
    states = []
    make_state = fm.make_state

    def kept_state(*args):
        states.append(make_state(*args))
        return states[-1]

    calls = collections.Counter()
    budget = 100 * len(matrix)  # a hundred rows a call
    monkeypatch.setattr(fm, "make_state", kept_state)
    monkeypatch.setattr(core, "_library", counting(kernel, calls))
    monkeypatch.setattr(fm, "EAGER_DISTANCES", budget)
    assert fields(fastermsc(matrix, m0)) == expected
    (state,), returns = states, sum(calls[code] for code in range(5))
    assert calls[fm.PAUSED] > 0
    assert returns * budget >= state.addresses[1].scored * len(matrix)


def fake_cc_on_path(tmp_path, monkeypatch, body):
    """The stand-in compiler as cc in a directory first on PATH; it
    appends a line to tmp_path / "runs" each time it runs."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(FAKE_CC.format(f'echo run >> "{tmp_path / "runs"}"\n{body}'))
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    return tmp_path / "runs"


def test_a_cached_library_that_cannot_load_is_rebuilt(kernel, tmp_path, monkeypatch):
    monkeypatch.setattr(cscan, "CACHE", tmp_path / "__pycache__")
    path = os.environ.get("PATH", "")
    runs = fake_cc_on_path(tmp_path, monkeypatch, FAKE_BODIES["unloadable"])
    assert cscan.load() is None
    assert len(list(cscan.CACHE.glob("_scan-*.so"))) == 1
    monkeypatch.setenv("PATH", path)
    rebuilt = cscan.load()
    assert rebuilt is not None and rebuilt.eager_next is not None
    assert runs.read_text() == "run\n"
    assert_no_child_left()


def test_a_rebuild_that_cannot_load_gives_none(tmp_path, monkeypatch):
    monkeypatch.setattr(cscan, "CACHE", tmp_path / "__pycache__")
    runs = fake_cc_on_path(tmp_path, monkeypatch, FAKE_BODIES["unloadable"])
    assert cscan.load() is None
    runs.unlink()
    assert cscan.load() is None
    assert runs.read_text() == "run\n"  # one rebuild
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert_no_child_left()
