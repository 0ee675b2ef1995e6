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

from msclust import build_matrix, core, cscan, dynmsc, fastermsc, fastmsc, init_random
from msclust.fastmsc import make_state

from helpers import assert_no_child_left, uniform_instance
from test_properties import awkward_matrices
from test_scan_kernel import assert_same_bits, blob_grid, reference_block_totals, tied_instance

fm = importlib.import_module("msclust.fastmsc")
dynmsc_module = importlib.import_module("msclust.dynmsc")


@st.composite
def scan_inputs(draw):
    """(state, J): few distinct values, duplicate points and zero blocks,
    integer points under Manhattan, or uniform points; every zero made
    -0.0 or not; k from 2 (d3 = inf); all candidates or a run of them."""
    kind = draw(st.sampled_from(["awkward", "manhattan", "uniform"]))
    if kind == "awkward":
        matrix = draw(awkward_matrices(min_n=3))
    else:
        n = draw(st.integers(3, 40))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        matrix = (build_matrix(rng.integers(0, 4, (n, 2)), metric="manhattan")
                  if kind == "manhattan" else build_matrix(rng.random((n, 2))))
    if draw(st.booleans()):
        matrix[matrix == 0] = -0.0
    n = len(matrix)
    k = draw(st.integers(2, min(8, n - 1)))
    state = make_state(matrix, init_random(n, k, draw(st.integers(0, 2**16))))
    J = np.flatnonzero(~state.is_medoid)
    start = draw(st.integers(0, len(J) - 1))
    return state, J[start:draw(st.integers(start + 1, len(J)))]


def scores(state, J, kernel):
    """block_totals on the given kernel handle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fm, "_kernel", kernel)
        return fm.block_totals(state, J)


@settings(deadline=None, max_examples=300)
@given(scan_inputs())
def test_the_kernel_gives_the_numpy_bits(kernel, inputs):
    state, J = inputs
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    for got, want in zip(scores(state, J, counted), scores(state, J, None)):
        assert_same_bits(got, want)
    assert len(calls) == 1


@pytest.mark.parametrize("data", ["uniform", "tied", "blobs"])
def test_both_paths_make_the_same_runs(kernel, data):
    matrix = {"uniform": lambda: uniform_instance(300, seed=4),
              "tied": lambda: tied_instance(300, 4),
              "blobs": lambda: blob_grid(2)}[data]()
    m0 = init_random(len(matrix), 12, seed=4)

    def runs(handle):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "_kernel", handle)
            results = [fastmsc(matrix, m0), fastermsc(matrix, m0)]
            results += dynmsc(matrix, k_max=12, seed=4).per_k.values()
        return [fields(r) for r in results]

    assert runs(kernel) == runs(None)


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
            "fm = sys.modules['msclust.fastmsc']\n"
            "assert fm._kernel is False and 'msclust.cscan' not in sys.modules\n"
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
            "    assert fm._kernel is not None and 'subprocess' not in sys.modules\n"
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
    state = make_state(matrix, init_random(40, 4, seed=8))
    J = np.flatnonzero(~state.is_medoid)
    csv = tmp_path / "matrix.csv"
    csv.write_text("\n".join(",".join(map(repr, row)) for row in matrix.tolist()))
    monkeypatch.setattr(fm, "_kernel", None)
    numpy_runs = optimizer_runs(matrix, 4, 8)
    monkeypatch.setattr(fm, "_kernel", False)

    # the CSV loader makes the first load attempt, and reads token by token
    started = time.monotonic()
    assert core.load_matrix_csv(csv).tobytes() == matrix.tobytes()
    got = fm.block_totals(state, J)
    assert time.monotonic() - started < 20
    assert fm._kernel is None
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


def test_a_fortran_ordered_matrix_is_scored_with_numpy(monkeypatch):
    matrix = uniform_instance(50, seed=3)
    m0 = init_random(50, 4, seed=3)
    state = make_state(np.asfortranarray(matrix), m0)
    J = np.flatnonzero(~state.is_medoid)

    def refuse(*args):
        raise AssertionError("the kernel was given a Fortran-ordered matrix")

    refuse.rescan = refuse.eager_next = refuse
    monkeypatch.setattr(fm, "_kernel", refuse)
    for a, b in zip(fm.block_totals(state, J), reference_block_totals(state, J)):
        assert_same_bits(a, b)
    fortran = optimizer_runs(np.asfortranarray(matrix), 4, 3)
    monkeypatch.setattr(fm, "_kernel", None)
    assert fortran == optimizer_runs(matrix, 4, 3)
    assert_no_child_left()


def optimizer_runs(matrix, k, seed):
    """The fields of every optimizer's run from init_random(n, k, seed)."""
    m0 = init_random(len(matrix), k, seed)
    results = [fastmsc(matrix, m0), fastermsc(matrix, m0)]
    results += dynmsc(matrix, k_max=k, seed=seed).per_k.values()
    return [fields(r) for r in results]


def counting(kernel, calls):
    """A kernel handle that counts the calls of each C function in calls
    and the codes that eager_next returns."""
    def block_totals(*args):
        calls["block_totals"] += 1
        return kernel(*args)

    def rescan(*args):
        calls["rescan"] += 1
        return kernel.rescan(*args)

    def eager_next(*args):
        code = kernel.eager_next(*args)
        calls[code] += 1
        return code

    block_totals.rescan, block_totals.eager_next = rescan, eager_next
    return block_totals


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
    calls = collections.Counter()
    runs = []
    for handle in (counting(kernel, calls), None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "_kernel", handle)
            state = make_state(matrix, m0)
            converged = fm._fastermsc_state(state, max_iter)
            sweep = dynmsc(matrix, k_max=len(m0), seed=len(matrix), max_iter=max_iter)
        runs.append((fields(fm._result(state, converged)), state_bits(state),
                     [fields(r) for r in sweep.per_k.values()], sweep.best_k))
    assert runs[0] == runs[1]
    assert calls[fm.CONVERGED] + calls[fm.OUT_OF_PASSES] == 1 + len(runs[0][2])


@settings(deadline=None, max_examples=200)
@given(scan_inputs(), st.data())
def test_the_c_rescan_gives_the_numpy_bits(kernel, inputs, data):
    base, _ = inputs
    n, k = len(base.matrix), base.k
    position = data.draw(st.integers(0, k - 1))
    replacement = data.draw(st.sampled_from(np.flatnonzero(~base.is_medoid).tolist()))
    drop = data.draw(st.integers(0, k - 2))
    calls = collections.Counter()
    bits = []
    for handle in (counting(kernel, calls), None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "_kernel", handle)
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
    assert bits[0] == bits[1]
    assert calls["rescan"] == 4 + (k > 2)


def test_the_eager_loop_returns_once_per_distance_budget(kernel, monkeypatch):
    matrix = blob_grid(3)
    m0 = init_random(len(matrix), 20, seed=3)
    monkeypatch.setattr(fm, "_kernel", kernel)
    expected = fields(fastermsc(matrix, m0))
    machines = []
    compiled = fm._eager_compiled

    def kept_machine(state, machine):
        machines.append(machine)
        return compiled(state, machine)

    calls = collections.Counter()
    budget = 2 * core.block_rows(len(matrix)) * len(matrix)  # two blocks of the widest
    monkeypatch.setattr(fm, "_eager_compiled", kept_machine)
    monkeypatch.setattr(fm, "_kernel", counting(kernel, calls))
    monkeypatch.setattr(fm, "EAGER_DISTANCES", budget)
    assert fields(fastermsc(matrix, m0)) == expected
    (machine,), returns = machines, sum(calls[code] for code in range(5))
    assert calls[fm.PAUSED] > 0
    assert returns * budget >= machine[fm.SCORED] * len(matrix)


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
