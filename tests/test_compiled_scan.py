"""The compiled scan kernel (``_scan.c``, built by ``msclust.cscan``): the
numpy body's exact bits on awkward inputs, and the numpy body wherever the
kernel cannot be built, loaded or used."""

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

from msclust import build_matrix, cscan, dynmsc, fastermsc, fastmsc, init_random
from msclust.fastmsc import make_state

from helpers import assert_no_child_left, uniform_instance
from test_properties import awkward_matrices
from test_scan_kernel import assert_same_bits, blob_grid, reference_block_totals, tied_instance

fm = importlib.import_module("msclust.fastmsc")


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


def test_nothing_is_loaded_at_import():
    code = ("import sys, msclust.cli\n"
            "fm = sys.modules['msclust.fastmsc']\n"
            "assert fm._kernel is False and 'msclust.cscan' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cscan.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
    state = make_state(uniform_instance(40, seed=8), init_random(40, 4, seed=8))
    J = np.flatnonzero(~state.is_medoid)
    monkeypatch.setattr(fm, "_kernel", False)

    started = time.monotonic()
    got = fm.block_totals(state, J)
    assert time.monotonic() - started < 20
    assert fm._kernel is None
    for a, b in zip(got, reference_block_totals(state, J)):
        assert_same_bits(a, b)
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

    monkeypatch.setattr(fm, "_kernel", refuse)
    for a, b in zip(fm.block_totals(state, J), reference_block_totals(state, J)):
        assert_same_bits(a, b)
    fortran = fields(fastermsc(np.asfortranarray(matrix), m0))
    monkeypatch.setattr(fm, "_kernel", None)
    assert fortran == fields(fastermsc(matrix, m0))
    assert_no_child_left()
