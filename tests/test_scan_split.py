"""fastmsc's steepest pass split over forked children: find_best_swap
with workers > 1 deals its candidates in shares, scores one here and
the others in os.fork children, and joins the parts in candidate order.
Every result must be the bits of the unsplit pass, and no child may
outlive the call. SHARE_DISTANCES is set low here, so that 40-60 point
inputs split into 2 and 3 shares."""

import importlib
import json
import os
import re
import time

import numpy as np
import pytest

from msclust import build_matrix, fastmsc, init_random, pammedsil
from msclust.cli import main
from msclust.fastmsc import find_best_swap, make_state, update_caches_after_swap

from helpers import assert_no_child_left, uniform_instance, use_cpus

fm = importlib.import_module("msclust.fastmsc")


@pytest.fixture(autouse=True)
def small_shares(monkeypatch):
    monkeypatch.setattr(fm, "SHARE_DISTANCES", 256)
    yield
    assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from this process."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def tie_heavy(n: int, seed: int) -> np.ndarray:
    """A symmetric matrix with entries from {0, 0.5, 1, 2}: many equal
    totals, so the tie-breaks decide the swap."""
    upper = np.triu(np.random.default_rng(seed).choice([0.0, 0.5, 1.0, 2.0], (n, n)), 1)
    return upper + upper.T


def swap_sequence(matrix, medoids, workers, steps=4):
    """find_best_swap's candidates along a descent of up to steps swaps."""
    state, found = make_state(matrix, medoids), []
    for _ in range(steps):
        cand = find_best_swap(state, workers)
        found.append(cand and (cand, cand.gain.hex()))
        if cand is None:
            break
        update_caches_after_swap(state, cand.medoid_position, cand.replacement)
    return found


@pytest.mark.parametrize("kind", ["uniform", "tie-heavy"])
@pytest.mark.parametrize("seed", range(4))
def test_every_share_count_finds_the_same_swap(kind, seed, forks):
    n = 40 + 5 * seed
    matrix = uniform_instance(n, seed=600 + seed) if kind == "uniform" else tie_heavy(n, seed)
    medoids = init_random(n, 3 + seed, seed=seed)
    one = swap_sequence(matrix, medoids, 1)
    assert forks == []
    for workers in (2, 3):
        assert swap_sequence(matrix, medoids, workers) == one
        assert len(forks) == (workers - 1) * len(one)  # every pass split
        forks.clear()


def test_split_fastmsc_makes_pammedsil_swaps(forks):
    """The instances of test_fastmsc's pammedsil equivalence, at 3 workers."""
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(15, 80))
        k = int(rng.integers(2, 7))
        mat = uniform_instance(n, seed=500 + trial)
        m0 = init_random(n, k, seed=trial)
        split, one = fastmsc(mat, m0, workers=3), fastmsc(mat, m0)
        naive = pammedsil(mat, m0)
        assert sorted(split.medoids.tolist()) == sorted(naive.medoids.tolist())
        assert split.swaps == naive.swaps
        assert split.ams == pytest.approx(naive.ams, abs=1e-9)
        assert (split.medoids.tolist(), split.swaps, split.iterations, split.ams.hex()) == (
            one.medoids.tolist(), one.swaps, one.iterations, one.ams.hex())
    assert forks


def test_a_library_call_never_forks(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    mat = uniform_instance(60, seed=3)
    assert fastmsc(mat, init_random(60, 5, seed=3)).converged
    assert fastmsc(mat, init_random(60, 5, seed=3), workers=1).converged


class TestCli:
    """cluster --algorithm fastmsc --init build runs once, so every usable
    CPU but this process's scores a share of each pass."""

    @pytest.fixture
    def argv(self, tmp_path):
        points = np.random.default_rng(8).random((50, 2))
        path = tmp_path / "points.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
        return ["cluster", "--input", str(path), "--k", "5", "--algorithm", "fastmsc",
                "--init", "build", "--asw", "--plot-data", str(tmp_path / "plot.csv")]

    @staticmethod
    def run(argv, capsys):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert_no_child_left()
        with open(argv[-1], "rb") as fh:
            plot = fh.read()
        return rc, re.sub(r'"seconds": [^,}]*', '"seconds": 0', out), err, plot

    def test_every_cpu_count_gives_the_same_bytes(self, argv, monkeypatch, capsys, forks):
        use_cpus(monkeypatch, 1)
        sequential = self.run(argv, capsys)
        assert sequential[0] == 0 and json.loads(sequential[1])["swaps"] > 0
        assert forks == []
        for cpus in (2, 3):
            use_cpus(monkeypatch, cpus)
            assert self.run(argv, capsys) == sequential, cpus
            assert forks  # the CLI process split its passes
            forks.clear()

    @pytest.mark.parametrize("loss", ["exit", "fork", "pipe"])
    def test_a_lost_share_gives_the_sequential_output(self, argv, monkeypatch, capsys, loss):
        use_cpus(monkeypatch, 1)
        sequential = self.run(argv, capsys)
        parent, real = os.getpid(), fm._best_positions

        def dying(state, J):
            if os.getpid() != parent:
                os._exit(0)  # before the child sends anything
            return real(state, J)

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        def no_pipe():
            raise OSError(24, "Too many open files")

        if loss == "exit":
            monkeypatch.setattr(fm, "_best_positions", dying)
        elif loss == "fork":
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.setattr(os, "pipe", no_pipe)
        use_cpus(monkeypatch, 3)
        assert self.run(argv, capsys) == sequential

    def test_an_interrupt_kills_the_scan_children(self, argv, monkeypatch, capsys, forks):
        parent, real = os.getpid(), fm._best_positions

        def interrupted(state, J):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(fm, "_best_positions", interrupted)
        use_cpus(monkeypatch, 3)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert time.perf_counter() - started < 30
        assert capsys.readouterr() == ("", "")
        assert len(forks) == 2
