import ctypes
import json
import os
import platform
import re
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import msclust
from msclust import ams, build_matrix, dynmsc, fastermsc, init_random, silhouette
from msclust import cli, cscan, pool
from msclust.cli import main
from msclust.core import MedoidError, load_points_csv

from helpers import LINE_POINTS, OVERFLOW_IDS, OVERFLOWS, assert_no_child_left, use_cpus


def write_points(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        for row in points:
            fh.write(",".join(str(v) for v in row) + "\n")


def write_blobs(path, seed=0, n=120):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])
    per = n // 4
    pts = np.vstack([c + rng.normal(0, 1, (per, 2)) for c in centers])
    write_points(path, pts.tolist())
    return np.repeat(np.arange(4), per)


@pytest.fixture
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    write_points(path, LINE_POINTS)
    return str(path)


class TestCluster:
    def test_line_json(self, line_csv, capsys):
        rc = main(["cluster", "--input", line_csv, "--k", "2", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ams"] == pytest.approx(0.95)
        assert payload["k"] == 2
        assert sorted(payload["medoids"]) in ([0, 3], [1, 2])
        assert len(payload["labels"]) == 4

    def test_csv_format(self, line_csv, capsys):
        rc = main(["cluster", "--input", line_csv, "--k", "2", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "point,label"
        assert len(lines) == 5

    def test_deterministic_excluding_seconds(self, line_csv, capsys):
        main(["cluster", "--input", line_csv, "--k", "2", "--seed", "7"])
        first = json.loads(capsys.readouterr().out)
        main(["cluster", "--input", line_csv, "--k", "2", "--seed", "7"])
        second = json.loads(capsys.readouterr().out)
        first.pop("seconds")
        second.pop("seconds")
        assert first == second

    def test_asw_flag(self, line_csv, capsys):
        main(["cluster", "--input", line_csv, "--k", "2", "--asw"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["asw"] == pytest.approx(0.8997493734335839)

    def test_pamsil_reports_asw_without_flag(self, line_csv, capsys):
        main(["cluster", "--input", line_csv, "--k", "2",
              "--algorithm", "pamsil"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["asw"] == pytest.approx(0.8997493734335839)

    def test_plot_data_file(self, line_csv, tmp_path, capsys):
        out = tmp_path / "plot.csv"
        main(["cluster", "--input", line_csv, "--k", "2",
              "--plot-data", str(out)])
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,point,width"
        assert len(lines) == 5

    def test_restarts_reach_optimum_on_blobs(self, tmp_path, capsys):
        path = tmp_path / "blobs.csv"
        write_blobs(path, seed=5)
        main(["cluster", "--input", str(path), "--k", "4",
              "--restarts", "5", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ams"] > 0.9

    @pytest.mark.parametrize("algorithm", ["fastmsc", "fastermsc"])
    def test_reported_ams_is_a_fresh_recompute(self, algorithm, tmp_path, capsys):
        for seed in range(8):
            path = tmp_path / f"blobs{seed}.csv"
            write_blobs(path, seed=seed, n=60)
            matrix = build_matrix(load_points_csv(str(path)))
            main(["cluster", "--input", str(path), "--k", "5", "--seed", str(seed),
                  "--restarts", "3", "--algorithm", algorithm])
            payload = json.loads(capsys.readouterr().out)
            assert payload["ams"] == ams(matrix, payload["medoids"])

    def test_reported_asw_is_a_fresh_recompute(self, tmp_path, capsys):
        for seed in range(8):
            path = tmp_path / f"blobs{seed}.csv"
            write_blobs(path, seed=seed, n=24)
            matrix = build_matrix(load_points_csv(str(path)))
            main(["cluster", "--input", str(path), "--k", "4", "--seed", str(seed),
                  "--restarts", "2", "--algorithm", "pamsil"])
            payload = json.loads(capsys.readouterr().out)
            assert payload["asw"] == silhouette(matrix, payload["labels"]).mean
            assert payload["ams"] == ams(matrix, payload["medoids"])

    def test_tied_restarts_report_the_earliest(self, tmp_path, capsys):
        path = tmp_path / "blobs.csv"
        write_blobs(path, seed=0, n=40)
        matrix = build_matrix(load_points_csv(str(path)))
        main(["cluster", "--input", str(path), "--k", "4", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        runs = [fastermsc(matrix, init_random(40, 4, seed=s)) for s in range(10)]
        tied = [r for r in runs if sorted(r.medoids.tolist()) == sorted(payload["medoids"])]
        # the case is only a test if the tied restarts did different work
        assert len({r.swaps for r in tied}) > 1
        first = tied[0]
        assert payload["medoids"] == first.medoids.tolist()
        assert (payload["swaps"], payload["iterations"]) == (first.swaps, first.iterations)

    def test_converged_flag(self, tmp_path, capsys):
        path = tmp_path / "blobs.csv"
        write_blobs(path, seed=0, n=40)
        flags = []
        for max_iter in ("1", "1000"):
            main(["cluster", "--input", str(path), "--k", "4", "--restarts", "1",
                  "--max-iter", max_iter])
            flags.append(json.loads(capsys.readouterr().out)["converged"])
        assert flags == [False, True]

    def test_build_init(self, line_csv, capsys):
        rc = main(["cluster", "--input", line_csv, "--k", "2",
                   "--init", "build", "--restarts", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ams"] == pytest.approx(0.95)

    def test_build_init_runs_once(self, line_csv, monkeypatch, capsys, tmp_path):
        import msclust.cli as cli

        seen = tmp_path / "calls"  # a file, so that calls made in a worker count too
        real = cli.ALGORITHMS["fastmsc"]

        def counting(matrix, medoids, max_iter, workers):
            with open(seen, "a", encoding="utf-8") as fh:
                fh.write("call\n")
            return real(matrix, medoids, max_iter=max_iter, workers=workers)

        monkeypatch.setitem(cli.ALGORITHMS, "fastmsc", counting)
        rc = main(["cluster", "--input", line_csv, "--k", "2", "--algorithm", "fastmsc",
                   "--init", "build", "--restarts", "5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["ams"] == pytest.approx(0.95)
        # every BUILD restart would repeat the same run
        assert len(seen.read_text(encoding="utf-8").splitlines()) == 1

    def test_matrix_kind(self, tmp_path, capsys):
        from msclust import build_matrix

        mat = build_matrix(LINE_POINTS)
        path = tmp_path / "mat.csv"
        write_points(path, mat.tolist())
        main(["cluster", "--input", str(path), "--kind", "matrix", "--k", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ams"] == pytest.approx(0.95)

    def test_output_file(self, line_csv, tmp_path, capsys):
        out = tmp_path / "result.json"
        main(["cluster", "--input", line_csv, "--k", "2", "-o", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["ams"] == pytest.approx(0.95)

    @pytest.mark.parametrize("kind", ["points", "matrix"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, kind):
        # Excel and PowerShell start UTF-8 files with a byte-order mark
        rows = LINE_POINTS if kind == "points" else build_matrix(LINE_POINTS).tolist()
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_points(plain, rows)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for path in (plain, bom):
            assert main(["cluster", "--input", str(path), "--kind", kind, "--k", "2"]) == 0
            payload = json.loads(capsys.readouterr().out)
            del payload["seconds"]
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
        plain.write_text("0,0\n1,0\n5,5\n6,5\n")
        gappy.write_text("0,0\n\n1,0\n\n\n5,5\n  \n6,5\n\n")
        outs = []
        for path in (plain, gappy):
            assert main(["cluster", "--input", str(path), "--k", "2"]) == 0
            payload = json.loads(capsys.readouterr().out)
            del payload["seconds"]
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_pamsil_on_duplicate_points(self, tmp_path, capsys):
        # a trial swap onto the twin of the other medoid leaves one cluster
        path = tmp_path / "dup.csv"
        path.write_text("0\n0\n5\n5\n10\n11\n")
        rc = main(["cluster", "--input", str(path), "--k", "2", "--algorithm", "pamsil"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(set(payload["labels"])) == 2


def running(pid):
    """Whether pid is a process that has not exited (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


class TestRestartWorkers:
    """cluster deals its restarts in consecutive shares, one per worker:
    this process and a forked child for each further usable CPU, so 5
    restarts on 3 CPUs are dealt as [0, 1] [2, 3] [4], and 4 as [0, 1] [2]
    [3]. The output must be the one restarts run one after another give,
    and no child may outlive main."""

    @pytest.fixture
    def points(self, tmp_path):
        # uniform points at k=6: restarts end in different local optima
        path = tmp_path / "points.csv"
        write_points(path, np.random.default_rng(2).random((40, 2)).tolist())
        return str(path)

    @staticmethod
    def run(argv, capsys):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert_no_child_left()
        return rc, re.sub(r'"seconds": [^,}]*', '"seconds": 0', out), err

    @pytest.mark.parametrize("algorithm", [
        ["fastermsc"], ["fastmsc"],
        ["pammedsil", "--max-iter", "2"], ["pamsil", "--max-iter", "2"],
    ], ids=lambda a: a[0])
    def test_workers_give_the_sequential_output(self, points, monkeypatch, capsys, algorithm):
        base = ["cluster", "--input", points, "--k", "6", "--seed", "4",
                "--algorithm", *algorithm]
        for extra in (*(["--restarts", str(r)] for r in range(1, 6)),
                      ["--restarts", "5", "--format", "csv"]):
            use_cpus(monkeypatch, 1)
            sequential = self.run(base + extra, capsys)
            assert sequential[0] == 0
            for cpus in (2, 3):
                use_cpus(monkeypatch, cpus)
                assert self.run(base + extra, capsys) == sequential, (extra, cpus)

    @pytest.mark.parametrize("failing,reported", [
        ({2, 4}, 2),   # in both children: the lower wins
        ({1, 3}, 1),   # 1 fails in this process, 3 in a child
        ({4}, 4),      # in the last child only
    ])
    def test_the_lowest_failing_restart_is_reported(self, points, monkeypatch, capsys,
                                                    failing, reported):
        real = cli._run_once

        def flaky(matrix, args, seed):
            if seed in failing:  # wherever it runs
                raise MedoidError(f"restart {seed} failed")
            return real(matrix, args, seed)

        monkeypatch.setattr(cli, "_run_once", flaky)
        use_cpus(monkeypatch, 3)
        argv = ["cluster", "--input", points, "--k", "6", "--restarts", "5"]
        assert self.run(argv, capsys) == (
            1, "", f"msclust: invalid configuration: restart {reported} failed\n")

    @pytest.mark.parametrize("loss", ["exit", "fork", "pipe"])
    def test_a_lost_worker_gives_the_sequential_output(self, points, monkeypatch, capsys,
                                                       loss):
        argv = ["cluster", "--input", points, "--k", "6", "--restarts", "5"]
        use_cpus(monkeypatch, 1)
        sequential = self.run(argv, capsys)
        parent, real = os.getpid(), cli._run_once

        def dying(matrix, args, seed):
            if os.getpid() != parent:
                os._exit(0)  # before the child sends anything
            return real(matrix, args, seed)

        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        def no_pipe():
            raise OSError(24, "Too many open files")

        if loss == "exit":
            monkeypatch.setattr(cli, "_run_once", dying)
        elif loss == "fork":
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.setattr(os, "pipe", no_pipe)
        use_cpus(monkeypatch, 3)
        assert self.run(argv, capsys) == sequential

    def test_a_failure_in_share_0_is_raised_before_a_lost_share_runs(
            self, points, monkeypatch, capsys):
        """Restart 0 fails in this process and every child dies before it
        sends: restart 0's error is reported, and no lost share runs here."""
        parent, real, ran = os.getpid(), cli._run_once, []

        def failing(matrix, args, seed):
            if os.getpid() != parent:
                os._exit(0)  # before the child sends anything
            ran.append(seed)
            if seed == 0:
                raise MedoidError("restart 0 failed")
            return real(matrix, args, seed)

        monkeypatch.setattr(cli, "_run_once", failing)
        use_cpus(monkeypatch, 3)
        argv = ["cluster", "--input", points, "--k", "6", "--restarts", "5"]
        assert self.run(argv, capsys) == (
            1, "", "msclust: invalid configuration: restart 0 failed\n")
        assert ran == [0]

    def test_an_interrupt_kills_the_workers(self, points, monkeypatch, capsys):
        parent, real = os.getpid(), cli._run_once

        def interrupted(matrix, args, seed):
            if os.getpid() != parent:
                time.sleep(60)
            elif seed == 1:
                raise KeyboardInterrupt
            return real(matrix, args, seed)

        monkeypatch.setattr(cli, "_run_once", interrupted)
        use_cpus(monkeypatch, 3)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            main(["cluster", "--input", points, "--k", "6", "--restarts", "5"])
        assert time.perf_counter() - started < 30
        assert capsys.readouterr() == ("", "")
        assert_no_child_left()

    @pytest.mark.parametrize("fail", [False, True], ids=["success", "decode-error"])
    def test_only_a_running_worker_is_signalled(self, points, monkeypatch, capsys, fail):
        """Every child passes the one cleanup site: a reaped child, whose pid
        may belong to another process by then, is never signalled."""
        parent, real_run, real_fork, real_kill = os.getpid(), cli._run_once, os.fork, os.kill
        real_loads, forks, kills = pool.pickle.loads, [], []

        def hanging(matrix, args, seed):
            if fail and seed == 3 and os.getpid() != parent:
                time.sleep(60)
            return real_run(matrix, args, seed)

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        def kill(pid, sig):
            kills.append((pid, sig))
            real_kill(pid, sig)

        def loads(data):
            if fail and os.getpid() == parent:
                raise MemoryError("decoding a share")
            return real_loads(data)

        monkeypatch.setattr(cli, "_run_once", hanging)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "kill", kill)
        monkeypatch.setattr(pool.pickle, "loads", loads)
        use_cpus(monkeypatch, 3)
        started = time.perf_counter()
        rc, out, err = self.run(["cluster", "--input", points, "--k", "6",
                                 "--restarts", "4"], capsys)
        assert time.perf_counter() - started < 30
        assert len(forks) == 2
        if fail:  # child 1 sent its share and is reaped; child 2 still sleeps
            assert (rc, out, err) == (2, "", "msclust: out of memory: decoding a share\n")
            assert kills == [(forks[1], 9)]
        else:
            assert rc == 0 and len(json.loads(out)["medoids"]) == 6
            assert kills == []

    @pytest.mark.parametrize("argv,cpus", [
        (["--restarts", "1"], 3),
        (["--init", "build"], 3),   # one run
        (["--restarts", "5"], 1),
        (["--restarts", "5"], None),  # no os.sched_getaffinity, as on macOS
    ])
    def test_one_run_or_cpu_forks_no_worker(self, points, monkeypatch, capsys, argv, cpus):
        def fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            use_cpus(monkeypatch, cpus)
        assert self.run(["cluster", "--input", points, "--k", "6", *argv], capsys)[0] == 0

    @pytest.mark.parametrize("files,cpus", [
        ({"cpu.max": "max 100000\n"}, 3),  # v2: no limit
        ({"cpu.max": "150000 100000\n"}, 2),  # v2: ceil(1.5)
        ({"cpu.cfs_quota_us": "-1\n", "cpu.cfs_period_us": "100000\n"}, 3),  # v1: no limit
        ({"cpu.cfs_quota_us": "50000\n", "cpu.cfs_period_us": "100000\n"}, 1),  # v1: ceil(0.5)
    ], ids=["v2-max", "v2-quota", "v1-unlimited", "v1-quota"])
    def test_workers_fit_in_the_cgroup_cpu_quota(self, points, monkeypatch, capsys, tmp_path,
                                                 files, cpus):
        """A CPU quota on this process's own cgroup caps the workers of a
        3-CPU affinity mask at ceil(quota / period)."""
        argv = ["cluster", "--input", points, "--k", "6", "--restarts", "5"]
        use_cpus(monkeypatch, 1)
        sequential = self.run(argv, capsys)
        controllers = "" if "cpu.max" in files else "cpu,cpuacct"
        own = tmp_path / "cgroup"  # the other hierarchies hold no CPU quota files
        own.write_text(f"5:memory:/job\n4:{controllers}:/job\n0::/\n" if controllers
                       else "0::/job\n")
        where = tmp_path / "fs" / controllers / "job"
        where.mkdir(parents=True)
        for name, text in files.items():
            (where / name).write_text(text)
        real_fork, forks = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(pool, "OWN_CGROUP", str(own))
        monkeypatch.setattr(pool, "CGROUP_ROOT", str(tmp_path / "fs"))
        assert self.run(argv, capsys) == sequential
        assert len(forks) == cpus - 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="only Linux kills the children of a killed process")
    def test_no_worker_outlives_a_killed_command(self, points, tmp_path):
        pids = tmp_path / "pids"
        code = ("import os, sys, time\n"
                "import msclust.cli as cli\n"
                "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                "def hang(matrix, args, seed):\n"
                "    with open(sys.argv[1], 'a') as fh:\n"
                "        fh.write(f'{os.getpid()}\\n')\n"
                "    time.sleep(60)\n"
                "cli._run_once = hang\n"
                "cli.main(sys.argv[2:])\n")
        src = os.path.dirname(os.path.dirname(msclust.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(pids), "cluster", "--input", points,
             "--k", "6", "--restarts", "3"], env=dict(os.environ, PYTHONPATH=src))
        workers = set()
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2:
                assert time.monotonic() < deadline, "the workers never started"
                time.sleep(0.05)
                if pids.exists():
                    workers = {int(p) for p in pids.read_text().split()} - {proc.pid}
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 10
        try:
            while any(map(running, workers)):
                assert time.monotonic() < deadline, "a worker outlived the command"
                time.sleep(0.05)
        finally:
            for pid in filter(running, workers):
                os.kill(pid, 9)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_restarts_come_back_in_order(self, monkeypatch, cpus):
        monkeypatch.setattr(cli, "_run_once", lambda matrix, args, seed: seed)
        use_cpus(monkeypatch, cpus)
        for restarts in range(1, 8):
            got = cli._run_restarts(None, types.SimpleNamespace(seed=10), restarts)
            assert got == list(range(10, 10 + restarts))
        assert_no_child_left()

    def test_a_worker_never_returns_into_main(self, points):
        """Each child ends in os._exit: it writes no output and runs no
        atexit handler of the process it was forked from."""
        code = ("import atexit, os, sys\n"
                "import msclust.cli as cli\n"
                "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                "atexit.register(print, 'atexit')\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(msclust.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code, "cluster", "--input", points, "--k", "6",
             "--restarts", "5"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 and lines[1] == "atexit"
        assert len(json.loads(lines[0])["medoids"]) == 6


class TestSweep:
    def test_blobs_pick_four(self, tmp_path, capsys):
        path = tmp_path / "blobs.csv"
        write_blobs(path, seed=0)
        rc = main(["sweep", "--input", str(path), "--k-max", "8",
                   "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_k"] == 4
        assert [e["k"] for e in payload["per_k"]] == list(range(2, 9))

    @pytest.mark.parametrize("max_iter", [1, 1000])
    def test_per_k_converged(self, max_iter, tmp_path, capsys):
        path = tmp_path / "blobs.csv"
        write_blobs(path, seed=0, n=60)
        main(["sweep", "--input", str(path), "--k-max", "6", "--max-iter", str(max_iter)])
        payload = json.loads(capsys.readouterr().out)
        sweep = dynmsc(build_matrix(load_points_csv(str(path))), k_max=6, max_iter=max_iter)
        flags = [e["converged"] for e in payload["per_k"]]
        assert flags == [sweep.per_k[k].converged for k in range(2, 7)]
        assert all(flags) == (max_iter == 1000)

    def test_csv_format(self, line_csv, capsys):
        rc = main(["sweep", "--input", line_csv, "--k-max", "3",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,ams"
        assert len(lines) == 3


class TestEval:
    def test_ari_nmi(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n0\n1\n1\n")
        b.write_text("x\nx\ny\ny\n")
        rc = main(["eval", "--labels-a", str(a), "--labels-b", str(b)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ari"] == 1.0
        assert payload["nmi"] == pytest.approx(1.0)

    def test_byte_order_mark_is_not_a_label(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_bytes(b"\xef\xbb\xbfa\na\nb\nb\n")
        b.write_bytes(b"a\na\nb\nb\n")
        rc = main(["eval", "--labels-a", str(a), "--labels-b", str(b)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ari"] == 1.0
        assert payload["nmi"] == pytest.approx(1.0)


class TestExitCodes:
    def test_bad_config_unknown_flag(self, line_csv):
        for argv in (["cluster", "--input", line_csv, "--k", "2", "--nope"],
                     ["cluster", "--input", line_csv, "--k", "2", "--shuffle"],  # a removed flag
                     ["bench", "--sizes", "30", "--ks", "2"]):  # a removed verb
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1

    def test_bad_config_k_out_of_range(self, line_csv, capsys):
        rc = main(["cluster", "--input", line_csv, "--k", "9"])
        assert rc == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_bad_input_missing_file(self, capsys):
        rc = main(["cluster", "--input", "/nonexistent.csv", "--k", "2"])
        assert rc == 2

    def test_bad_input_row_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        rc = main(["cluster", "--input", str(path), "--k", "2"])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    def test_partly_numeric_first_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("abc,1\n0,0\n3,4\n0,1\n")
        rc = main(["cluster", "--input", str(path), "--k", "2"])
        assert rc == 2
        assert "row 1" in capsys.readouterr().err

    def test_bad_matrix(self, tmp_path, capsys):
        path = tmp_path / "asym.csv"
        path.write_text("0,1,2\n1,0,3\n2,4,0\n")
        rc = main(["cluster", "--input", str(path), "--kind", "matrix",
                   "--k", "2"])
        assert rc == 3
        assert "matrix invariant" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("0,1,2,3\n1,0,1,2\n2,1,0,1\n", "expected a square matrix, got shape (3, 4)"),
        ("0,1,nan\n1,0,1\nnan,1,0\n", "matrix contains non-finite values"),
        ("0,1,inf\n1,0,1\ninf,1,0\n", "matrix contains non-finite values"),
    ], ids=["3x4", "nan", "inf"])
    def test_bad_matrix_shape_or_entries(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        rc = main(["cluster", "--input", str(path), "--kind", "matrix", "--k", "2"])
        assert rc == 3
        assert capsys.readouterr().err == f"msclust: matrix invariant violation: {message}\n"

    @pytest.mark.parametrize("metric,points", OVERFLOWS, ids=OVERFLOW_IDS)
    def test_overflowing_points_are_bad_input(self, tmp_path, capsys, metric, points):
        path = tmp_path / "huge.csv"
        write_points(path, points)
        rc = main(["cluster", "--input", str(path), "--k", "2", "--metric", metric])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"msclust: bad input: a {metric} distance overflows float64 (")
        assert err.count("\n") == 1

    def test_out_of_memory(self, monkeypatch, capsys, line_csv):
        message = ("Unable to allocate 2.98 GiB for an array with shape (20000, 20000) "
                   "and data type float64")

        def no_memory(points, metric):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "build_matrix", no_memory)
        rc = main(["cluster", "--input", line_csv, "--k", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"msclust: out of memory: {message}\n"

    def test_header_only(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("x,y\n")
        rc = main(["cluster", "--input", str(path), "--k", "2"])
        assert rc == 2
        assert capsys.readouterr().err == "msclust: bad input: no data rows found\n"

    def test_build_init_k_out_of_range(self, line_csv, capsys):
        rc = main(["cluster", "--input", line_csv, "--init", "build", "--k", "9"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "msclust: invalid configuration: need 2 <= k < n, got k=9, n=4\n")

    @pytest.mark.parametrize("algorithm", [["--algorithm", "pamsil"],
                                           ["--algorithm", "fastermsc", "--asw"]],
                             ids=["pamsil", "asw"])
    def test_one_cluster_has_no_full_silhouette(self, tmp_path, capsys, algorithm):
        path = tmp_path / "same.csv"
        path.write_text("3\n3\n3\n3\n3\n")
        rc = main(["cluster", "--input", str(path), "--k", "2"] + algorithm)
        assert rc == 2
        assert capsys.readouterr().err == "msclust: bad input: need at least 2 clusters\n"

    @pytest.mark.parametrize("argv,flag", [
        (["cluster", "--k", "2", "--restarts", "0"], "--restarts"),
        (["cluster", "--k", "2", "--max-iter", "0"], "--max-iter"),
        (["cluster", "--k", "2", "--algorithm", "fastmsc", "--max-iter", "-5"], "--max-iter"),
        (["sweep", "--k-max", "3", "--max-iter", "0"], "--max-iter"),
        (["cluster", "--k", "2", "--seed", "-3"], "--seed"),
        (["sweep", "--seed", "-3"], "--seed"),
        (["cluster", "--k", "2", "--restarts", str(2**63)], "--restarts"),
        (["cluster", "--k", "2", "--init", "build", "--restarts", str(2**63)], "--restarts"),
    ])
    def test_bad_budget_or_count(self, line_csv, capsys, argv, flag):
        rc = main(argv + ["--input", line_csv])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and flag in err

    @pytest.mark.parametrize("a,b,message", [
        (b"0\n0\n1\n", b"x\ny\n", "label lengths differ: 3 vs 2"),
        (b"0\n", b"x\n", "need at least 2 samples"),
        (b"", b"", "need at least 2 samples"),
    ], ids=["lengths-differ", "one-each", "empty"])
    def test_label_file_messages(self, tmp_path, capsys, a, b, message):
        (tmp_path / "a.txt").write_bytes(a)
        (tmp_path / "b.txt").write_bytes(b)
        rc = main(["eval", "--labels-a", str(tmp_path / "a.txt"),
                   "--labels-b", str(tmp_path / "b.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"msclust: bad input: {message}\n"

    @pytest.mark.parametrize("a,b", [
        (b"0\n0\n1\n", b"x\ny\n"),   # lengths differ
        (b"0\n", b"x\n"),              # one label each
        (b"0\n\xff\n1\n", b"x\ny\nz\n"),  # not UTF-8
    ])
    def test_bad_label_files(self, tmp_path, capsys, a, b):
        (tmp_path / "a.txt").write_bytes(a)
        (tmp_path / "b.txt").write_bytes(b)
        rc = main(["eval", "--labels-a", str(tmp_path / "a.txt"),
                   "--labels-b", str(tmp_path / "b.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("msclust: bad input: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", [["cluster", "--k", "2"], ["sweep"]])
    def test_non_utf8_csv(self, tmp_path, capsys, verb):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"0,0\n1,\xff\n3,4\n0,1\n")
        rc = main(verb + ["--input", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("msclust: bad input: ") and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    """Every CLI job pays for its imports; scipy's took about 0.5 s, and
    statistics with the fractions and decimal it pulls in about 5 ms."""
    src = os.path.dirname(os.path.dirname(msclust.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, msclust.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'statistics', 'fractions', 'decimal')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_a_job_loads_no_numpy_ma_or_multiprocessing(tmp_path):
    """A job pays for every module it loads: numpy.ma, which np.unique
    loads on numpy 2, took 14-21 ms, and multiprocessing 26-58 ms. numpy
    1.24 loads numpy.ma at import, so only what the jobs add is compared."""
    path = tmp_path / "blobs.csv"
    write_blobs(path, n=40)
    out = str(tmp_path / "out")
    labels = tmp_path / "labels.txt"
    labels.write_text("a\nb\na\nc\n")
    jobs = [["cluster", "--input", str(path), "--k", "4", "--restarts", "3", "-o", out],
            ["sweep", "--input", str(path), "--k-max", "6", "-o", out],
            ["cluster", "--input", str(path), "--k", "4", "--asw",
             "--plot-data", str(tmp_path / "plot.csv"), "-o", out],
            ["eval", "--labels-a", str(labels), "--labels-b", str(labels), "-o", out]]
    code = ("import json, os, sys\n"
            "import msclust.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "before = set(sys.modules)\n"
            "assert all(cli.main(argv) == 0 for argv in json.loads(sys.argv[1]))\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.split('.')[0] == 'multiprocessing'\n"
            "             or m.split('.')[:2] == ['numpy', 'ma']))\n")
    src = os.path.dirname(os.path.dirname(msclust.__file__))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(jobs)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


class TestAllocatorThresholds:
    """main keeps freed memory in the heap where glibc's mallopt exists,
    and runs unchanged where it does not."""

    # argv[1] is the hook (on or off) and the scan (numpy or compiled); the
    # library loads inside the count, and on the compiled scan it is wrapped
    # to count its calls, of which the numpy scan must make none
    CHILD = (
        "import resource, sys\n"
        "import msclust.cli as cli\n"
        "from msclust import core\n"
        "hook, scan = sys.argv[1].split('-')\n"
        "if hook == 'off':\n"
        "    cli._keep_freed_memory = lambda: None\n"
        "calls = []\n"
        "class Counting:\n"
        "    def __getattr__(self, name):\n"
        "        if not hasattr(Counting, 'library'):\n"
        "            from msclust import cscan\n"
        "            Counting.library = cscan.load()\n"
        "        function = getattr(Counting.library, name)\n"
        "        return lambda *args: calls.append(name) or function(*args)\n"
        "core._library = None if scan == 'numpy' else Counting()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "code = cli.main(sys.argv[2:])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert (scan == 'compiled') == bool(calls), len(calls)\n"
        "sys.stderr.write(str(after - before))\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_sweep_stops_faulting_its_blocks_back_in(self, tmp_path):
        # 450 points in 12 planted 8-D blobs, the size of the benchmark's sweep
        rng = np.random.default_rng(11)
        centres = rng.uniform(0.0, 40.0, (12, 8))
        points = centres[np.arange(450) % 12] + rng.normal(0.0, 1.0, (450, 8))
        path = tmp_path / "matrix.csv"
        write_points(path, build_matrix(points, metric="manhattan").tolist())
        argv = ["sweep", "--kind", "matrix", "--input", str(path), "--k-max", "20"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(msclust.__file__)))
        # the numpy scan's block temporaries are what the hook keeps in the
        # heap; the compiled scan allocates none, so its sweep is only held
        # to the faults of the numpy sweep with the hook. Built here first,
        # the kernel is loaded, not compiled, inside the child's count.
        modes = ["on-numpy", "off-numpy"]
        if cscan.load() is not None:
            modes.append("on-compiled")
        runs = {mode: subprocess.run([sys.executable, "-c", self.CHILD, mode, *argv],
                                     env=env, check=True, capture_output=True)
                for mode in modes}
        faults = {mode: int(run.stderr) for mode, run in runs.items()}
        # sweep output has no seconds key, so the outputs match byte for byte
        assert len({run.stdout for run in runs.values()}) == 1
        assert faults["on-numpy"] < faults["off-numpy"] / 2
        assert faults.get("on-compiled", 0) <= faults["on-numpy"]

    def test_sets_the_trim_and_mmap_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_memory()
        assert calls == [(-1, 64 << 20), (-3, 32 << 20)]

    @pytest.mark.parametrize("error", [OSError, TypeError, None],
                             ids=["no-library", "no-handle", "no-mallopt"])
    def test_runs_without_mallopt(self, line_csv, capsys, monkeypatch, error):
        argv = ["cluster", "--input", line_csv, "--k", "2"]
        assert main(argv) == 0
        expected = json.loads(capsys.readouterr().out)

        def cdll(name):
            if error is None:
                return object()  # a C library without mallopt, as on macOS
            raise error("no C library")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(argv) == 0
        got = json.loads(capsys.readouterr().out)
        del expected["seconds"], got["seconds"]
        assert got == expected
