"""Command-line front end.

Verbs:
  cluster  run one algorithm at a fixed k on a matrix or points file
  sweep    descending-k cluster-count selection
  bench    timing grid over (n, k, algorithm) cells on synthetic data
  eval     ARI/NMI between two label files

cluster deals its restarts across the usable CPUs (restrict them with
taskset) and reports the best; among equal qualities the earliest
restart wins, so the output is the same as on one CPU. BUILD without
--shuffle is deterministic, so it runs once. Each verb returns its
output text; main alone writes it to --output or stdout and maps errors
to exit codes.

Exit codes: 0 success, 1 invalid configuration, 2 unreadable or
malformed input, 3 dissimilarity-matrix invariant violation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pickle
import sys
import time

import numpy as np

from .dynmsc import SweepResult, dynmsc
from .core import (
    DEFAULT_MAX_ITER,
    InputError,
    MatrixError,
    MedoidError,
    METRICS,
    build_matrix,
    csv_text,
    init_build,
    init_random,
    load_matrix_csv,
    load_points_csv,
    nearest_three_all,
)
from .extval import ari, nmi
from .fastmsc import fastermsc, fastmsc
from .naive import pammedsil, pamsil
from .silhouette import (medoid_result, medoid_silhouette, plot_data_csv, silhouette,
                         silhouette_plot_data)

ALGORITHMS = {
    "pamsil": pamsil,
    "pammedsil": pammedsil,
    "fastmsc": fastmsc,
    "fastermsc": fastermsc,
}

EXIT_BAD_CONFIG = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_MATRIX = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _load_matrix(args) -> np.ndarray:
    if args.kind == "matrix":
        return load_matrix_csv(args.input)
    points = load_points_csv(args.input)
    return build_matrix(points, metric=args.metric)


def _require_at_least(least: float, **values: float) -> None:
    for name, value in values.items():
        if not value >= least:  # so NaN fails too
            raise ConfigError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")


def _run_once(matrix: np.ndarray, args, seed: int):
    n = len(matrix)
    if args.shuffle:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        work = matrix[np.ix_(perm, perm)]
    else:
        perm = None
        work = matrix

    if args.init == "build":
        m0 = init_build(work, args.k)
    else:
        m0 = init_random(n, args.k, seed)
    result = ALGORITHMS[args.algorithm](work, m0, max_iter=args.max_iter)

    if perm is not None:
        # map back and re-sum in the input's point order, like a fresh recompute
        medoids, asw = perm[result.medoids], result.asw
        result = medoid_result(nearest_three_all(matrix, medoids), medoids,
                               result.swaps, result.iterations, result.converged)
        if asw is not None:
            result.asw = silhouette(matrix, result.labels).mean
    return result


def _run_restarts(matrix: np.ndarray, args, restarts: int) -> list:
    """The results of restarts 0 .. restarts-1, in restart order.

    Restart r runs in worker r % workers (see _worker_count): worker 0 is
    this process, the others are children made with os.fork. A share whose
    child sends no result runs here instead. The lowest failing restart's
    error is raised, as it would be one restart after another. The finally
    kills and reaps every child not reaped yet, also on an error or interrupt."""
    workers = _worker_count(matrix, args, restarts)
    shares = [range(w, restarts, workers) for w in range(workers)]
    children = []  # _fork_share's (pid, read end) or None, for workers 1 ..
    try:
        for share in shares[1:]:
            children.append(_fork_share(matrix, args, share))
        outcomes = [_run_share(matrix, args, shares[0])]
        outcomes += [_receive(*child) if child else None for child in children]
    finally:
        for pid, reader in filter(None, children):
            reader.close()
            _kill(pid)
    results = []
    for r in range(restarts):
        w = r % workers
        if outcomes[w] is None:  # no child, or it died before it sent its share
            outcomes[w] = _run_share(matrix, args, shares[w])
        ok, value = outcomes[w][r // workers]
        if not ok:
            raise value
        results.append(value)
    return results


def _worker_count(matrix: np.ndarray, args, restarts: int) -> int:
    """One worker per usable CPU, up to the number of restarts. With
    --shuffle each worker holds its own shuffled copy of the matrix, so
    only as many as there is free memory for. Without os.sched_getaffinity
    (macOS, Windows) there is one. CPU quotas of a cgroup are not seen."""
    cpus = getattr(os, "sched_getaffinity", None)
    workers = min(len(cpus(0)), restarts) if cpus else 1
    if args.shuffle and workers > 1:
        free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        workers = max(1, min(workers, free // max(matrix.nbytes, 1)))
    return workers


def _run_share(matrix, args, share: range) -> list:
    """(ok, result or exception) of the restarts in share, up to the first
    that fails: a later one cannot be the lowest failing restart."""
    outcomes = []
    for r in share:
        try:
            outcomes.append((True, _run_once(matrix, args, args.seed + r)))
        except Exception as exc:  # raised again, in restart order, by _run_restarts
            outcomes.append((False, exc))
            break
    return outcomes


def _fork_share(matrix, args, share: range):
    """(pid, read end) of a child that pickles _run_share's outcomes into a
    pipe, or None if no pipe or child can be made. The child writes nothing
    else and ends in os._exit: it never returns into main nor runs an
    atexit handler."""
    parent, fds = os.getpid(), ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            _die_with(parent)
            os.close(read_fd)
            data = pickle.dumps(_run_share(matrix, args, share))
            with open(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _die_with(parent: int) -> None:
    """Have Linux SIGKILL this child when its parent dies, by a signal
    too, and exit now if the parent died before that was set."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):  # not Linux: no prctl
        return
    prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
    if os.getppid() != parent:
        os._exit(1)


def _receive(pid: int, reader):
    """The outcomes a child sent, or None if it exited without sending
    them all. The child is reaped; _run_restarts closes the reader."""
    data = reader.read()
    status = os.waitpid(pid, 0)[1]
    if data and os.waitstatus_to_exitcode(status) == 0:
        return pickle.loads(data)
    return None


def _kill(pid: int) -> None:
    """Kill and reap a child that is not reaped yet. A pid that is reaped
    already may belong to another process by now: it is left alone."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0]:  # it had exited: now reaped
            return
        os.kill(pid, 9)  # SIGKILL
        os.waitpid(pid, 0)
    except ChildProcessError:  # reaped already
        pass


def cmd_cluster(args) -> str:
    _require_at_least(1, restarts=args.restarts, max_iter=args.max_iter)
    _require_at_least(0, seed=args.seed)
    matrix = _load_matrix(args)

    restarts = args.restarts if args.shuffle or args.init == "random" else 1
    started = time.perf_counter()
    results = _run_restarts(matrix, args, restarts)
    # only pamsil sets asw, the quality it optimizes
    best = max(results, key=lambda r: r.ams if r.asw is None else r.asw)
    seconds = time.perf_counter() - started

    asw = best.asw
    if args.asw and asw is None:
        asw = silhouette(matrix, best.labels).mean

    payload = {
        "algorithm": args.algorithm,
        "k": args.k,
        "ams": best.ams,
    }
    if asw is not None:
        payload["asw"] = asw
    payload.update({
        "medoids": [int(m) for m in best.medoids],
        "labels": [int(l) for l in best.labels],
        "swaps": best.swaps,
        "iterations": best.iterations,
        "converged": best.converged,
        "seconds": seconds,
    })

    if args.plot_data:
        report = medoid_silhouette(matrix, best.medoids)
        rows = silhouette_plot_data(report, best.labels)
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write(plot_data_csv(rows))

    if args.format == "csv":
        return csv_text("point,label", enumerate(payload["labels"]))
    return json.dumps(payload) + "\n"


def sweep_to_json(sweep: SweepResult) -> str:
    """JSON serialization:
    {"best_k": ..., "per_k": [{"k", "ams", "medoids", "converged"}]}."""
    return json.dumps({
        "best_k": sweep.best_k,
        "per_k": [
            {"k": k, "ams": sweep.per_k[k].ams,
             "medoids": [int(m) for m in sweep.per_k[k].medoids],
             "converged": sweep.per_k[k].converged}
            for k in sorted(sweep.per_k)
        ],
    })


def sweep_to_csv(sweep: SweepResult) -> str:
    """CSV serialization with header k,ams, one row per swept k."""
    return csv_text("k,ams", ((k, sweep.per_k[k].ams) for k in sorted(sweep.per_k)))


def cmd_sweep(args) -> str:
    _require_at_least(1, max_iter=args.max_iter)
    _require_at_least(0, seed=args.seed)
    matrix = _load_matrix(args)
    sweep = dynmsc(matrix, k_max=args.k_max, k_min=args.k_min,
                   seed=args.seed, max_iter=args.max_iter)
    if args.format == "csv":
        return sweep_to_csv(sweep)
    return sweep_to_json(sweep) + "\n"


def cmd_bench(args) -> str:
    _require_at_least(1, repeats=args.repeats, max_iter=args.max_iter)
    _require_at_least(0, seed=args.seed, timeout=args.timeout)
    sizes = _parse_int_list(args.sizes, "sizes")
    ks = _parse_int_list(args.ks, "ks")
    algos = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    if not sizes or not ks or not algos:
        raise ConfigError("sizes, ks, and algorithms must be non-empty")
    # every cell needs 2 <= k < n; checked before the first cell runs
    _require_at_least(2, ks=min(ks))
    _require_at_least(max(ks) + 1, sizes=min(sizes))

    rows = []
    for n in sizes:
        rng = np.random.default_rng(args.seed + n)
        matrix = build_matrix(rng.random((n, 2)))
        for k in ks:
            m0 = init_random(n, k, args.seed)
            for algo in algos:
                rows.append((algo, n, k, *_time_cell(ALGORITHMS[algo], matrix, m0, args)))
    return csv_text("algo,n,k,seconds,swaps,iters", rows)


def _time_cell(fn, matrix, m0, args):
    """The cell's seconds, swaps and iters: the median of the timed repeats
    and the last run's counts, or timeout as soon as the untimed warm-up or
    any repeat exceeds args.timeout."""
    times = []
    for run in range(args.repeats + 1):  # run 0 is the warm-up
        t0 = time.perf_counter()
        result = fn(matrix, m0, max_iter=args.max_iter)
        elapsed = time.perf_counter() - t0
        if args.timeout and elapsed > args.timeout:
            return "timeout", "", ""
        if run:
            times.append(elapsed)
    return float(np.median(times)), result.swaps, result.iterations


def cmd_eval(args) -> str:
    a = _load_labels(args.labels_a)
    b = _load_labels(args.labels_b)
    return json.dumps({"ari": ari(a, b), "nmi": nmi(a, b)}) + "\n"


def _load_labels(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return [line.strip() for line in fh if line.strip()]


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated integers") from None


def _add_input_args(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="input CSV file")
    p.add_argument("--kind", choices=("matrix", "points"), default="points",
                   help="matrix: n x n dissimilarities; points: one vector per row")
    p.add_argument("--metric", choices=METRICS, default="euclidean",
                   help="metric for points input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--output", "-o", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="msclust", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster at a fixed k")
    _add_input_args(p)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="fastermsc")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--init", choices=("random", "build"), default="random")
    p.add_argument("--restarts", type=int, default=10,
                   help="restarts with seeds seed..seed+restarts-1; best kept "
                        "(one run for --init build without --shuffle)")
    p.add_argument("--shuffle", action="store_true",
                   help="seeded shuffle of the point order before clustering")
    p.add_argument("--asw", action="store_true",
                   help="also report the full Silhouette (O(n^2))")
    p.add_argument("--plot-data", help="write silhouette-plot CSV here")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("sweep", help="choose k automatically")
    _add_input_args(p)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("bench", help="timing grid on synthetic data")
    p.add_argument("--sizes", required=True, help="comma-separated n values")
    p.add_argument("--ks", required=True, help="comma-separated k values")
    p.add_argument("--algorithms", default="pammedsil,fastmsc")
    p.add_argument("--repeats", type=int, default=3,
                   help="timed repetitions per cell (median reported)")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-run budget in seconds, warm-up included; "
                        "exceeded cells are marked timeout and the grid continues")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", help="ARI/NMI between two label files")
    p.add_argument("--labels-a", required=True)
    p.add_argument("--labels-b", required=True)
    p.add_argument("--output", "-o")
    p.set_defaults(fn=cmd_eval)

    return parser


def _keep_freed_memory() -> None:
    """Keep freed memory in the heap: the scan frees its block temporaries
    after every block, and glibc would trim them and fault them back in."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc: no handle or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.fn(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, MedoidError) as exc:
        print(f"msclust: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MatrixError as exc:
        print(f"msclust: matrix invariant violation: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"msclust: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        print(f"msclust: out of memory: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return 0


if __name__ == "__main__":
    sys.exit(main())
