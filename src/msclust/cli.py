"""Command-line front end.

Verbs:
  cluster  run one algorithm at a fixed k on a matrix or points file
  sweep    descending-k cluster-count selection
  eval     ARI/NMI between two label files

cluster deals its restarts in consecutive shares across the usable CPUs
(restrict them with taskset) and reports the best; among equal
qualities the earliest restart wins, so the output is the same as on
one CPU, and an error is the lowest failing restart's. BUILD is
deterministic, so it runs once. fastmsc scores each large steepest pass
on the CPUs its restart leaves idle. Each verb returns its output text;
main alone writes it to --output or stdout and maps errors to exit
codes.

Exit codes: 0 success, 1 invalid configuration, 2 unreadable or
malformed input, 3 dissimilarity-matrix invariant violation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
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
from .pool import run_shares, usable_cpus
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


def _require_at_least(least: int, **values: int) -> None:
    for name, value in values.items():
        if value < least:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")


def _run_once(matrix: np.ndarray, args, seed: int):
    """One restart, reported as a fresh recompute from its medoids: the same
    result every optimizer returns itself."""
    if args.init == "build":
        m0 = init_build(matrix, args.k)
    else:
        m0 = init_random(len(matrix), args.k, seed)
    split = {"workers": args.scan_workers} if args.algorithm == "fastmsc" else {}
    found = ALGORITHMS[args.algorithm](matrix, m0, max_iter=args.max_iter, **split)
    result = medoid_result(nearest_three_all(matrix, found.medoids), found.medoids,
                           found.swaps, found.iterations, found.converged)
    result.asw = found.asw  # pamsil's full Silhouette of these labels
    return result


def _run_restarts(matrix: np.ndarray, args, restarts: int) -> list:
    """The results of restarts 0 .. restarts-1, in restart order.

    pool.run_shares deals them in consecutive shares, one per worker: a
    worker per usable CPU (pool.usable_cpus), up to one per restart. Each
    fastmsc scan pass splits over the CPUs left over (args.scan_workers).
    The lowest failing restart's error is raised: share 0 runs first,
    here, and a child whose restart raised sends nothing, so its share runs
    again here, in share order."""
    cpus = usable_cpus()
    workers = min(cpus, restarts)
    args.scan_workers = cpus // workers
    return run_shares(lambda share: [_run_once(matrix, args, args.seed + r) for r in share],
                      range(restarts), workers)


def cmd_cluster(args) -> str:
    _require_at_least(1, restarts=args.restarts, max_iter=args.max_iter)
    _require_at_least(0, seed=args.seed)
    matrix = _load_matrix(args)

    restarts = args.restarts if args.init == "random" else 1
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


def cmd_eval(args) -> str:
    a = _load_labels(args.labels_a)
    b = _load_labels(args.labels_b)
    return json.dumps({"ari": ari(a, b), "nmi": nmi(a, b)}) + "\n"


def _load_labels(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return [line.strip() for line in fh if line.strip()]


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
                        "(one run for --init build)")
    p.add_argument("--asw", action="store_true",
                   help="also report the full Silhouette (O(n^2))")
    p.add_argument("--plot-data", help="write silhouette-plot CSV here")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("sweep", help="choose k automatically")
    _add_input_args(p)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(fn=cmd_sweep)

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
