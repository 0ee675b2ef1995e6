"""Set-up probe: a fresh process that imports msclust and loads one input
until its dissimilarity matrix is ready, as the CLI does before any
optimisation starts.

    python3 perfbench/setup_probe.py points|matrix FILE

prints ``time.perf_counter()`` at the moment the matrix is ready. On
Linux that clock is CLOCK_MONOTONIC, shared by all processes, so the
parent subtracts the time it started this process.
"""

import sys
import time

import msclust.cli  # noqa: F401  (the import a CLI job pays)
from msclust.core import build_matrix, load_matrix_csv, load_points_csv


def main(kind: str, path: str) -> None:
    matrix = load_matrix_csv(path) if kind == "matrix" else build_matrix(load_points_csv(path))
    ready = time.perf_counter()
    print(repr(ready), len(matrix))


if __name__ == "__main__":
    main(*sys.argv[1:])
