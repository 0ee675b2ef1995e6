"""Automatic cluster-count selection via a descending-k sweep.

Starting from k_max random medoids, each k is optimized with the eager
incremental optimizer, then the medoid whose removal loses the least
silhouette (the maximal removal-loss accumulator) is deleted and the
warm state carries over to k-1. The k with the highest AMS wins; ties
go to the smaller k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (DEFAULT_MAX_ITER, ClusteringResult, MedoidError, check_integers,
                   check_matrix, init_random)
from .fastmsc import OptimizerState, _fastermsc_state, _rescan, _result, make_state


@dataclass
class SweepResult:
    per_k: dict[int, ClusteringResult]
    best_k: int
    best: ClusteringResult


def default_k_max(n: int) -> int:
    return min(math.isqrt(max(n - 1, 0)) + 1 + 10, n - 1)


def remove_medoid(state: OptimizerState, position: int) -> None:
    """Delete a medoid in place, keeping the neighbor cache warm.

    Points with the removed medoid within their d3 are rescanned (at
    k == 3 every point, so top3 sets d3 = inf for k == 2); the rest just
    remap their cached positions; the rescan rebuilds the removal losses.
    Requires k >= 3 so the result still has two medoids.
    """
    if state.k < 3:
        raise MedoidError("cannot remove a medoid below k = 2")
    c = state.cache
    need = state.matrix[state.medoids[position]] <= c.d3
    state.is_medoid[state.medoids[position]] = False
    state.medoids = np.delete(state.medoids, position)
    c.n1 -= c.n1 > position
    c.n2 -= c.n2 > position
    _rescan(state, need.nonzero()[0])


def dynmsc(
    matrix,
    k_max: int | None = None,
    k_min: int = 2,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SweepResult:
    """Descending-k sweep with warm-started eager optimization.

    Returns the eager run's result for every k in [k_min, k_max] and the
    argmax-AMS choice (ties toward smaller k). best is the chosen k's
    result, except that best.swaps and best.iterations are totals over
    the whole sweep.
    """
    matrix = check_matrix(matrix)
    n = len(matrix)
    if k_max is None:
        k_max = default_k_max(n)
    check_integers(k_min=k_min, k_max=k_max, max_iter=max_iter)
    if not 2 <= k_min <= k_max < n:
        raise MedoidError(f"need 2 <= k_min <= k_max < n, got "
                          f"k_min={k_min}, k_max={k_max}, n={n}")

    state = make_state(matrix, init_random(n, k_max, seed))
    per_k: dict[int, ClusteringResult] = {}
    for k in range(k_max, k_min - 1, -1):
        state.swaps = state.iterations = 0
        converged = _fastermsc_state(state, max_iter)
        per_k[k] = _result(state, converged)
        if k > k_min:
            drop = int(np.argmax(state.removal_loss))
            remove_medoid(state, drop)

    best_k = max(sorted(per_k), key=lambda k: per_k[k].ams)
    best = replace(
        per_k[best_k],
        swaps=sum(r.swaps for r in per_k.values()),
        iterations=sum(r.iterations for r in per_k.values()),
    )
    return SweepResult(per_k=per_k, best_k=best_k, best=best)
