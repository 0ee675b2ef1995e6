"""Reference steepest-descent optimizers with full re-evaluation.

PAMSIL optimizes the full Silhouette (ASW), PAMMEDSIL the Medoid
Silhouette (AMS). Both evaluate every (medoid, non-medoid) exchange by
recomputing the quality from scratch and apply the single best
strictly-improving swap per iteration. They exist to be slow and
obviously correct; the incremental optimizers are verified against them.

Candidates are enumerated with medoid positions ascending, then
non-medoid indices ascending, and the first candidate among equal gains
wins, so runs are deterministic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (DEFAULT_MAX_ITER, EPS_GAIN, ClusteringResult, check_integers,
                   check_matrix, check_medoids, nearest_three_all)
from .silhouette import medoid_result, medoid_widths, silhouette


def _ams_sum(matrix: np.ndarray, medoids: np.ndarray) -> float:
    """Unnormalized sum of Medoid Silhouette values."""
    part = np.partition(matrix[:, medoids], 1, axis=1)
    return float(medoid_widths(part[:, 0], part[:, 1]).sum())


def _asw_sum(matrix: np.ndarray, medoids: np.ndarray) -> float:
    """Unnormalized sum of full Silhouette values under nearest-medoid
    assignment (lowest position wins ties); -inf if only one cluster."""
    labels = np.argmin(matrix[:, medoids], axis=1)
    if labels.min() == labels.max():
        return -np.inf
    return float(silhouette(matrix, labels).per_point.sum())


def _steepest_descent(
    matrix: np.ndarray,
    medoids,
    max_iter: int,
    quality_sum: Callable[[np.ndarray, np.ndarray], float],
) -> ClusteringResult:
    """Steepest descent on a matrix the caller has validated."""
    check_integers(max_iter=max_iter)
    n = len(matrix)
    medoids = check_medoids(medoids, n)
    k = len(medoids)

    current = quality_sum(matrix, medoids)
    swaps = 0
    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoids] = True
        best = current
        best_swap = None
        trial = medoids.copy()
        for i in range(k):
            saved = trial[i]
            for j in range(n):
                if is_medoid[j]:
                    continue
                trial[i] = j
                q = quality_sum(matrix, trial)
                if q > best:
                    best = q
                    best_swap = (i, j)
            trial[i] = saved
        if best_swap is None or best - current <= EPS_GAIN:
            converged = True
            break
        medoids[best_swap[0]] = best_swap[1]
        current = best
        swaps += 1

    return medoid_result(nearest_three_all(matrix, medoids), medoids, swaps, iterations, converged)


def pamsil(matrix, medoids, max_iter: int = DEFAULT_MAX_ITER) -> ClusteringResult:
    """Steepest-descent swap optimization of the full Silhouette (ASW).

    O(k (n-k) n^2) per iteration. The optimized ASW is reported in
    `asw`; `ams` holds the AMS of the final medoids for comparability.
    """
    matrix = check_matrix(matrix)
    result = _steepest_descent(matrix, medoids, max_iter, _asw_sum)
    result.asw = silhouette(matrix, result.labels).mean
    return result


def pammedsil(matrix, medoids, max_iter: int = DEFAULT_MAX_ITER) -> ClusteringResult:
    """Steepest-descent swap optimization of the Medoid Silhouette (AMS).

    Identical control flow to pamsil but evaluating the AMS, which only
    needs distances to medoids: O(k^2 (n-k) n) per iteration.
    """
    return _steepest_descent(check_matrix(matrix), medoids, max_iter, _ams_sum)
