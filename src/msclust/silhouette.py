"""Silhouette evaluation: full Silhouette (ASW) and Medoid Silhouette
(AMS), plus silhouette-plot data export.

The full Silhouette is the O(n^2) oracle the Medoid Silhouette is
compared against; no subsampling is done. The simplified (medoid-based)
Silhouette with nearest-medoid assignment is the Medoid Silhouette.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ClusteringResult, InputError, NeighborCache, csv_text, nearest_three_all,
                   safe_ratio_arr, square_matrix)


@dataclass
class SilhouetteReport:
    per_point: np.ndarray
    mean: float


def _report(per_point: np.ndarray) -> SilhouetteReport:
    return SilhouetteReport(per_point, float(per_point.mean()))


def silhouette(matrix: np.ndarray, labels) -> SilhouetteReport:
    """Full Silhouette of a labeling.

    s_i = (b_i - a_i) / max(a_i, b_i), where a_i is the mean distance to
    the point's own cluster (excluding itself) and b_i the smallest mean
    distance to another cluster. Points in singleton clusters get s_i = 0.
    """
    matrix = square_matrix(matrix)
    labels = np.asarray(labels)
    n = len(matrix)
    if labels.ndim != 1:
        raise InputError("labels must be a flat list")
    if len(labels) != n:
        raise InputError("labels length does not match matrix size")
    values, idx = np.unique(labels, return_inverse=True)
    ncl = len(values)
    if ncl < 2:
        raise InputError("need at least 2 clusters")
    counts = np.bincount(idx, minlength=ncl)
    # per-point sums of distances to each cluster, one matrix pass per cluster
    sums = np.empty((n, ncl))
    for c in range(ncl):
        sums[:, c] = matrix[:, idx == c].sum(axis=1)

    rows = np.arange(n)
    own_count = counts[idx]
    a = np.where(own_count > 1, sums[rows, idx] / np.maximum(own_count - 1, 1), 0.0)
    means = sums / counts  # mean distance to each cluster
    means[rows, idx] = np.inf  # exclude own cluster from b
    b = means.min(axis=1)

    return _report(np.where(own_count > 1, safe_ratio_arr(b - a, np.maximum(a, b)), 0.0))


def medoid_widths(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Per-point Medoid Silhouette 1 - d1/d2 from the distances to the
    two nearest medoids, or 1 when d1 = d2 = 0. Every AMS the package
    reports is a sum of these."""
    return 1.0 - safe_ratio_arr(d1, d2)


def medoid_silhouette(matrix: np.ndarray, medoids) -> SilhouetteReport:
    """Medoid Silhouette of every point (see medoid_widths).

    The mean is the Average Medoid Silhouette (AMS).
    """
    cache = nearest_three_all(matrix, medoids)
    return _report(medoid_widths(cache.d1, cache.d2))


def ams(matrix: np.ndarray, medoids) -> float:
    """Average Medoid Silhouette of a medoid set."""
    return medoid_silhouette(matrix, medoids).mean


def medoid_result(cache: NeighborCache, medoids, swaps: int, iterations: int,
                  converged: bool) -> ClusteringResult:
    """The one constructor of an optimizer's result, from the neighbor cache
    of its final medoids: labels are each point's nearest-medoid position, and
    ams equals ams(matrix, medoids) bit for bit. No array is shared."""
    return ClusteringResult(medoids=np.array(medoids), labels=cache.n1.copy(),
                            ams=_report(medoid_widths(cache.d1, cache.d2)).mean,
                            asw=None, swaps=swaps, iterations=iterations, converged=converged)


def silhouette_plot_data(report: SilhouetteReport, labels) -> list[tuple[int, int, float]]:
    """Rows (label, point index, width), grouped by label ascending and
    sorted by descending width within each group; ready for plotting."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise InputError("labels must be a flat list")
    if len(labels) != len(report.per_point):
        raise InputError("labels and report lengths differ")
    widths = report.per_point
    order = np.lexsort((np.arange(len(labels)), -widths, labels))
    return [(int(labels[o]), int(o), float(widths[o])) for o in order]


def plot_data_csv(rows: list[tuple[int, int, float]]) -> str:
    """Serialize plot rows to CSV with header label,point,width."""
    return csv_text("label,point,width", rows)
