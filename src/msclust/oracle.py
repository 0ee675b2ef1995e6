"""Brute-force references and quality-measure property checks.

Everything here trades speed for being obviously correct: scalar
per-point versions of the neighbor cache and the swap delta, exhaustive
subset enumeration, full re-evaluation of swap deltas, and executable
versions of the four clustering-quality-measure properties (scale
invariance, consistency, richness, isomorphism invariance) that the
Average Medoid Silhouette satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import NeighborCache, check_matrix, check_medoids, nearest_three_all
from .silhouette import ams, medoid_silhouette

EXHAUSTIVE_BUDGET = 10**6


def safe_ratio(a: float, b: float) -> float:
    """Scalar core.safe_ratio_arr: a / b if b > 0 else 0."""
    return a / b if b > 0 else 0.0


@dataclass(frozen=True)
class NeighborRecord:
    """One point's entry of a NeighborCache."""

    n1: int
    n2: int
    d1: float
    d2: float
    d3: float


def record(cache: NeighborCache, o: int) -> NeighborRecord:
    return NeighborRecord(int(cache.n1[o]), int(cache.n2[o]), float(cache.d1[o]),
                          float(cache.d2[o]), float(cache.d3[o]))


def nearest_three(matrix: np.ndarray, medoids, o: int) -> NeighborRecord:
    """The <= 3 smallest distances from point o to the medoids, with
    the positions of the two nearest, by a sort of its own. Ties go to
    the lower position."""
    medoids = np.asarray(medoids, dtype=np.intp)
    dists = matrix[o, medoids]
    order = np.argsort(dists, kind="stable")
    d3 = float(dists[order[2]]) if len(medoids) > 2 else np.inf
    return NeighborRecord(
        int(order[0]), int(order[1]),
        float(dists[order[0]]), float(dists[order[1]]), d3,
    )


def swap_delta(rec: NeighborRecord, mi: int, d_oj: float) -> float:
    """Change in one point's Medoid Silhouette when medoid position mi
    is swapped for a candidate at distance d_oj from the point.

    Three-way case analysis on whether the replaced medoid is the
    point's nearest, second nearest, or neither, with sub-cases on d_oj
    against the cached d1/d2/d3. Exactly zero in the far-far case.
    """
    d1, d2, d3 = rec.d1, rec.d2, rec.d3
    old = safe_ratio(d1, d2)
    if mi == rec.n1:
        if d_oj < d2:
            return old - safe_ratio(d_oj, d2)
        if d_oj < d3:
            return old - safe_ratio(d2, d_oj)
        return old - safe_ratio(d2, d3)
    if mi == rec.n2:
        if d_oj < d1:
            return old - safe_ratio(d_oj, d1)
        if d_oj < d3:
            return old - safe_ratio(d1, d_oj)
        return old - safe_ratio(d1, d3)
    if d_oj < d1:
        return old - safe_ratio(d_oj, d1)
    if d_oj < d2:
        return old - safe_ratio(d1, d_oj)
    return 0.0


def exhaustive_best_medoids(matrix, k: int, budget: int = EXHAUSTIVE_BUDGET):
    """Enumerate all k-subsets and return (best medoid set, its AMS).

    Among ties, the lexicographically smallest subset wins. Raises when
    C(n, k) exceeds the budget.
    """
    matrix = check_matrix(matrix)
    n = len(matrix)
    if math.comb(n, k) > budget:
        raise ValueError(f"C({n},{k}) exceeds the enumeration budget {budget}")
    best_set = None
    best_ams = -np.inf
    for subset in combinations(range(n), k):
        value = ams(matrix, np.asarray(subset))
        if value > best_ams:
            best_ams = value
            best_set = subset
    return np.asarray(best_set, dtype=np.intp), float(best_ams)


def recompute_delta(matrix, medoids, i: int, j: int) -> float:
    """Change in the silhouette sum for swapping medoid position i with
    point j, by full before/after re-evaluation. Independent oracle for
    the O(1) incremental delta."""
    matrix = check_matrix(matrix)
    medoids = check_medoids(medoids, len(matrix))
    before = medoid_silhouette(matrix, medoids).per_point.sum()
    swapped = medoids.copy()
    swapped[i] = j
    after = medoid_silhouette(matrix, swapped).per_point.sum()
    return float(after - before)


def scale_matrix(matrix: np.ndarray, lam: float) -> np.ndarray:
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    return matrix * lam


def consistent_variant(matrix: np.ndarray, medoids, rng: np.random.Generator) -> np.ndarray:
    """Random perturbation that shrinks within-cluster distances and
    grows between-cluster distances for the partition induced by the
    medoids. Symmetry is kept by perturbing the upper triangle and
    mirroring; the result may violate the triangle inequality, which is
    fine since non-metric input is supported."""
    labels = nearest_three_all(matrix, medoids).n1
    n = len(matrix)
    shrink = rng.uniform(0.5, 1.0, size=(n, n))
    grow = rng.uniform(1.0, 2.0, size=(n, n))
    same = labels[:, None] == labels[None, :]
    factors = np.where(same, shrink, grow)
    out = matrix * factors
    upper = np.triu(out, 1)
    return upper + upper.T


def permuted_instance(matrix: np.ndarray, medoids, perm: np.ndarray):
    """Apply a point permutation: returns (permuted matrix, mapped
    medoid set). perm[i] is the new index of old point i."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return matrix[np.ix_(inv, inv)], perm[np.asarray(medoids)]


def richness_matrix(n: int, target_medoids) -> np.ndarray:
    """Distance encoding a desired medoid set: zero between the first
    target medoid and every non-medoid (and on the diagonal), one
    everywhere else. The target set is then the unique AMS-1 optimum."""
    target = np.asarray(target_medoids, dtype=np.intp)
    m = np.ones((n, n))
    np.fill_diagonal(m, 0.0)
    rest = np.setdiff1d(np.arange(n), target)
    m[target[0], rest] = m[rest, target[0]] = 0.0
    return m


@dataclass
class AxiomReport:
    scale: bool
    consistency: bool
    isomorphism: bool
    richness: bool

    @property
    def passed(self) -> bool:
        return self.scale and self.consistency and self.isomorphism and self.richness


def axiom_suite(matrix, medoids, seed: int = 0) -> AxiomReport:
    """Executable check of the four quality-measure properties on one
    instance; the transforms are generated from the seed."""
    matrix = check_matrix(matrix)
    medoids = check_medoids(medoids, len(matrix))
    n = len(matrix)
    rng = np.random.default_rng(seed)
    base = ams(matrix, medoids)

    lam = float(rng.uniform(0.1, 10.0))
    scale_ok = abs(ams(scale_matrix(matrix, lam), medoids) - base) < 1e-12

    consistent = consistent_variant(matrix, medoids, rng)
    consistency_ok = ams(consistent, medoids) >= base - 1e-12

    perm = rng.permutation(n)
    pm, pmed = permuted_instance(matrix, medoids, perm)
    iso_ok = abs(ams(pm, pmed) - base) < 1e-12

    k = len(medoids)
    target = np.sort(rng.choice(n, size=k, replace=False))
    rich = richness_matrix(n, target)
    best_set, best_ams = exhaustive_best_medoids(rich, k)
    richness_ok = (abs(best_ams - 1.0) < 1e-12
                   and set(best_set.tolist()) == set(target.tolist()))

    return AxiomReport(scale_ok, consistency_ok, iso_ok, richness_ok)
