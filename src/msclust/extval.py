"""External clustering validation: Adjusted Rand Index and Normalized
Mutual Information between two labelings.

NMI normalizes by the arithmetic mean of the two label entropies. Both
measures return 1.0 for identical partitions (including the degenerate
single-cluster case); NMI is 0 when either labeling has zero entropy
and the partitions differ.
"""

from __future__ import annotations

import numpy as np

from .core import InputError


def contingency_table(labels_a, labels_b) -> np.ndarray:
    """r x c co-occurrence counts of two equal-length labelings."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if len(a) != len(b):
        raise InputError(f"label lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise InputError("need at least 2 samples")
    try:
        _, ai = np.unique(a, return_inverse=True)
        _, bi = np.unique(b, return_inverse=True)
    except TypeError:  # values numpy cannot sort, such as None beside ints
        raise InputError("labels must be mutually comparable") from None
    r = ai.max() + 1
    c = bi.max() + 1
    return np.bincount(ai * c + bi, minlength=r * c).reshape(r, c)


def _comb2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) / 2.0


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand Index: pair-counting agreement corrected for chance.

    1.0 for identical partitions, near 0 for independent ones, negative
    when agreement is below chance.
    """
    table = contingency_table(labels_a, labels_b)
    n = table.sum()
    index = _comb2(table).sum()
    a = _comb2(table.sum(axis=1)).sum()
    b = _comb2(table.sum(axis=0)).sum()
    expected = a * b / _comb2(np.asarray(n))
    max_index = (a + b) / 2.0
    if max_index == expected:
        # both partitions degenerate in the same way (all-singletons or
        # one cluster) and hence identical
        return 1.0
    return float((index - expected) / (max_index - expected))


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def nmi(labels_a, labels_b) -> float:
    """Normalized Mutual Information with arithmetic-mean normalization."""
    table = contingency_table(labels_a, labels_b)
    n = table.sum()
    ha = _entropy(table.sum(axis=1))
    hb = _entropy(table.sum(axis=0))
    if ha == 0.0 and hb == 0.0:
        return 1.0  # both single-cluster: identical partitions
    if ha == 0.0 or hb == 0.0:
        return 0.0
    nz = table[table > 0]
    pij = nz / n
    outer = np.outer(table.sum(axis=1), table.sum(axis=0))[table > 0] / (n * n)
    mi = float((pij * np.log(pij / outer)).sum())
    return min(1.0, max(0.0, mi / ((ha + hb) / 2.0)))
