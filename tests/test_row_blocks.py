"""The row-blocked distance kernel, BUILD and the full Silhouette against
the code they replaced.

``reference_init_build`` is BUILD as it was before it worked in row
blocks: one n x n temporary per medoid it picks. ``reference_silhouette``
is the full Silhouette as it was: one pass over the whole matrix per
cluster. Both are kept here as references only. ``build_matrix`` is
checked against scipy's ``squareform(pdist(...))``, which the package
used to call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msclust import build_matrix, core, init_build, silhouette

METRIC_NAMES = {"euclidean": "euclidean", "sq-euclidean": "sqeuclidean",
                "manhattan": "cityblock"}
DIMS = (1, 2, 3, 5, 8, 12, 20)
SCALES = (1e-3, 1.0, 1e3)
# None keeps the package's budget; 1 row per block; 3 rows, so that the
# sizes below (not multiples of 3) end on a partial block
BUDGET_ROWS = (None, 1, 3)


def reference_init_build(matrix, k):
    chosen = [int(np.argmin(matrix.sum(axis=0)))]
    dn = matrix[:, chosen[0]].copy()
    for _ in range(1, k):
        reduction = np.maximum(0.0, dn[:, None] - matrix).sum(axis=0)
        reduction[chosen] = -np.inf
        c = int(np.argmax(reduction))
        chosen.append(c)
        np.minimum(dn, matrix[:, c], out=dn)
    return np.asarray(chosen, dtype=np.intp)


def set_budget(monkeypatch, rows, n):
    if rows is not None:
        monkeypatch.setattr(core, "SCAN_BUDGET", rows * n)
        assert core.block_rows(n) == rows


def points(n, d, scale, seed):
    """Seeded normal points with a block of exact duplicates."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, scale, (n, d))
    pts[n // 2:n // 2 + 4] = pts[0]
    return pts


@pytest.mark.parametrize("budget_rows", BUDGET_ROWS)
@pytest.mark.parametrize("metric", sorted(METRIC_NAMES))
@pytest.mark.parametrize("d", DIMS)
def test_build_matrix_equals_scipy_bit_for_bit(d, metric, budget_rows, monkeypatch):
    distance = pytest.importorskip("scipy.spatial.distance")
    n = 31
    set_budget(monkeypatch, budget_rows, n)
    for seed, scale in enumerate(SCALES):
        pts = points(n, d, scale, seed)
        expected = distance.squareform(distance.pdist(pts, metric=METRIC_NAMES[metric]))
        assert np.array_equal(build_matrix(pts, metric=metric), expected)


@pytest.mark.parametrize("budget_rows", BUDGET_ROWS)
@pytest.mark.parametrize("metric", sorted(METRIC_NAMES))
def test_build_matrix_is_symmetric_with_zero_diagonal(metric, budget_rows, monkeypatch):
    n = 40
    set_budget(monkeypatch, budget_rows, n)
    for d in DIMS:
        for seed, scale in enumerate(SCALES):
            mat = build_matrix(points(n, d, scale, seed), metric=metric)
            assert np.array_equal(mat, mat.T)
            assert not np.diag(mat).any()
            assert (mat[0, n // 2:n // 2 + 4] == 0).all()


def random_matrix(n, seed):
    pts = np.random.default_rng(seed).random((n, 3))
    return build_matrix(pts)


def tied_matrix(n, seed):
    """Small-integer Manhattan distances: duplicate points, tied sums."""
    pts = np.random.default_rng(seed).integers(0, 3, size=(n, 2)).astype(float)
    return build_matrix(pts, metric="manhattan")


def nonmetric_matrix(n, seed):
    """Symmetric random dissimilarities that break the triangle
    inequality, some of them zero off the diagonal."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.choice([0.0, 0.5, 1.0, 7.0], size=(n, n)) * rng.random((n, n)), 1)
    return upper + upper.T


def absorbing_matrix(n, seed):
    """Small integers and 2**53, where adding 1 is lost: a reduction then
    depends on the order its rows are added in."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, 1.0, 2.0, 3.0, 2.0 ** 53])
    upper = np.triu(rng.choice(values, size=(n, n), p=[.2, .25, .25, .2, .1]), 1)
    return upper + upper.T


MATRICES = [random_matrix, tied_matrix, nonmetric_matrix, absorbing_matrix]


@pytest.mark.parametrize("budget_rows", BUDGET_ROWS)
@pytest.mark.parametrize("make", MATRICES, ids=lambda f: f.__name__)
def test_init_build_equals_the_one_shot_formula(make, budget_rows, monkeypatch):
    n = 29
    set_budget(monkeypatch, budget_rows, n)
    for seed in range(20):
        mat = make(n, seed)
        for k in (2, 5, n - 1):
            assert np.array_equal(init_build(mat, k), reference_init_build(mat, k))


def test_init_build_cases_include_tied_picks():
    """The tie-heavy and non-metric cases above include picks whose
    reduction another candidate ties, so the lower-index rule decides."""
    tied = {make: 0 for make in (tied_matrix, nonmetric_matrix)}
    for make in tied:
        for seed in range(20):
            mat = make(29, seed)
            chosen = reference_init_build(mat, 5)
            for i in range(1, 5):
                dn = mat[:, chosen[:i]].min(axis=1)
                reduction = np.maximum(0.0, dn[:, None] - mat).sum(axis=0)
                reduction[chosen[:i]] = -np.inf
                tied[make] += int((reduction == reduction[chosen[i]]).sum() > 1)
    assert all(tied.values())


def test_init_build_cases_depend_on_the_summation_order():
    """In the absorbing cases above, summing each 3-row block before
    adding it to the running reduction changes some picks, so the cases
    check that rows are added one at a time in index order."""
    def block_sums_build(matrix, k):
        chosen = [int(np.argmin(matrix.sum(axis=0)))]
        dn = matrix[:, chosen[0]].copy()
        for _ in range(1, k):
            reduction = np.zeros(len(matrix))
            for lo in range(0, len(matrix), 3):
                reduction += np.maximum(0.0, dn[lo:lo + 3, None] - matrix[lo:lo + 3]).sum(axis=0)
            reduction[chosen] = -np.inf
            chosen.append(int(np.argmax(reduction)))
            np.minimum(dn, matrix[:, chosen[-1]], out=dn)
        return np.asarray(chosen, dtype=np.intp)

    changed = 0
    for seed in range(20):
        mat = absorbing_matrix(29, seed)
        for k in (2, 5, 28):
            changed += not np.array_equal(block_sums_build(mat, k),
                                          reference_init_build(mat, k))
    assert changed


def reference_silhouette(matrix, labels):
    values, idx = core.label_codes(labels)
    n, ncl = len(matrix), len(values)
    counts = np.bincount(idx, minlength=ncl)
    sums = np.empty((n, ncl))
    for c in range(ncl):
        sums[:, c] = matrix[:, idx == c].sum(axis=1)
    rows = np.arange(n)
    own_count = counts[idx]
    a = np.where(own_count > 1, sums[rows, idx] / np.maximum(own_count - 1, 1), 0.0)
    means = sums / counts
    means[rows, idx] = np.inf
    b = means.min(axis=1)
    return np.where(own_count > 1, core.safe_ratio_arr(b - a, np.maximum(a, b)), 0.0)


# 1 row per block gives 2-row blocks and, for odd n, a 1-row tail; 3 rows
# give a 1-row tail for n = 1 (mod 3)
@settings(deadline=None, max_examples=100)
@given(st.sampled_from(MATRICES), st.integers(3, 70), st.integers(2, 8),
       st.sampled_from((*BUDGET_ROWS, 2)), st.integers(0, 2**16))
def test_silhouette_equals_the_one_pass_formula(make, n, ncl, budget_rows, seed):
    mat = make(n, seed)
    labels = np.random.default_rng(seed).integers(0, ncl, n)
    labels[:2] = 0, 1
    with pytest.MonkeyPatch.context() as mp:
        set_budget(mp, budget_rows, n)
        got = silhouette(mat, labels)
    expected = reference_silhouette(mat, labels)
    assert np.array_equal(got.per_point, expected)
    assert got.mean == float(expected.mean())


def test_one_row_sums_in_another_order():
    """Why silhouette joins a 1-row tail to the block before it: numpy sums
    the columns picked from one row in another order than those picked
    from several rows, and some of these sums differ."""
    changed = 0
    for seed in range(20):
        mat = random_matrix(29, seed)
        cols = np.flatnonzero(np.arange(29) % 3 != 0)
        changed += mat[:, cols].sum(axis=1)[-1] != mat[-1:, cols].sum(axis=1)[0]
    assert changed
