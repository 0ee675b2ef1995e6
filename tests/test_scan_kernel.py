"""The block scan kernel against the per-candidate code it replaced.

``reference_candidate_totals`` is the scalar per-candidate formula with
one masked pass per case, and ``reference_eager`` is the eager search
that scores one candidate at a time. ``reference_block_totals`` is the
block kernel as it was written before it was cut to fewer numpy calls,
on the masked-divide ``reference_safe_ratio``. All are kept here as
references only: the package scores every candidate through
``block_totals``.
"""

import importlib

import numpy as np
import pytest

from msclust import build_matrix, core, fastmsc, init_random
from msclust.fastmsc import make_state
from msclust.core import safe_ratio_arr
from msclust.naive import EPS_GAIN
from msclust.oracle import nearest_three

from helpers import duplicate_grid, uniform_instance

# the package re-exports the function fastmsc under the module's name
fm = importlib.import_module("msclust.fastmsc")


def reference_candidate_totals(state, j):
    c = state.cache
    doj = state.matrix[j]
    near = np.nonzero(doj < c.d3)[0]
    acc = state.removal_loss.copy()
    shared = 0.0
    if len(near) == 0:
        return acc, shared

    dv = doj[near]
    d1 = c.d1[near]
    d2 = c.d2[near]
    r12 = state.r12[near]
    r23 = state.r23[near]
    r13 = state.r13[near]

    case1 = dv < d1
    case2 = ~case1 & (dv < d2)
    case3 = ~(case1 | case2)

    cn1 = np.empty(len(near))
    cn2 = np.empty(len(near))

    if case1.any():
        i1 = case1
        shared += float((r12[i1] - dv[i1] / d1[i1]).sum())
        cn1[i1] = dv[i1] / d1[i1] + r23[i1] - (d1[i1] + dv[i1]) / d2[i1]
        cn2[i1] = r13[i1] - r12[i1]
    if case2.any():
        i2 = case2
        rv = safe_ratio_arr(d1[i2], dv[i2])
        shared += float((r12[i2] - rv).sum())
        cn1[i2] = rv + r23[i2] - (d1[i2] + dv[i2]) / d2[i2]
        cn2[i2] = r13[i2] - r12[i2]
    if case3.any():
        i3 = case3
        cn1[i3] = r23[i3] - safe_ratio_arr(d2[i3], dv[i3])
        cn2[i3] = r13[i3] - safe_ratio_arr(d1[i3], dv[i3])

    acc += np.bincount(c.n1[near], weights=cn1, minlength=state.k)
    acc += np.bincount(c.n2[near], weights=cn2, minlength=state.k)
    return acc, shared


def reference_safe_ratio(a, b):
    return np.divide(a, b, out=np.zeros(np.broadcast(a, b).shape), where=b > 0)


def reference_block_totals(state, J):
    c = state.cache
    n = len(state.matrix)
    m, k = len(J), state.k
    rows = state.matrix[J]
    flat = np.flatnonzero(rows < c.d3)
    r = flat // n
    p = flat - r * n

    dv = rows.take(flat)
    d1 = c.d1.take(p)
    d2 = c.d2.take(p)
    r12 = state.r12.take(p)
    inner = dv < d2
    r1v = reference_safe_ratio(np.minimum(dv, d1), np.maximum(dv, d1))
    lost = reference_safe_ratio(np.where(inner, d1 + dv, d2), np.where(inner, d2, dv))
    cn1 = (np.where(inner, r1v, 0.0) + state.r23.take(p)) - lost
    cn2 = state.r13.take(p) - np.where(inner, r12, r1v)

    shared = np.bincount(r, weights=np.where(inner, r12 - r1v, 0.0), minlength=m)
    rk = r * k
    acc = state.removal_loss + np.bincount(rk + c.n1.take(p), weights=cn1,
                                           minlength=m * k).reshape(m, k)
    acc += np.bincount(rk + c.n2.take(p), weights=cn2, minlength=m * k).reshape(m, k)
    return acc, shared


def reference_eager(state, max_iter):
    """One candidate at a time. Returns (converged, [(position,
    replacement)] of the kept swaps, candidates scored after the last
    one). A swap scored above EPS_GAIN that does not raise the fresh sum
    by more than EPS_GAIN is undone and the scan goes on."""
    n = len(state.matrix)
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[state.medoids] = True
    made = []
    tail = 0
    x_last = -1
    j = 0
    visited = 0
    steps = 0
    state.iterations += 1
    while True:
        if j == x_last or visited >= n:
            return True, made, tail
        if steps and steps % n == 0:
            if steps // n >= max_iter:
                return False, made, tail
            state.iterations += 1
        if not is_medoid[j]:
            tail += 1
            acc, shared = reference_candidate_totals(state, j)
            i = int(np.argmax(acc))
            total = float(acc[i]) + shared
            if total > EPS_GAIN:
                before, old = state.ams_sum, int(state.medoids[i])
                fm.update_caches_after_swap(state, i, j)
                if state.ams_sum - before > EPS_GAIN:
                    state.swaps += 1
                    is_medoid[old] = False
                    is_medoid[j] = True
                    made.append((i, j))
                    tail = 0
                    x_last = j
                    visited = 0
                else:
                    fm.update_caches_after_swap(state, i, old)
        j = (j + 1) % n
        visited += 1
        steps += 1


def block_eager(state, max_iter, monkeypatch):
    """The package's eager search, recording each swap it keeps, how
    many candidates it scores after the last one, and each swap it
    undoes. The compiled loop counts the rows it scores in its state
    vector; the rows that Python scores pass through block_totals."""
    made, undone = [], []
    tail = [0]
    machines, scored_at_swap = [], [0]
    try_swap, block_totals, compiled = fm._swap_if_sum_rises, fm.block_totals, fm._eager_compiled

    def recording_swap(state, position, replacement, before):
        after = try_swap(state, position, replacement, before)
        if after is None:
            undone.append((position, replacement))
        else:
            made.append((position, replacement))
            tail[0] = 0
            scored_at_swap[0] = machines[0][fm.SCORED] if machines else 0
        return after

    def counting_totals(state, J):
        assert len(J) * len(state.matrix) <= max(core.SCAN_BUDGET, len(state.matrix))
        tail[0] += len(J)
        return block_totals(state, J)

    def kept_machine(state, machine):
        assert machine[fm.CAP] * len(state.matrix) <= max(core.SCAN_BUDGET, len(state.matrix))
        machines.append(machine)
        return compiled(state, machine)

    with monkeypatch.context() as mp:
        mp.setattr(fm, "_swap_if_sum_rises", recording_swap)
        mp.setattr(fm, "block_totals", counting_totals)
        mp.setattr(fm, "_eager_compiled", kept_machine)
        converged = fm._fastermsc_state(state, max_iter)
    if machines:
        tail[0] += machines[0][fm.SCORED] - scored_at_swap[0]
    return converged, made, tail[0], undone


def tied_instance(n, seed):
    """Small-integer Manhattan distances: many exact ties among d(o, j),
    d1, d2 and d3, and duplicate points (zero distances)."""
    rng = np.random.default_rng(seed)
    return build_matrix(rng.integers(0, 4, size=(n, 2)).astype(float),
                        metric="manhattan")


INSTANCES = [("uniform", uniform_instance, seed) for seed in range(4)]
INSTANCES += [("tied", tied_instance, seed) for seed in range(4)]


@pytest.mark.parametrize("kind,make,seed", INSTANCES)
def test_block_totals_match_scalar_formula(kind, make, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    mat = make(n, seed)
    for k in (2, 3, 7):
        state = make_state(mat, init_random(n, k, seed=seed))
        J = np.flatnonzero(~np.isin(np.arange(n), state.medoids))
        acc, shared = fm.block_totals(state, J)
        assert acc.shape == (len(J), k) and shared.shape == (len(J),)
        for r, j in enumerate(J):
            ref_acc, ref_shared = reference_candidate_totals(state, j)
            assert np.array_equal(acc[r], ref_acc)
            assert abs(shared[r] - ref_shared) <= 1e-12
            one_acc, one_shared = fm.candidate_totals(state, int(j))
            assert np.array_equal(one_acc, acc[r]) and one_shared == shared[r]


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind,make,seed", INSTANCES)
def test_block_totals_match_the_reference_kernel(kind, make, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    mat = make(n, seed)
    for k in (2, 3, 7):
        state = make_state(mat, init_random(n, k, seed=seed))
        J = np.flatnonzero(~state.is_medoid)
        for got, want in zip(fm.block_totals(state, J), reference_block_totals(state, J)):
            assert_same_bits(got, want)


def test_block_totals_match_the_reference_kernel_at_scale():
    state = make_state(blob_grid(0), init_random(640, 20, seed=0))
    J = np.flatnonzero(~state.is_medoid)
    for got, want in zip(fm.block_totals(state, J), reference_block_totals(state, J)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("k", [2, 3, 7, 20])
@pytest.mark.parametrize("seed", range(3))
def test_top3_matches_the_sorting_oracle_on_ties(k, seed):
    # distances 0-6 between points on a 4x4 grid: duplicates and ties everywhere
    mat = tied_instance(60, seed)
    medoids = init_random(60, k, seed=seed)
    for cache in (core.top3(mat[:, medoids]), core.nearest_three_all(mat, medoids)):
        for o in range(60):
            rec = nearest_three(mat, medoids, o)
            got = tuple(getattr(cache, f)[o] for f in ("n1", "n2", "d1", "d2", "d3"))
            assert got == (rec.n1, rec.n2, rec.d1, rec.d2, rec.d3)


def test_safe_ratio_matches_the_masked_divide():
    rng = np.random.default_rng(3)
    b = np.concatenate([[0.0, 0.0, np.inf, np.inf, core.TINY, core.TINY],
                        rng.random(200) * 10.0 ** rng.integers(-300, 300, 200)])
    a = np.concatenate([[0.0, 0.0, 0.0, 7.5, 0.0, core.TINY], b[6:] * rng.random(200)])
    b[1] = -0.0
    assert_same_bits(safe_ratio_arr(a, b), reference_safe_ratio(a, b))
    # 0 / 0 keeps the sign of a's zero; only a -0.0 entry can give -0.0
    assert safe_ratio_arr(np.array([-0.0]), np.array([0.0]))[0] == 0.0


def test_block_totals_do_not_depend_on_the_block():
    mat = uniform_instance(70, seed=9)
    state = make_state(mat, init_random(70, 5, seed=9))
    J = np.flatnonzero(~np.isin(np.arange(70), state.medoids))
    acc, shared = fm.block_totals(state, J)
    for part in (J[:1], J[3:17], J[::5]):
        rows = np.searchsorted(J, part)
        sub_acc, sub_shared = fm.block_totals(state, part)
        assert np.array_equal(sub_acc, acc[rows])
        assert np.array_equal(sub_shared, shared[rows])


def test_blocks_smaller_than_the_candidate_list(monkeypatch):
    # a budget of 3 rows per block splits the steepest scan into many
    # blocks, so the cross-block tie rule decides the best swap
    mat = uniform_instance(60, seed=31)
    m0 = init_random(60, 4, seed=31)
    expected = fastmsc(mat, m0)
    monkeypatch.setattr(core, "SCAN_BUDGET", 3 * 60)
    blocked = fastmsc(mat, m0)
    assert np.array_equal(blocked.medoids, expected.medoids)
    assert blocked.ams == expected.ams
    assert (blocked.swaps, blocked.iterations) == (expected.swaps, expected.iterations)


@pytest.mark.parametrize("budget_rows", [1, 3, None])
def test_steepest_scan_picks_the_earliest_best_candidate(budget_rows, monkeypatch):
    # duplicate points have identical rows, hence exactly tied totals
    if budget_rows is not None:
        monkeypatch.setattr(core, "SCAN_BUDGET", budget_rows * 40)
    for seed in range(6):
        mat = tied_instance(40, seed)
        state = make_state(mat, init_random(40, 4, seed=seed))
        best_gain, best = None, None
        for j in range(40):
            if j in set(state.medoids.tolist()):
                continue
            acc, shared = fm.candidate_totals(state, j)
            i = int(np.argmax(acc))
            total = float(acc[i]) + shared
            if best is None or total > best_gain:
                best_gain, best = total, (i, j)
        cand = fm.find_best_swap(state)
        if best_gain <= EPS_GAIN:
            assert cand is None
        else:
            position, replacement, gain = cand
            assert (position, replacement) == best
            assert gain == best_gain


EAGER_CASES = [
    (kind, make, seed, max_iter)
    for kind, make, seed in INSTANCES
    for max_iter in (1, 2, 1000)
]


# at n=45 a budget of 1 or 5 rows resumes after a swap one row wide and
# the default budget n rows wide; 40 rows resume 5 wide
@pytest.mark.parametrize("kind,make,seed,max_iter", EAGER_CASES)
@pytest.mark.parametrize("budget_rows", [1, 5, 40, None])
def test_eager_blocks_make_the_reference_swaps(kind, make, seed, max_iter,
                                               budget_rows, monkeypatch):
    n = 45
    mat = make(n, seed + 100)
    m0 = init_random(n, 6, seed=seed)
    if budget_rows is not None:
        monkeypatch.setattr(core, "SCAN_BUDGET", budget_rows * n)

    ref_state = make_state(mat, m0)
    ref_converged, ref_made, ref_tail = reference_eager(ref_state, max_iter)
    state = make_state(mat, m0)
    converged, made, tail, _ = block_eager(state, max_iter, monkeypatch)

    assert made == ref_made
    # no block reaches past the point where the reference stops
    assert tail == ref_tail
    assert converged == ref_converged
    assert (state.swaps, state.iterations) == (ref_state.swaps, ref_state.iterations)
    assert np.array_equal(state.medoids, ref_state.medoids)
    assert state.ams_sum == pytest.approx(ref_state.ams_sum, abs=1e-12)


def blob_grid(seed):
    """640 points in 20 Gaussian blobs on a jittered 5x4 grid."""
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.arange(5.0), np.arange(4.0))
    centres = np.c_[gx.ravel(), gy.ravel()] + rng.uniform(-0.15, 0.15, (20, 2))
    labels = rng.permutation(np.arange(640) % 20)
    return build_matrix(centres[labels] + rng.normal(0.0, 0.18, (640, 2)))


# the default budget: at n=640 blocks of 51 rows, 6 after a swap; at
# n=2000 16 rows, 2 after a swap. With 64 rows at n=2000 a block holds a
# swap that is undone followed by one that is kept.
@pytest.mark.parametrize("data,seed,k,budget_rows", [
    ("blobs", 0, 20, None), ("blobs", 1, 20, None),
    ("duplicates", 0, 10, None), ("duplicates", 0, 10, 64)])
def test_eager_blocks_make_the_reference_swaps_at_scale(data, seed, k, budget_rows,
                                                        monkeypatch):
    mat = blob_grid(seed) if data == "blobs" else duplicate_grid()
    if budget_rows is not None:
        monkeypatch.setattr(core, "SCAN_BUDGET", budget_rows * len(mat))
    n = len(mat)
    m0 = init_random(n, k, seed=seed)
    ref_state = make_state(mat, m0)
    ref_converged, ref_made, ref_tail = reference_eager(ref_state, 1000)
    state = make_state(mat, m0)
    converged, made, tail, undone = block_eager(state, 1000, monkeypatch)

    assert ref_converged and len(ref_made) > 5
    assert bool(undone) == (data == "duplicates")
    assert (made, tail, converged) == (ref_made, ref_tail, ref_converged)
    assert (state.swaps, state.iterations) == (ref_state.swaps, ref_state.iterations)
    assert np.array_equal(state.medoids, ref_state.medoids)


def test_eager_cases_cover_wrap_budget_and_last_swap_stop():
    """The cases above include runs that swap again after wrapping past
    n, runs cut by the pass budget, and runs that stop at a last swap
    that is not the first position."""
    n = 45
    wrapped = budget_cut = late_stop = False
    for _, make, seed in INSTANCES:
        for max_iter in (1, 2, 1000):
            state = make_state(make(n, seed + 100), init_random(n, 6, seed=seed))
            converged, made, _ = reference_eager(state, max_iter)
            budget_cut |= not converged
            wrapped |= any(b[1] < a[1] for a, b in zip(made, made[1:]))
            late_stop |= converged and bool(made) and made[-1][1] > 0
    assert wrapped and budget_cut and late_stop
