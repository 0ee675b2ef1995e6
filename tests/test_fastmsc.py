import importlib

import numpy as np
import pytest

from msclust import (
    ams,
    dynmsc,
    fastermsc,
    fastmsc,
    init_random,
    pammedsil,
)
from msclust.core import EPS_GAIN, nearest_three_all
from msclust.fastmsc import (
    candidate_totals,
    find_best_swap,
    make_state,
    update_caches_after_swap,
)
from msclust.oracle import recompute_delta, record, swap_delta

from helpers import duplicate_grid, uniform_instance

# the package re-exports the function fastmsc under the module's name
fm = importlib.import_module("msclust.fastmsc")


def assert_cache_consistent(state):
    fresh = nearest_three_all(state.matrix, state.medoids)
    assert np.array_equal(state.cache.n1, fresh.n1)
    assert np.array_equal(state.cache.n2, fresh.n2)
    assert state.cache.d1 == pytest.approx(fresh.d1)
    assert state.cache.d2 == pytest.approx(fresh.d2)
    assert state.cache.d3 == pytest.approx(fresh.d3)


class TestSwapDelta:
    def test_line_second_nearest_replaced(self, line):
        state = make_state(line, [0, 2])
        # replace the second-nearest medoid of point 1 with point 3
        delta = swap_delta(record(state.cache, 1), 1, line[1, 3])
        assert delta == pytest.approx(1 / 9 - 1 / 10)

    def test_line_medoid_point_zero_delta(self, line):
        state = make_state(line, [0, 2])
        assert swap_delta(record(state.cache, 0), 1, line[0, 3]) == 0.0

    def test_line_nearest_replaced(self, line):
        state = make_state(line, [0, 2])
        assert swap_delta(record(state.cache, 2), 1, line[2, 3]) == pytest.approx(-0.1)

    def test_matches_full_recompute_on_random_triples(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            n = int(rng.integers(10, 50))
            k = int(rng.integers(2, 6))
            mat = uniform_instance(n, seed=trial)
            medoids = init_random(n, k, seed=trial)
            state = make_state(mat, medoids)
            non_medoids = [j for j in range(n) if j not in set(medoids.tolist())]
            for _ in range(60):
                i = int(rng.integers(k))
                j = int(rng.choice(non_medoids))
                total = sum(
                    swap_delta(record(state.cache, o), i, mat[o, j])
                    for o in range(n)
                )
                assert total == pytest.approx(
                    recompute_delta(mat, medoids, i, j), abs=1e-9
                )


class TestRemovalLosses:
    def test_line_example(self, line):
        loss = make_state(line, [0, 2]).removal_loss
        assert loss[0] == pytest.approx(1 / 9 + 1 / 11)

    def test_k2_third_distance_terms_vanish(self):
        mat = uniform_instance(20, seed=1)
        state = make_state(mat, [3, 8])
        c = state.cache
        expected = np.bincount(c.n1, weights=c.d1 / c.d2, minlength=2)
        expected += np.bincount(c.n2, weights=c.d1 / c.d2, minlength=2)
        assert state.removal_loss == pytest.approx(expected)

    def test_symmetric_clusters_equal_losses(self):
        from msclust import build_matrix

        mat = build_matrix([[0.0], [1.0], [10.0], [11.0]])
        loss = make_state(mat, [0, 3]).removal_loss
        assert loss[0] == pytest.approx(loss[1])


class TestFindBestSwap:
    def test_line_improvement(self, line):
        state = make_state(line, [0, 1])
        cand = find_best_swap(state)
        assert cand is not None
        assert state.ams_sum / 4 == pytest.approx(0.5477272727272727)
        assert (state.ams_sum + cand[2]) / 4 == pytest.approx(0.95)

    def test_none_at_optimum(self, line):
        state = make_state(line, [1, 2])
        assert find_best_swap(state) is None

    def test_decomposition_identity(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            n = int(rng.integers(12, 40))
            k = int(rng.integers(2, 6))
            mat = uniform_instance(n, seed=100 + trial)
            medoids = init_random(n, k, seed=trial)
            state = make_state(mat, medoids)
            medoid_set = set(medoids.tolist())
            for j in range(n):
                if j in medoid_set:
                    continue
                acc, shared = candidate_totals(state, j)
                for i in range(k):
                    direct = sum(
                        swap_delta(record(state.cache, o), i, mat[o, j])
                        for o in range(n)
                    )
                    assert acc[i] + shared == pytest.approx(direct, abs=1e-9)


class TestFastmsc:
    def test_line_example(self, line):
        result = fastmsc(line, [0, 1])
        assert result.ams == pytest.approx(0.95)

    def test_equivalent_to_pammedsil(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(15, 80))
            k = int(rng.integers(2, 7))
            mat = uniform_instance(n, seed=500 + trial)
            m0 = init_random(n, k, seed=trial)
            fast = fastmsc(mat, m0)
            naive = pammedsil(mat, m0)
            assert sorted(fast.medoids.tolist()) == sorted(naive.medoids.tolist())
            assert fast.ams == pytest.approx(naive.ams, abs=1e-9)

    def test_already_optimal_zero_swaps(self, line):
        result = fastmsc(line, [1, 2])
        assert result.swaps == 0

    def test_ams_sum_consistent_after_run(self):
        mat = uniform_instance(40, seed=2)
        result = fastmsc(mat, init_random(40, 4, seed=2))
        assert result.ams == pytest.approx(ams(mat, result.medoids), abs=1e-9)

    @pytest.mark.parametrize("optimizer", [fastmsc, fastermsc])
    def test_reported_ams_is_a_fresh_recompute(self, optimizer):
        for seed in range(12):
            n = 40 + 3 * seed
            mat = uniform_instance(n, seed=seed)
            result = optimizer(mat, init_random(n, 2 + seed % 6, seed=seed))
            assert result.ams == ams(mat, result.medoids)


class TestFastermsc:
    def test_line_example(self, line):
        result = fastermsc(line, [0, 1])
        assert result.ams == pytest.approx(0.95)

    def test_already_optimal_single_pass(self, line):
        result = fastermsc(line, [1, 2])
        assert result.swaps == 0
        assert result.iterations == 1

    def test_no_budget_makes_no_pass(self):
        mat = uniform_instance(30, seed=14)
        m0 = init_random(30, 3, seed=14)
        for optimizer in (fastmsc, fastermsc, pammedsil):
            result = optimizer(mat, m0, max_iter=0)
            assert result.medoids.tolist() == m0.tolist()
            assert (result.swaps, result.iterations, result.converged) == (0, 0, False)

    def test_budget_cut_counts_only_the_passes_made(self):
        result = fastermsc(uniform_instance(50, seed=4), init_random(50, 5, seed=4),
                           max_iter=1)
        assert not result.converged
        assert result.iterations == 1

    def test_monotone_ascent(self):
        mat = uniform_instance(50, seed=12)
        state = make_state(mat, init_random(50, 4, seed=12))
        from msclust.fastmsc import _fastermsc_state

        before = state.ams_sum
        converged = _fastermsc_state(state, max_iter=1000)
        assert converged
        assert state.ams_sum >= before
        assert state.ams_sum / 50 == pytest.approx(ams(mat, state.medoids), abs=1e-9)

    def test_quality_close_to_fastmsc(self):
        total_fast, total_faster = 0.0, 0.0
        for trial in range(10):
            mat = uniform_instance(35, seed=700 + trial)
            m0 = init_random(35, 4, seed=trial)
            total_fast += fastmsc(mat, m0).ams
            total_faster += fastermsc(mat, m0).ams
        assert total_faster >= 0.99 * total_fast

    def test_local_optimum_at_convergence(self):
        mat = uniform_instance(30, seed=14)
        result = fastermsc(mat, init_random(30, 3, seed=14))
        state = make_state(mat, result.medoids)
        assert find_best_swap(state) is None


class TestCacheUpdates:
    def test_noop_when_swap_is_far(self):
        # two tight groups plus an isolated far pair: swapping within the
        # far pair leaves the near points' top-3 untouched
        from msclust import build_matrix

        pts = [[0.0], [0.5], [1.0], [100.0], [101.0], [1000.0], [1001.0]]
        mat = build_matrix(pts)
        state = make_state(mat, [0, 3, 5])
        before_d1 = state.cache.d1.copy()
        update_caches_after_swap(state, 2, 6)
        assert_cache_consistent(state)
        assert state.cache.d1[:3] == pytest.approx(before_d1[:3])

    def test_rescan_when_nearest_replaced(self):
        mat = uniform_instance(25, seed=20)
        state = make_state(mat, init_random(25, 4, seed=20))
        new = next(j for j in range(25) if j not in set(state.medoids.tolist()))
        update_caches_after_swap(state, 1, new)
        assert_cache_consistent(state)

    def test_audit_along_full_run(self):
        mat = uniform_instance(40, seed=22)
        state = make_state(mat, init_random(40, 5, seed=22))
        while True:
            cand = find_best_swap(state)
            if cand is None:
                break
            update_caches_after_swap(state, *cand[:2])
            assert_cache_consistent(state)
            assert state.removal_loss == pytest.approx(
                make_state(mat, state.medoids).removal_loss, abs=1e-9
            )


@pytest.fixture(scope="module", name="duplicate_grid")
def duplicate_grid_fixture():
    return duplicate_grid()


def check_swaps_as_made(monkeypatch):
    """Wrap update_caches_after_swap so that each swap is checked when it
    is made: it raises the fresh sum by more than EPS_GAIN, or the very
    next call, before any candidate is scored again, swaps it back and
    restores the sum. Returns the dict that counts the kept swaps and
    holds a pending swap-back."""
    apply_swap, block_totals = fm.update_caches_after_swap, fm.block_totals
    log = {"kept": 0, "undo": None}

    def scored(state, J):
        assert log["undo"] is None, "a swap that did not raise the sum was kept"
        return block_totals(state, J)

    def checked(state, position, replacement):
        before, old = state.ams_sum, int(state.medoids[position])
        apply_swap(state, position, replacement)
        after = state.ams_sum
        if log["undo"] is not None:
            assert (position, replacement, after) == log["undo"]
            log["undo"] = None
        elif after - before > EPS_GAIN:
            log["kept"] += 1
        else:
            log["undo"] = (position, old, before)

    monkeypatch.setattr(fm, "update_caches_after_swap", checked)
    monkeypatch.setattr(fm, "block_totals", scored)
    return log


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("optimizer", ["fastmsc", "fastermsc", "dynmsc"])
def test_every_kept_swap_raises_the_fresh_sum(optimizer, seed, duplicate_grid,
                                              monkeypatch):
    log = check_swaps_as_made(monkeypatch)
    if optimizer == "dynmsc":
        sweep = dynmsc(duplicate_grid, k_min=8, k_max=12, seed=seed)
        results = list(sweep.per_k.values())
        assert sweep.best.swaps == log["kept"]
    else:
        result = {"fastmsc": fastmsc, "fastermsc": fastermsc}[optimizer](
            duplicate_grid, init_random(2000, 10, seed))
        results = [result]
        assert result.swaps == log["kept"]
    assert log["undo"] is None
    assert all(r.converged for r in results)
    for r in results:
        assert r.ams == pytest.approx(ams(duplicate_grid, r.medoids), abs=1e-12)
