import json

import numpy as np
import pytest

from msclust import (
    MedoidError,
    ams,
    dynmsc,
    fastermsc,
    init_random,
    medoid_silhouette,
)
from msclust.cli import sweep_to_csv, sweep_to_json
from msclust.dynmsc import default_k_max, remove_medoid
from msclust.fastmsc import make_state

from helpers import blob_matrix, line_matrix, uniform_instance


class TestRemoveMedoid:
    def test_redundant_far_medoid_removal_keeps_sums(self):
        from msclust import build_matrix

        # a duplicated far outlier holds two medoids; deleting one of
        # them changes no point's three nearest distances
        pts = [[0.0], [1.0], [2.0], [3.0], [1000.0], [1000.0]]
        mat = build_matrix(pts)
        state = make_state(mat, [0, 2, 4, 5])
        sum_before = state.ams_sum
        d1_before = state.cache.d1.copy()
        remove_medoid(state, 3)
        assert state.ams_sum == pytest.approx(sum_before, abs=1e-9)
        assert state.cache.d1 == pytest.approx(d1_before)
        assert state.ams_sum == pytest.approx(
            medoid_silhouette(mat, state.medoids).per_point.sum(), abs=1e-9
        )

    def test_realized_change_matches_removal_loss(self):
        mat = line_matrix()
        state = make_state(mat, [0, 1, 2])
        loss = state.removal_loss.copy()
        pos = int(np.argmax(loss))
        before = state.ams_sum
        remove_medoid(state, pos)
        assert state.ams_sum - before == pytest.approx(loss[pos], abs=1e-9)

    def test_realized_change_random_instances(self):
        for trial in range(5):
            mat = uniform_instance(30, seed=40 + trial)
            state = make_state(mat, init_random(30, 5, seed=trial))
            loss = state.removal_loss.copy()
            pos = trial % 5
            before = state.ams_sum
            remove_medoid(state, pos)
            assert state.ams_sum - before == pytest.approx(loss[pos], abs=1e-9)

    def test_cache_audit_after_removal(self):
        from msclust.core import nearest_three_all

        mat = uniform_instance(25, seed=3)
        state = make_state(mat, init_random(25, 4, seed=3))
        remove_medoid(state, 1)
        fresh = nearest_three_all(mat, state.medoids)
        assert np.array_equal(state.cache.n1, fresh.n1)
        assert np.array_equal(state.cache.n2, fresh.n2)
        assert state.cache.d3 == pytest.approx(fresh.d3)
        assert state.removal_loss == pytest.approx(
            make_state(mat, state.medoids).removal_loss
        )

    def test_cannot_drop_below_two(self):
        mat = uniform_instance(10, seed=0)
        state = make_state(mat, [0, 1])
        with pytest.raises(MedoidError):
            remove_medoid(state, 0)


class TestDynmsc:
    def test_blobs_select_four(self):
        mat = blob_matrix(seed=0)
        sweep = dynmsc(mat, k_max=10, seed=0)
        assert sweep.best_k == 4

    def test_degenerate_sweep(self):
        mat = uniform_instance(20, seed=5)
        sweep = dynmsc(mat, k_max=2, k_min=2, seed=5)
        assert sweep.best_k == 2
        assert list(sweep.per_k) == [2]
        direct = fastermsc(mat, init_random(20, 2, seed=5))
        assert sweep.per_k[2].ams == pytest.approx(direct.ams)

    def test_bookkeeping_matches_recomputation(self):
        mat = uniform_instance(60, seed=6)
        sweep = dynmsc(mat, k_max=7, seed=6)
        for k, kr in sweep.per_k.items():
            assert kr.ams == pytest.approx(ams(mat, kr.medoids), abs=1e-9)

    def test_per_k_ams_is_a_fresh_recompute(self):
        for seed in range(6):
            mat = uniform_instance(40 + 5 * seed, seed=seed)
            sweep = dynmsc(mat, k_max=8, seed=seed)
            for kr in sweep.per_k.values():
                assert kr.ams == ams(mat, kr.medoids)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_per_k_iterations_within_budget(self, max_iter):
        mat = uniform_instance(60, seed=6)
        sweep = dynmsc(mat, k_max=7, seed=6, max_iter=max_iter)
        assert not all(kr.converged for kr in sweep.per_k.values())
        assert all(kr.iterations <= max_iter for kr in sweep.per_k.values())

    def test_best_is_argmax(self):
        mat = uniform_instance(50, seed=7)
        sweep = dynmsc(mat, k_max=6, seed=7)
        assert sweep.per_k[sweep.best_k].ams == max(
            kr.ams for kr in sweep.per_k.values()
        )

    def test_covers_requested_range(self):
        mat = uniform_instance(40, seed=8)
        sweep = dynmsc(mat, k_max=8, k_min=3, seed=8)
        assert sorted(sweep.per_k) == list(range(3, 9))

    def test_range_validation(self):
        mat = uniform_instance(10, seed=0)
        with pytest.raises(MedoidError):
            dynmsc(mat, k_max=10, seed=0)
        with pytest.raises(MedoidError):
            dynmsc(mat, k_max=4, k_min=5, seed=0)
        for n in (0, 1):  # default_k_max is below k_min
            with pytest.raises(MedoidError, match="need 2 <= k_min <= k_max < n"):
                dynmsc(np.zeros((n, n)))

    def test_fewer_swaps_than_independent_runs(self):
        mat = blob_matrix(seed=1)
        sweep = dynmsc(mat, k_max=10, seed=1)
        independent = sum(
            fastermsc(mat, init_random(400, k, seed=1)).swaps
            for k in range(2, 11)
        )
        assert sweep.best.swaps < independent

    def test_per_k_work_adds_up_to_the_sweep_totals(self):
        mat = uniform_instance(60, seed=6)
        sweep = dynmsc(mat, k_max=7, seed=6)
        assert sum(kr.swaps for kr in sweep.per_k.values()) == sweep.best.swaps
        assert sum(kr.iterations for kr in sweep.per_k.values()) == sweep.best.iterations
        assert all(kr.converged for kr in sweep.per_k.values())
        assert sweep.best.converged

    @pytest.mark.parametrize("max_iter", [1, 1000])
    def test_single_k_flags_match_fastermsc(self, max_iter):
        mat = uniform_instance(50, seed=4)
        sweep = dynmsc(mat, k_max=5, k_min=5, seed=4, max_iter=max_iter)
        direct = fastermsc(mat, init_random(50, 5, seed=4), max_iter=max_iter)
        kr = sweep.per_k[5]
        assert (kr.converged, kr.swaps, kr.iterations) == (
            direct.converged, direct.swaps, direct.iterations)
        assert sweep.best.converged == direct.converged

    def test_budget_cut_is_reported(self):
        mat = uniform_instance(60, seed=6)
        sweep = dynmsc(mat, k_max=7, seed=6, max_iter=1)
        assert not sweep.per_k[7].converged
        assert sweep.best.converged == sweep.per_k[sweep.best_k].converged

    def test_default_k_max(self):
        assert default_k_max(400) == 30
        assert default_k_max(9) == 8


class TestSerialization:
    def test_json_schema(self):
        mat = uniform_instance(25, seed=9)
        sweep = dynmsc(mat, k_max=4, seed=9)
        payload = json.loads(sweep_to_json(sweep))
        assert payload["best_k"] == sweep.best_k
        assert [e["k"] for e in payload["per_k"]] == [2, 3, 4]
        for entry in payload["per_k"]:
            assert set(entry) == {"k", "ams", "medoids", "converged"}
            assert entry["converged"] is sweep.per_k[entry["k"]].converged

    def test_csv(self):
        mat = uniform_instance(25, seed=9)
        sweep = dynmsc(mat, k_max=4, seed=9)
        lines = sweep_to_csv(sweep).strip().splitlines()
        assert lines[0] == "k,ams"
        assert len(lines) == 4
