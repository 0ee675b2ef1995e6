from itertools import combinations

import numpy as np
import pytest

from msclust import InputError, ams, build_matrix, pammedsil, pamsil, silhouette
from msclust.core import nearest_three_all
from msclust.naive import _asw_sum

from helpers import uniform_instance


def exhaustive_best_asw(matrix, k):
    best = -np.inf
    for subset in combinations(range(len(matrix)), k):
        labels = np.argmin(matrix[:, np.array(subset)], axis=1)
        if len(set(labels.tolist())) < 2:
            continue
        best = max(best, silhouette(matrix, labels).mean)
    return best


class TestPamsil:
    def test_line_converges_to_best_partition(self, line):
        result = pamsil(line, [0, 1])
        assert result.asw == pytest.approx(0.8997493734335839)
        assert result.labels.tolist() == [0, 0, 1, 1] or result.labels.tolist() == [1, 1, 0, 0]

    def test_already_optimal_does_nothing(self, line):
        best = pamsil(line, [0, 1])
        again = pamsil(line, best.medoids)
        assert again.swaps == 0

    def test_minimum_instance_terminates(self):
        mat = build_matrix([[0.0], [1.0], [5.0]])
        result = pamsil(mat, [0, 1])
        assert result.converged
        assert result.swaps <= 2

    def test_reaches_exhaustive_optimum_on_line(self, line):
        result = pamsil(line, [0, 1])
        assert result.asw == pytest.approx(exhaustive_best_asw(line, 2))

    @pytest.mark.parametrize("start", [[0, 2], [0, 1], [2, 3]])
    def test_duplicate_points_never_leave_one_cluster(self, start):
        # points 0 and 1 coincide, as do 2 and 3: a trial swap onto the
        # twin of the other medoid gives one cluster, and [0, 1] and
        # [2, 3] start that way
        mat = build_matrix([[0.0], [0.0], [5.0], [5.0], [10.0], [11.0]])
        result = pamsil(mat, start)
        assert result.converged
        assert len(set(result.labels.tolist())) == 2
        assert result.asw == pytest.approx(exhaustive_best_asw(mat, 2))

    def test_all_points_identical_is_an_input_error(self):
        with pytest.raises(InputError, match="need at least 2 clusters"):
            pamsil(np.zeros((5, 5)), [0, 1])

    def test_asw_is_the_optimized_sum_over_n(self):
        for trial in range(4):
            mat = uniform_instance(20, seed=trial)
            result = pamsil(mat, [0, 1, 2])
            assert result.asw == _asw_sum(mat, result.medoids) / 20
            assert result.asw == silhouette(mat, result.labels).mean


class TestPammedsil:
    def test_line_example(self, line):
        result = pammedsil(line, [0, 1])
        assert result.ams == pytest.approx(0.95)
        assert sorted(result.medoids.tolist()) in ([0, 3], [1, 2])

    def test_optimal_start_is_stable(self, line):
        result = pammedsil(line, [1, 2])
        assert result.swaps == 0
        assert result.ams == pytest.approx(0.95)

    def test_scaled_matrix_same_swap_sequence(self, line):
        base = pammedsil(line, [0, 1])
        scaled = pammedsil(line * 7.5, [0, 1])
        assert np.array_equal(base.medoids, scaled.medoids)
        assert base.swaps == scaled.swaps

    def test_monotone_and_locally_optimal(self):
        for trial in range(5):
            mat = uniform_instance(25, seed=trial)
            result = pammedsil(mat, [0, 1, 2])
            assert result.converged
            # convergence: no swap has positive gain
            final = ams(mat, result.medoids)
            is_medoid = set(result.medoids.tolist())
            for i in range(3):
                for j in range(25):
                    if j in is_medoid:
                        continue
                    trial_set = result.medoids.copy()
                    trial_set[i] = j
                    assert ams(mat, trial_set) <= final + 1e-12

    def test_labels_are_nearest_medoid(self):
        mat = uniform_instance(30, seed=9)
        result = pammedsil(mat, [0, 1, 2, 3])
        expected = nearest_three_all(mat, result.medoids).n1
        assert np.array_equal(result.labels, expected)
