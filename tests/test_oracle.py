import numpy as np
import pytest

from msclust import ams, build_matrix
from msclust.oracle import (
    axiom_suite,
    consistent_variant,
    exhaustive_best_medoids,
    permuted_instance,
    recompute_delta,
    richness_matrix,
    scale_matrix,
)

from helpers import uniform_instance


class TestExhaustiveBest:
    def test_line_example(self, line):
        best, value = exhaustive_best_medoids(line, 2)
        assert value == pytest.approx(0.95)
        assert best.tolist() == [0, 3]  # lexicographic tie-break over {1, 2}

    def test_near_degenerate_k(self):
        mat = uniform_instance(6, seed=1)
        best, value = exhaustive_best_medoids(mat, 5)
        assert value == pytest.approx(ams(mat, best))

    def test_duplicates_reach_perfect_score(self):
        mat = build_matrix([[0.0], [0.0], [7.0], [7.0]])
        _, value = exhaustive_best_medoids(mat, 2)
        assert value == 1.0

    def test_budget(self):
        mat = uniform_instance(40, seed=2)
        with pytest.raises(ValueError):
            exhaustive_best_medoids(mat, 10, budget=100)


class TestRecomputeDelta:
    def test_identity_like_swap(self):
        mat = build_matrix([[0.0], [0.0], [5.0], [9.0]])
        # replacement duplicates the removed medoid's coordinates
        assert recompute_delta(mat, np.array([0, 2]), 0, 1) == pytest.approx(0.0)

    def test_sign_of_obvious_improvement(self, line):
        assert recompute_delta(line, np.array([0, 1]), 1, 2) > 0


class TestAxioms:
    def test_scale_on_line(self, line):
        assert ams(scale_matrix(line, 3.0), [0, 2]) == ams(line, [0, 2])

    def test_consistency_manual_perturbation(self, line):
        # shrink within-cluster distances by 0.5, grow between by 2
        labels = np.array([0, 0, 1, 1])
        same = labels[:, None] == labels[None, :]
        perturbed = line * np.where(same, 0.5, 2.0)
        np.fill_diagonal(perturbed, 0.0)
        assert ams(perturbed, [0, 2]) >= ams(line, [0, 2])

    def test_richness_small_target(self):
        mat = richness_matrix(6, [1, 4])
        assert ams(mat, [1, 4]) == 1.0
        best, value = exhaustive_best_medoids(mat, 2)
        assert value == 1.0
        assert best.tolist() == [1, 4]

    def test_consistent_variant_respects_definition(self):
        from msclust.core import nearest_three_all

        mat = uniform_instance(15, seed=4)
        medoids = np.array([2, 9, 13])
        rng = np.random.default_rng(0)
        variant = consistent_variant(mat, medoids, rng)
        labels = nearest_three_all(mat, medoids).n1
        same = labels[:, None] == labels[None, :]
        assert np.all(variant[same] <= mat[same])
        assert np.all(variant[~same] >= mat[~same])
        assert np.array_equal(variant, variant.T)
        assert np.all(np.diag(variant) == 0)

    def test_permuted_instance_preserves_ams(self):
        mat = uniform_instance(12, seed=5)
        medoids = np.array([0, 4, 8])
        perm = np.random.default_rng(2).permutation(12)
        pm, pmed = permuted_instance(mat, medoids, perm)
        assert ams(pm, pmed) == pytest.approx(ams(mat, medoids), abs=1e-12)

    def test_suite_passes_on_random_instances(self):
        for trial in range(10):
            mat = uniform_instance(10, seed=60 + trial)
            report = axiom_suite(mat, np.array([0, 3, 7]), seed=trial)
            assert report.passed
