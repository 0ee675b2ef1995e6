from itertools import combinations

import numpy as np
import pytest

from msclust import (
    ams,
    build_matrix,
    medoid_silhouette,
    silhouette,
)
from msclust.core import nearest_three_all
from msclust.silhouette import SilhouetteReport, plot_data_csv, silhouette_plot_data

from helpers import uniform_instance


def brute_silhouette(matrix, labels):
    """Independent direct implementation of the full Silhouette."""
    labels = np.asarray(labels)
    n = len(matrix)
    out = np.zeros(n)
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = np.mean([matrix[i, j] for j in own])
        b = min(
            np.mean([matrix[i, j] for j in range(n) if labels[j] == c])
            for c in set(labels.tolist()) - {labels[i]}
        )
        if max(a, b) > 0:
            out[i] = (b - a) / max(a, b)
    return out


class TestFullSilhouette:
    def test_line_example(self, line):
        # frozen from the brute-force definition: a/b means per point
        rep = silhouette(line, [0, 0, 1, 1])
        expected = [9.5 / 10.5, 8.5 / 9.5, 8.5 / 9.5, 9.5 / 10.5]
        assert rep.per_point == pytest.approx(expected)
        assert rep.mean == pytest.approx(0.8997493734335839)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(6, 25))
            mat = uniform_instance(n, seed=50 + trial)
            labels = rng.integers(0, 3, size=n)
            if len(set(labels.tolist())) < 2:
                continue
            rep = silhouette(mat, labels)
            assert rep.per_point == pytest.approx(brute_silhouette(mat, labels))

    def test_interleaved_pairs_score_negative(self):
        # each cluster holds one point from each coincident pair, so the
        # other cluster is on average closer: a = 1, b = 0.5, s = -0.5
        mat = build_matrix([[0.0], [0.0], [1.0], [1.0]])
        rep = silhouette(mat, [0, 1, 0, 1])
        assert rep.per_point == pytest.approx([-0.5, -0.5, -0.5, -0.5])

    def test_singleton_cluster_is_zero(self, line):
        rep = silhouette(line, [0, 0, 0, 1])
        assert rep.per_point[3] == 0.0

    def test_requires_two_clusters(self, line):
        with pytest.raises(ValueError):
            silhouette(line, [0, 0, 0, 0])

    def test_mean_is_mean(self, line):
        rep = silhouette(line, [0, 0, 1, 1])
        assert rep.mean == pytest.approx(rep.per_point.mean(), abs=1e-12)


class TestMedoidSilhouette:
    def test_line_example(self, line):
        rep = medoid_silhouette(line, [0, 2])
        assert rep.per_point == pytest.approx([1.0, 8 / 9, 1.0, 10 / 11])
        assert rep.mean == pytest.approx(0.9494949494949495)

    def test_equidistant_is_zero(self):
        mat = build_matrix([[0.0], [2.0], [1.0]])
        rep = medoid_silhouette(mat, [0, 1])
        assert rep.per_point[2] == 0.0

    def test_duplicates_give_one(self):
        mat = build_matrix([[0.0], [0.0], [5.0], [5.0]])
        rep = medoid_silhouette(mat, [0, 1])
        assert rep.per_point[0] == 1.0
        assert rep.per_point[1] == 1.0

    def test_values_in_unit_interval(self):
        for trial in range(10):
            mat = uniform_instance(20, seed=trial)
            rep = medoid_silhouette(mat, [0, 5, 9])
            assert np.all(rep.per_point >= 0)
            assert np.all(rep.per_point <= 1)


class TestSimplifiedSilhouette:
    """The simplified Silhouette with nearest-medoid assignment is the
    Medoid Silhouette."""

    def test_line_example(self, line):
        rep = medoid_silhouette(line, [0, 2])
        assert rep.per_point == pytest.approx([1.0, 8 / 9, 1.0, 10 / 11])

    def test_all_but_one_medoids(self):
        mat = uniform_instance(5, seed=9)
        rep = medoid_silhouette(mat, [0, 1, 2, 3])
        assert np.all(rep.per_point[:4] == 1.0)


class TestAmsProperties:
    def test_scale_invariance(self, line):
        for lam in (0.5, 3.0, 1e6):
            assert ams(line * lam, [0, 2]) == ams(line, [0, 2])

    def test_argmax_equals_argmin_relative_loss(self):
        mat = uniform_instance(9, seed=4)
        best_ams = max(
            (ams(mat, np.array(s)), s) for s in combinations(range(9), 3)
        )
        def mean_ratio(subset):
            c = nearest_three_all(mat, np.array(subset))
            return np.mean(np.where(c.d2 > 0, c.d1 / c.d2, 0.0))
        best_ratio = min(
            (mean_ratio(s), s) for s in combinations(range(9), 3)
        )
        assert best_ams[1] == best_ratio[1]

    def test_permutation_invariance(self):
        mat = uniform_instance(12, seed=8)
        medoids = np.array([2, 5, 11])
        base = ams(mat, medoids)
        rng = np.random.default_rng(1)
        perm = rng.permutation(12)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(12)
        assert ams(mat[np.ix_(inv, inv)], perm[medoids]) == pytest.approx(base, abs=1e-12)


class TestPlotData:
    def test_descending_within_group(self):
        rep = medoid_silhouette(build_matrix([[0], [1], [3]]), [0, 2])
        rows = silhouette_plot_data(rep, [0, 0, 1])
        widths = [w for lab, _, w in rows if lab == 0]
        assert widths == sorted(widths, reverse=True)

    def test_groups_ordered(self, line):
        rep = medoid_silhouette(line, [0, 2])
        rows = silhouette_plot_data(rep, [0, 0, 1, 1])
        assert [lab for lab, _, _ in rows] == [0, 0, 1, 1]
        assert len(rows) == 4
        rows = silhouette_plot_data(rep, ["b", "b", "a", "a"])
        assert [(lab, o) for lab, o, _ in rows] == [("a", 2), ("a", 3), ("b", 0), ("b", 1)]

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_tied_widths_keep_label_width_index_order(self, seed):
        # ties within and across labels, with -0.0 beside 0.0
        if seed is None:
            widths = np.array([0.5, 0.0, -0.0, 0.5, -0.25, 0.0, 1.0, -0.0, 0.5, -0.25])
            labels = [1, 0, 1, 0, 1, 1, 0, 0, 1, 0]
        else:
            rng = np.random.default_rng(seed)
            widths = rng.choice([-0.0, 0.0, 0.5, -0.25, 1.0], size=40)
            labels = rng.integers(0, 3, size=40).tolist()
        rows = silhouette_plot_data(SilhouetteReport(widths, float(widths.mean())), labels)
        expected = sorted(((lab, o, float(w)) for o, (lab, w) in enumerate(zip(labels, widths))),
                          key=lambda r: (r[0], -r[2], r[1]))
        # repr tells -0.0 from 0.0 and a numpy scalar from a Python one
        assert list(map(repr, rows)) == list(map(repr, expected))

    def test_length_mismatch(self, line):
        rep = medoid_silhouette(line, [0, 2])
        with pytest.raises(ValueError):
            silhouette_plot_data(rep, [0, 0, 1])

    def test_csv_header(self, line):
        rep = medoid_silhouette(line, [0, 2])
        text = plot_data_csv(silhouette_plot_data(rep, [0, 0, 1, 1]))
        assert text.startswith("label,point,width\n")
        assert len(text.strip().splitlines()) == 5
