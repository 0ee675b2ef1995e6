import numpy as np
import pytest

from msclust import (
    InputError,
    MatrixError,
    MedoidError,
    build_matrix,
    init_build,
    init_random,
)
from msclust import core
from msclust.core import check_matrix, load_matrix_csv, load_points_csv
from msclust.oracle import nearest_three

from helpers import OVERFLOW_IDS, OVERFLOWS, uniform_instance


class TestBuildMatrix:
    def test_line_euclidean(self, line):
        assert line[0, 2] == 10.0
        assert line[1, 2] == 9.0

    def test_duplicated_point_gives_zero(self):
        m = build_matrix([[1.0, 2.0]] * 3)
        assert np.all(m == 0)

    def test_three_four_five(self):
        m = build_matrix([[0, 0], [3, 4], [0, 1]])
        assert m[0, 1] == pytest.approx(5.0)

    def test_metrics(self):
        pts = [[0, 0], [1, 1], [2, 0]]
        assert build_matrix(pts, "manhattan")[0, 1] == 2.0
        assert build_matrix(pts, "sq-euclidean")[0, 1] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            build_matrix([[0, 0], [1], [2, 2]])

    def test_non_finite(self):
        with pytest.raises(InputError):
            build_matrix([[0.0], [np.nan], [1.0]])

    def test_too_few_points(self):
        with pytest.raises(InputError):
            build_matrix([[0.0], [1.0]])

    def test_flat_points_have_one_coordinate(self):
        flat, column = build_matrix([0, 1, 10, 11]), build_matrix([[0], [1], [10], [11]])
        assert flat.tobytes() == column.tobytes()

    @pytest.mark.parametrize("points", [5, np.zeros((3, 2, 2))], ids=["0-d", "3-d"])
    def test_points_must_be_a_list_of_vectors(self, points):
        with pytest.raises(InputError, match="points must be a list of same-length vectors"):
            build_matrix(points)

    @pytest.mark.parametrize("metric,points", OVERFLOWS, ids=OVERFLOW_IDS)
    def test_an_overflowing_distance_is_an_input_error(self, metric, points):
        with pytest.raises(InputError, match=f"a {metric} distance overflows float64"):
            build_matrix(points, metric)


class TestCheckMatrix:
    def test_asymmetric_rejected(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        with pytest.raises(MatrixError):
            check_matrix(m)

    def test_nonzero_diagonal_rejected(self):
        m = np.ones((3, 3))
        with pytest.raises(MatrixError):
            check_matrix(m)

    def test_negative_rejected(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = -1.0
        with pytest.raises(MatrixError):
            check_matrix(m)

    def test_nan_is_reported_before_a_negative_entry(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = -1.0
        m[2, 3] = m[3, 2] = np.nan
        with pytest.raises(MatrixError, match="non-finite"):
            check_matrix(m)

    def test_negative_infinity_is_non_finite(self):
        m = np.zeros((3, 3))
        m[0, 2] = m[2, 0] = -np.inf
        with pytest.raises(MatrixError, match="non-finite"):
            check_matrix(m)

    def test_asymmetry_in_the_last_row_block_rejected(self, monkeypatch):
        # blocks of rows 0-2, 3-5 and 6-8: the pair (7, 8) is in the last
        n = 9
        monkeypatch.setattr(core, "SCAN_BUDGET", 3 * n)
        m = uniform_instance(n, seed=4)
        check_matrix(m)
        m[7, 8] += 1.0
        with pytest.raises(MatrixError, match="not symmetric"):
            check_matrix(m)

    def test_negative_zeros_pass(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = m[1, 1] = -0.0
        assert check_matrix(m) is m


class TestNearestThree:
    def test_line_example(self, line):
        rec = nearest_three(line, [0, 2], 1)
        assert (rec.n1, rec.d1) == (0, 1.0)
        assert (rec.n2, rec.d2) == (1, 9.0)
        assert rec.d3 == np.inf

    def test_medoid_itself(self, line):
        rec = nearest_three(line, [0, 2], 2)
        assert rec.d1 == 0.0
        assert rec.n1 == 1

    def test_three_medoids(self, line):
        rec = nearest_three(line, [0, 1, 2], 3)
        assert (rec.d1, rec.d2, rec.d3) == (1.0, 10.0, 11.0)
        assert rec.n1 == 2
        assert rec.n2 == 1

    def test_matches_full_sort_on_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(6, 40))
            mat = uniform_instance(n, seed=trial)
            k = int(rng.integers(2, min(n, 9)))
            medoids = init_random(n, k, seed=trial)
            for o in range(n):
                rec = nearest_three(mat, medoids, o)
                dists = np.sort(mat[o, medoids])
                assert rec.d1 == dists[0]
                assert rec.d2 == dists[1]
                if k > 2:
                    assert rec.d3 == dists[2]
                assert rec.n1 != rec.n2
                assert mat[o, medoids[rec.n1]] == rec.d1
                assert mat[o, medoids[rec.n2]] == rec.d2


class TestInitRandom:
    def test_deterministic(self):
        assert np.array_equal(init_random(4, 2, 7), init_random(4, 2, 7))

    def test_distinct_in_range(self):
        m = init_random(4, 3, 123)
        assert len(set(m.tolist())) == 3
        assert all(0 <= i < 4 for i in m)

    def test_k_too_large(self):
        with pytest.raises(MedoidError):
            init_random(4, 4, 0)

    def test_coverage_smoke(self):
        seen = set()
        for seed in range(200):
            seen.update(init_random(6, 2, seed).tolist())
        assert seen == set(range(6))


class TestInitBuild:
    def test_line_first_medoid(self, line):
        assert init_build(line, 2)[0] == 1

    def test_line_second_medoid(self, line):
        assert init_build(line, 2)[1] == 2

    def test_all_zero_matrix(self):
        m = np.zeros((4, 4))
        assert init_build(m, 2).tolist() == [0, 1]

    def test_permutation_invariant_distances(self):
        mat = uniform_instance(15, seed=3)
        medoids = init_build(mat, 4)
        rng = np.random.default_rng(0)
        perm = rng.permutation(15)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(15)
        pmat = mat[np.ix_(inv, inv)]
        pmedoids = init_build(pmat, 4)
        base = sorted(np.min(mat[:, medoids], axis=1).tolist())
        permuted = sorted(np.min(pmat[:, pmedoids], axis=1).tolist())
        assert base == pytest.approx(permuted)


class TestCsvLoading:
    def test_points_roundtrip(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y\n0,0\n3,4\n0,1\n")
        pts = load_points_csv(str(p))
        assert pts.shape == (3, 2)

    def test_matrix_roundtrip(self, tmp_path, line):
        p = tmp_path / "mat.csv"
        p.write_text("\n".join(",".join(str(float(v)) for v in row) for row in line))
        assert np.array_equal(load_matrix_csv(str(p)), line)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,0\n1,oops\n2,2\n")
        with pytest.raises(InputError, match="row 2"):
            load_points_csv(str(p))

    def test_header_has_no_numeric_token(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x, y label\n0,0\n3,4\n")
        assert load_points_csv(str(p)).tolist() == [[0.0, 0.0], [3.0, 4.0]]

    def test_partly_numeric_first_row_is_not_a_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("abc,1\n0,0\n3,4\n0,1\n")
        with pytest.raises(InputError, match="row 1"):
            load_points_csv(str(p))

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("0,0\n1\n")
        with pytest.raises(InputError, match="row 2"):
            load_points_csv(str(p))
