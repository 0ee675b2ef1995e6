"""The package boundary: what `import msclust` exports, and the three
error types that every check in the public modules raises."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import msclust
from msclust import (InputError, MatrixError, MedoidError, ams, ari, build_matrix, dynmsc,
                     fastermsc, fastmsc, init_build, init_random, medoid_silhouette,
                     nearest_three_all, nmi, pammedsil, pamsil, silhouette)
from msclust.core import check_matrix
from msclust.extval import contingency_table
from msclust.silhouette import SilhouetteReport, silhouette_plot_data

from helpers import LINE_POINTS

PUBLIC = [
    "ClusteringResult", "InputError", "MatrixError", "MedoidError",
    "SilhouetteReport", "SweepResult",
    "ams", "ari", "build_matrix", "dynmsc", "fastermsc", "fastmsc",
    "init_build", "init_random", "medoid_silhouette", "nearest_three_all",
    "nmi", "pammedsil", "pamsil", "silhouette",
]

# names that left __all__ and where they live now
MOVED = {
    "check_matrix": "msclust.core",
    "check_medoids": "msclust.core",
    "load_points_csv": "msclust.core",
    "load_matrix_csv": "msclust.core",
    "silhouette_plot_data": "msclust.silhouette",
    "axiom_suite": "msclust.oracle",
    "exhaustive_best_medoids": "msclust.oracle",
    "recompute_delta": "msclust.oracle",
}

SRC = os.path.dirname(msclust.__file__)


def test_all_is_the_papers_api():
    assert sorted(msclust.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(msclust, name) is not None


@pytest.mark.parametrize("name,module", sorted(MOVED.items()))
def test_moved_names_import_from_their_module(name, module):
    assert name not in msclust.__all__
    assert callable(getattr(importlib.import_module(module), name))


def test_import_does_not_load_the_oracle():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    code = "import sys, msclust; print('msclust.oracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_only_the_oracle_raises_a_bare_value_error():
    raisers = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"):
                raisers.append(name)
    assert set(raisers) == {"oracle.py"}


def _package_trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_one_constructor_builds_every_optimizer_result():
    builders, patched = set(), []
    for name, tree in _package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "ClusteringResult" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    builders.add((name, fn.name))
                # a result's labels and ams are set only by that constructor
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and node.attr in ("labels", "ams")):
                    patched.append((name, fn.name, node.attr))
    assert builders == {("silhouette.py", "medoid_result")}
    assert patched == []


def test_unknown_metric_is_an_input_error():
    with pytest.raises(InputError, match="unknown metric 'cosine'"):
        build_matrix(LINE_POINTS, metric="cosine")
    with pytest.raises(InputError, match="unknown metric"):
        build_matrix(LINE_POINTS, metric=np.array(["a", "b"]))


@pytest.mark.parametrize("matrix,labels,message", [
    (None, [0, 0, 1], "labels length does not match matrix size"),
    (None, [0, 0, 0, 0], "need at least 2 clusters"),
    (np.zeros((0, 0)), [], "need at least 2 clusters"),
    (None, [[0], [0], [1], [1]], "labels must be a flat list"),
    (None, [[0], [0, 1], [1], [1]], "labels must be a flat list"),
    (None, [None, 0, 1, 1], "labels must be mutually comparable"),
    (None, "0011", "labels must be a flat list"),
], ids=["length", "one-cluster", "empty", "nested", "ragged", "unsortable", "string"])
def test_silhouette_label_checks_are_input_errors(line, matrix, labels, message):
    with pytest.raises(InputError, match=message):
        silhouette(line if matrix is None else matrix, labels)


def test_plot_data_length_check_is_an_input_error():
    report = SilhouetteReport(np.zeros(4), 0.0)
    for labels, message in [([0, 0, 1], "labels and report lengths differ"),
                            ([[0], [0], [1], [1]], "labels must be a flat list"),  # nested
                            (0, "labels must be a flat list"),  # scalar
                            ([[0], [0, 1], [1], [1]], "labels must be a flat list"),  # ragged
                            ([None, 0, 1, 1], "labels must be mutually comparable"),
                            ("0011", "labels must be a flat list")]:  # one string
        with pytest.raises(InputError, match=message):
            silhouette_plot_data(report, labels)


@pytest.mark.parametrize("a,b,message", [
    ([0, 0, 1], ["x", "y"], "label lengths differ: 3 vs 2"),
    ([0], ["x"], "need at least 2 samples"),
    ([None, 1], [0, 1], "labels must be mutually comparable"),
    ([0, 1], [{}, {}], "labels must be mutually comparable"),
    ([[0], [0, 1]], [0, 1], "labels must be a flat list"),
    ([0, 1], [[0], [1]], "labels must be a flat list"),
    ([0, 1], [None, 0], "labels must be mutually comparable"),
    ("01", [0, 1], "labels must be a flat list"),
], ids=["length", "one-sample", "unsortable-a", "unsortable-b", "ragged-a", "nested-b",
        "unsortable-none-first", "string"])
def test_label_checks_are_input_errors(a, b, message):
    for measure in (contingency_table, ari, nmi):
        with pytest.raises(InputError, match=message):
            measure(a, b)


@pytest.mark.parametrize("medoids,message", [
    ([[0, 2]], "flat index list"),
    ([0, 0], "distinct"),
    ([0, 99], "out of range"),
    ([0], "need 2 <= k < n"),
], ids=["2-d", "repeated", "out-of-range", "one"])
def test_every_medoid_rule_is_a_medoid_error(line, medoids, message):
    with pytest.raises(MedoidError, match=message):
        fastmsc(line, medoids)


# the points 0, 1, 10, 11 on a line, as a nested list of ints
LINE_LIST = [[0, 1, 10, 11], [1, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]]


def _same(a, b) -> bool:
    """Equal in every field, with arrays compared by value and dtype."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


# each call on LINE_LIST, and on LINE_LIST as an int64 and a float32 array
ON_LINE = {
    "pamsil": lambda m: pamsil(m, [0, 1]),
    "pammedsil": lambda m: pammedsil(m, [0, 1]),
    "fastmsc": lambda m: fastmsc(m, [0, 1]),
    "fastermsc": lambda m: fastermsc(m, [0, 1]),
    "dynmsc": lambda m: dynmsc(m, k_max=3),
    "ams": lambda m: ams(m, [0, 2]),
    "medoid_silhouette": lambda m: medoid_silhouette(m, [0, 2]),
    "silhouette": lambda m: silhouette(m, [0, 0, 1, 1]),
    "init_build": lambda m: init_build(m, 2),
    "nearest_three_all": lambda m: nearest_three_all(m, [0, 2]),
}
LINE_FORMS = {
    "": LINE_LIST,
    "-int64": np.array(LINE_LIST, dtype=np.int64),
    "-float32": np.array(LINE_LIST, dtype=np.float32),
}


@pytest.mark.parametrize("call,matrix", [
    (call, matrix) for call in ON_LINE.values() for matrix in LINE_FORMS.values()
], ids=[name + form for name in ON_LINE for form in LINE_FORMS])
def test_a_nested_list_matrix_gives_the_array_result(call, matrix):
    assert _same(call(matrix), call(np.array(LINE_LIST, dtype=float)))


# a 30-point instance for the argument checks below
POINTS_30 = np.random.default_rng(0).random((30, 2))
NOT_NUMERIC = [[0, 1, "x"], [1, 0, 1], [2, 1, 0]]
NOT_SQUARE = np.zeros((30, 31))
# LINE_LIST with a dtype that is not integer or float; each would pass
# check_matrix after a float conversion
NOT_REAL = {
    "strings": np.array(LINE_LIST).astype(str),
    "complex": np.array(LINE_LIST) + 1j * np.array(LINE_LIST),
    "bool": np.array(LINE_LIST) > 0,
    "datetime64": np.array(LINE_LIST).astype("datetime64[s]"),
    "object": np.array(LINE_LIST, dtype=object),
}
GATED = ("ams", "fastmsc", "dynmsc", "silhouette", "init_build", "nearest_three_all")
NOT_REAL_CASES = [(lambda call=ON_LINE[name], m=m: call(m), "matrix is not numeric \\(dtype")
                  for name in GATED for m in NOT_REAL.values()]
NOT_REAL_IDS = [f"{name}-{kind}" for name in GATED for kind in NOT_REAL]


@pytest.mark.parametrize("call,message", [
    (lambda: silhouette([[0, 1], [1, 0], [2, 2]], [0, 1, 1]),
     "square matrix, got shape \\(3, 2\\)"),
    (lambda: ams(NOT_NUMERIC, [0, 1]), "not numeric"),
    (lambda: fastmsc(NOT_NUMERIC, [0, 1]), "not numeric"),
    (lambda: ams(5, [0, 1]), "square matrix, got shape \\(\\)"),
    (lambda: ams(NOT_SQUARE, [0, 1]), "square matrix, got shape \\(30, 31\\)"),
    (lambda: medoid_silhouette(NOT_SQUARE, [0, 1]), "square matrix"),
    (lambda: nearest_three_all(NOT_SQUARE, [0, 1]), "square matrix"),
    (lambda: init_build(NOT_SQUARE, 2), "square matrix"),
    (lambda: silhouette(NOT_SQUARE, [0, 1] * 15), "square matrix"),
    (lambda: ams([[0, 1], [1]], [0, 1]), "matrix is not numeric"),
    *NOT_REAL_CASES,
], ids=["silhouette-3x2", "ams-string", "fastmsc-string", "ams-scalar", "ams-30x31",
        "medoid_silhouette-30x31", "nearest_three_all-30x31", "init_build-30x31",
        "silhouette-30x31", "ams-ragged", *NOT_REAL_IDS])
def test_every_matrix_argument_passes_one_gate(call, message):
    with pytest.raises(MatrixError, match=message):
        call()


def test_non_numeric_points_are_an_input_error():
    for points in ([["a"], [1], [2]], [["0"], ["1"], ["2.5"]], np.array([[1 + 1j], [2], [3]]),
                   [[True], [False], [True]], [[0, 1], [1], [2, 3]]):
        with pytest.raises(InputError, match="points are not numeric vectors"):
            build_matrix(points)


@pytest.mark.parametrize("call,message", [
    (lambda m: init_random(30, 3, -1), "seed must be non-negative, got -1"),
    (lambda m: dynmsc(m, k_max=5, seed=-1), "seed must be non-negative, got -1"),
    (lambda m: init_random(30, 3.5, 0), "k must be an integer, got 3.5"),
    (lambda m: init_random(30, 3, 1.0), "seed must be an integer, got 1.0"),
    (lambda m: init_build(m, 3.0), "k must be an integer, got 3.0"),
    (lambda m: dynmsc(m, k_max=5.0), "k_max must be an integer, got 5.0"),
    (lambda m: dynmsc(m, k_max=5, k_min=2.0), "k_min must be an integer, got 2.0"),
    (lambda m: fastmsc(m, [0.5, 3, 7]), "medoid indices must be integers"),
    (lambda m: fastermsc(m, [0, np.nan, 7]), "medoid indices must be integers"),
    (lambda m: ams(m, ["x", 3, 7]), "medoid indices must be integers"),
    (lambda m: init_random(10, 3, seed=True), "seed must be an integer, got True"),
    (lambda m: fastmsc(m, [True, False]), "medoid indices must be integers"),
    (lambda m: fastmsc(m, np.array([False, True, True])), "medoid indices must be integers"),
    (lambda m: fastmsc(m, ["0", "3", "7"]), "medoid indices must be integers"),
    (lambda m: ams(m, [" 3", "7"]), "medoid indices must be integers"),
    (lambda m: ams(m, [3 + 1j, 7]), "medoid indices must be integers"),
    (lambda m: fastmsc(m, np.array([0, 3, 7], dtype="datetime64[D]")),
     "medoid indices must be integers"),
    (lambda m: fastmsc(m, np.array([0, 3, 7], dtype=object)), "medoid indices must be integers"),
    (lambda m: ams(m, [[0], [3, 7]]), "medoid indices must be integers"),
], ids=["init_random-seed", "dynmsc-seed", "init_random-k", "init_random-float-seed",
        "init_build-k", "dynmsc-k_max", "dynmsc-k_min", "fastmsc-half", "fastermsc-nan",
        "ams-string", "init_random-bool-seed", "fastmsc-bool-list", "fastmsc-bool-array",
        "fastmsc-numeric-strings", "ams-padded-string", "ams-complex", "fastmsc-datetime64",
        "fastmsc-object", "ams-ragged"])
def test_integer_arguments_are_checked(call, message):
    with pytest.raises(MedoidError, match=message):
        call(build_matrix(POINTS_30))


@pytest.mark.parametrize("max_iter", [2.5, 0.5, np.nan, True])
@pytest.mark.parametrize("optimizer", [
    fastmsc, fastermsc, pammedsil, pamsil,
    lambda m, _, max_iter: dynmsc(m, k_max=5, max_iter=max_iter),
], ids=["fastmsc", "fastermsc", "pammedsil", "pamsil", "dynmsc"])
def test_max_iter_must_be_an_integer(optimizer, max_iter):
    with pytest.raises(MedoidError, match="max_iter must be an integer"):
        optimizer(build_matrix(POINTS_30), [0, 3, 7], max_iter=max_iter)


def test_whole_number_float_medoids_are_indices():
    m = build_matrix(POINTS_30)
    assert _same(fastmsc(m, [0.0, 3.0, 7.0]), fastmsc(m, [0, 3, 7]))
    assert _same(init_random(np.int64(30), np.int32(3), np.uint8(2)), init_random(30, 3, 2))


@pytest.mark.parametrize("call", [
    lambda m: dynmsc(m, k_max=5),
    lambda m: fastmsc(m, [0, 3, 7]),
    lambda m: fastermsc(m, [0, 3, 7]),
], ids=["dynmsc", "fastmsc", "fastermsc"])
def test_an_optimizer_call_checks_its_matrix_once(monkeypatch, call):
    checked = []

    def counted(matrix):
        checked.append(len(matrix))
        return check_matrix(matrix)

    for module in ("msclust.dynmsc", "msclust.fastmsc"):
        monkeypatch.setattr(importlib.import_module(module), "check_matrix", counted)
    call(build_matrix(POINTS_30))
    assert checked == [30]
