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
from msclust import (InputError, MedoidError, ams, build_matrix, dynmsc, fastermsc,
                     fastmsc, init_build, medoid_silhouette, nearest_three_all,
                     pammedsil, pamsil, silhouette)
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
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"):
                raisers.append(name)
    assert set(raisers) == {"oracle.py"}


def test_unknown_metric_is_an_input_error():
    with pytest.raises(InputError, match="unknown metric 'cosine'"):
        build_matrix(LINE_POINTS, metric="cosine")


@pytest.mark.parametrize("labels,message", [
    ([0, 0, 1], "labels length does not match matrix size"),
    ([0, 0, 0, 0], "need at least 2 clusters"),
], ids=["length", "one-cluster"])
def test_silhouette_label_checks_are_input_errors(line, labels, message):
    with pytest.raises(InputError, match=message):
        silhouette(line, labels)


def test_plot_data_length_check_is_an_input_error():
    report = SilhouetteReport(np.zeros(4), 0.0)
    with pytest.raises(InputError, match="labels and report lengths differ"):
        silhouette_plot_data(report, [0, 0, 1])


@pytest.mark.parametrize("a,b,message", [
    ([0, 0, 1], ["x", "y"], "label lengths differ: 3 vs 2"),
    ([0], ["x"], "need at least 2 samples"),
], ids=["length", "one-sample"])
def test_label_checks_are_input_errors(a, b, message):
    with pytest.raises(InputError, match=message):
        contingency_table(a, b)


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


@pytest.mark.parametrize("call", [
    lambda m: pamsil(m, [0, 1]),
    lambda m: pammedsil(m, [0, 1]),
    lambda m: fastmsc(m, [0, 1]),
    lambda m: fastermsc(m, [0, 1]),
    lambda m: dynmsc(m, k_max=3),
    lambda m: ams(m, [0, 2]),
    lambda m: medoid_silhouette(m, [0, 2]),
    lambda m: silhouette(m, [0, 0, 1, 1]),
    lambda m: init_build(m, 2),
    lambda m: nearest_three_all(m, [0, 2]),
], ids=["pamsil", "pammedsil", "fastmsc", "fastermsc", "dynmsc", "ams",
        "medoid_silhouette", "silhouette", "init_build", "nearest_three_all"])
def test_a_nested_list_matrix_gives_the_array_result(call):
    assert _same(call(LINE_LIST), call(np.array(LINE_LIST, dtype=float)))
