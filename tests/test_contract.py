"""The error contract of the library: whatever value one argument of a
public call gets, the call either succeeds or raises InputError,
MatrixError or MedoidError. The CSV loaders may also raise OSError and
UnicodeDecodeError, which the CLI reports with exit code 2, as it does
the three errors of bad input."""

import functools
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msclust
from msclust import InputError, MatrixError, MedoidError
from msclust.core import load_matrix_csv, load_points_csv
from msclust.silhouette import silhouette_plot_data

CONTRACT = (InputError, MatrixError, MedoidError)
FILE_ERRORS = (OSError, UnicodeDecodeError)

POINTS = [[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]
MATRIX = msclust.build_matrix(POINTS)
MEDOIDS = [0, 3]
LABELS = [0, 0, 0, 1, 1, 1]
OPTIMIZER = dict(matrix=MATRIX, medoids=MEDOIDS, max_iter=3)

# each call with valid arguments, which the sweep replaces one at a time
CALLS = {
    "ams": (msclust.ams, dict(matrix=MATRIX, medoids=MEDOIDS)),
    "ari": (msclust.ari, dict(labels_a=LABELS, labels_b=LABELS)),
    "build_matrix": (msclust.build_matrix, dict(points=POINTS, metric="euclidean")),
    "dynmsc": (msclust.dynmsc, dict(matrix=MATRIX, k_max=3, k_min=2, seed=0, max_iter=3)),
    "fastermsc": (msclust.fastermsc, OPTIMIZER),
    "fastmsc": (msclust.fastmsc, OPTIMIZER),
    "init_build": (msclust.init_build, dict(matrix=MATRIX, k=2)),
    "init_random": (msclust.init_random, dict(n=6, k=2, seed=0)),
    "medoid_silhouette": (msclust.medoid_silhouette, dict(matrix=MATRIX, medoids=MEDOIDS)),
    "nearest_three_all": (msclust.nearest_three_all, dict(matrix=MATRIX, medoids=MEDOIDS)),
    "nmi": (msclust.nmi, dict(labels_a=LABELS, labels_b=LABELS)),
    "pammedsil": (msclust.pammedsil, OPTIMIZER),
    "pamsil": (msclust.pamsil, OPTIMIZER),
    "silhouette": (msclust.silhouette, dict(matrix=MATRIX, labels=LABELS)),
    "silhouette_plot_data": (
        functools.partial(silhouette_plot_data, msclust.medoid_silhouette(MATRIX, MEDOIDS)),
        dict(labels=LABELS)),
    "load_points_csv": (load_points_csv, dict(path="points.csv")),
    "load_matrix_csv": (load_matrix_csv, dict(path="matrix.csv")),
}
LOADERS = {"load_points_csv", "load_matrix_csv"}

MALFORMED = [
    None, 3, 2.5, math.nan, math.inf, -1, 10**20, "abc", b"abc", 1 + 2j, {"a": 1}, True,
    [[0, 1], [2, 3]],  # nested
    [[0], [0, 1]],  # ragged
    [None, 0, 1],  # unsortable
    [], ["a", "b", "c"], np.array(["a", "b"]), object(),
]


def _break(name: str, arg: str, value) -> str | None:
    """None if the call with arg=value keeps the contract, else what it raised."""
    fn, valid = CALLS[name]
    allowed = CONTRACT + FILE_ERRORS if name in LOADERS else CONTRACT
    try:
        fn(**{**valid, arg: value})
    except allowed:
        return None
    except Exception as exc:  # any warning too, as pytest turns warnings into errors
        return f"{name}({arg}={value!r}): {type(exc).__name__}: {exc}"
    return None


def test_every_public_function_and_argument_is_swept():
    public = {name for name in msclust.__all__ if inspect.isfunction(getattr(msclust, name))}
    assert public <= set(CALLS)
    for fn, valid in CALLS.values():
        assert list(valid) == list(inspect.signature(fn).parameters)


def test_every_malformed_argument_keeps_the_contract():
    breaks = []
    for name, (_, valid) in CALLS.items():
        for arg in valid:
            for value in MALFORMED:
                # open reads an int as a file descriptor and closes it when
                # done; test_a_descriptor_path_is_an_input_error covers those
                if name in LOADERS and isinstance(value, int) and value >= 0:
                    continue
                breaks.append(_break(name, arg, value))
    assert [b for b in breaks if b] == []


LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.floats(), st.text(max_size=2))
NESTED = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@settings(deadline=None, max_examples=100)
@given(arg=st.sampled_from(["matrix", "points", "medoids", "labels", "labels_a", "labels_b"]),
       value=st.lists(NESTED, max_size=8))
def test_random_nested_lists_keep_the_contract(arg, value):
    breaks = [_break(name, arg, value) for name, (_, valid) in CALLS.items() if arg in valid]
    assert [b for b in breaks if b] == []


def test_a_descriptor_path_is_an_input_error():
    read_end, write_end = os.pipe()
    # a load that read the pipe would reach its end rather than wait
    os.write(write_end, b"0,1\n1,0\n")
    os.close(write_end)
    try:
        for load in (load_points_csv, load_matrix_csv):
            with pytest.raises(InputError, match="path must be a file name"):
                load(read_end)
        os.fstat(read_end)  # still open
    finally:
        os.close(read_end)
