"""Dissimilarity matrices, nearest-medoid queries, and initialization.

All optimizers in this package operate on a dense symmetric n x n
dissimilarity matrix with zero diagonal. Metric axioms are not required;
the triangle inequality may fail.

Tie-breaking convention used throughout the package: the lowest point
index / lowest medoid position wins. This keeps every algorithm
deterministic, which the cross-algorithm equivalence tests rely on.

Loops over the rows of an n x n array (the distance kernel in
``build_matrix``, BUILD in ``init_build`` and the swap scan in
``fastmsc``) work on blocks of ``block_rows(n)`` rows, so each
temporary holds at most SCAN_BUDGET distances whatever n is. The
package needs numpy only; where a C compiler is at hand, ``fastmsc``
builds its scan kernel from ``_scan.c`` on first use (``msclust.cscan``),
with the same results, and the CSV loaders read a strict file with the
kernel's ``parse_csv``, with ``float()``'s values.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass

import numpy as np

METRICS = ("euclidean", "sq-euclidean", "manhattan")

# distances per row block: 2**15 float64 values take 256 KiB
SCAN_BUDGET = 1 << 15

# minimum gain for a swap to count as a strict improvement; avoids
# cycling on floating-point ties
EPS_GAIN = 1e-12

DEFAULT_MAX_ITER = 1000

TINY = np.finfo(float).smallest_subnormal  # the smallest positive float64


class MatrixError(ValueError):
    """The dissimilarity matrix violates a structural invariant."""


class MedoidError(ValueError):
    """Invalid medoid set (wrong size, duplicates, out of range)."""


class InputError(ValueError):
    """Malformed input: a bad file row, bad points, labels or metric."""


def safe_ratio_arr(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise a / max(b, TINY): a / b where b > 0 (bit for bit, as no
    positive float64 is below TINY), else a.

    Wherever ratios appear in the Medoid Silhouette formulas, 0 <= a <= b
    holds, so b == 0 forces a == 0: a point with zero distance to two
    medoids has a perfect silhouette. Only a -0.0 matrix entry can make the
    result -0.0 rather than 0. b may be +inf (the d3 sentinel for k == 2),
    and the ratio is 0 then. Both are float64 arrays; the result is
    written into out where it is given.
    """
    return np.divide(a, np.maximum(b, TINY), out=out)


def block_rows(n: int) -> int:
    """Rows of n distances per block: as many as fit in SCAN_BUDGET."""
    return max(1, SCAN_BUDGET // n)


def real_array(values, error: type[ValueError], what: str) -> np.ndarray:
    """values as a float64 array, not copied if it is one already. Raises
    error(what) unless numpy reads an integer or float array: booleans,
    strings, bytes, complex values, dates, objects and ragged lists fail."""
    try:
        a = np.asarray(values)
    except ValueError as exc:  # a ragged nested list
        raise error(f"{what} ({exc})") from None
    if a.dtype.kind not in "iuf":
        raise error(f"{what} (dtype {a.dtype})")
    return a.astype(float, copy=False)


def label_codes(labels) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(labels, return_inverse=True) of a flat labeling. Raises InputError
    for nested, ragged or scalar labels and for labels numpy cannot sort."""
    try:
        a = np.asarray(labels)
        if a.ndim == 1:  # return_inverse keeps numpy 2 from importing numpy.ma
            return np.unique(a, return_inverse=True)
    except ValueError:  # a ragged nested list
        pass
    except TypeError:
        raise InputError("labels must be mutually comparable") from None
    raise InputError("labels must be a flat list")


def square_matrix(values) -> np.ndarray:
    """values as a square real_array. Raises MatrixError for a non-real
    dtype or a non-square shape; it reads no value, so it costs nothing on
    an array check_matrix passed."""
    m = real_array(values, MatrixError, "matrix is not numeric")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_matrix(values) -> np.ndarray:
    """Validate and return a dissimilarity matrix as a float64 array.

    Raises MatrixError unless the matrix is square, finite, non-negative,
    exactly symmetric, and zero on the diagonal. A NaN reaches the min and
    the max, so it is reported as non-finite before any negative entry;
    symmetry is compared in row blocks of the upper triangle.
    """
    m = square_matrix(values)
    lo, hi = m.min(initial=0.0), m.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise MatrixError("matrix contains non-finite values")
    if lo < 0:
        raise MatrixError("matrix contains negative dissimilarities")
    s = block_rows(len(m) or 1)
    for i in range(0, len(m), s):
        if (m[i:i + s, i:] != m[i:, i:i + s].T).any():
            raise MatrixError("matrix is not symmetric")
    if np.any(np.diag(m) != 0):
        raise MatrixError("matrix diagonal is not zero")
    return m


def check_integers(**values) -> None:
    """Raise MedoidError unless every value is an integer (a Python or
    numpy int; a float such as 3.0 is not one, nor is a bool)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise MedoidError(f"{name} must be an integer, got {value!r}")


def check_medoids(medoids, n: int) -> np.ndarray:
    """Validate a medoid set: k distinct indices in [0, n), 2 <= k < n, as
    a real_array of whole numbers (3.0 is an index; 0.5, True and '3' are
    not). Returns a new intp array, so the caller may change it."""
    m = real_array(medoids, MedoidError, "medoid indices must be integers")
    if m.ndim != 1:
        raise MedoidError("medoids must be a flat index list")
    k = len(m)
    if not 2 <= k < n:
        raise MedoidError(f"need 2 <= k < n, got k={k}, n={n}")
    if np.any(m != np.floor(m)):
        raise MedoidError("medoid indices must be integers")
    s = np.sort(m)  # not np.unique, which imports numpy.ma on numpy 2
    if (s[1:] == s[:-1]).any():
        raise MedoidError("medoid indices must be distinct")
    if np.any(m < 0) or np.any(m >= n):
        raise MedoidError("medoid index out of range")
    return m.astype(np.intp)


def build_matrix(points, metric: str = "euclidean") -> np.ndarray:
    """Pairwise dissimilarity matrix from a real_array of point vectors.

    Each entry sums the per-coordinate terms |x - y| (manhattan) or
    (x - y)**2 in coordinate order, then takes the square root for
    euclidean. d(a, b) and d(b, a) add the same terms in the same order,
    so the result is exactly symmetric with a zero diagonal, and equals
    scipy's ``squareform(pdist(...))`` bit for bit.
    """
    if not isinstance(metric, str) or metric not in METRICS:
        raise InputError(f"unknown metric {metric!r}, choose from {METRICS}")
    pts = real_array(points, InputError, "points are not numeric vectors")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InputError("points must be a list of same-length vectors")
    if len(pts) < 3:
        raise InputError(f"need at least 3 points, got {len(pts)}")
    if not np.all(np.isfinite(pts)):
        raise InputError("points contain non-finite coordinates")
    n = len(pts)
    out = np.zeros((n, n))
    buf = np.empty((block_rows(n), n))
    try:
        with np.errstate(over="raise"):
            for lo in range(0, n, len(buf)):
                hi = min(lo + len(buf), n)
                t = buf[:hi - lo]
                for col in pts.T:
                    np.subtract.outer(col[lo:hi], col, out=t)
                    if metric == "manhattan":
                        np.abs(t, out=t)
                    else:
                        np.multiply(t, t, out=t)
                    out[lo:hi] += t
    except FloatingPointError as exc:
        raise InputError(f"a {metric} distance overflows float64 ({exc})") from None
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


@dataclass
class NeighborCache:
    """Per point: the positions of its two nearest medoids and its three
    smallest medoid distances, as parallel arrays. d3 is +inf when k == 2."""

    n1: np.ndarray
    n2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


def top3(d: np.ndarray) -> NeighborCache:
    """NeighborCache of a points x medoids distance block. Ties go to the
    lower medoid position, the first minimum argmin takes from a copy in
    which each taken entry becomes +inf (so d3 = +inf when k == 2). A zero
    d3 is +0.0: which zero min returns varies with numpy's vector width,
    and the C rescan of _scan.c must give the same bits."""
    rows = np.arange(len(d))
    t = d.copy()
    n1 = t.argmin(axis=1)
    d1, t[rows, n1] = t[rows, n1], np.inf
    n2 = t.argmin(axis=1)
    d2, t[rows, n2] = t[rows, n2], np.inf
    return NeighborCache(n1, n2, d1, d2, t.min(axis=1) + 0.0)


def nearest_three_all(matrix: np.ndarray, medoids) -> NeighborCache:
    """The neighbor records of every point."""
    matrix = square_matrix(matrix)
    return top3(matrix[:, check_medoids(medoids, len(matrix))])


def init_random(n: int, k: int, seed: int) -> np.ndarray:
    """k distinct indices sampled uniformly without replacement.

    Deterministic for a fixed seed; uses numpy's PCG64 generator so
    results reproduce across builds.
    """
    check_integers(n=n, k=k, seed=seed)
    if n > np.iinfo(np.intp).max:  # numpy's sampler takes a C long
        raise MedoidError(f"n must fit in {np.dtype(np.intp)}, got {n}")
    if not 2 <= k < n:
        raise MedoidError(f"need 2 <= k < n, got k={k}, n={n}")
    if seed < 0:
        raise MedoidError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    try:
        return np.asarray(rng.choice(n, size=k, replace=False), dtype=np.intp)
    except ValueError:  # numpy: "array is too big" to size its work array
        raise MedoidError(f"cannot sample k={k} of n={n} indices") from None


def init_build(matrix: np.ndarray, k: int) -> np.ndarray:
    """Greedy BUILD initialization.

    The first medoid minimizes the total distance to all points; each
    subsequent medoid maximizes the summed reduction
    max(0, d(o, nearest chosen) - d(o, candidate)). Ties break toward
    the lower index.
    """
    matrix = square_matrix(matrix)
    check_integers(k=k)
    n = len(matrix)
    if not 2 <= k < n:
        raise MedoidError(f"need 2 <= k < n, got k={k}, n={n}")
    chosen = [int(np.argmin(matrix.sum(axis=0)))]
    dn = matrix[:, chosen[0]].copy()
    buf = np.empty((block_rows(n), n))
    reduction = np.empty(n)
    for _ in range(1, k):
        # rows are added in index order, one block at a time; the running
        # sum enters each block through its first row
        reduction.fill(0.0)
        for lo in range(0, n, len(buf)):
            hi = min(lo + len(buf), n)
            t = buf[:hi - lo]
            np.subtract(dn[lo:hi, None], matrix[lo:hi], out=t)
            np.maximum(t, 0.0, out=t)
            t[0] += reduction
            t.sum(axis=0, out=reduction)
        reduction[chosen] = -np.inf
        c = int(np.argmax(reduction))
        chosen.append(c)
        np.minimum(dn, matrix[:, c], out=dn)
    return np.asarray(chosen, dtype=np.intp)


@dataclass
class ClusteringResult:
    """Outcome of one optimizer run.

    `ams` is always the Average Medoid Silhouette of the final medoids;
    for the full-Silhouette optimizer the optimized quality is reported
    in `asw`. labels[o] is the position of o's nearest medoid.
    """

    medoids: np.ndarray
    labels: np.ndarray
    ams: float
    asw: float | None
    swaps: int
    iterations: int
    converged: bool


def csv_text(header: str, rows) -> str:
    """The header line, then each row's str() values joined by commas."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_csv_rows(path: str) -> np.ndarray:
    """The rows of a CSV file of numbers, as a 2-D float64 array.

    A regular file that parse_csv of _scan.c accepts (only numbers of the
    form [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)? between commas, spaces and tabs,
    on rows of one length) is read there. Every other file, and every file
    where the kernel did not load, is read token by token with float(),
    which gives the same values and is the only path that raises: a header
    is skipped, and a bad row is reported by its number. The file is
    opened once, and only the path that parses it reads it.
    """
    if not (isinstance(path, (str, bytes)) or hasattr(path, "__fspath__")):
        raise InputError(f"path must be a file name, got {path!r}")  # open takes an int as an fd
    try:
        fh = open(path, "r", encoding="utf-8-sig")
    except ValueError as exc:  # a NUL in the path, or a str that has no bytes form
        raise InputError(f"path cannot name a file: {exc}") from None
    with fh:
        parsed = _compiled_rows(fh.fileno())
        if parsed is not None:
            return parsed
        rows: list[list[float]] = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # float() ignores the whitespace around each token
            tokens = line.split(",")
            try:
                row = [float(t) for t in tokens]
            except ValueError as exc:
                # an optional header precedes the data and has no numeric token
                if not rows and not any(map(_is_float, tokens)):
                    continue
                raise InputError(f"row {lineno}: non-numeric value ({exc})") from None
            if rows and len(row) != len(rows[0]):
                raise InputError(
                    f"row {lineno}: expected {len(rows[0])} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise InputError("no data rows found")
    return np.asarray(rows, dtype=float)


def _compiled_rows(fd: int) -> np.ndarray | None:
    """The rows of the file open at fd by parse_csv, through a read-only map
    of the file, which leaves fd's offset alone: one pass for the shape,
    one to fill the array. None where the kernel did not load, the file is
    not a non-empty regular file (a FIFO cannot be mapped, and its bytes
    must stay for the caller) or parse_csv declines it."""
    import mmap

    from .fastmsc import loaded_kernel  # here: fastmsc imports this module

    info = os.fstat(fd)
    kernel = loaded_kernel() if stat.S_ISREG(info.st_mode) and info.st_size else None
    if kernel is None:
        return None
    try:
        mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # a file system that cannot map, or a file emptied since
        return None
    with mapped:
        text = np.frombuffer(mapped, np.uint8)
        shape, rows = np.zeros(2, np.intp), None
        if kernel.parse_csv(text.ctypes.data, len(text), shape.ctypes.data, None) == 0:
            rows = np.empty(tuple(shape))
            if kernel.parse_csv(text.ctypes.data, len(text), shape.ctypes.data,
                                rows.ctypes.data) != 0:
                rows = None
        del text  # the map closes only once no array views it
    return rows


def load_points_csv(path: str) -> np.ndarray:
    """Points CSV: one vector per row, optional header."""
    return _parse_csv_rows(path)


def load_matrix_csv(path: str) -> np.ndarray:
    """Matrix CSV: n rows of n comma-separated floats, optional header.

    The parsed matrix is validated against the dissimilarity-matrix
    invariants (MatrixError on violation).
    """
    return check_matrix(_parse_csv_rows(path))
